"""JSONL dataset loading/saving, a synthetic generator, and seeded splits.

One record per line with canonical key order (id, question, table, sql,
answers, relevant_columns, relevant_rows, annotation_status, then any extra
keys sorted).  load -> save is a byte-level fixed point for the records
the package writes, not for every record it reads: numeric ``answers``
load as strings and are saved as strings.  Splits group by table content
fingerprint: questions over the same table never straddle a split
boundary.

A synthetic table's cells come from one ``Generator.integers`` call of
shape (rows, columns), each column's bounds broadcast over the rows, one
element per cell, row-major.  numpy draws each such element as a scalar
``integers`` call would, so the stream, and the generator's state after it,
are those of one call per cell.  An instance's query template is picked by
one uniform compared against the mix's cumulative weights, built once per
``generate_synthetic`` call: ``Generator.choice``'s arithmetic and its one
draw, so the pick is the one ``choice(p=...)`` would make.

numpy is imported inside the generator and ``split`` only, so loading and
saving a dataset never loads it; ``sql`` and ``annotate`` inside the
generator only, ``annotate`` only when it annotates.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .atomicio import atomic_write
from .errors import ConfigError
from .tables import Instance, Table, format_cell, make_table, table_fingerprint

if TYPE_CHECKING:
    import numpy as np

_CANONICAL_KEYS = (
    "id", "question", "table", "sql", "answers",
    "relevant_columns", "relevant_rows", "annotation_status",
)


@dataclass(frozen=True)
class LoadError:
    line: int
    message: str


def index_set(record: dict, key: str, size: int) -> frozenset[int] | None:
    """The record's ``key`` list as a set, None when absent; TypeError for
    a value that is not a list, as JSON decodes an array (a string would
    otherwise be taken apart into its characters), and ValueError for an
    entry that is not an integer (a bool is not) in ``range(size)``."""
    indices = record.get(key)
    if indices is None:
        return None
    if type(indices) is not list:
        raise TypeError(f"{key} are a {type(indices).__name__}, not a list")
    for index in indices:
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < size:
            raise ValueError(f"{key} entry {index!r} is not an index below {size}")
    return frozenset(indices)


# The types a table's headers and rows may come in: a list, as JSON decodes
# an array.  ``instance_to_record`` hands rows on as tuples, which ``json``
# writes as arrays, so a record reads back through ``json`` only.
_LISTS = frozenset({list})
_STRINGS = frozenset({str})
_ANSWER_TYPES = frozenset({str, int, float})


def _check_shape(columns, rows) -> None:
    """TypeError unless the headers are a list of strings and the rows a
    list of lists, as JSON decodes arrays; a string or an object would
    otherwise be taken apart into its characters or keys.  Each check is one
    pass over the types."""
    if type(columns) is not list:
        raise TypeError(f"table columns are a {type(columns).__name__}, not a list")
    if not _STRINGS.issuperset(map(type, columns)):
        j, header = next((j, h) for j, h in enumerate(columns) if type(h) is not str)
        raise TypeError(f"table column {j} is a {type(header).__name__}, not a string")
    if type(rows) is not list:
        raise TypeError(f"table rows are a {type(rows).__name__}, not a list")
    if not _LISTS.issuperset(map(type, rows)):
        i, row = next((i, row) for i, row in enumerate(rows) if type(row) is not list)
        raise TypeError(f"table row {i} is a {type(row).__name__}, not a list")


def _check_cells(table: Table) -> None:
    """TypeError naming the first cell that is a list or an object.

    A decoded JSON value is a string, number, bool, null, list or object,
    and only lists and objects are unhashable, so one hash of the rows finds
    them at about half the cost of a type check per cell.
    """
    try:
        hash(table.rows)
    except TypeError:
        for i, row in enumerate(table.rows):
            for j, cell in enumerate(row):
                if not isinstance(cell, (str, int, float, type(None))):
                    raise TypeError(
                        f"table row {i} column {j} holds a {type(cell).__name__}, "
                        "not a string, number, bool or null"
                    ) from None
        raise


def _check_query(sql, answers) -> None:
    """TypeError unless ``sql`` is a string or null and ``answers`` a list
    of strings and numbers; a string of answers would otherwise be taken
    apart into its characters."""
    if sql is not None and type(sql) is not str:
        raise TypeError(f"sql is a {type(sql).__name__}, not a string or null")
    if type(answers) is not list:
        raise TypeError(f"answers are a {type(answers).__name__}, not a list")
    if not _ANSWER_TYPES.issuperset(map(type, answers)):
        j, answer = next((j, a) for j, a in enumerate(answers) if type(a) not in _ANSWER_TYPES)
        raise TypeError(f"answer {j} is a {type(answer).__name__}, not a string or number")


def record_to_instance(record: dict) -> Instance:
    """The instance a record describes; KeyError, TypeError or ValueError
    when it is malformed: headers that are not a list of strings, rows that
    are not a list of lists, a table cell that is a list or an object, an
    ``sql`` that is not a string or null, ``answers`` that are not a list
    of strings and numbers and relevance indices that are not a list of
    indices into the table included.  A record of ``instance_to_record``
    holds row tuples and reads back through ``json``, as ``load_dataset``
    reads it."""
    table_doc = record["table"]
    columns, rows = table_doc["columns"], table_doc["rows"]
    _check_shape(columns, rows)
    table = make_table(columns, rows)
    _check_cells(table)
    question = record["question"]
    if not isinstance(question, str) or not question.strip():
        raise ValueError("question must be a non-empty string")
    sql, answers = record.get("sql"), record.get("answers", [])
    _check_query(sql, answers)
    extra = {k: v for k, v in record.items() if k not in _CANONICAL_KEYS}
    return Instance(
        id=str(record["id"]),
        question=question,
        table=table,
        sql=sql,
        answers=tuple(map(str, answers)),
        relevant_columns=index_set(record, "relevant_columns", table.n_columns),
        relevant_rows=index_set(record, "relevant_rows", table.n_rows),
        annotation_status=record.get("annotation_status"),
        extra=extra,
    )


def instance_to_record(instance: Instance) -> dict:
    record: dict = {
        "id": instance.id,
        "question": instance.question,
        "table": {
            "columns": list(instance.table.columns),
            "rows": instance.table.rows,  # json writes the tuples as arrays
        },
    }
    if instance.sql is not None:
        record["sql"] = instance.sql
    record["answers"] = list(instance.answers)
    if instance.relevant_columns is not None:
        record["relevant_columns"] = sorted(instance.relevant_columns)
    if instance.relevant_rows is not None:
        record["relevant_rows"] = sorted(instance.relevant_rows)
    if instance.annotation_status is not None:
        record["annotation_status"] = instance.annotation_status
    for key in sorted(instance.extra):
        record[key] = instance.extra[key]
    return record


def check_utf8(line: str) -> str:
    """``line`` if the bytes it was read from are UTF-8, else their
    UnicodeDecodeError.  The JSON Lines readers open their files with
    ``errors="surrogateescape"``, so that a byte that is not UTF-8 spoils
    only the line holding it, and check each line here before parsing it."""
    if not line.isascii():
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    return line


def load_dataset(path) -> tuple[list[Instance], list[LoadError]]:
    """Parse a JSONL dataset; malformed lines are reported, not fatal.  A
    line that is not UTF-8 is malformed, and so is a record whose id an
    earlier record holds."""
    instances: list[Instance] = []
    errors: list[LoadError] = []
    first_lines: dict[str, int] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                instance = record_to_instance(json.loads(check_utf8(line)))
                first = first_lines.setdefault(instance.id, lineno)
                if first != lineno:
                    raise ValueError(f"id {instance.id!r} was already used on line {first}")
                instances.append(instance)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                errors.append(LoadError(line=lineno, message=str(exc)))
    return instances, errors


def save_dataset(instances: Sequence[Instance], path) -> None:
    with atomic_write(path) as fh:
        for inst in instances:  # records come from JSON or the generator: no cycles to check
            fh.write(json.dumps(instance_to_record(inst), check_circular=False) + "\n")


# ---------------------------------------------------------------------------
# Synthetic data

HEADER_WORDS = (
    "year", "city", "country", "team", "score", "points", "rank", "name",
    "venue", "coach", "wins", "losses", "attendance", "season", "league",
    "round", "result", "date", "opponent", "medal", "sport", "event",
    "time", "distance", "height", "weight", "age", "games", "goals",
    "assists", "position", "club", "nation", "champion", "winner", "total",
    "gold", "silver", "bronze", "capacity", "region", "state", "county",
    "population", "area", "budget", "revenue", "profit",
)

VALUE_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golfer",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "xray", "yankee", "zulu", "amber", "beryl",
    "coral", "dune", "ember", "fjord", "grove", "haven", "isle", "jade",
    "knoll", "lagoon", "mesa", "nook", "oasis", "pine", "quarry", "reef",
    "summit", "tarn", "vale", "wharf",
)

QUERY_TEMPLATES = ("lookup", "count", "sum", "min", "max")

_QUESTION_TEMPLATES = {
    "lookup": "which {val} where {key} is {lit}?",
    "count": "how many {val} where {key} is {lit}?",
    "sum": "sum of {val} where {key} is {lit}?",
    "min": "lowest {val} where {key} is {lit}?",
    "max": "highest {val} where {key} is {lit}?",
}


@dataclass(frozen=True)
class SynthConfig:
    n_instances: int = 100
    columns_range: tuple[int, int] = (4, 10)
    rows_range: tuple[int, int] = (5, 60)
    value_vocab_size: int = 20
    numeric_range: tuple[int, int] = (1, 40)
    template_mix: tuple[tuple[str, float], ...] = (
        ("lookup", 0.4), ("count", 0.25), ("sum", 0.2), ("min", 0.075), ("max", 0.075),
    )
    seed: int = 0
    annotate: bool = True

    def __post_init__(self) -> None:
        if self.n_instances < 0:
            raise ConfigError("n_instances must be non-negative")
        for name in ("columns_range", "rows_range", "numeric_range"):
            value = getattr(self, name)
            if len(value) != 2:
                raise ConfigError(f"{name} must be a (lo, hi) pair, got {value!r}")
        lo, hi = self.columns_range
        if not (2 <= lo <= hi <= len(HEADER_WORDS)):
            raise ConfigError("columns_range out of supported bounds")
        rlo, rhi = self.rows_range
        if not (1 <= rlo <= rhi):
            raise ConfigError("rows_range out of supported bounds")
        if not 1 <= self.value_vocab_size <= len(VALUE_WORDS):
            raise ConfigError("value_vocab_size out of supported bounds")
        nlo, nhi = self.numeric_range
        if not (0 <= nlo <= nhi):
            raise ConfigError("numeric_range must be non-negative and ordered")
        names = [name for name, _ in self.template_mix]
        if any(name not in QUERY_TEMPLATES for name in names):
            raise ConfigError(f"unknown template in mix: {names}")
        for name, weight in self.template_mix:
            if not (math.isfinite(weight) and weight >= 0):  # abs(NaN - 1.0) > 1e-9 is False
                raise ConfigError(f"template {name!r} has weight {weight!r}; "
                                  "weights must be finite and non-negative")
        if abs(sum(w for _, w in self.template_mix) - 1.0) > 1e-9:
            raise ConfigError("template mix weights must sum to 1")


def _sql_literal(value) -> str:
    if isinstance(value, (int, float)):
        return format_cell(value)
    return "'" + str(value).replace("'", "''") + "'"


def _synth_table(cfg: SynthConfig, rng: np.random.Generator) -> tuple[Table, list[bool]]:
    """A table drawn from ``rng``, and ``numeric``: a list holding, for each
    of its columns, whether it is numeric."""
    n_cols = int(rng.integers(cfg.columns_range[0], cfg.columns_range[1] + 1))
    n_rows = int(rng.integers(cfg.rows_range[0], cfg.rows_range[1] + 1))
    picks = rng.choice(len(HEADER_WORDS), size=n_cols, replace=False).tolist()
    headers = [HEADER_WORDS[i] for i in picks]

    # at least one numeric and one string column; the rest are coin flips
    numeric = rng.integers(0, 2, size=n_cols).astype(bool).tolist()
    numeric[0] = True
    numeric[1] = False
    value_pool = VALUE_WORDS[: cfg.value_vocab_size]
    nlo, nhi = cfg.numeric_range
    lo = [nlo if flag else 0 for flag in numeric]
    hi = [nhi if flag else len(value_pool) - 1 for flag in numeric]
    # the stream of one scalar call per cell, row-major (module docstring)
    rows = rng.integers(lo, hi, size=(n_rows, n_cols), endpoint=True).tolist()
    string_cols = [c for c, flag in enumerate(numeric) if not flag]
    for row in rows:
        for c in string_cols:
            row[c] = value_pool[row[c]]
    return make_table(headers, rows), numeric


def _generate_one(cfg: SynthConfig, index: int, names: list[str], cdf: list[float]) -> Instance:
    """Instance ``index`` of ``cfg``, its template picked from ``names`` by
    one uniform against their cumulative weights ``cdf``."""
    import numpy as np

    from . import sql

    rng = np.random.default_rng([cfg.seed, index])
    table, numeric = _synth_table(cfg, rng)
    headers, n_cols = table.columns, table.n_columns
    template = names[bisect_right(cdf, rng.random())]

    # value and key columns get opposite types: the filter literal then never
    # collides with the projected column's cell domain
    numeric_cols = [c for c in range(n_cols) if numeric[c]]
    string_cols = [c for c in range(n_cols) if not numeric[c]]
    if template in ("sum", "min", "max"):
        val_col = numeric_cols[int(rng.integers(0, len(numeric_cols)))]
    elif rng.integers(0, 2):
        val_col = numeric_cols[int(rng.integers(0, len(numeric_cols)))]
    else:
        val_col = string_cols[int(rng.integers(0, len(string_cols)))]
    key_pool = string_cols if numeric[val_col] else numeric_cols
    key_col = key_pool[int(rng.integers(0, len(key_pool)))]
    key_value = table.rows[int(rng.integers(0, table.n_rows))][key_col]

    projection = headers[val_col] if template == "lookup" else f"{template}({headers[val_col]})"
    query = f"select {projection} from t where {headers[key_col]} = {_sql_literal(key_value)}"
    question = _QUESTION_TEMPLATES[template].format(
        val=headers[val_col], key=headers[key_col], lit=format_cell(key_value)
    )
    result = sql.execute(sql.parse_sql(query), table)
    answers = tuple(map(format_cell, result))

    instance = Instance(
        id=f"synth-{index:05d}",
        question=question,
        table=table,
        sql=query,
        answers=answers,
    )
    if cfg.annotate:
        from . import annotate

        instance = annotate.annotate_instance(instance, target="both")
    return instance


def generate_synthetic(cfg: SynthConfig) -> list[Instance]:
    """Seed-stable synthetic instances; gold SQL always matches the answers."""
    import numpy as np

    # Generator.choice's arithmetic for a pick with probabilities p
    names = [name for name, _ in cfg.template_mix]
    weights = np.array([w for _, w in cfg.template_mix])
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    return [_generate_one(cfg, i, names, cdf) for i in range(cfg.n_instances)]


# ---------------------------------------------------------------------------
# Splits

def check_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    """``ratios`` as a tuple if they are three finite non-negative numbers
    summing to 1, else ConfigError."""
    finite = all(math.isfinite(r) and r >= 0 for r in ratios)  # abs(NaN - 1.0) > 1e-9 is False
    if len(ratios) != 3 or not finite or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("ratios must be three finite non-negative numbers summing to 1")
    return tuple(ratios)


def split(
    instances: Sequence[Instance],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[Instance], list[Instance], list[Instance]]:
    """Disjoint, exhaustive, seed-stable split by table fingerprint."""
    check_ratios(ratios)
    import numpy as np

    fingerprints = [table_fingerprint(inst.table) for inst in instances]
    keys = sorted(set(fingerprints))
    rng = np.random.default_rng(seed)
    rng.shuffle(keys)
    n = len(keys)
    cut1 = round(ratios[0] * n)
    cut2 = round((ratios[0] + ratios[1]) * n)
    assignment: dict[str, int] = {}
    for pos, key in enumerate(keys):
        assignment[key] = 0 if pos < cut1 else (1 if pos < cut2 else 2)
    parts: tuple[list[Instance], list[Instance], list[Instance]] = ([], [], [])
    for inst, fingerprint in zip(instances, fingerprints):
        parts[assignment[fingerprint]].append(inst)
    return parts
