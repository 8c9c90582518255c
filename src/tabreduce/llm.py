"""Chat-completions client for the downstream QA reasoner, plus the
zero-shot reduction baseline and a deterministic offline mock.

Wire protocol: ``POST {endpoint}/v1/chat/completions`` with a JSON body of
``model, messages[{role,content}], temperature, max_tokens``; the answer is
``choices[0].message.content``.  429 and 5xx responses retry with
exponential backoff; other 4xx never retry.  The transport and the sleep
function are injectable so tests can replay recorded fixtures byte for
byte.

The mock reader rebuilds a table from the ``Row{i}: (header,value)`` pairs
it can parse out of the prompt - truncating to its token budget first, the
way a context-window-limited model effectively would - then executes the
instance's gold SQL over whatever survived.  It answers correctly exactly
when the visible rows still support the query.  Pairs are read with the
quoting rule of :mod:`tabreduce.tables`: a ``"`` opens a quoted run in which
``,`` and ``)`` are literal and ``""`` stands for one ``"``.  The truncation
here is the only token-budget truncation in the package.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from . import sql as sql_mod
from .errors import ConfigError
from .tables import (
    Reduction,
    Table,
    build_column_prompt,
    build_row_prompt,
    count_tokens,
)

QA_PROMPT_TEMPLATE = (
    "Answer the question using only the table. "
    "Respond with the answer value only. "
    "Question: {question} Table: {context}"
)

Transport = Callable[[str, dict, bytes], tuple[int, bytes]]


class LlmError(Exception):
    pass


class AuthError(LlmError):
    pass


class RateLimited(LlmError):
    pass


class TransportError(LlmError):
    pass


class MalformedResponse(LlmError):
    pass


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 256
    timeout: float = 30.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    api_key_env: str = "TABREDUCE_API_KEY"

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")


@dataclass(frozen=True)
class MockLlmConfig:
    budget_tokens: int

    def __post_init__(self) -> None:
        if self.budget_tokens <= 0:
            raise ConfigError("budget_tokens must be positive")


def build_request(messages: Sequence[tuple[str, str]], cfg: LlmConfig) -> tuple[str, dict, bytes]:
    """Deterministic (url, headers, body) for a chat-completion call."""
    url = cfg.endpoint.rstrip("/") + "/v1/chat/completions"
    body = json.dumps(
        {
            "max_tokens": cfg.max_tokens,
            "messages": [{"content": text, "role": role} for role, text in messages],
            "model": cfg.model,
            "temperature": cfg.temperature,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(cfg.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    return url, headers, body


def _urllib_transport(timeout: float) -> Transport:
    def post(url: str, headers: dict, body: bytes) -> tuple[int, bytes]:
        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    return post


def extract_completion_text(body: bytes) -> str:
    try:
        doc = json.loads(body.decode("utf-8"))
        content = doc["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse(f"cannot parse completion response: {exc}") from exc
    if not isinstance(content, str):
        raise MalformedResponse("completion content is not text")
    return content


def complete(
    messages: Sequence[tuple[str, str]],
    cfg: LlmConfig,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """POST the chat request, retrying 429/5xx/network failures with
    exponential backoff; 401/403 raise immediately."""
    url, headers, body = build_request(messages, cfg)
    post = transport if transport is not None else _urllib_transport(cfg.timeout)
    last_status: int | None = None
    for attempt in range(1, cfg.max_attempts + 1):
        try:
            status, payload = post(url, headers, body)
        except OSError as exc:
            last_status = None
            if attempt == cfg.max_attempts:
                raise TransportError(f"network failure: {exc}") from exc
            sleep(cfg.backoff_base * 2 ** (attempt - 1))
            continue
        if status == 200:
            return extract_completion_text(payload)
        if status in (401, 403):
            raise AuthError(f"authentication rejected with status {status}")
        if status == 429 or status >= 500:
            last_status = status
            if attempt == cfg.max_attempts:
                break
            sleep(cfg.backoff_base * 2 ** (attempt - 1))
            continue
        raise TransportError(f"unexpected status {status}")
    if last_status == 429:
        raise RateLimited(f"rate limited after {cfg.max_attempts} attempts")
    raise TransportError(f"gave up after {cfg.max_attempts} attempts (status {last_status})")


def complete_many(
    message_lists: Sequence[Sequence[tuple[str, str]]],
    cfg: LlmConfig,
    max_in_flight: int = 4,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[str]:
    """Bounded-concurrency fan-out; results come back in request order."""
    if max_in_flight < 1:
        raise ConfigError("max_in_flight must be >= 1")
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(lambda m: complete(m, cfg, transport, sleep), message_lists))


# ---------------------------------------------------------------------------
# Zero-shot reduction baseline

def split_selection(text: str) -> list[str]:
    """Parse a completion like ``year, city @`` into selected item names."""
    text = text.strip()
    if text.endswith("@"):
        text = text[:-1].strip()
    if not text:
        return []
    items: list[str] = []
    current: list[str] = []
    in_quotes = False
    for ch in text:
        if ch == '"':
            in_quotes = not in_quotes
            continue
        if ch == "," and not in_quotes:
            items.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    items.append("".join(current).strip())
    return [item for item in items if item]


_ROW_NAME_RE = re.compile(r"^(?:row\s*)?(\d+)$", re.IGNORECASE)


def llm_reduce_baseline(
    question: str,
    table: Table,
    cfg: LlmConfig,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Reduction, int]:
    """Ask the endpoint to pick relevant columns, then rows over them.

    Unparseable selections are dropped; the second return value counts
    those warnings.
    """
    warnings = 0
    completion = complete([("user", build_column_prompt(question, table))], cfg, transport, sleep)
    columns: set[int] = set()
    for name in split_selection(completion):
        idx = table.column_index(name)
        if idx is None:
            warnings += 1
        else:
            columns.add(idx)

    rows: set[int] = set()
    if columns:
        completion = complete(
            [("user", build_row_prompt(question, table, frozenset(columns)))],
            cfg, transport, sleep,
        )
        for name in split_selection(completion):
            match = _ROW_NAME_RE.match(name)
            if match is None:
                warnings += 1
                continue
            idx = int(match.group(1))
            if 0 <= idx < table.n_rows:
                rows.add(idx)
            else:
                warnings += 1
    return Reduction(columns=frozenset(columns), rows=frozenset(rows)), warnings


# ---------------------------------------------------------------------------
# Deterministic mock reader

_ROW_ANCHOR_RE = re.compile(r"Row\d+: ")

_QUOTED = r'"(?:[^"]++|"")*+"'
# One pair per match, scanning left to right from each ``(``: groups are the
# header, the separating comma (empty when the pair closed without one) and
# the value.  A ``(`` whose pair never closes - the text ends first, maybe
# inside quotes - matches the last alternative, which takes the rest of the
# text, so the scan stops there.  The quantifiers are possessive so that a
# pair that fails to close is not retried with its runs split another way:
# without them a long unclosed pair takes time exponential in its length.
# Python's ``re`` accepts possessive quantifiers from 3.11 on.
_PAIR_RE = re.compile(
    rf'\(((?:[^",)]++|{_QUOTED})*+)(?:(,)((?:[^")]++|{_QUOTED})*+))?\)|\([\s\S]*'
)
_QUOTED_RUN_RE = re.compile(r'"((?:[^"]++|"")*+)"')


def _unquote(field: str) -> str:
    if '"' not in field:
        return field
    return _QUOTED_RUN_RE.sub(lambda m: m.group(1).replace('""', '"'), field)


def _parse_pairs(segment: str) -> list[tuple[str, str]]:
    """The closed ``(header,value)`` pairs of a segment, unquoted."""
    return [
        (_unquote(header), _unquote(value))
        for header, comma, value in _PAIR_RE.findall(segment)
        if comma
    ]


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_prompt_table(prompt: str, budget_tokens: int | None = None) -> Table | None:
    """Rebuild the table linearized inside a prompt.

    The prompt is cut into segments at each ``Row{i}: ``.  With a budget,
    segments are kept from the first on while the preamble and the kept
    segments fit, mirroring a reader that never sees past its window; no
    segment after the first that overflows is sliced.  A segment's pairs
    must name the same headers as the first parsed segment's, or the row is
    skipped.
    """
    anchors = [m.start() for m in _ROW_ANCHOR_RE.finditer(prompt)]
    if not anchors:
        return None
    ends = anchors[1:] + [len(prompt)]
    used = count_tokens(prompt[: anchors[0]]) if budget_tokens is not None else 0
    segments: list[str] = []
    for start, end in zip(anchors, ends):
        segment = prompt[start:end]
        if budget_tokens is not None:
            used += count_tokens(segment)
            if used > budget_tokens:
                break
        segments.append(segment)

    cells: dict[str, object] = {}
    rows: list[tuple] = []
    headers: tuple[str, ...] | None = None
    for segment in segments:
        pairs = _parse_pairs(segment)
        if not pairs:
            continue
        names, texts = zip(*pairs)
        if headers is None:
            headers = names
        elif names != headers:
            continue  # malformed row; ignore
        for text in set(texts).difference(cells):
            cells[text] = _parse_cell(text)
        rows.append(tuple(map(cells.__getitem__, texts)))
    if headers is None:
        return None
    return Table(headers, tuple(rows))


def mock_complete(
    question: str,
    prompt: str,
    cfg: MockLlmConfig,
    gold_sql: str,
    gold_answers: Sequence[str],
) -> str:
    """Answer by executing the gold SQL over the prompt's visible table."""
    del question  # the gold SQL already encodes the question
    budget = cfg.budget_tokens if count_tokens(prompt) > cfg.budget_tokens else None
    table = parse_prompt_table(prompt, budget_tokens=budget)
    if table is None:
        return "unknown"
    try:
        ast = sql_mod.parse_sql(gold_sql)
        result = sql_mod.execute(ast, table)
    except (sql_mod.SqlSyntaxError, sql_mod.UnsupportedQuery, sql_mod.ExecutionError):
        return "unknown"
    if sql_mod.answers_match(result, list(gold_answers)):
        return ", ".join(gold_answers)
    return "unknown"
