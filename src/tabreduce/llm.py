"""Chat-completions client for the downstream QA reasoner, and a
deterministic offline mock of it.

Wire protocol: ``POST {endpoint}/v1/chat/completions`` with a JSON body of
``model, messages[{role,content}], temperature, max_tokens``; the answer is
``choices[0].message.content``.  429 and 5xx responses, network failures
and truncated or garbled responses retry with exponential backoff; other
4xx never retry.  The transport and the sleep function are injectable so
tests can replay recorded fixtures byte for byte.  Each failure is one of
four subclasses of ``LlmError``, which ``errors`` defines (``llm.LlmError``
names the same class), so ``cli`` maps any of them to exit 3 without
importing this module.

The mock reader takes the context table itself, never its rendered text,
with the per-row word counts of that text that the caller already holds
(:func:`tabreduce.tables.row_token_counts`).  It sees the rows whose
``Row{i}: (header,value)`` text fits its token budget after the prompt's
preamble - truncating trailing rows the way a context-window-limited model
effectively would - and reads each visible cell as it would come back from
that text (``1.0`` as ``1``, ``true`` as text, null as None), in the
columns the gold SQL references only and each distinct cell once over all
the questions of ``mock_complete_many``.  It then executes the instance's
gold SQL over the visible rows and answers correctly exactly when they
still support the query.  The truncation here is the only token-budget
truncation in the package.

The HTTP stack (``urllib.request``, and with it ``http.client``, ``ssl``
and ``email``) is imported inside ``_urllib_transport`` and the thread pool
inside ``complete_many``, so importing this module or running the mock
reader loads neither.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from . import sql as sql_mod
from .errors import ConfigError, LlmError
from .tables import Table, _walk, count_tokens, format_cell

QA_PROMPT_TEMPLATE = (
    "Answer the question using only the table. "
    "Respond with the answer value only. "
    "Question: {question} Table: {context}"
)

Transport = Callable[[str, dict, bytes], tuple[int, bytes]]


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
    """POST over ``urllib``.  A truncated or garbled response
    (``http.client.HTTPException``) raises ``ConnectionError``, an
    ``OSError``, so ``complete`` retries it as a network failure."""
    import http.client
    import urllib.error
    import urllib.request

    def post(url: str, headers: dict, body: bytes) -> tuple[int, bytes]:
        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        try:
            try:
                with urllib.request.urlopen(request, timeout=timeout) as response:
                    return response.status, response.read()
            except urllib.error.HTTPError as exc:
                return exc.code, exc.read()
        except http.client.HTTPException as exc:
            raise ConnectionError(f"bad HTTP response: {exc!r}") from exc

    return post


def extract_completion_text(body: bytes) -> str:
    try:
        doc = json.loads(body.decode("utf-8"))
        content = doc["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
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
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(lambda m: complete(m, cfg, transport, sleep), message_lists))


# ---------------------------------------------------------------------------
# Deterministic mock reader

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


def _read_back(cell):
    """The cell as the reader gets it back from its rendered text."""
    return _parse_cell(format_cell(cell))


def _visible_rows(question: str, row_counts: Sequence[int], budget_tokens: int) -> int:
    """How many leading rows of a context table the mock reader sees: the
    longest prefix whose text fits the budget together with the prompt's
    preamble.  ``row_counts`` is the table's ``tables.row_token_counts``,
    so which rows fit is judged on the whole rows' text."""
    room = budget_tokens - count_tokens(QA_PROMPT_TEMPLATE.format(question=question, context=""))
    return bisect_right(list(accumulate(row_counts)), room)


def _read_visible(table: Table, n_visible: int, columns: set[int] | frozenset[int], read: dict) -> Table:
    """The first ``n_visible`` rows of a context table as the mock reader
    reads them: the headers of ``columns`` (as they are, in table order)
    and each of their cells read back as from the rendered text.  ``read``
    is the memo of ``_read_back`` per cell key (see ``tables._walk``)."""
    headers, per_column = [], []
    for header, keys, _ in _walk(Table(table.columns, table.rows[:n_visible]), columns, _read_back, read):
        headers.append(header)
        per_column.append(list(map(read.__getitem__, keys)))
    return Table(tuple(headers), tuple(zip(*per_column)))


def mock_complete(
    question: str,
    table: Table,
    row_counts: Sequence[int],
    cfg: MockLlmConfig,
    gold_sql: str,
    gold_answers: Sequence[str],
    read: dict,
) -> str:
    """Answer by executing the gold SQL over the visible rows of the
    context table, whose per-row token counts are ``row_counts`` (see
    ``_visible_rows``).  Only the columns the SQL references are read back:
    the query resolves each of them to the same column among them as in the
    whole table, and reads no other.  ``read`` is the memo of read-back
    cells that ``mock_complete_many`` keeps over its questions."""
    n_visible = _visible_rows(question, row_counts, cfg.budget_tokens)
    if n_visible == 0:
        return "unknown"
    try:
        ast = sql_mod.parse_sql(gold_sql)
        visible = _read_visible(table, n_visible, sql_mod.referenced_columns(ast, table), read)
        result = sql_mod.execute(ast, visible)
    except (sql_mod.SqlSyntaxError, sql_mod.UnsupportedQuery, sql_mod.ExecutionError):
        return "unknown"
    if sql_mod.answers_match(result, list(gold_answers)):
        return ", ".join(gold_answers)
    return "unknown"


def mock_complete_many(
    requests: Iterable[tuple[str, Table, Sequence[int], str, Sequence[str]]],
    cfg: MockLlmConfig,
) -> list[str]:
    """``mock_complete`` of each ``(question, table, row_counts, gold_sql,
    gold_answers)``, reading each distinct cell back once per call (see
    ``tables._walk``)."""
    read: dict = {}
    return [
        mock_complete(question, table, row_counts, cfg, gold_sql, gold_answers, read)
        for question, table, row_counts, gold_sql, gold_answers in requests
    ]
