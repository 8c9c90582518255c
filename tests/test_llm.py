import http.server
import json
import random
import socket
import threading
from pathlib import Path

import pytest

from tabreduce import cli, llm, sql
from tabreduce.errors import ConfigError
from tabreduce.llm import (
    AuthError,
    LlmConfig,
    MalformedResponse,
    MockLlmConfig,
    RateLimited,
    TransportError,
    build_request,
    complete,
    complete_many,
    extract_completion_text,
    mock_complete,
    mock_complete_many,
)
from tabreduce.tables import (
    Table,
    count_tokens,
    linearize_tables,
    make_table,
    row_token_counts,
)
from test_render_fast import oracle_parse_prompt_table, visible_table

FIXTURES = Path(__file__).parent / "fixtures"


def config(**overrides):
    defaults = dict(endpoint="https://api.example.test", model="test-model", max_tokens=64)
    defaults.update(overrides)
    return LlmConfig(**defaults)


class ScriptedTransport:
    """Returns a scripted sequence of (status, body) responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, headers, body):
        self.calls.append((url, dict(headers), bytes(body)))
        return self.responses.pop(0)


def ok_body(text="ok"):
    return json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": text}}]}
    ).encode()


class TestWireProtocol:
    def test_request_matches_golden_bytes(self):
        url, headers, body = build_request([("user", "hi")], config())
        assert body == (FIXTURES / "chat_request.golden.json").read_bytes()
        assert url == "https://api.example.test/v1/chat/completions"
        assert headers["Content-Type"] == "application/json"

    def test_response_golden_round_trip(self):
        raw = (FIXTURES / "chat_response.golden.json").read_bytes()
        assert extract_completion_text(raw) == "Beijing"
        assert json.dumps(json.loads(raw), sort_keys=True) == json.dumps(
            json.loads(raw.decode()), sort_keys=True
        )

    def test_serialization_deterministic(self):
        cfg = config()
        messages = [("system", "s"), ("user", "u")]
        assert build_request(messages, cfg) == build_request(messages, cfg)

    def test_bearer_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TABREDUCE_API_KEY", "sk-test")
        _, headers, _ = build_request([("user", "hi")], config())
        assert headers["Authorization"] == "Bearer sk-test"

    def test_no_key_no_header(self, monkeypatch):
        monkeypatch.delenv("TABREDUCE_API_KEY", raising=False)
        _, headers, _ = build_request([("user", "hi")], config())
        assert "Authorization" not in headers


class TestRetries:
    def test_two_429_then_success(self):
        transport = ScriptedTransport([(429, b""), (429, b""), (200, ok_body("fine"))])
        sleeps = []
        out = complete([("user", "x")], config(max_attempts=3, backoff_base=0.5),
                       transport=transport, sleep=sleeps.append)
        assert out == "fine"
        assert len(transport.calls) == 3
        assert sleeps == [0.5, 1.0]

    def test_401_no_retry(self):
        transport = ScriptedTransport([(401, b"")])
        with pytest.raises(AuthError):
            complete([("user", "x")], config(), transport=transport, sleep=lambda s: None)
        assert len(transport.calls) == 1

    def test_403_no_retry(self):
        transport = ScriptedTransport([(403, b"")])
        with pytest.raises(AuthError):
            complete([("user", "x")], config(), transport=transport, sleep=lambda s: None)

    def test_404_no_retry(self):
        transport = ScriptedTransport([(404, b"")])
        with pytest.raises(TransportError):
            complete([("user", "x")], config(), transport=transport, sleep=lambda s: None)
        assert len(transport.calls) == 1

    def test_rate_limit_exhaustion(self):
        transport = ScriptedTransport([(429, b"")] * 2)
        with pytest.raises(RateLimited):
            complete([("user", "x")], config(max_attempts=2), transport=transport,
                     sleep=lambda s: None)

    def test_5xx_retries_then_transport_error(self):
        transport = ScriptedTransport([(500, b""), (503, b"")])
        with pytest.raises(TransportError):
            complete([("user", "x")], config(max_attempts=2), transport=transport,
                     sleep=lambda s: None)
        assert len(transport.calls) == 2

    def test_network_error_retried(self):
        calls = {"n": 0}

        def flaky(url, headers, body):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("boom")
            return 200, ok_body("recovered")

        out = complete([("user", "x")], config(), transport=flaky, sleep=lambda s: None)
        assert out == "recovered"

    def test_malformed_response(self):
        transport = ScriptedTransport([(200, b"{\"nope\": 1}")])
        with pytest.raises(MalformedResponse):
            complete([("user", "x")], config(), transport=transport, sleep=lambda s: None)

    def test_deeply_nested_response_is_malformed(self):
        with pytest.raises(MalformedResponse, match="cannot parse completion response"):
            extract_completion_text(b"[" * 10**5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            config(max_attempts=0)
        with pytest.raises(ConfigError):
            config(temperature=-1)


def test_complete_many_order_preserved():
    def transport(url, headers, body):
        text = json.loads(body)["messages"][0]["content"]
        return 200, ok_body(f"echo:{text}")

    outs = complete_many(
        [[("user", f"m{i}")] for i in range(8)], config(), max_in_flight=3,
        transport=transport, sleep=lambda s: None,
    )
    assert outs == [f"echo:m{i}" for i in range(8)]


class LoopbackHandler(http.server.BaseHTTPRequestHandler):
    """Answers a path under ``/ok`` with 200 and any other with 500, each
    with a body, and keeps what each request sent in ``received``.  Under
    ``/short`` the response announces 500 body bytes and closes after 10,
    and under ``/garbled`` its status line is not HTTP."""

    received: list

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.received.append((self.path, self.headers["Content-Type"], body))
        if self.path.startswith("/short/"):
            self.send_response(200)
            self.send_header("Content-Length", "500")
            self.end_headers()
            self.wfile.write(ok_body("served")[:10])
            return
        if self.path.startswith("/garbled/"):
            self.wfile.write(b"garbage\r\n\r\n")
            return
        status, payload = (200, ok_body("served")) if self.path.startswith("/ok/") else (500, b"overloaded")
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """(base URL, received requests) of an HTTP server on 127.0.0.1 served
    from a thread; proxy variables are cleared so requests stay local."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    received = []
    server = http.server.HTTPServer(("127.0.0.1", 0), type("Handler", (LoopbackHandler,), {"received": received}))
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", received
    server.shutdown()
    server.server_close()
    thread.join()


class TestUrllibTransport:
    """The real transport, which every other endpoint test replaces."""

    def test_200_returns_status_and_body(self, loopback):
        base, received = loopback
        url, headers, body = build_request([("user", "hi")], config(endpoint=base + "/ok"))
        assert llm._urllib_transport(5.0)(url, headers, body) == (200, ok_body("served"))
        assert received == [("/ok/v1/chat/completions", "application/json", body)]
        assert complete([("user", "hi")], config(endpoint=base + "/ok", timeout=5.0)) == "served"

    def test_500_with_body_returns_through_http_error(self, loopback):
        base, received = loopback
        url, headers, body = build_request([("user", "hi")], config(endpoint=base + "/busy"))
        assert llm._urllib_transport(5.0)(url, headers, body) == (500, b"overloaded")
        sleeps = []
        with pytest.raises(TransportError, match="status 500"):
            complete([("user", "hi")], config(endpoint=base + "/busy", timeout=5.0), sleep=sleeps.append)
        assert sleeps == [0.5, 1.0] and len(received) == 4

    def test_closed_port_raises_os_error_and_complete_retries(self, loopback):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        cfg = config(endpoint=f"http://127.0.0.1:{port}", timeout=5.0)
        with pytest.raises(OSError):
            llm._urllib_transport(5.0)(*build_request([("user", "hi")], cfg))
        sleeps = []
        with pytest.raises(TransportError, match="network failure"):
            complete([("user", "hi")], cfg, sleep=sleeps.append)
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("path", ["/short", "/garbled"])
    def test_bad_response_raises_os_error_and_qa_exits_3(self, loopback, path, tmp_path, monkeypatch):
        base, received = loopback
        cfg = config(endpoint=base + path, timeout=5.0)
        with pytest.raises(OSError):
            llm._urllib_transport(5.0)(*build_request([("user", "hi")], cfg))
        sleeps = []
        with pytest.raises(TransportError, match="network failure"):
            complete([("user", "hi")], cfg, sleep=sleeps.append)
        assert sleeps == [0.5, 1.0] and len(received) == 4

        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({
            "id": "a", "question": "which city in 2008?",
            "table": {"columns": ["year", "city"], "rows": [[2004, "Athens"], [2008, "Beijing"]]},
        }) + "\n")
        real = llm.complete_many
        monkeypatch.setattr(llm, "complete_many", lambda prompts, qa_cfg, max_in_flight: real(
            prompts, qa_cfg, max_in_flight, sleep=sleeps.append))
        out = tmp_path / "answers.jsonl"
        assert cli.main(["qa", "--data", str(data), "--out", str(out), "--endpoint", base + path]) == 3
        assert sleeps == [0.5, 1.0] * 2 and len(received) == 7 and not out.exists()


class TestQaPrompt:
    def test_prompt_byte_stable_and_called_on_empty_context(self):
        # The QA prompt as `qa --endpoint` sends it: the template filled
        # with the question and the (here empty) reduced context.
        seen = []

        def transport(url, headers, body):
            seen.append(json.loads(body)["messages"][0]["content"])
            return 200, ok_body(" answer ")

        prompt = [("user", llm.QA_PROMPT_TEMPLATE.format(question="q?", context=""))]
        outs = complete_many([prompt, prompt], config(), max_in_flight=1,
                             transport=transport, sleep=lambda s: None)
        assert [o.strip() for o in outs] == ["answer", "answer"]
        assert seen[0] == llm.QA_PROMPT_TEMPLATE.format(question="q?", context="")
        assert seen[0] == seen[1]


def mock(question, table, cfg, gold_sql, gold_answers):
    """``mock_complete`` given the counts ``qa`` passes it and a memo of its own."""
    return mock_complete(question, table, row_token_counts([table])[0], cfg, gold_sql, gold_answers, {})


class TestMock:
    def olympics(self):
        return make_table(
            ["year", "city"],
            [[2004, "Athens"], [2008, "Beijing"], [2012, "London"]],
        )

    def test_answers_when_rows_visible(self):
        out = mock(
            "which city in 2008?", self.olympics(), MockLlmConfig(budget_tokens=10_000),
            "select city from t where year = 2008", ["Beijing"],
        )
        assert out == "Beijing"

    def test_unknown_when_relevant_row_beyond_budget(self):
        # budget covers the preamble plus roughly one row
        preamble_tokens = count_tokens(llm.QA_PROMPT_TEMPLATE.format(question="q", context=""))
        out = mock(
            "q", self.olympics(), MockLlmConfig(budget_tokens=preamble_tokens + 4),
            "select city from t where year = 2012", ["London"],
        )
        assert out == "unknown"

    def test_huge_budget_is_perfect_reader(self):
        table = self.olympics()
        for year, city in ((2004, "Athens"), (2008, "Beijing"), (2012, "London")):
            out = mock(
                "q", table, MockLlmConfig(budget_tokens=10**6),
                f"select city from t where year = {year}", [city],
            )
            assert out == city

    def test_padding_with_irrelevant_rows_is_invariant(self):
        table = self.olympics()
        padded = make_table(
            ["year", "city"],
            list(table.rows) + [[1900 + i, "Filler"] for i in range(20)],
        )
        budget = MockLlmConfig(budget_tokens=10**6)
        query = "select city from t where year = 2008"
        a = mock("q", table, budget, query, ["Beijing"])
        b = mock("q", padded, budget, query, ["Beijing"])
        assert a == b == "Beijing"

    @pytest.mark.parametrize("table", [Table((), ((), ())), Table(("a",), ())], ids=["no-columns", "no-rows"])
    def test_empty_context_is_unknown(self, table):
        out = mock("q", table, MockLlmConfig(budget_tokens=10**6), "select count(*) from t", ["0"])
        assert out == "unknown"

    @pytest.mark.parametrize("budget", [40, 10**6])
    def test_question_holding_row_anchor(self, budget):
        # a reader of the prompt text would take the question's pair for row 0
        table = make_table(["year", "city"], [[2004, "Athens"], [2008, "Rome"], [2012, "London"]])
        out = mock(
            "Which city is in Row1: (city,Rome)?", table, MockLlmConfig(budget_tokens=budget),
            "select city from t where year = 2008", ["Rome"],
        )
        assert out == "Rome"

    def test_multi_answer_join(self):
        table = make_table(["k", "v"], [["a", "x"], ["a", "y"]])
        out = mock(
            "vs for a?", table, MockLlmConfig(budget_tokens=10**6),
            "select v from t where k = 'a'", ["x", "y"],
        )
        assert out == "x, y"

    def test_parse_prompt_table_round_trip(self):
        table = make_table(["a b", "c,d"], [[1, "x, y"], [None, "z"]])
        text = linearize_tables([table])[0]
        parsed = oracle_parse_prompt_table("Prefix text " + text)
        assert parsed.columns == ("a b", "c,d")
        assert parsed.rows[0] == (1, "x, y")
        assert parsed.rows[1] == (None, "z")

    def test_awkward_values_round_trip(self):
        table = make_table(
            ["size", "name (full)", 'say "hi"', "a, b"],
            [
                ['5" screen', "tv", '""', "x"],
                ["7", "radio, portable", '"quoted"', "(y)"],
                [None, 'a"b', 'he said ""no"", twice', 2.5],
                ["  spaced  ", "(", ")", '"'],
            ],
        )
        text = linearize_tables([table])[0]
        expected = (
            ('5" screen', "tv", '""', "x"),
            (7, "radio, portable", '"quoted"', "(y)"),
            (None, 'a"b', 'he said ""no"", twice', 2.5),
            ("  spaced  ", "(", ")", '"'),
        )
        parsed = oracle_parse_prompt_table("Table: " + text)
        assert parsed.columns == table.columns
        assert parsed.rows == expected
        assert visible_table("q", table, 10**6) == Table(table.columns, expected)

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            MockLlmConfig(budget_tokens=0)


def every_column_answer(question, table, budget, gold_sql, gold_answers):
    """The mock reader as it was before it read back only the columns the
    SQL references: every visible cell of every column, parsed back from the
    budget-truncated prompt text."""
    prompt = llm.QA_PROMPT_TEMPLATE.format(question=question, context=linearize_tables([table])[0])
    visible = oracle_parse_prompt_table(prompt, budget)
    if visible is None:
        return "unknown"
    try:
        result = sql.execute(sql.parse_sql(gold_sql), visible)
    except (sql.SqlSyntaxError, sql.UnsupportedQuery, sql.ExecutionError):
        return "unknown"
    return ", ".join(gold_answers) if sql.answers_match(result, list(gold_answers)) else "unknown"


def gold_answers_of(query, table):
    """What the query returns over the whole table, as answer texts; None
    when it fails."""
    try:
        result = sql.execute(sql.parse_sql(query), table)
    except (sql.SqlSyntaxError, sql.UnsupportedQuery, sql.ExecutionError):
        return None
    return ["" if value is None else str(value) for value in result]


def random_query(rng, headers):
    """A query of the supported subset over ``headers``, naming a missing
    column now and then and a header in upper case."""
    def column():
        name = rng.choice(headers) if rng.random() < 0.95 else "missing"
        return name.upper() if rng.random() < 0.2 else name

    fn = rng.choice([None, None, "count", "sum", "min", "max", "avg"])
    query = f"select {column() if fn is None else fn + '(' + column() + ')'} from t"
    predicates = [f"{column()} {rng.choice(OPERATORS)} {rng.choice(LITERALS)}" for _ in range(rng.randint(0, 2))]
    if predicates:
        query += " where " + " and ".join(predicates)
    if rng.random() < 0.5:
        query += f" order by {column()} {rng.choice(['asc', 'desc'])}"
    if rng.random() < 0.3:
        query += f" limit {rng.randint(1, 3)}"
    return query


# Cells that read back as something else than themselves, or that a
# predicate can trip over: bools, nulls, numeric strings, integral floats.
AWKWARD_CELLS = [None, True, False, 0, 1, 7, 1.0, 2.5, -0.0, "007", "1.0", "2,008", " 3 ", "", "true", "x", "y z"]
OPERATORS = ["=", "!=", "<", ">="]
LITERALS = ["1", "2.5", "'x'", "'007'"]


class TestReferencedColumnsReader:
    """The reader reads back only the columns the gold SQL references and
    answers as the every-column reader does."""

    def table(self):
        return make_table(
            ["city", "year", "flag", "note", "code", "rank"],
            [
                ["Athens", 2004, True, None, "007", 3],
                ["Beijing", 2008, False, "", "1.0", 1],
                ["London", 2012, None, "x", "2,008", 2],
            ],
        )

    @pytest.mark.parametrize("query, answers", [
        ("select city from t where year = 2008", ["Beijing"]),
        ("select city from t order by rank asc limit 1", ["Beijing"]),
        ("select year from t where year > 2000 order by rank desc limit 2", ["2004", "2012"]),
        ("select count(city) from t where year >= 2004", ["3"]),
        ("select city from t where code = '007'", ["Athens"]),
        ("select nowhere from t", ["x"]),
        ("select city from t where nowhere = 1", ["x"]),
        ("select city from t order by nowhere", ["x"]),
        ("select city frm t", ["x"]),
    ])
    @pytest.mark.parametrize("budget", [1, 40, 10**6])
    def test_answers_as_every_column_reader(self, query, answers, budget):
        table = self.table()
        expected = every_column_answer("q?", table, budget, query, answers)
        assert mock("q?", table, MockLlmConfig(budget_tokens=budget), query, answers) == expected
        if budget == 10**6 and "nowhere" not in query and "frm" not in query:
            assert expected == ", ".join(answers)
        if budget == 1 or "nowhere" in query:
            assert expected == "unknown"

    def test_reads_back_only_referenced_columns(self, monkeypatch):
        read = []
        original = llm._read_back
        monkeypatch.setattr(llm, "_read_back", lambda cell: read.append(cell) or original(cell))
        table = self.table()
        query = "select city from t where year > 2000 order by rank desc"
        answers = ["London", "Athens", "Beijing"]
        assert mock("q?", table, MockLlmConfig(budget_tokens=10**6), query, answers) == ", ".join(answers)
        assert sorted(map(repr, read)) == sorted(repr(row[c]) for row in table.rows for c in (0, 1, 5))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables_answer_as_every_column_reader(self, seed):
        rng = random.Random(2100 + seed)
        requests, budgets, expected = [], [], []
        preamble = count_tokens(llm.QA_PROMPT_TEMPLATE.format(question="q?", context=""))
        for k in range(120):
            n_cols, n_rows = rng.randint(2, 6), rng.randint(0, 8)
            headers = [f"h{c}" for c in range(n_cols)]
            table = make_table(headers, [[rng.choice(AWKWARD_CELLS) for _ in headers] for _ in range(n_rows)])
            # most queries run on the whole table, so that many are answered
            for _ in range(30):
                query = random_query(rng, headers)
                answers = gold_answers_of(query, table)
                if k % 4 == 0 or answers is not None:
                    break
            budget = preamble + rng.choice([0, 5, 12, 30, 10**6])
            requests.append(("q?", table, row_token_counts([table])[0], query, answers or ["none"]))
            expected.append(every_column_answer("q?", table, budget, query, answers or ["none"]))
            budgets.append(budget)
        for budget in set(budgets):
            picked = [k for k, b in enumerate(budgets) if b == budget]
            got = mock_complete_many([requests[k] for k in picked], MockLlmConfig(budget_tokens=budget))
            assert got == [expected[k] for k in picked]
        answered = sum(answer != "unknown" for answer in expected)
        assert 30 < answered < len(expected) - 30


class TestReaderTruncation:
    """The mock reader's token-budget truncation of a context table,
    checked against the QA prompt's rendered text."""

    def prompt(self, table):
        text = linearize_tables([table])[0]
        return llm.QA_PROMPT_TEMPLATE.format(question="q?", context=text)

    def preamble_tokens(self):
        return count_tokens(llm.QA_PROMPT_TEMPLATE.format(question="q?", context=""))

    def test_big_budget_keeps_every_row(self):
        table = make_table(["year", "city"], [[2004, "Athens"], [2008, "Beijing"]])
        assert visible_table("q?", table, 10_000) == table

    def test_budget_zero_keeps_no_row(self):
        table = make_table(["year", "city"], [[2004, "Athens"], [2008, "Beijing"]])
        assert visible_table("q?", table, 0) is None

    def test_uniform_rows_prefix_kept(self):
        table = make_table(["a", "b"], [[i, i] for i in range(10)])
        per_row = count_tokens("Row0: (a,0), (b,0)")
        visible = visible_table("q?", table, self.preamble_tokens() + 4 * per_row)
        assert visible.rows == table.rows[:4]

    def test_budget_invariant_random(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            n_rows = rng.randint(0, 8)
            table = make_table(
                ["x", "longer header"],
                [[rng.randint(0, 99), "word " * rng.randint(1, 3)] for _ in range(n_rows)],
            )
            budget = self.preamble_tokens() + rng.randint(0, 40)
            visible = visible_table("q?", table, budget)
            kept = () if visible is None else visible.rows
            assert kept == table.rows[: len(kept)]
            if kept:
                kept_prompt = self.prompt(make_table(table.columns, kept))
                assert count_tokens(kept_prompt) <= budget
            if len(kept) < n_rows:
                kept_and_next = self.prompt(make_table(table.columns, table.rows[: len(kept) + 1]))
                assert count_tokens(kept_and_next) > budget
