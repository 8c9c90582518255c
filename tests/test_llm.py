import json
from pathlib import Path

import pytest

from tabreduce import llm
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
    llm_reduce_baseline,
    mock_complete,
    parse_prompt_table,
    split_selection,
)
from tabreduce.tables import build_row_prompt, count_tokens, linearize_rows, make_table

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


class TestReduceBaseline:
    def table(self):
        return make_table(
            ["year", "city", "country"],
            [[2004, "Athens", "Greece"], [2008, "Beijing", "China"]],
        )

    def test_parses_headers(self):
        transport = ScriptedTransport([(200, ok_body("year, city @")), (200, ok_body("Row1 @"))])
        reduction, warnings = llm_reduce_baseline(
            "q", self.table(), config(), transport=transport, sleep=lambda s: None
        )
        assert reduction.columns == frozenset({0, 1})
        assert reduction.rows == frozenset({1})
        assert warnings == 0

    def test_done_marker_alone_is_empty(self):
        transport = ScriptedTransport([(200, ok_body("@"))])
        reduction, warnings = llm_reduce_baseline(
            "q", self.table(), config(), transport=transport, sleep=lambda s: None
        )
        assert reduction.columns == frozenset()
        assert reduction.rows == frozenset()
        assert len(transport.calls) == 1  # no row call without columns

    def test_unknown_names_warned(self):
        transport = ScriptedTransport(
            [(200, ok_body("year, nonsense @")), (200, ok_body("Row0, Row9, wat"))]
        )
        reduction, warnings = llm_reduce_baseline(
            "q", self.table(), config(), transport=transport, sleep=lambda s: None
        )
        assert reduction.columns == frozenset({0})
        assert reduction.rows == frozenset({0})
        assert warnings == 3  # nonsense header, out-of-range row, unparseable row

    def test_split_selection_respects_quotes(self):
        assert split_selection('"wins, losses", year @') == ["wins, losses", "year"]


class TestMock:
    def build_prompt(self, table, question="which city in 2008?"):
        text = linearize_rows(table, frozenset(range(table.n_columns))).text
        return llm.QA_PROMPT_TEMPLATE.format(question=question, context=text)

    def olympics(self):
        return make_table(
            ["year", "city"],
            [[2004, "Athens"], [2008, "Beijing"], [2012, "London"]],
        )

    def test_answers_when_rows_visible(self):
        prompt = self.build_prompt(self.olympics())
        out = mock_complete(
            "q", prompt, MockLlmConfig(budget_tokens=10_000),
            "select city from t where year = 2008", ["Beijing"],
        )
        assert out == "Beijing"

    def test_unknown_when_relevant_row_beyond_budget(self):
        table = self.olympics()
        prompt = self.build_prompt(table)
        # budget covers the preamble plus roughly one row
        preamble_tokens = count_tokens(prompt.split("Row0:")[0])
        out = mock_complete(
            "q", prompt, MockLlmConfig(budget_tokens=preamble_tokens + 4),
            "select city from t where year = 2012", ["London"],
        )
        assert out == "unknown"

    def test_huge_budget_is_perfect_reader(self):
        table = self.olympics()
        prompt = self.build_prompt(table)
        for year, city in ((2004, "Athens"), (2008, "Beijing"), (2012, "London")):
            out = mock_complete(
                "q", prompt, MockLlmConfig(budget_tokens=10**6),
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
        a = mock_complete("q", self.build_prompt(table), budget, query, ["Beijing"])
        b = mock_complete("q", self.build_prompt(padded), budget, query, ["Beijing"])
        assert a == b == "Beijing"

    def test_unparseable_prompt_is_unknown(self):
        out = mock_complete("q", "no table here", MockLlmConfig(budget_tokens=10),
                            "select a from t", ["x"])
        assert out == "unknown"

    def test_multi_answer_join(self):
        table = make_table(["k", "v"], [["a", "x"], ["a", "y"]])
        prompt = self.build_prompt(table, "vs for a?")
        out = mock_complete(
            "q", prompt, MockLlmConfig(budget_tokens=10**6),
            "select v from t where k = 'a'", ["x", "y"],
        )
        assert out == "x, y"

    def test_parse_prompt_table_round_trip(self):
        table = make_table(["a b", "c,d"], [[1, "x, y"], [None, "z"]])
        text = linearize_rows(table, frozenset({0, 1})).text
        parsed = parse_prompt_table("Prefix text " + text)
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
        text = linearize_rows(table, frozenset(range(4))).text
        parsed = parse_prompt_table("Table: " + text)
        assert parsed.columns == table.columns
        assert parsed.rows == (
            ('5" screen', "tv", '""', "x"),
            (7, "radio, portable", '"quoted"', "(y)"),
            (None, 'a"b', 'he said ""no"", twice', 2.5),
            ("  spaced  ", "(", ")", '"'),
        )

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            MockLlmConfig(budget_tokens=0)


class TestReaderTruncation:
    """The mock reader's token-budget truncation of a QA prompt."""

    def prompt(self, table):
        text = linearize_rows(table, frozenset(range(table.n_columns))).text
        return llm.QA_PROMPT_TEMPLATE.format(question="q?", context=text)

    def preamble_tokens(self):
        return count_tokens(llm.QA_PROMPT_TEMPLATE.format(question="q?", context=""))

    def test_big_budget_keeps_every_row(self):
        table = make_table(["year", "city"], [[2004, "Athens"], [2008, "Beijing"]])
        assert parse_prompt_table(self.prompt(table), budget_tokens=10_000) == table

    def test_budget_zero_keeps_no_row(self):
        table = make_table(["year", "city"], [[2004, "Athens"], [2008, "Beijing"]])
        assert parse_prompt_table(self.prompt(table), budget_tokens=0) is None

    def test_uniform_rows_prefix_kept(self):
        table = make_table(["a", "b"], [[i, i] for i in range(10)])
        per_row = count_tokens("Row0: (a,0), (b,0)")
        parsed = parse_prompt_table(
            self.prompt(table), budget_tokens=self.preamble_tokens() + 4 * per_row
        )
        assert parsed.rows == table.rows[:4]

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
            parsed = parse_prompt_table(self.prompt(table), budget_tokens=budget)
            kept = () if parsed is None else parsed.rows
            assert kept == table.rows[: len(kept)]
            if kept:
                kept_prompt = self.prompt(make_table(table.columns, kept))
                assert count_tokens(kept_prompt) <= budget
            if len(kept) < n_rows:
                kept_and_next = self.prompt(make_table(table.columns, table.rows[: len(kept) + 1]))
                assert count_tokens(kept_and_next) > budget
