"""``sql.parse_sql`` against the parser it replaced (``sql_oracle``).

Every query must give the same ``SqlAst``, or the same exception class,
message and span.  Two fixed-seed generators feed both parsers: structured
queries that walk every clause with random keyword case, quoting, Unicode
digits and spaces, then insert, delete or truncate; and soups of random
tokens and stray characters.  Each test also checks that its queries reach
every outcome the parser has, so a generator that stops reaching a branch
fails instead of passing vacuously.
"""

import random

import sql_oracle
from tabreduce import sql

SPACES = (" ", " ", " ", "  ", "\t", "\n", "\x1c", "\u00a0", "\u3000", "")
DIGITS = ("0", "1", "7", "42", "\u0663", "\u09e6\u09ef", "\uff11\uff12")  # ASCII, Arabic-Indic, Bengali, fullwidth
WORDS = ("a", "b", "year", "City", "_x1", "total_wins", "t", "beijing")
FNS = ("count", "sum", "avg", "min", "max", "median", "upper")
OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")
JUNK = ("@", "^", "`", "'", '"', "''", "-", ".", "é", "$", "[", "?", "\\", "/*")

# Every outcome of ``parse_sql``: a parse, or the start of an error message.
OUTCOMES = {
    "ok", "empty query", "empty projection", "unexpected end of query",
    "expected 'select'", "expected column name", "expected ')'", "expected 'by'",
    "expected comparison operator", "expected literal", "cannot scan query",
    "LIMIT needs a positive integer", "unsupported star projection", "unsupported DISTINCT",
    "unsupported function", "unsupported multi-column projection", "unsupported OR",
    "unsupported clause",
}


def outcome(parse, query):
    try:
        return parse(query)
    except (sql.SqlSyntaxError, sql.UnsupportedQuery) as exc:
        return type(exc), str(exc), getattr(exc, "span", None)


def outcome_class(result):
    if isinstance(result, sql.SqlAst):
        return "ok"
    (name,) = [start for start in OUTCOMES if result[1].startswith(start)]
    return name


def keyword(rng, word):
    style = rng.random()
    if style < 0.5:
        return word
    if style < 0.7:
        return word.upper()
    return "".join(c.upper() if rng.random() < 0.5 else c for c in word)


def quoted(rng, body):
    quote = rng.choice("'\"")
    text = quote + body.replace(quote, quote * 2) + quote
    if rng.random() < 0.05:
        text = text[:-1]  # unterminated
    return text


def number(rng):
    text = rng.choice(DIGITS)
    if rng.random() < 0.3:
        text += "." + rng.choice(DIGITS)
    if rng.random() < 0.2:
        text = "-" + text
    return text


def column(rng):
    if rng.random() < 0.8:
        return rng.choice(WORDS)
    return quoted(rng, rng.choice(["total wins", "o'brien", 'say "hi"', ""]))


def literal(rng):
    pick = rng.random()
    if pick < 0.4:
        return number(rng)
    if pick < 0.8:
        return quoted(rng, rng.choice(["usa", "o'brien", "a\"b", "", "x y"]))
    return rng.choice(WORDS)


def structured_tokens(rng):
    """The tokens of a query that uses a random set of clauses, each
    usually well formed."""
    tokens = [keyword(rng, "select")]
    pick = rng.random()
    if pick < 0.5:
        tokens.append(column(rng))
    elif pick < 0.85:
        tokens += [keyword(rng, rng.choice(FNS)), "(", column(rng), ")"]
    else:
        tokens += rng.choice([["*"], [keyword(rng, "distinct"), "a"], ["a", ",", "b"]])
    if rng.random() < 0.85:
        tokens += [keyword(rng, "from"), rng.choice(WORDS)]
    if rng.random() < 0.7:
        tokens.append(keyword(rng, "where"))
        for i in range(rng.choice([1, 1, 1, 2, 3])):
            if i:
                tokens.append(keyword(rng, "and" if rng.random() < 0.9 else "or"))
            tokens += [column(rng), rng.choice(OPS), literal(rng)]
    if rng.random() < 0.3:
        tokens += [keyword(rng, "order"), keyword(rng, "by"), column(rng)]
        if rng.random() < 0.6:
            tokens.append(keyword(rng, rng.choice(["asc", "desc"])))
    if rng.random() < 0.3:
        tokens += [keyword(rng, "limit"), rng.choice([number(rng), "x", "'2'"])]
    if rng.random() < 0.2:
        tokens += rng.choice([[";"], [";", ";"], [keyword(rng, "group"), keyword(rng, "by"), "a"]])
    return tokens


def soup_tokens(rng):
    """Up to a dozen tokens drawn from every kind the scanner knows, and
    stray characters it does not, most often after a SELECT."""
    vocabulary = (
        "select", "from", "where", "and", "or", "order", "by", "asc", "desc", "limit",
        "distinct", *FNS, *WORDS, *OPS, "(", ")", ",", ";", "*",
    )
    tokens = [keyword(rng, "select")] if rng.random() < 0.8 else []
    for _ in range(rng.randint(0, 12)):
        pick = rng.random()
        if pick < 0.6:
            tokens.append(keyword(rng, rng.choice(vocabulary)))
        elif pick < 0.75:
            tokens.append(number(rng))
        elif pick < 0.9:
            tokens.append(literal(rng))
        else:
            tokens.append(rng.choice(JUNK))
    return tokens


def join(rng, tokens):
    text = rng.choice(["", "", " ", "\n"])
    for token in tokens:
        text += token + rng.choice(SPACES)
    return text


def mutate(rng, text):
    """The query with a character or fragment inserted or deleted, or cut
    short, or unchanged."""
    pick = rng.random()
    at = rng.randint(0, len(text))
    if pick < 0.1:
        return text[:at] + rng.choice(JUNK + SPACES + OPS + ("(", ")", ";", "1")) + text[at:]
    if pick < 0.2:
        return text[:at] + text[at + 1:]
    if pick < 0.3:
        return text[:at]
    return text


def assert_same_outcomes(queries):
    reached = set()
    for query in queries:
        expected = outcome(sql_oracle.parse_sql, query)
        assert outcome(sql.parse_sql, query) == expected, repr(query)
        reached.add(outcome_class(expected))
    return reached


def test_structured_queries_parse_as_before():
    rng = random.Random(2024)
    queries = [mutate(rng, join(rng, structured_tokens(rng))) for _ in range(14000)]
    assert assert_same_outcomes(queries) == OUTCOMES


def test_token_soups_parse_as_before():
    rng = random.Random(4048)
    queries = [mutate(rng, join(rng, soup_tokens(rng))) for _ in range(8000)]
    # the two outcomes a soup misses need four or more tokens in a set order,
    # which the structured queries hold
    assert assert_same_outcomes(queries) == OUTCOMES - {"expected ')'", "unsupported OR"}
