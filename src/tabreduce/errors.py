"""Exceptions shared across the package.

``LlmError`` is the base of the endpoint client's failures (``llm`` defines
its four kinds); it lives here so that ``cli.main`` maps any of them to exit
3 without importing ``llm``, which a command loads only when it runs ``qa``.
"""


class ConfigError(ValueError):
    """A configuration value violates its documented invariant."""


class NumericalError(ArithmeticError):
    """A computation produced or received a non-finite number."""


class EmptySelectionError(ValueError):
    """An operation that needs at least one selected column got none."""


class LlmError(Exception):
    """The QA endpoint failed: refused, rate limited, unreachable or garbled."""
