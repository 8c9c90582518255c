"""tabreduce: learn to shrink table contexts for LLM question answering."""

__version__ = "0.1.0"

from .tables import Instance, Reduction, Table  # noqa: F401
