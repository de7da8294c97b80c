"""Exception hierarchy for the TreePi reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except``.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Invalid graph construction or access (unknown vertex, duplicate edge...)."""


class NotATreeError(GraphError):
    """An operation that requires a tree was given a non-tree graph."""

    def __init__(self, reason: str = "graph is not a tree") -> None:
        super().__init__(reason)


class SerializationError(ReproError):
    """Malformed input while parsing the text graph-database format."""


class IndexError_(ReproError):
    """Index construction or maintenance failure (e.g. querying an empty index)."""


class ConfigError(ReproError):
    """Invalid parameter combination (e.g. a support function with eta < alpha)."""


class BudgetExceeded(ReproError):
    """A query's :class:`repro.core.budget.QueryBudget` ran out mid-pipeline.

    Raised by cancellation-token checkpoints inside verification and the
    monomorphism enumerator so deep recursions unwind cleanly.  The query
    engine catches it and returns a *degraded but sound* result
    (``complete=False``) instead of propagating; user code only sees this
    exception when driving :meth:`repro.core.treepi.TreePiIndex.verify`
    or the matcher directly with a token.

    ``reason`` records which bound tripped (``"deadline"``,
    ``"verify-budget"``, or an explicit cancellation reason).
    """

    def __init__(self, reason: str = "budget exceeded") -> None:
        super().__init__(reason)
        self.reason = reason
