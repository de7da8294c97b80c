"""Repo-specific lint rules for the TreePi reproduction.

The lexical families, numbered like a rule catalog:

* **REPRO10x — determinism.**  The index pipeline turns graphs into
  canonical strings, feature ids and ordered reports; a sort keyed on
  ``id()`` or ``hash()`` ties them to the process or to
  ``PYTHONHASHSEED``.  Dict-order iteration has no rule: the golden
  digests of the mined output and of a saved index pin what it feeds.
* **REPRO11x — RNG hygiene.**  All randomness must flow through an
  injected, seeded ``random.Random`` so builds and benchmarks reproduce;
  module-level ``random.*`` calls share hidden global state.
* **REPRO12x — API hygiene.**  Broad exception handlers, stray prints
  outside the CLI/bench layers, and mutation of graphs owned by a built
  index (indexes assume immutability; see ``TreePiIndex._oracles``).
* **REPRO402 — contract soundness.**  A ``ContractViolation`` caught in
  ``repro.core`` without re-raise.  It sits beside REPRO121 because it
  is the same kind of check: one handler at a time.

Every rule carries ``rule_id``, ``name`` and ``rationale`` and is
registered in :data:`REGISTRY`; ``python -m repro.analysis rules`` prints
the catalog.  Suppress a single line with ``# noqa: REPRO1xx`` plus a
justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple, Type

from repro.analysis.violations import Violation

_GRAPH_MUTATORS = frozenset({"add_edge", "add_vertex"})
_DB_NAMES = frozenset({"db", "_db", "database", "_database", "_graphs"})

#: Modules allowed to ``print``: user-facing surfaces only.
_PRINT_ALLOWED_PREFIXES: Tuple[str, ...] = (
    "repro/cli",
    "repro/bench",
    "repro/analysis",
)


class FileContext:
    """Everything a rule needs to inspect one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: repo-relative module path, normalized to ``repro/...`` form so
        #: path-scoped rules work no matter where the repo is checked out.
        self.module_path = _module_path(path)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent


def _module_path(path: str) -> str:
    norm = path.replace("\\", "/")
    marker = "repro/"
    idx = norm.rfind("/" + marker)
    if idx >= 0:
        return norm[idx + 1 :]
    if norm.startswith(marker):
        return norm
    return norm


class Rule(ast.NodeVisitor):
    """Base class: one rule instance checks one file."""

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        """Override to scope a rule to particular modules."""
        return True

    def run(self) -> List[Violation]:
        self.visit(self.ctx.tree)
        return self.violations

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=self.rule_id,
                message=message,
            )
        )


REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by id."""
    return [REGISTRY[rid] for rid in sorted(REGISTRY)]


def rule_catalog() -> str:
    """Human-readable catalog for ``python -m repro.analysis rules``."""
    lines = []
    for cls in all_rules():
        lines.append(f"{cls.rule_id}  {cls.name}")
        lines.append(f"    {cls.rationale}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# REPRO10x — determinism
# ----------------------------------------------------------------------

@register
class NondeterministicSortKey(Rule):
    """REPRO103: sorting by id()/hash()."""

    rule_id = "REPRO103"
    name = "nondeterministic-sort-key"
    rationale = (
        "id() is an address (varies per run) and hash() of str is "
        "randomized; a sort keyed on either produces a different order "
        "every process. Sort by a canonical attribute (key string, size, "
        "support) instead."
    )

    _SORTERS = frozenset({"sorted", "min", "max"})

    def visit_Call(self, node: ast.Call) -> None:
        is_sorter = (
            isinstance(node.func, ast.Name) and node.func.id in self._SORTERS
        ) or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        if is_sorter:
            for kw in node.keywords:
                if kw.arg == "key" and self._bad_key(kw.value):
                    self.report(
                        kw.value,
                        "sort key based on id()/hash() is nondeterministic; "
                        "key on a canonical attribute",
                    )
        self.generic_visit(node)

    @staticmethod
    def _bad_key(value: ast.AST) -> bool:
        if isinstance(value, ast.Name) and value.id in ("id", "hash"):
            return True
        if isinstance(value, ast.Lambda):
            return any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id in ("id", "hash")
                for n in ast.walk(value.body)
            )
        return False


# ----------------------------------------------------------------------
# REPRO11x — RNG hygiene
# ----------------------------------------------------------------------

_RANDOM_ALLOWED_ATTRS = frozenset({"Random", "SystemRandom"})


@register
class ModuleRandomCall(Rule):
    """REPRO111: use of the module-level random state."""

    rule_id = "REPRO111"
    name = "module-random-call"
    rationale = (
        "random.shuffle/choice/seed/... share one hidden global generator: "
        "any other caller perturbs the stream and benchmark runs stop "
        "reproducing. Thread an explicit seeded random.Random through the "
        "public API instead (constructing random.Random is allowed)."
    )

    def run(self) -> List[Violation]:
        self._aliases = {
            alias.asname or alias.name
            for node in ast.walk(self.ctx.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "random"
        }
        if self._aliases:
            self.visit(self.ctx.tree)
        return self.violations

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self._aliases
            and node.attr not in _RANDOM_ALLOWED_ATTRS
        ):
            self.report(
                node,
                f"module-level random.{node.attr} uses hidden global state; "
                "inject a seeded random.Random",
            )
        self.generic_visit(node)


@register
class RandomFunctionImport(Rule):
    """REPRO112: importing stateful functions from random."""

    rule_id = "REPRO112"
    name = "random-function-import"
    rationale = (
        "`from random import shuffle` binds the global generator under a "
        "local name, hiding the REPRO111 hazard from review. Import the "
        "module and construct random.Random(seed)."
    )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_ALLOWED_ATTRS:
                    self.report(
                        node,
                        f"from random import {alias.name} aliases the global "
                        "generator; inject a seeded random.Random",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REPRO12x — API hygiene
# ----------------------------------------------------------------------

@register
class BroadExcept(Rule):
    """REPRO121: bare/broad exception handlers that swallow."""

    rule_id = "REPRO121"
    name = "broad-except"
    rationale = (
        "A bare `except:` (or `except Exception`) that does not re-raise "
        "turns contract violations and real bugs into silent wrong answers "
        "— fatal in a filtering pipeline whose only promise is exactness. "
        "Catch the narrow ReproError subclass, or re-raise."
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._is_broad(node.type) and not any(
            isinstance(n, ast.Raise) for b in node.body for n in ast.walk(b)
        ):
            what = "bare except" if node.type is None else "broad except"
            self.report(
                node,
                f"{what} without re-raise swallows errors; catch a narrow "
                "exception type",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(htype: Optional[ast.AST]) -> bool:
        if htype is None:
            return True
        if isinstance(htype, ast.Name):
            return htype.id in ("Exception", "BaseException")
        if isinstance(htype, ast.Tuple):
            return any(BroadExcept._is_broad(e) for e in htype.elts)
        return False


@register
class ContractSeveredByException(Rule):
    """REPRO402: a ContractViolation caught and not re-raised."""

    rule_id = "REPRO402"
    name = "contract-severed-by-exception"
    rationale = (
        "ContractViolation is a correctness signal and must re-raise "
        "through every layer of repro.core; a handler that catches it "
        "without re-raising turns a broken invariant into a quietly "
        "wrong answer that no runtime test sees, because the contracts "
        "only run under REPRO_CONTRACTS=1."
    )

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.module_path.startswith("repro/core")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._catches_contract(node.type) and not any(
            isinstance(n, ast.Raise) for n in ast.walk(node)
        ):
            self.report(
                node,
                "ContractViolation caught without re-raise; contract "
                "violations are correctness bugs and must surface, never "
                "degrade into a partial answer",
            )
        self.generic_visit(node)

    @staticmethod
    def _catches_contract(htype: Optional[ast.AST]) -> bool:
        if isinstance(htype, ast.Tuple):
            return any(
                ContractSeveredByException._catches_contract(e) for e in htype.elts
            )
        if isinstance(htype, ast.Name):
            return htype.id == "ContractViolation"
        if isinstance(htype, ast.Attribute):
            return htype.attr == "ContractViolation"
        return False


@register
class StrayPrint(Rule):
    """REPRO122: print() outside user-facing surfaces."""

    rule_id = "REPRO122"
    name = "stray-print"
    rationale = (
        "print() inside library code pollutes stdout consumed by the CLI "
        "and benchmark reports. Only repro.cli, repro.bench, repro.analysis "
        "and __main__ modules may print; elsewhere return data or raise."
    )

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        mp = ctx.module_path
        if mp.endswith("__main__.py"):
            return False
        return not mp.startswith(_PRINT_ALLOWED_PREFIXES)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.report(
                node, "print() in library code; return data or use the CLI layer"
            )
        self.generic_visit(node)


@register
class IndexGraphMutation(Rule):
    """REPRO123: mutating a graph owned by a database/index."""

    rule_id = "REPRO123"
    name = "index-graph-mutation"
    rationale = (
        "Indexes cache per-graph state (support sets, center locations, "
        "distance oracles) computed at build time; calling "
        "add_edge/add_vertex on a graph fetched from a database container "
        "silently invalidates all of it. Copy the graph, or go through the "
        "index maintenance API (insert/delete)."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _GRAPH_MUTATORS
            and self._receiver_is_owned(func.value)
        ):
            self.report(
                node,
                f"{func.attr}() on a graph owned by a database/index; copy "
                "it or use the maintenance API",
            )
        self.generic_visit(node)

    @staticmethod
    def _receiver_is_owned(receiver: ast.AST) -> bool:
        for n in ast.walk(receiver):
            if isinstance(n, ast.Subscript):
                base = n.value
                if isinstance(base, ast.Name) and base.id in _DB_NAMES:
                    return True
                if isinstance(base, ast.Attribute) and base.attr in _DB_NAMES:
                    return True
            if isinstance(n, ast.Attribute) and n.attr in ("database", "_database"):
                return True
        return False


def matches_rule_patterns(rule_id: str, patterns: Iterable[str]) -> bool:
    """True when ``rule_id`` matches any id *or prefix* in ``patterns``.

    Prefix matching lets CI select a whole family (``--select REPRO2``
    runs REPRO201..REPRO204) without enumerating members.
    """
    return any(rule_id == p or rule_id.startswith(p) for p in patterns)


def rules_for(ctx: FileContext, select: Optional[Iterable[str]] = None,
              ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate every applicable rule for one file.

    ``select``/``ignore`` entries are exact rule ids or family prefixes
    (``REPRO2`` matches every REPRO2xx rule).
    """
    selected = list(select) if select else None
    ignored = list(ignore) if ignore else []
    out: List[Rule] = []
    for cls in all_rules():
        if selected is not None and not matches_rule_patterns(cls.rule_id, selected):
            continue
        if matches_rule_patterns(cls.rule_id, ignored):
            continue
        if cls.applies_to(ctx):
            out.append(cls(ctx))
    return out
