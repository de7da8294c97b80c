"""Incremental lint cache, content-hash keyed.

Four rule families now run in CI; re-parsing and re-analyzing an
unchanged tree four times (or on every push) is pure waste.  The cache
stores, per file, the *full-rule* finding set — keyed by the file's
content hash, its path, and a run fingerprint covering every file in
the lint set plus the analyzer's own sources.  ``--select``/``--ignore``
filtering happens at read time, so one cached entry serves every family
selection (the CI matrix shares a single analysis pass).

Keying on the whole-run fingerprint is deliberate: the project model
(REPRO3xx through cross-file callees, all of REPRO4xx) depends on *other*
files, so any content change anywhere invalidates everything — correct
first, fast second.  The warm path (nothing changed) skips parsing
entirely.

Entries live under ``.repro-lint-cache/`` (one JSON file per key);
``--no-cache`` bypasses the cache, and a corrupt or mismatched entry is
treated as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.violations import Violation

__all__ = ["LintCache", "analyzer_signature", "file_digest", "run_fingerprint"]

#: Bump when the entry layout (not the rule set) changes.
_SCHEMA_VERSION = 1

_analyzer_signature: Optional[str] = None


def analyzer_signature() -> str:
    """Hash of the analysis package's own sources.

    Editing any rule, the flow model, or the program model must
    invalidate every cached finding; hashing the package sources is
    cheaper and more honest than a hand-maintained version counter.
    """
    global _analyzer_signature
    if _analyzer_signature is None:
        digest = hashlib.sha256()
        package_dir = Path(__file__).resolve().parent
        for source in sorted(package_dir.glob("*.py")):
            digest.update(source.name.encode("utf-8"))
            digest.update(source.read_bytes())
        _analyzer_signature = digest.hexdigest()
    return _analyzer_signature


def file_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def run_fingerprint(digests: Iterable[Tuple[str, str]]) -> str:
    """Fingerprint of the whole lint set: (path, content-hash) pairs
    plus the analyzer signature."""
    h = hashlib.sha256()
    h.update(analyzer_signature().encode("utf-8"))
    h.update(str(_SCHEMA_VERSION).encode("utf-8"))
    for path, digest in sorted(digests):
        h.update(path.encode("utf-8"))
        h.update(digest.encode("utf-8"))
    return h.hexdigest()


def entry_key(path: str, digest: str, fingerprint: str) -> str:
    h = hashlib.sha256()
    h.update(path.encode("utf-8"))
    h.update(digest.encode("utf-8"))
    h.update(fingerprint.encode("utf-8"))
    return h.hexdigest()


def _violation_from_dict(row: object) -> Violation:
    if not isinstance(row, dict):
        raise TypeError("violation row is not a mapping")
    return Violation(
        path=str(row["path"]),
        line=int(row["line"]),
        col=int(row["col"]),
        rule_id=str(row["rule"]),
        message=str(row["message"]),
    )


class LintCache:
    """One directory of per-file finding entries."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)

    def _entry_path(self, key: str) -> Path:
        return self._root / f"{key}.json"

    def load(
        self, key: str
    ) -> Optional[Tuple[List[Violation], List[Violation]]]:
        """The cached (kept, suppressed) full-rule findings, or None."""
        try:
            payload = json.loads(
                self._entry_path(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != _SCHEMA_VERSION:
            return None
        try:
            kept = [_violation_from_dict(r) for r in payload["violations"]]
            suppressed = [
                _violation_from_dict(r) for r in payload["suppressed"]
            ]
        except (KeyError, TypeError, ValueError):
            return None
        return kept, suppressed

    def store(
        self,
        key: str,
        kept: Sequence[Violation],
        suppressed: Sequence[Violation],
    ) -> None:
        payload = {
            "schema": _SCHEMA_VERSION,
            "violations": [v.to_dict() for v in kept],
            "suppressed": [v.to_dict() for v in suppressed],
        }
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            self._entry_path(key).write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            # A read-only or full disk degrades to "no cache", not a
            # lint failure.
            return
