"""Golden digests of the v3 segment bytes through one scripted life.

``tests/data/segment_golden.json`` records, at five checkpoints of one
scripted sequence, the SHA-256 digest of every segment file in the
directory and of its manifest with every ``*_seconds`` field zeroed:

1. ``saved``: a 30-graph aids-like database (seed 3, η 4) built and
   saved as v3;
2. ``flushed``: reopened with ``memtable_limit=3``; four inserts (the
   last adds a fresh edge type, so insert materializes a one-edge
   feature), two deletes (one original graph, one inserted) and the
   flushes they trip, then a forced flush;
3. ``compacted``: one compaction;
4. ``final``: one more insert and delete, then a final flush;
5. ``resaved``: ``save_segment_index`` of the maintained index into a
   fresh directory.

Equality pins the on-disk format and the writer's choices (which trees
a delta carries, the interning order, the column layout) byte for byte.
Regenerate (only when the format *should* change) with::

    PYTHONPATH=src python -m tests.storage.test_segment_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.mining import SupportFunction
from repro.persistence import load_segment_index, save_index, save_segment_index

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "segment_golden.json"

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)


def _zero_seconds(node: Any) -> Any:
    if isinstance(node, dict):
        return {
            k: 0.0 if k.endswith("_seconds") else _zero_seconds(v)
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [_zero_seconds(v) for v in node]
    return node


def directory_digest(root: Path) -> Dict[str, str]:
    """SHA-256 per segment file, and of the manifest with seconds zeroed."""
    digest = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*.seg"))
    }
    manifest = _zero_seconds(json.loads((root / "manifest.json").read_text()))
    text = json.dumps(manifest, sort_keys=True)
    digest["manifest.json"] = hashlib.sha256(text.encode()).hexdigest()
    return digest


def scripted_digests(workdir: Path) -> Dict[str, Dict[str, str]]:
    """Run the scripted sequence under ``workdir``; digests per checkpoint."""
    db = generate_aids_like(30, seed=3)
    root = workdir / "v3"
    save_index(TreePiIndex.build(db, CONFIG), root, version=3)
    out = {"saved": directory_digest(root)}

    extra = generate_aids_like(5, avg_atoms=10, seed=1003)
    graphs = [extra[gid].copy() for gid in extra.graph_ids()]
    fresh = graphs[3]
    fresh.add_edge(fresh.add_vertex("Xq"), 0, 1)

    index = load_segment_index(root, memtable_limit=3)
    try:
        inserted = []
        for graph in graphs[:4]:
            inserted.append(index.insert(graph))
            index.maybe_flush_segments()
        for gid in (0, inserted[1]):
            index.delete(gid)
            index.maybe_flush_segments()
        index.flush_segments()
        out["flushed"] = directory_digest(root)

        plan = index.prepare_compaction()
        assert plan is not None
        index.commit_compaction(plan)
        out["compacted"] = directory_digest(root)

        index.insert(graphs[4])
        index.delete(5)
        index.flush_segments()
        out["final"] = directory_digest(root)

        resaved = workdir / "resaved"
        save_segment_index(index, resaved)
        out["resaved"] = directory_digest(resaved)
    finally:
        index.segment_store.close()
    return out


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = scripted_digests(Path(tmp))
    lines = ",\n  ".join(
        f"{json.dumps(step)}: {json.dumps(digest, sort_keys=True)}"
        for step, digest in digests.items()
    )
    GOLDEN.write_text(f"{{\n  {lines}\n}}\n")
    print(f"wrote {len(digests)} checkpoint digests to {GOLDEN}")


def test_segment_bytes_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = scripted_digests(tmp_path)
    assert list(got) == list(want)
    for step in want:
        assert got[step] == want[step], step


if __name__ == "__main__":
    main()
