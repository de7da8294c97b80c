"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  write a benchmark database (chemical / synthetic) in gSpan
              text format,
``build``     mine + build a TreePi index over a database file and save it
              (``--workers N`` parallelizes construction; the saved index
              is byte-identical for every N),
``query``     run query graphs (gSpan file) against a saved index through
              a :class:`repro.core.engine.QueryEngine` (``--cache-size``
              memoizes isomorphic queries, ``--workers`` parallelizes
              candidate verification, ``--deadline-ms``/``--verify-budget``
              bound each query and degrade gracefully on expiry,
              ``--shards K`` serves through the scatter-gather tier),
``info``      summarize a saved index,
``bench``     run one of the paper-figure experiments and print its table.

Example session::

    python -m repro generate --kind chemical --count 100 --out db.txt
    python -m repro build --database db.txt --out index.json --eta 5 --workers 4
    python -m repro generate --kind queries --database db.txt \\
        --edges 6 --count 10 --out queries.txt
    python -m repro query --index index.json --queries queries.txt \\
        --stats --cache-size 64 --workers 4
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Union

from repro.core import QueryBudget, QueryEngine, TreePiConfig, TreePiIndex
from repro.datasets import (
    extract_query_workload,
    generate_aids_like,
    synthetic_database,
)
from repro.exceptions import ConfigError
from repro.graphs import GraphDatabase, load_database, save_database
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index
from repro.serving import ShardedEngine


def _add_sigma_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=int, default=2, help="σ(s) unit tier (Eq. 1)")
    parser.add_argument("--beta", type=float, default=2.0, help="σ(s) ramp slope")
    parser.add_argument("--eta", type=int, default=5, help="max feature size")
    parser.add_argument("--gamma", type=float, default=1.1, help="shrinking γ")
    parser.add_argument("--seed", type=int, default=2007, help="partition RNG seed")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "chemical":
        db = generate_aids_like(args.count, avg_atoms=args.size, seed=args.seed)
    elif args.kind == "synthetic":
        db = synthetic_database(
            args.count,
            avg_graph_edges=args.size,
            num_vertex_labels=args.labels,
            num_seeds=max(10, args.count // 3),
            avg_seed_edges=max(2, args.size // 3),
            seed=args.seed,
        )
    else:  # queries
        if not args.database:
            print("error: --kind queries requires --database", file=sys.stderr)
            return 2
        source = load_database(args.database)
        workload = extract_query_workload(
            source, args.edges, args.count, seed=args.seed
        )
        db = GraphDatabase(q for q in workload)
    save_database(db, args.out)
    print(f"wrote {len(db)} graphs to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    database = load_database(args.database)
    config = TreePiConfig(
        support=SupportFunction(args.alpha, args.beta, args.eta),
        gamma=args.gamma,
        seed=args.seed,
        workers=args.workers,
    )
    start = time.perf_counter()
    index = TreePiIndex.build(database, config)
    elapsed = time.perf_counter() - start
    if args.mmap:
        save_index(index, args.out, version=3)
    else:
        save_index(index, args.out)
    print(
        f"built index over {len(database)} graphs in {elapsed:.2f}s: "
        f"{index.feature_count()} features "
        f"(by size {dict(sorted(index.stats.features_by_size.items()))})"
    )
    kind = "segment directory (v3, mmap)" if args.mmap else "index"
    print(f"saved {kind} to {args.out}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    budget = None
    if args.deadline_ms is not None or args.verify_budget is not None:
        try:
            budget = QueryBudget(
                deadline_ms=args.deadline_ms, verify_steps=args.verify_budget
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    index = load_index(args.index)
    engine: "Union[QueryEngine, ShardedEngine]"
    if args.shards > 1:
        # Re-partition the saved index's database across K shards; each
        # shard rebuilds its slice with the index's own config.
        engine = ShardedEngine(
            index.database,
            index.config,
            args.shards,
            cache_size=args.cache_size,
            verify_workers=args.workers,
        )
    else:
        engine = QueryEngine(
            index, cache_size=args.cache_size, verify_workers=args.workers
        )
    queries = load_database(args.queries)
    total = 0.0
    degraded = 0
    for gid in queries.graph_ids():
        query = queries[gid]
        start = time.perf_counter()
        result = engine.query(query, budget=budget)
        elapsed = (time.perf_counter() - start) * 1000
        total += elapsed
        matches = ",".join(map(str, sorted(result.matches))) or "-"
        line = f"query {gid}: {len(result.matches)} matches [{matches}]"
        if not result.complete:
            degraded += 1
            line += (
                f"  DEGRADED ({result.degraded_reason}: "
                f"{len(result.unresolved)} unresolved)"
            )
        if args.stats:
            line += (
                f"  |TPq|={result.partition_size}"
                f" Pq={result.candidates_after_filter}"
                f" P'q={result.candidates_after_prune}"
                f" {elapsed:.2f}ms"
                f"{' (direct)' if result.direct_hit else ''}"
            )
        print(line)
    print(f"total query time: {total:.2f}ms over {len(queries)} queries")
    if degraded:
        print(
            f"{degraded} degraded result(s): matches are sound but "
            "incomplete; retry with a larger --deadline-ms/--verify-budget"
        )
    if args.stats:
        if isinstance(engine, ShardedEngine):
            tier_view = engine.stats
            stats = tier_view.rollup
            sizes = engine.shard_sizes()
            print(
                f"shards: {len(sizes)} "
                f"(sizes {dict(sorted(sizes.items()))}), "
                f"{tier_view.tier.fanouts} fan-outs, "
                f"{tier_view.tier.shard_timeouts} shard timeouts, "
                f"{tier_view.tier.shard_faults} shard faults"
            )
        else:
            stats = engine.stats
        print(
            f"engine: {stats.cache_hits} cache hits / {stats.queries} queries, "
            f"{stats.verifications_run} verifications"
        )
        if budget is not None:
            print(
                f"budget: {stats.timeouts} timeouts, "
                f"{stats.degraded_results} degraded results, "
                f"{stats.unresolved_candidates} unresolved candidates"
            )
    return 0


def _cmd_index_segments(args: argparse.Namespace) -> int:
    """Per-segment stats of a v3 directory (no feature decode, no build)."""
    from pathlib import Path

    from repro.storage.segments import SegmentStore

    root = Path(args.index)
    if not root.is_dir():
        print(f"error: {root} is not a v3 segment directory", file=sys.stderr)
        return 2
    store = SegmentStore.open(root)
    try:
        rows = store.describe()
        header = f"{'segment':<18}{'graphs':>8}{'live':>8}{'dead':>8}{'features':>10}{'bytes':>12}"
        print(header)
        print("-" * len(header))
        for row in rows:
            print(
                f"{row['segment']:<18}{row['graphs']:>8}{row['live']:>8}"
                f"{row['tombstoned']:>8}{row['features']:>10}{row['bytes']:>12}"
            )
        manifest = store.manifest
        print(
            f"{len(rows)} segment(s) ({store.delta_count} delta), "
            f"{manifest['graphs']} live graphs, "
            f"{len(store.tombstones)} tombstone(s), "
            f"{store.nbytes()} mapped bytes"
        )
        print(
            f"knobs: memtable_limit={store.memtable_limit} "
            f"compact_threshold={store.compact_threshold}"
        )
        if store.needs_compaction():
            print("compaction recommended: run `repro index compact`")
    finally:
        store.close()
    return 0


def _cmd_index_compact(args: argparse.Namespace) -> int:
    """Fold base + deltas − tombstones into one fresh base segment."""
    from pathlib import Path

    root = Path(args.index)
    if not root.is_dir():
        print(f"error: {root} is not a v3 segment directory", file=sys.stderr)
        return 2
    index = load_index(root)
    store = index.segment_store
    assert store is not None
    before = store.segment_count
    engine = QueryEngine(index, cache_size=0)
    start = time.perf_counter()
    did = engine.compact()
    elapsed = time.perf_counter() - start
    if did:
        print(
            f"compacted {before} segment(s) -> {store.segment_count} "
            f"in {elapsed:.2f}s ({store.nbytes()} mapped bytes)"
        )
    else:
        print(f"nothing to compact ({before} segment(s), no tombstones)")
    store.close()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.graphs import profile_database

    index = load_index(args.index)
    stats = index.stats
    config = index.config
    print(f"TreePi index over {len(index.database)} graphs")
    for line in profile_database(index.database).describe().splitlines():
        print(f"  {line}")
    print(f"  features: {stats.num_features} "
          f"(by size {dict(sorted(stats.features_by_size.items()))})")
    print(f"  center locations: {stats.total_center_locations}")
    print(f"  shrink removed: {stats.shrink_removed} (gamma={config.gamma})")
    print(f"  sigma: alpha={config.support.alpha} beta={config.support.beta} "
          f"eta={config.support.eta}")
    print(f"  build time: {stats.build_seconds:.2f}s "
          f"(mining {stats.mining.elapsed_seconds:.2f}s)")
    return 0


_FIGURES = {
    "fig09": lambda scale: [__import__("repro.bench", fromlist=["x"]).experiment_index_size(scale)],
    "fig10": lambda scale: list(
        __import__("repro.bench", fromlist=["x"]).experiment_pruning_performance(scale)
    ),
    "fig11a": lambda scale: [
        __import__("repro.bench", fromlist=["x"]).experiment_prune_effectiveness(
            scale, dataset="chemical"
        )
    ],
    "fig11b": lambda scale: [
        __import__("repro.bench", fromlist=["x"]).experiment_prune_effectiveness(
            scale, dataset="synthetic", labels=4
        )
    ],
    "fig12a": lambda scale: [
        __import__("repro.bench", fromlist=["x"]).experiment_index_construction(scale)
    ],
    "fig12b": lambda scale: [
        __import__("repro.bench", fromlist=["x"]).experiment_query_time(scale)
    ],
    "fig13a": lambda scale: [
        __import__("repro.bench", fromlist=["x"]).experiment_index_construction(
            scale, dataset="synthetic"
        )
    ],
    "fig13b": lambda scale: [
        __import__("repro.bench", fromlist=["x"]).experiment_query_time(
            scale, dataset="synthetic"
        )
    ],
}


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import current_scale

    scale = current_scale()
    for table in _FIGURES[args.figure](scale):
        table.show()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench import write_report

    path = write_report(args.out, sections=args.sections or None)
    print(f"wrote reproduction report to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TreePi graph indexing (ICDE 2007 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a database or query file")
    gen.add_argument("--kind", choices=["chemical", "synthetic", "queries"],
                     required=True)
    gen.add_argument("--count", type=int, default=100, help="number of graphs")
    gen.add_argument("--size", type=int, default=18,
                     help="avg atoms (chemical) / avg edges (synthetic)")
    gen.add_argument("--labels", type=int, default=5,
                     help="distinct vertex labels (synthetic)")
    gen.add_argument("--edges", type=int, default=6,
                     help="query edge size (--kind queries)")
    gen.add_argument("--database", help="source database (--kind queries)")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build and save a TreePi index")
    build.add_argument("--database", required=True, help="gSpan-format database file")
    build.add_argument("--out", required=True, help="output index JSON")
    _add_sigma_arguments(build)
    build.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for parallel construction "
             "(the saved index is identical for every value)",
    )
    build.add_argument(
        "--mmap", action="store_true",
        help="save as a memory-mapped segment directory (format v3): "
             "--out becomes a directory, loads are O(manifest) cold and "
             "columns page in on demand; insert/delete append to delta "
             "segments instead of triggering rebuilds",
    )
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="run query graphs against a saved index")
    query.add_argument("--index", required=True)
    query.add_argument("--queries", required=True, help="gSpan-format query file")
    query.add_argument("--stats", action="store_true",
                       help="print per-query pipeline statistics")
    query.add_argument(
        "--cache-size", type=int, default=128,
        help="LRU result-cache capacity (0 disables caching)",
    )
    query.add_argument(
        "--workers", type=int, default=1,
        help="thread-pool width for candidate verification",
    )
    query.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query wall-clock deadline; on expiry the query returns a "
             "degraded-but-sound result (matches verified so far, flagged "
             "DEGRADED) instead of running unboundedly",
    )
    query.add_argument(
        "--verify-budget", type=int, default=None,
        help="cap on verification work units per query (machine-independent "
             "twin of --deadline-ms; same degradation contract)",
    )
    query.add_argument(
        "--shards", type=int, default=1,
        help="serve through a K-shard scatter-gather tier instead of one "
             "engine (answers are identical; --deadline-ms becomes a "
             "per-shard deadline — see docs/SERVING.md)",
    )
    query.set_defaults(func=_cmd_query)

    info = sub.add_parser("info", help="summarize a saved index")
    info.add_argument("--index", required=True)
    info.set_defaults(func=_cmd_info)

    index_cmd = sub.add_parser(
        "index", help="maintain a v3 (mmap) segment directory"
    )
    index_sub = index_cmd.add_subparsers(dest="index_command", required=True)
    segments = index_sub.add_parser(
        "segments", help="print per-segment statistics"
    )
    segments.add_argument("--index", required=True, help="v3 segment directory")
    segments.set_defaults(func=_cmd_index_segments)
    compact = index_sub.add_parser(
        "compact",
        help="fold base + delta segments - tombstones into one base segment",
    )
    compact.add_argument("--index", required=True, help="v3 segment directory")
    compact.set_defaults(func=_cmd_index_compact)

    bench = sub.add_parser("bench", help="run one paper-figure experiment")
    bench.add_argument("--figure", choices=sorted(_FIGURES), required=True)
    bench.set_defaults(func=_cmd_bench)

    report = sub.add_parser(
        "report", help="run the full sweep and write a markdown report"
    )
    report.add_argument("--out", required=True, help="output markdown path")
    report.add_argument(
        "--sections", nargs="*",
        help="restrict to roster headings containing these substrings",
    )
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
