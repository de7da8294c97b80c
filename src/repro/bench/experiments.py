"""Experiment implementations — one function per paper figure (+ ablations).

See DESIGN.md's experiment index.  Functions return :class:`Table` objects
whose rows mirror the series plotted in the paper:

=======  ===========================================  =========================
Figure   Function                                      Paper series
=======  ===========================================  =========================
9        :func:`experiment_index_size`                 #features vs DB size
10(a,b)  :func:`experiment_pruning_performance`        candidates vs query size
11(a,b)  :func:`experiment_prune_effectiveness`        candidates vs |D_q|
12(a)    :func:`experiment_index_construction`         build time vs DB size
12(b)    :func:`experiment_query_time`                 query time vs query size
13(a)    :func:`experiment_index_construction` (synth) build time vs DB size
13(b)    :func:`experiment_query_time` (synth)         query time vs query size
—        :func:`ablation_center_prune` etc.            design-choice ablations
=======  ===========================================  =========================

Candidate counts (P'_q, Figures 10/11 and ablations A1, A2, A4, A6) come
from :meth:`TreePiIndex.query_paper`, the paper's prune-and-reconstruct
pipeline; query times (Figures 12(b)/13(b), E+) come from the serving
:meth:`TreePiIndex.query`, which verifies the filtered set P_q directly.

Databases and indexes are memoized per (dataset, size) so a bench session
never builds the same index twice.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.gindex import GIndexBaseline, GIndexConfig
from repro.baselines.scan import SequentialScan
from repro.bench.harness import Scale, Table
from repro.core.treepi import TreePiConfig, TreePiIndex
from repro.datasets.chemical import generate_aids_like
from repro.datasets.queries import QueryWorkload, extract_query_workload
from repro.datasets.synthetic import synthetic_database
from repro.graphs.graph import GraphDatabase
from repro.mining.support import SupportFunction

_DB_CACHE: Dict[Tuple, GraphDatabase] = {}
_TREEPI_CACHE: Dict[Tuple, TreePiIndex] = {}
_GINDEX_CACHE: Dict[Tuple, GIndexBaseline] = {}

#: Synthetic-generator knobs used by the Fig. 11(b)/13 experiments —
#: the paper's D*I10T20S1kL{4,5} family scaled to Python speeds.
SYNTH_SEED_EDGES = 5
SYNTH_GRAPH_EDGES = 12
SYNTH_NUM_SEEDS = 100


def clear_caches() -> None:
    """Drop memoized databases and indexes (tests use this for isolation)."""
    _DB_CACHE.clear()
    _TREEPI_CACHE.clear()
    _GINDEX_CACHE.clear()


def get_database(dataset: str, size: int, scale: Scale, labels: int = 5) -> GraphDatabase:
    """Build (or fetch) one benchmark database.

    ``dataset`` is ``"chemical"`` (the AIDS-like Γ_N) or ``"synthetic"``
    (the D..I..T..S..L.. family; ``labels`` is the L parameter).
    """
    key = (dataset, size, scale.avg_atoms, labels)
    db = _DB_CACHE.get(key)
    if db is None:
        if dataset == "chemical":
            db = generate_aids_like(size, avg_atoms=scale.avg_atoms, seed=42)
        elif dataset == "synthetic":
            db = synthetic_database(
                size,
                avg_seed_edges=SYNTH_SEED_EDGES,
                avg_graph_edges=SYNTH_GRAPH_EDGES,
                num_seeds=SYNTH_NUM_SEEDS,
                num_vertex_labels=labels,
                seed=42,
            )
        else:
            raise ValueError(f"unknown dataset kind {dataset!r}")
        _DB_CACHE[key] = db
    return db


def treepi_config(scale: Scale, gamma: float = 1.1, delta: Optional[int] = None,
                  paths_only: bool = False,
                  db_size: Optional[int] = None,
                  **extra) -> TreePiConfig:
    """The paper's TreePi settings (α=5, β=2, η=10, γ=1.5) scaled down.

    Two re-tunings, both structural consequences of the smaller sweeps
    (see EXPERIMENTS.md's calibration section):

    * **β scales with N** (``β ≈ N/40``).  The paper tunes σ per database;
      a threshold that is constant in absolute terms lets the feature
      count grow linearly with N, while gIndex's Θ·N-relative ψ keeps its
      count flat — scaling β restores the paper's flat Figure 9 curves.
    * **γ=1.1** instead of 1.5: support-ratio distributions compress
      toward 1 on small homogeneous samples, so the paper's value removes
      nearly every mid-size tree at N≈100–1000 (ablation A2 shows the
      cliff).
    """
    alpha = max(2, scale.eta // 3)
    n = db_size if db_size is not None else scale.query_db_size
    beta = max(1.0, n / 40)
    return TreePiConfig(
        support=SupportFunction(alpha=alpha, beta=beta, eta=scale.eta),
        gamma=gamma,
        delta=delta,
        paths_only=paths_only,
        seed=2007,
        **extra,
    )


def gindex_config(scale: Scale) -> GIndexConfig:
    """The paper's gIndex settings (maxL=10, γ_min=2.0, Θ=0.1N) scaled down."""
    return GIndexConfig(
        max_size=scale.eta,
        min_discriminative_ratio=2.0,
        max_support_fraction=0.1,
    )


def get_treepi(dataset: str, size: int, scale: Scale, labels: int = 5,
               **config_overrides) -> TreePiIndex:
    """Build (or fetch) the memoized TreePi index for one configuration."""
    key = (dataset, size, scale.name, labels, tuple(sorted(config_overrides.items())))
    index = _TREEPI_CACHE.get(key)
    if index is None:
        db = get_database(dataset, size, scale, labels)
        index = TreePiIndex.build(
            db, treepi_config(scale, db_size=size, **config_overrides)
        )
        _TREEPI_CACHE[key] = index
    return index


def get_gindex(dataset: str, size: int, scale: Scale, labels: int = 5) -> GIndexBaseline:
    """Build (or fetch) the memoized gIndex baseline for one database."""
    key = (dataset, size, scale.name, labels)
    index = _GINDEX_CACHE.get(key)
    if index is None:
        db = get_database(dataset, size, scale, labels)
        index = GIndexBaseline.build(db, gindex_config(scale))
        _GINDEX_CACHE[key] = index
    return index


def _workloads(
    db: GraphDatabase, scale: Scale, query_sizes: Optional[Sequence[int]] = None
) -> List[QueryWorkload]:
    sizes = query_sizes or scale.query_sizes
    return [
        extract_query_workload(db, m, scale.queries_per_size, seed=97 + m)
        for m in sizes
    ]


# ----------------------------------------------------------------------
# Figure 9 — index size
# ----------------------------------------------------------------------
def experiment_index_size(scale: Scale, dataset: str = "chemical") -> Table:
    """#features indexed by TreePi vs gIndex as the database grows."""
    table = Table(
        title=f"Fig 9 — index size ({dataset}, scale={scale.name})",
        columns=["db_size", "treepi_features", "gindex_features"],
        notes=[
            "paper shape: TreePi indexes fewer features than gIndex at every N,",
            "and both curves stay small/stable as N grows",
        ],
    )
    for size in scale.db_sizes:
        tp = get_treepi(dataset, size, scale)
        gi = get_gindex(dataset, size, scale)
        table.add_row(size, tp.feature_count(), gi.feature_count())
    return table


# ----------------------------------------------------------------------
# Figure 10 — pruning performance, low/high support query groups
# ----------------------------------------------------------------------
def experiment_pruning_performance(
    scale: Scale, dataset: str = "chemical"
) -> Tuple[Table, Table]:
    """Average candidate-set size per query edge size, split by support.

    The paper splits at support 50 on a 10,000-graph database; the split
    point scales proportionally here.
    """
    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    tp = get_treepi(dataset, size, scale)
    gi = get_gindex(dataset, size, scale)
    scan = SequentialScan(db)
    threshold = max(2, round(50 * size / 10000))

    low = Table(
        title=f"Fig 10(a) — pruning, low-support queries (<{threshold}) ({dataset})",
        columns=["query_edges", "queries", "avg_Dq", "gindex_Cq", "treepi_Pq_prime"],
        notes=["paper shape: TreePi candidates sit below gIndex at every size"],
    )
    high = Table(
        title=f"Fig 10(b) — pruning, high-support queries (>={threshold}) ({dataset})",
        columns=["query_edges", "queries", "avg_Dq", "gindex_Cq", "treepi_Pq_prime"],
        notes=["paper shape: both close to |Dq|; TreePi <= gIndex"],
    )
    for workload in _workloads(db, scale):
        buckets = {True: [], False: []}  # low? -> (dq, cq, pq')
        for query in workload:
            truth = scan.support_set(query)
            gq = gi.query(query)
            tq = tp.query_paper(query)
            buckets[len(truth) < threshold].append(
                (len(truth), gq.candidates_after_filter, tq.candidates_after_prune)
            )
        for is_low, table in ((True, low), (False, high)):
            rows = buckets[is_low]
            if not rows:
                table.add_row(workload.num_edges, 0, 0.0, 0.0, 0.0)
                continue
            n = len(rows)
            table.add_row(
                workload.num_edges,
                n,
                sum(r[0] for r in rows) / n,
                sum(r[1] for r in rows) / n,
                sum(r[2] for r in rows) / n,
            )
    return low, high


# ----------------------------------------------------------------------
# Figure 11 — prune effectiveness vs |D_q|
# ----------------------------------------------------------------------
def experiment_prune_effectiveness(
    scale: Scale, dataset: str = "chemical", labels: int = 4
) -> Table:
    """Average reduced-database size bucketed by true support size.

    Figure 11(a) uses the real dataset, 11(b) the low-label-diversity
    synthetic one (``labels=4``), where pruning is much harder.
    """
    size = scale.query_db_size
    db = get_database(dataset, size, scale, labels)
    tp = get_treepi(dataset, size, scale, labels)
    gi = get_gindex(dataset, size, scale, labels)
    scan = SequentialScan(db)

    samples: List[Tuple[int, int, int]] = []  # (|Dq|, Cq, P'q)
    for workload in _workloads(db, scale):
        for query in workload:
            truth = scan.support_set(query)
            gq = gi.query(query)
            tq = tp.query_paper(query)
            samples.append(
                (len(truth), gq.candidates_after_filter, tq.candidates_after_prune)
            )

    figure = "11(b)" if dataset == "synthetic" else "11(a)"
    table = Table(
        title=f"Fig {figure} — prune effectiveness ({dataset}, scale={scale.name})",
        columns=["dq_bucket", "queries", "avg_Dq", "gindex_Cq", "treepi_Pq_prime"],
        notes=[
            "paper shape: |Dq| <= P'q <= Cq, with the P'q-vs-Dq gap at least",
            "~50% smaller than the Cq-vs-Dq gap for small |Dq|",
        ],
    )
    samples.sort(key=lambda s: s[0])
    bucket_count = 4
    per_bucket = max(1, len(samples) // bucket_count)
    for b in range(0, len(samples), per_bucket):
        chunk = samples[b : b + per_bucket]
        n = len(chunk)
        table.add_row(
            f"{chunk[0][0]}–{chunk[-1][0]}",
            n,
            sum(c[0] for c in chunk) / n,
            sum(c[1] for c in chunk) / n,
            sum(c[2] for c in chunk) / n,
        )
    return table


# ----------------------------------------------------------------------
# Figures 12(a) / 13(a) — index construction time
# ----------------------------------------------------------------------
def experiment_index_construction(scale: Scale, dataset: str = "chemical") -> Table:
    """Build-time sweep over database sizes for both systems."""
    figure = "13(a)" if dataset == "synthetic" else "12(a)"
    table = Table(
        title=f"Fig {figure} — index construction time ({dataset}, scale={scale.name})",
        columns=["db_size", "treepi_seconds", "gindex_seconds"],
        notes=[
            "paper shape: both roughly linear in N; TreePi faster",
            "(tree mining + polynomial canonical forms)",
        ],
    )
    for size in scale.db_sizes:
        db = get_database(dataset, size, scale)
        t0 = time.perf_counter()
        tp = TreePiIndex.build(db, treepi_config(scale, db_size=size))
        treepi_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        gi = GIndexBaseline.build(db, gindex_config(scale))
        gindex_seconds = time.perf_counter() - t0
        # Stash in the caches so downstream experiments reuse the builds.
        _TREEPI_CACHE.setdefault((dataset, size, scale.name, 5, ()), tp)
        _GINDEX_CACHE.setdefault((dataset, size, scale.name, 5), gi)
        table.add_row(size, treepi_seconds, gindex_seconds)
    return table


# ----------------------------------------------------------------------
# Figures 12(b) / 13(b) — query processing time
# ----------------------------------------------------------------------
def experiment_query_time(
    scale: Scale,
    dataset: str = "chemical",
    labels: int = 5,
    query_sizes: Optional[Sequence[int]] = None,
) -> Table:
    """End-to-end query latency sweep over query edge sizes."""
    figure = "13(b)" if dataset == "synthetic" else "12(b)"
    size = scale.query_db_size
    db = get_database(dataset, size, scale, labels)
    tp = get_treepi(dataset, size, scale, labels)
    gi = get_gindex(dataset, size, scale, labels)
    table = Table(
        title=f"Fig {figure} — query processing time ({dataset}, scale={scale.name})",
        columns=["query_edges", "treepi_ms", "gindex_ms"],
        notes=["paper shape: TreePi at least ~2x faster across sizes"],
    )
    for workload in _workloads(db, scale, query_sizes):
        t0 = time.perf_counter()
        for query in workload:
            tp.query(query)
        treepi_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        t0 = time.perf_counter()
        for query in workload:
            gi.query(query)
        gindex_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        table.add_row(workload.num_edges, treepi_ms, gindex_ms)
    return table


# ----------------------------------------------------------------------
# Extensions beyond the paper's figures
# ----------------------------------------------------------------------
def experiment_phase_breakdown(
    scale: Scale, dataset: str = "chemical"
) -> Table:
    """E+: where TreePi query time goes, per pipeline phase and query size.

    Not a paper figure — the paper reports end-to-end times only — but the
    breakdown explains the crossovers in Figures 12(b)/13(b): partition
    cost is flat, verification grows with candidate counts.
    """
    from repro.bench.collector import QueryStatsCollector

    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    index = get_treepi(dataset, size, scale)
    phases = ["partition", "filter", "verification"]
    table = Table(
        title=f"E+ — query phase breakdown, ms/query ({dataset}, scale={scale.name})",
        columns=["query_edges", *phases, "direct_hit_rate"],
        notes=[
            "phases missing from direct-hit queries contribute zero",
            "serving filters level by level inside its partition phase,"
            " so its filter column reads zero",
        ],
    )
    for workload in _workloads(db, scale):
        collector = QueryStatsCollector(workload.name)
        for query in workload:
            collector.record(index.query(query))
        breakdown = collector.phase_breakdown_ms()
        table.add_row(
            workload.num_edges,
            *(breakdown.get(phase, 0.0) for phase in phases),
            collector.direct_hit_rate(),
        )
    return table


def experiment_query_scalability(
    scale: Scale, dataset: str = "chemical", query_edges: Optional[int] = None
) -> Table:
    """E+: query latency vs database size at a fixed query size.

    The paper sweeps query size at fixed N; this sweeps N at fixed query
    size, showing how the candidate funnel keeps verification sublinear
    in the database while sequential scan grows linearly.
    """
    from repro.baselines import SequentialScan

    m = query_edges or scale.query_sizes[len(scale.query_sizes) // 2]
    table = Table(
        title=f"E+ — query scalability at m={m} ({dataset}, scale={scale.name})",
        columns=["db_size", "treepi_ms", "scan_ms", "avg_Pq_prime", "avg_Dq"],
        notes=[
            "expectation: scan grows ~linearly in N; TreePi much slower growth",
            "serving path: nothing is pruned, so avg_Pq_prime is |P_q|",
        ],
    )
    for size in scale.db_sizes:
        db = get_database(dataset, size, scale)
        index = get_treepi(dataset, size, scale)
        scan = SequentialScan(db)
        workload = extract_query_workload(
            db, m, scale.queries_per_size, seed=55 + size
        )
        pq = dq = 0.0
        t0 = time.perf_counter()
        for query in workload:
            result = index.query(query)
            pq += result.candidates_after_prune
            dq += len(result.matches)
        treepi_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        t0 = time.perf_counter()
        for query in workload:
            scan.query(query)
        scan_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        n = max(1, len(workload))
        table.add_row(size, treepi_ms, scan_ms, pq / n, dq / n)
    return table


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def ablation_center_prune(scale: Scale, dataset: str = "chemical") -> Table:
    """A1: filter-only vs filter+center-prune candidate sets, and the cost.

    Both candidate counts come from one :meth:`TreePiIndex.query_paper`
    result (P_q before Algorithm 2, P'_q after it).  The time columns
    compare the serving pipeline (filter, then direct verification of
    P_q) against the paper's (prune, then reconstruct P'_q).
    """
    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    index = get_treepi(dataset, size, scale)
    table = Table(
        title=f"Ablation A1 — Center Distance Constraint pruning ({dataset})",
        columns=[
            "query_edges", "Pq_filter_only", "Pq_prime_with_prune",
            "serving_ms", "paper_ms",
        ],
        notes=[
            "expectation: P'q <= Pq; serving_ms shows whether pruning",
            "pays for itself against the prefiltered direct matcher",
        ],
    )
    for workload in _workloads(db, scale):
        pq = pqp = 0.0
        t0 = time.perf_counter()
        for query in workload:
            index.query(query)
        serving_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        t0 = time.perf_counter()
        for query in workload:
            result = index.query_paper(query)
            pq += result.candidates_after_filter
            pqp += result.candidates_after_prune
        paper_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        n = max(1, len(workload))
        table.add_row(workload.num_edges, pq / n, pqp / n, serving_ms, paper_ms)
    return table


def ablation_shrinking(scale: Scale, dataset: str = "chemical") -> Table:
    """A2: γ sweep — index size vs candidate quality."""
    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    scan = SequentialScan(db)
    workload = _workloads(db, scale)[len(scale.query_sizes) // 2]
    table = Table(
        title=f"Ablation A2 — shrinking parameter γ ({dataset})",
        columns=["gamma", "features", "avg_Pq_prime", "avg_Dq"],
        notes=["expectation: larger γ → fewer features, (weakly) larger P'q"],
    )
    avg_dq = sum(len(scan.support_set(q)) for q in workload) / max(1, len(workload))
    for gamma in (1.0, 1.5, 2.0, 3.0):
        index = get_treepi(dataset, size, scale, gamma=gamma)
        total = sum(
            index.query_paper(q).candidates_after_prune for q in workload
        )
        table.add_row(
            gamma, index.feature_count(), total / max(1, len(workload)), avg_dq
        )
    return table


def ablation_tree_vs_path_features(scale: Scale, dataset: str = "chemical") -> Table:
    """A4: what branching tree features buy over path-only features.

    The paper's Section 1 claim — trees preserve almost the structural
    power of general subgraphs while paths lose a lot — measured inside
    one framework: the same TreePi pipeline with features restricted to
    paths (GraphGrep-flavored) vs full trees.
    """
    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    trees = get_treepi(dataset, size, scale)
    paths = get_treepi(dataset, size, scale, paths_only=True)
    table = Table(
        title=f"Ablation A4 — tree features vs path-only features ({dataset})",
        columns=[
            "query_edges", "tree_features", "path_features",
            "tree_Pq_prime", "path_Pq_prime",
        ],
        notes=["expectation: tree features filter at least as tightly as paths"],
    )
    for workload in _workloads(db, scale):
        tp = pp = 0.0
        for query in workload:
            tp += trees.query_paper(query).candidates_after_prune
            pp += paths.query_paper(query).candidates_after_prune
        n = max(1, len(workload))
        table.add_row(
            workload.num_edges,
            trees.feature_count(),
            paths.feature_count(),
            tp / n,
            pp / n,
        )
    return table


def ablation_maintenance(scale: Scale, dataset: str = "chemical") -> Table:
    """A5: insert/delete maintenance (Section 7.1) vs full rebuild.

    Measures per-operation maintenance cost against amortized rebuild
    cost, and confirms query answers stay exact throughout the churn.
    """
    from repro.baselines import SequentialScan

    size = max(40, scale.query_db_size // 3)
    db = get_database(dataset, size, scale)
    index = TreePiIndex.build(db, treepi_config(scale))
    donors = get_database(dataset, size + 20, scale)
    incoming = [donors[g].copy() for g in donors.graph_ids()[size:]]

    table = Table(
        title=f"Ablation A5 — maintenance vs rebuild ({dataset}, N={size})",
        columns=["operation", "count", "total_seconds", "per_op_ms"],
        notes=["expectation: per-op maintenance ≪ rebuild; answers stay exact"],
    )

    t0 = time.perf_counter()
    inserted = []
    for graph in incoming:
        inserted.append(index.insert(graph))
    insert_seconds = time.perf_counter() - t0
    table.add_row("insert", len(incoming), insert_seconds,
                  insert_seconds * 1000 / max(1, len(incoming)))

    t0 = time.perf_counter()
    for gid in inserted[: len(inserted) // 2]:
        index.delete(gid)
    delete_count = len(inserted) // 2
    delete_seconds = time.perf_counter() - t0
    table.add_row("delete", delete_count, delete_seconds,
                  delete_seconds * 1000 / max(1, delete_count))

    t0 = time.perf_counter()
    rebuilt = index.rebuild()
    rebuild_seconds = time.perf_counter() - t0
    table.add_row("rebuild", 1, rebuild_seconds, rebuild_seconds * 1000)

    # Exactness audit after churn, against brute force.
    scan = SequentialScan(index.database)
    workload = extract_query_workload(
        index.database, scale.query_sizes[0], min(6, scale.queries_per_size), seed=71
    )
    mismatches = sum(
        1
        for q in workload
        if index.query(q).matches != scan.support_set(q)
        or rebuilt.query(q).matches != scan.support_set(q)
    )
    table.add_row("audit_mismatches", mismatches, 0.0, 0.0)
    table.notes.append(
        f"audit_mismatches counts the {len(workload)} audit queries whose "
        "answer differs from a sequential scan"
    )
    return table


def experiment_label_diversity(scale: Scale) -> Table:
    """Section 6.2's observation: fewer distinct labels make indexing harder.

    Sweeps the synthetic generator's L parameter and reports feature
    counts, candidate quality, and query latency at fixed N.
    """
    size = scale.query_db_size
    table = Table(
        title=f"Label diversity sweep (synthetic, N={size}, scale={scale.name})",
        columns=["labels", "features", "avg_Dq", "avg_Pq_prime", "slack", "avg_ms"],
        notes=[
            "slack = avg false positives surviving pruning;",
            "expectation: fewer labels → more slack and slower queries",
        ],
    )
    for labels in (3, 5, 10, 20):
        db = get_database("synthetic", size, scale, labels)
        index = get_treepi("synthetic", size, scale, labels)
        workload = extract_query_workload(
            db, scale.query_sizes[0], scale.queries_per_size, seed=81
        )
        dq = pq = 0.0
        t0 = time.perf_counter()
        for query in workload:
            result = index.query_paper(query)
            pq += result.candidates_after_prune
            dq += len(result.matches)
        ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        n = max(1, len(workload))
        table.add_row(
            labels, index.feature_count(), dq / n, pq / n, (pq - dq) / n, ms
        )
    return table


def ablation_verification_strategy(
    scale: Scale, dataset: str = "chemical"
) -> Table:
    """A7: the paper's pipeline vs the serving pipeline, per query size.

    ``reconstruct_ms`` times :meth:`TreePiIndex.query_paper` (center
    prune, then anchored reconstruction of P'_q); ``direct_ms`` times
    :meth:`TreePiIndex.query` (prefiltered direct matching of P_q).  Both
    run on the same index and return identical answers; only wall time
    differs.
    """
    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    index = get_treepi(dataset, size, scale)
    table = Table(
        title=f"Ablation A7 — verification strategy ({dataset}, scale={scale.name})",
        columns=["query_edges", "reconstruct_ms", "direct_ms"],
        notes=[
            "expectation: direct wins on tiny queries (setup can't amortize);",
            "a size where reconstruction wins would argue for serving it",
        ],
    )
    for workload in _workloads(db, scale):
        t0 = time.perf_counter()
        for query in workload:
            index.query_paper(query)
        reconstruct_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        t0 = time.perf_counter()
        for query in workload:
            index.query(query)
        direct_ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        table.add_row(workload.num_edges, reconstruct_ms, direct_ms)
    return table


def ablation_partition_restarts(scale: Scale, dataset: str = "chemical") -> Table:
    """A3: δ sweep — partition size and query latency vs restart count.

    δ only drives the paper's planner, so the sweep runs
    :meth:`TreePiIndex.query_paper`; serving enumerates SF_q
    deterministically and ignores δ.
    """
    size = scale.query_db_size
    db = get_database(dataset, size, scale)
    workload = _workloads(db, scale)[-1]  # largest queries benefit most
    table = Table(
        title=f"Ablation A3 — partition restarts δ ({dataset})",
        columns=["delta", "avg_TPq_size", "avg_SFq_size", "avg_ms"],
        notes=["expectation: more restarts → smaller TPq / richer SFq,"
               " at partition-time cost"],
    )
    for delta in (1, 2, 4, 8, 16):
        index = get_treepi(dataset, size, scale, delta=delta)
        tpq = sfq = 0.0
        t0 = time.perf_counter()
        for query in workload:
            result = index.query_paper(query)
            tpq += result.partition_size
            sfq += result.sfq_size
        ms = (time.perf_counter() - t0) * 1000 / max(1, len(workload))
        n = max(1, len(workload))
        table.add_row(delta, tpq / n, sfq / n, ms)
    return table
