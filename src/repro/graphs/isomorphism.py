"""Labeled (sub)graph isomorphism via prefiltered, backjumping search.

The paper's containment relation (Definition 3) is edge-subgraph
isomorphism: ``q ⊆ g`` iff some subgraph of ``g`` is isomorphic to ``q``.
Operationally that is a *monomorphism*: an injective map of query vertices
into graph vertices that preserves vertex labels and maps every query edge
onto a graph edge with the same label (extra graph edges are allowed).

This module provides

* :func:`subgraph_monomorphisms` — generate all monomorphisms, optionally
  seeded with a partial assignment (used by center-anchored verification),
* :func:`is_subgraph_isomorphic` / :func:`count_embeddings`,
* :func:`are_isomorphic` and :func:`automorphisms` (Section 5.3.1 builds
  canonical reconstruction forms from automorphism groups),
* :class:`CompiledPattern` and :func:`label_pair_refuted`, for callers
  that match one pattern against many targets.

A search is *refute, compile, search*.  :func:`label_pair_refuted` runs
the size checks and the whole-pattern label-pair refutation first, so a
pattern is never compiled for a target that refutes it.  A
:class:`CompiledPattern` then holds every table that depends only on the
pattern: the matching order, wanted labels and degrees, back-edges by
position, neighbourhood label pairs and, once a search asks for them,
walk-parity bounds.  The search
keeps per target only what reads the target: the seed check, the label
pairs mapped into the target's bit space, the rarest-anchor ranking of
levels with several back-edges, and the label buckets of anchorless
levels.  A caller that passes one compiled pattern to many searches
(a serving plan's verification, a cache probe's confirmations) builds
the pattern's tables once; every search, and its step count, is the one
a per-call compile would run.

The matcher orders pattern vertices connectivity-first (component by
component for disconnected patterns) so candidates can be drawn from
neighborhoods of already-matched images instead of the whole graph, and
— following l2Match's label-pair/NLI filters and the Compact
Neighborhood Index — refutes candidates against the cached per-graph
:class:`~repro.graphs.matcher_index.MatcherIndex` before any adjacency
walk:

* a pattern whose (vertex-label, edge-label, vertex-label) incidence
  multiset is not contained in the target's is rejected wholesale;
* each level draws candidates from the image neighborhood of its
  *rarest-label-pair* matched anchor instead of an arbitrary one;
* per-vertex neighboring-label bitset signatures refute candidates in
  O(1) per check;
* walk-parity distance bounds refute candidates in O(1) per check too,
  but building them costs a BFS per pattern level and an all-pairs BFS
  per target, which easy searches never earn back.  So a search starts
  without them and switches them on only once it has exhausted more
  levels than the pattern has vertices.  Parity bounds are kept only
  for levels placed before the pattern's last 2-core vertex: past it no
  bound can fail (the proof is at :meth:`CompiledPattern.parity_bounds`),
  so a forest pattern keeps none and never builds its target's parity
  rows;
* exhausted levels *jump-redo* (conflict-directed backjumping) to the
  deepest level recorded in their conflict set instead of always
  stepping back one.

Every filter is a necessary condition on (partial) monomorphisms and
backjumps only skip levels proven irrelevant to the failure, so the
enumerated answer set is bit-for-bit the one the plain backtracker
produced (``prefilter=False`` keeps the unfiltered search reachable for
tests and worst-case benchmarking).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.guards import hot_path
from repro.graphs.graph import LabeledGraph
from repro.graphs.matcher_index import PARITY_MAX_VERTICES, pair_subsumed, parity_bfs

if TYPE_CHECKING:  # runtime use is duck-typed to avoid a core<->graphs cycle
    from repro.core.budget import CancellationToken

_MISSING = object()  # sentinel: None is a legal edge label


def _matching_order(pattern: LabeledGraph, seeded: Tuple[int, ...]) -> List[int]:
    """Order pattern vertices so each one touches the already-ordered prefix.

    Seeded vertices come first.  The rest is emitted **component by
    component**: the components holding seeds (in first-seed order), then
    the remaining components ordered by descending maximum degree with the
    smallest contained vertex as tie-break.  Within a component the order
    is connectivity-greedy — after the component's (max-degree) start
    vertex, every vertex is adjacent to an earlier one, so the matcher can
    always draw candidates from a matched anchor's image neighborhood.
    The pre-fix fallback picked the *global* max-degree vertex whenever
    the frontier emptied, which could interleave components and strand
    levels without an anchor mid-component.
    """
    adj = pattern._adj  # read-only; runs once per matcher call
    n = len(adj)
    degree = [len(nbrs) for nbrs in adj]
    # Max degree, then smallest id, as one int: a total order, so the
    # iteration order of the sets below cannot change the result.
    rank = [degree[v] * n + (n - 1 - v) for v in range(n)]
    order: List[int] = list(seeded)
    placed = set(order)
    components = pattern.connected_components()
    comp_of: Dict[int, int] = {}
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    queue: List[int] = []
    enqueued: Set[int] = set()
    for v in seeded:
        ci = comp_of[v]
        if ci not in enqueued:
            enqueued.add(ci)
            queue.append(ci)
    rest = [ci for ci in range(len(components)) if ci not in enqueued]
    rest.sort(
        key=lambda ci: (-max(degree[v] for v in components[ci]), components[ci][0])
    )
    queue.extend(rest)
    for ci in queue:
        remaining = {v for v in components[ci] if v not in placed}
        # Unplaced vertices adjacent to the placed prefix, kept incrementally.
        frontier = {v for v in remaining if any(w in placed for w in adj[v])}
        while remaining:
            nxt = max(frontier or remaining, key=rank.__getitem__)
            order.append(nxt)
            placed.add(nxt)
            remaining.discard(nxt)
            frontier.discard(nxt)
            frontier.update(adj[nxt].keys() - placed)
    return order


class CompiledPattern:
    """The target-independent half of a monomorphism search.

    Everything the matcher derives from the pattern alone, built once
    and shared by every target the pattern is matched against: the
    matching order, each level's wanted label and degree, its back-edges
    to earlier levels (sorted by position), the vertex and edge labels
    of its neighbourhood, and — once a prefiltered search switches
    parity on — the walk-parity bounds of the levels where one can
    fail.  ``seeded`` fixes the pattern vertices a seed will pre-assign
    (the order starts with them in this order); a compiled pattern
    serves only seeds with exactly these keys.

    Holds nothing about any target, so one instance may be shared by
    concurrent searches; racing threads that build the parity bounds
    compute the same table, and either write is fine.  Nothing caches
    it on the pattern: its owner (a query plan, a cache-lookup probe)
    decides how long it lives.
    """

    __slots__ = (
        "pattern",
        "seeded",
        "order",
        "want_labels",
        "want_degrees",
        "primary_pos",
        "primary_elabel",
        "rest_anchors",
        "ranked_levels",
        "nbr_labels",
        "bucket_labels",
        "_par_bounds",
    )

    def __init__(self, pattern: LabeledGraph, seeded: Tuple[int, ...] = ()) -> None:
        p_labels = pattern._vlabels
        p_adj = pattern._adj
        pn = len(p_labels)
        order = _matching_order(pattern, seeded)
        position = [0] * pn
        for i, v in enumerate(order):
            position[v] = i
        want_labels = [p_labels[v] for v in order]
        self.pattern = pattern
        self.seeded = seeded
        self.order = order
        self.want_labels = want_labels
        self.want_degrees = [len(p_adj[v]) for v in order]

        # Back-edges of each level to earlier positions, by position.  The
        # first one is the primary anchor (its image neighbourhood is the
        # candidate source), the rest are checked.  With prefilters on, a
        # level with several back-edges ranks them per target by the
        # target's count of each back-edge's label pair (rarest first);
        # ``ranked_levels`` keeps (triple, position, edge label) for those.
        # ``nbr_labels`` holds each level's (neighbour vertex label, edge
        # label) pairs, OR-ed into bit signatures per target.
        primary_pos = [-1] * pn
        primary_elabel: List[object] = [None] * pn
        rest_anchors: List[List[Tuple[int, object]]] = []
        ranked_levels: List[Tuple[int, List[Tuple[object, int, object]]]] = []
        nbr_labels: List[List[Tuple[object, object]]] = []
        for i, v in enumerate(order):
            row = p_adj[v]
            backs = [(position[w], el) for w, el in row.items() if position[w] < i]
            if backs:
                if len(backs) > 1:
                    backs.sort()  # positions are distinct: labels never compared
                    lv = want_labels[i]
                    ranked_levels.append(
                        (i, [((lv, el, want_labels[j]), j, el) for j, el in backs])
                    )
                primary_pos[i], primary_elabel[i] = backs[0]
            rest_anchors.append(backs[1:])
            nbr_labels.append([(p_labels[w], el) for w, el in row.items()])
        self.primary_pos = primary_pos
        self.primary_elabel = primary_elabel
        self.rest_anchors = rest_anchors
        self.ranked_levels = ranked_levels
        self.nbr_labels = nbr_labels
        # Label buckets are only needed by levels with no matched anchor.
        self.bucket_labels = tuple(
            dict.fromkeys(
                want_labels[i] for i in range(len(seeded), pn) if primary_pos[i] < 0
            )
        )
        self._par_bounds: object = _MISSING

    def parity_bounds(self) -> Optional[List[List[Tuple[int, int, int]]]]:
        """Each level's walk-parity bounds against earlier positions.

        ``(position, even bound, odd bound)``, finite bounds only, for
        the levels where a bound can fail; ``None`` when no level keeps
        one (a forest) or the pattern is too large for parity matrices.
        Built on first call, which :func:`_search` makes only once a
        search has exhausted more levels than the pattern has vertices.

        An unseeded pattern keeps the levels placed before its last
        2-core vertex; later levels get an empty list.  The order is
        connectivity-first and every back-edge is checked before the
        bounds, so once a level's vertex is placed, each pattern walk
        inside the placed prefix maps onto a target walk of the same
        length between the images.  After the last 2-core vertex is
        placed, every unplaced vertex sits in a tree joined to the
        placed prefix by one edge, so a walk that leaves the prefix
        returns along that edge after an even-length excursion; cutting
        the excursion keeps its parity and shortens it.  Each minimum
        walk of either parity thus lies inside the prefix, and its bound
        holds by construction.  A seeded pattern's prefix need not be
        connected, so it keeps every level.
        """
        bounds = self._par_bounds
        if bounds is _MISSING:
            bounds = None
            order = self.order
            pn = len(order)
            kept = pn if self.seeded else _last_core_position(self.pattern, order)
            if 0 < kept and pn <= PARITY_MAX_VERTICES:
                p_even, p_odd = parity_bfs(self.pattern._adj, order[:kept])
                bounds = []
                for i in range(kept):
                    base = i * pn
                    level = []
                    for j in range(i):
                        w = order[j]
                        be, bo = p_even[base + w], p_odd[base + w]
                        if be < 255 or bo < 255:
                            level.append((j, be, bo))
                    bounds.append(level)
                bounds.extend([] for _ in range(kept, pn))
            self._par_bounds = bounds
        return bounds  # type: ignore[return-value]


def _last_core_position(pattern: LabeledGraph, order: List[int]) -> int:
    """Position in ``order`` of the pattern's last 2-core vertex, or 0.

    The 2-core is what is left after repeatedly peeling vertices of
    degree below 2; a forest peels away entirely.
    """
    adj = pattern._adj
    degree = [len(nbrs) for nbrs in adj]
    peeled = [False] * len(adj)
    stack = [v for v, d in enumerate(degree) if d < 2]
    while stack:
        v = stack.pop()
        if peeled[v]:
            continue
        peeled[v] = True
        for w in adj[v]:
            degree[w] -= 1
            if degree[w] < 2 and not peeled[w]:
                stack.append(w)
    last = 0
    for i, v in enumerate(order):
        if not peeled[v]:
            last = i
    return last


def label_pair_refuted(
    pattern: LabeledGraph, target: LabeledGraph, prefilter: bool = True
) -> bool:
    """Can ``pattern`` be proven not to embed in ``target`` without search?

    Size checks always; with ``prefilter``, also the whole-pattern
    label-pair refutation: every pattern label-pair incidence needs a
    distinct target incidence with the same triple.  An empty pattern
    counts as refuted (the matcher yields nothing for it).  Cheap, and
    run before a :class:`CompiledPattern` is built, so a pattern that
    every target refutes is never compiled.
    """
    pn = pattern.num_vertices
    if pn == 0 or pn > target.num_vertices or pattern.num_edges > target.num_edges:
        return True
    if prefilter:
        return not pair_subsumed(pattern.matcher_index(), target.matcher_index())
    return False


@hot_path
def subgraph_monomorphisms(
    pattern: LabeledGraph,
    target: LabeledGraph,
    seed: Optional[Dict[int, int]] = None,
    limit: Optional[int] = None,
    token: Optional["CancellationToken"] = None,
    prefilter: bool = True,
    compiled: Optional[CompiledPattern] = None,
) -> Iterator[Dict[int, int]]:
    """Yield injective label-preserving maps of ``pattern`` into ``target``.

    Refute, compile, search: :func:`label_pair_refuted` runs first, then
    the pattern is compiled (unless ``compiled`` is given), then
    :func:`_search` matches it against ``target``.

    Parameters
    ----------
    seed:
        Partial assignment ``pattern_vertex -> target_vertex`` that every
        yielded mapping must extend (center anchoring in verification).
    limit:
        Stop after this many embeddings.
    token:
        Optional :class:`~repro.core.budget.CancellationToken`.  The
        search charges one work unit per candidate drawn (batched to
        ``token.CHECK_INTERVAL`` locked updates) and unwinds with
        :class:`~repro.exceptions.BudgetExceeded` when the budget runs
        out — the cooperative-cancellation hook that bounds this
        otherwise NP-complete search.  Any sub-interval remainder is
        flushed (non-raising) when the generator exits or unwinds, so
        ``token.work_charged`` is exact.  ``None`` (the default) leaves
        the search unbounded and the hot loop untouched.
    prefilter:
        Use the cached :class:`~repro.graphs.matcher_index.MatcherIndex`
        structures of both graphs — label-pair refutation, rarest-pair
        anchor selection, neighboring-label signatures, walk-parity
        bounds (switched on once the search proves hard) and
        conflict-directed backjumping guided by them.  The
        answer set is identical either way; ``False`` restores the
        unfiltered search (adversarial benchmarks and deadline tests
        rely on its worst-case cost).
    compiled:
        A :class:`CompiledPattern` of ``pattern`` with ``seed``'s keys
        (in ``seed``'s order), to reuse across targets; ``None``
        compiles one for this call.  The search, and so the step count,
        is the same either way.

    Yields fresh dictionaries; callers may keep or mutate them freely.
    """
    if label_pair_refuted(pattern, target, prefilter):
        return
    seeded = tuple(seed) if seed else ()
    if compiled is None:
        compiled = CompiledPattern(pattern, seeded)
    elif compiled.pattern is not pattern or compiled.seeded != seeded:
        raise ValueError("compiled pattern does not match the pattern and seed")
    yield from _search(compiled, target, seed or {}, limit, token, prefilter)


def _search(
    cp: CompiledPattern,
    target: LabeledGraph,
    seed: Dict[int, int],
    limit: Optional[int],
    token: Optional["CancellationToken"],
    prefilter: bool,
) -> Iterator[Dict[int, int]]:
    """Match one compiled pattern against one target (see :func:`subgraph_monomorphisms`).

    Assumes :func:`label_pair_refuted` has passed.  The per-target work
    is the seed check, the pattern's label pairs mapped into the target's
    bit space, the rarest-anchor ranking of levels with several
    back-edges, and the label buckets of anchorless levels.  Walk-parity
    bounds switch on mid-search, in the level-exhausted branch, once
    more levels than the pattern has vertices have been exhausted; a
    search that runs straight down to a match never builds them.
    """
    pattern = cp.pattern
    pn = len(cp.order)

    # Validate the seed up front: labels, degrees and internal edges.
    used_targets = set()
    for pv, tv in seed.items():
        if pattern.vertex_label(pv) != target.vertex_label(tv):
            return
        if pattern.degree(pv) > target.degree(tv):
            return
        if tv in used_targets:
            return
        used_targets.add(tv)
    for pv, tv in seed.items():
        for pw, tw in seed.items():
            if pv < pw and pattern.has_edge(pv, pw):
                if not target.has_edge(tv, tw):
                    return
                if pattern.edge_label(pv, pw) != target.edge_label(tv, tw):
                    return

    # Direct views of the internal adjacency/label structures: this is the
    # hottest loop in the library, and the accessor methods' bounds checks
    # dominate it otherwise.  Read-only use.
    t_adj = target._adj
    t_labels = target._vlabels
    tn = len(t_labels)
    order = cp.order
    want_labels = cp.want_labels
    want_degrees = cp.want_degrees
    primary_pos = cp.primary_pos
    primary_elabel = cp.primary_elabel
    rest_anchors = cp.rest_anchors

    # ------------------------------------------------------------------
    # prefilter setup: cached per-graph invariants (l2Match / CNI)
    # ------------------------------------------------------------------
    t_vsig = t_esig = None
    lvl_vsig: Optional[List[int]] = None
    lvl_esig: Optional[List[int]] = None
    t_even = t_odd = None
    par_bounds: Optional[List[List[Tuple[int, int, int]]]] = None
    if prefilter:
        tindex = target.matcher_index()
        vbits = tindex.vlabel_bits
        ebits = tindex.elabel_bits
        # Per-level requirements, expressed in the *target's* bit space;
        # a label the target lacks entirely refutes the call.
        for lbl in want_labels:
            if lbl not in vbits:
                return
        lvl_vsig = []
        lvl_esig = []
        for pairs in cp.nbr_labels:
            sv = se = 0
            for vl, el in pairs:
                vb = vbits.get(vl)
                eb = ebits.get(el)
                if vb is None or eb is None:
                    return
                sv |= vb
                se |= eb
            lvl_vsig.append(sv)
            lvl_esig.append(se)
        t_vsig = tindex.nbr_vsig
        t_esig = tindex.nbr_esig
        # The *rarest* label pair supplies a multi-anchor level's primary
        # anchor.  The back-edges are in position order and the sort is
        # stable, so ties keep the lower position first.
        if cp.ranked_levels:
            pair_count = tindex.pair_counts.get
            primary_pos = list(primary_pos)
            primary_elabel = list(primary_elabel)
            rest_anchors = list(rest_anchors)
            for i, backs in cp.ranked_levels:
                ranked = sorted(backs, key=lambda b: pair_count(b[0], 0))
                primary_pos[i] = ranked[0][1]
                primary_elabel[i] = ranked[0][2]
                rest_anchors[i] = [(j, el) for _, j, el in ranked[1:]]

    start = len(seed)
    label_buckets: Dict[object, List[int]] = {
        lbl: [tv for tv, tl in enumerate(t_labels) if tl == lbl]
        for lbl in cp.bucket_labels
    }

    mapping: Dict[int, int] = dict(seed)
    # target vertex -> level that placed it (-1 for seeds); the owner
    # level is the conflict a collision attributes to.
    used: Dict[int, int] = {tv: -1 for tv in seed.values()}
    images = [-1] * pn  # level -> placed target vertex
    for j in range(start):
        images[j] = mapping[order[j]]

    emitted = 0
    if start == pn:
        yield dict(mapping)
        return

    check_interval = token.CHECK_INTERVAL if token is not None else 0
    pending = 0
    # Exhausted levels left before walk parity switches on; 0 once it
    # has (or, unfiltered, never).
    until_parity = pn + 1 if prefilter else 0

    # ------------------------------------------------------------------
    # iterative search with conflict-directed backjumping
    # ------------------------------------------------------------------
    # Per-level frame state.  ``conflicts[i]`` collects the earlier
    # levels whose assignments refuted some candidate at level i; when i
    # exhausts, the search jumps straight to the deepest of them (redo)
    # — unless a solution was yielded below the current prefix
    # (``sol_below``), in which case only a plain one-step backtrack
    # keeps the enumeration complete.  Candidates refuted by
    # target-static facts (label, degree, signatures) record no
    # conflict: an anchored level still depends on its primary's image
    # (seeded into the set at entry), while a bucket level exhausting
    # with an empty set is refuted outright.
    iters: List[Optional[Iterator]] = [None] * pn
    conflicts: List[Optional[Set[int]]] = [None] * pn
    sol_below = [False] * pn

    try:
        i = start
        ppos = primary_pos[i]
        if ppos >= 0:
            iters[i] = iter(t_adj[images[ppos]].items())
            conflicts[i] = {ppos}
        else:
            iters[i] = iter(label_buckets.get(want_labels[i], ()))
            conflicts[i] = set()
        while True:
            # ---- seek the next viable candidate at level i ----
            it = iters[i]
            conf = conflicts[i]
            ppos = primary_pos[i]
            need_el = primary_elabel[i]
            want_label = want_labels[i]
            want_degree = want_degrees[i]
            found = -1
            for nxt in it:  # type: ignore[union-attr]
                if token is not None:
                    pending += 1
                    if pending >= check_interval:
                        # Zero before charging: a raising charge() has
                        # already accounted these steps, so the finally
                        # flush must not re-add them.
                        steps, pending = pending, 0
                        token.charge(steps)  # raises BudgetExceeded
                if ppos >= 0:
                    tv, el = nxt
                    if el != need_el or t_labels[tv] != want_label:
                        continue
                else:
                    tv = nxt
                row = t_adj[tv]
                if len(row) < want_degree:
                    continue
                owner = used.get(tv)
                if owner is not None:
                    conf.add(owner)  # type: ignore[union-attr]
                    continue
                if lvl_vsig is not None:
                    rv = lvl_vsig[i]
                    if (rv & t_vsig[tv]) != rv:  # type: ignore[index]
                        continue
                    re_ = lvl_esig[i]  # type: ignore[index]
                    if (re_ & t_esig[tv]) != re_:  # type: ignore[index]
                        continue
                ok = True
                for j, el2 in rest_anchors[i]:
                    if row.get(images[j], _MISSING) != el2:
                        conf.add(j)  # type: ignore[union-attr]
                        ok = False
                        break
                if not ok:
                    continue
                if par_bounds is not None:
                    tb = tv * tn
                    for j, be, bo in par_bounds[i]:
                        mj = tb + images[j]
                        if (be < 255 and t_even[mj] > be) or (  # type: ignore[index]
                            bo < 255 and t_odd[mj] > bo  # type: ignore[index]
                        ):
                            conf.add(j)  # type: ignore[union-attr]
                            ok = False
                            break
                    if not ok:
                        continue
                found = tv
                break

            if found < 0:
                # ---- level exhausted: backjump (or backtrack) ----
                if sol_below[i]:
                    jump = i - 1
                elif conf:
                    jump = max(conf)  # type: ignore[arg-type]
                else:
                    jump = -1  # refuted independently of earlier levels
                if jump < start:
                    return
                if until_parity:
                    until_parity -= 1
                    if not until_parity:
                        # A pattern that keeps no bound never builds the
                        # target's rows.
                        par_bounds = cp.parity_bounds()
                        if par_bounds is not None:
                            t_par = tindex.parity_rows()
                            if t_par is None:
                                par_bounds = None
                            else:
                                t_even, t_odd = t_par
                jump_conf = conflicts[jump]
                jump_conf |= conf  # type: ignore[operator, arg-type]
                jump_conf.discard(jump)  # type: ignore[union-attr]
                if sol_below[i]:
                    sol_below[jump] = True
                while i > jump:
                    i -= 1
                    tv = images[i]
                    del used[tv]
                    del mapping[order[i]]
                    images[i] = -1
                continue

            # ---- place and descend ----
            mapping[order[i]] = found
            used[found] = i
            images[i] = found
            i += 1
            if i == pn:
                emitted += 1
                yield dict(mapping)
                if limit is not None and emitted >= limit:
                    return
                for j in range(start, pn):
                    sol_below[j] = True
                i -= 1
                tv = images[i]
                del used[tv]
                del mapping[order[i]]
                images[i] = -1
                continue
            ppos = primary_pos[i]
            if ppos >= 0:
                iters[i] = iter(t_adj[images[ppos]].items())
                conflicts[i] = {ppos}
            else:
                iters[i] = iter(label_buckets.get(want_labels[i], ()))
                conflicts[i] = set()
            sol_below[i] = False
    finally:
        # Exact accounting (the pre-fix code dropped up to
        # CHECK_INTERVAL-1 steps per call): flush the sub-interval
        # remainder on every exit — normal exhaustion, limit, generator
        # close, or BudgetExceeded unwind.  Non-raising by contract.
        if token is not None and pending:
            token.flush(pending)


@hot_path
def is_subgraph_isomorphic(
    pattern: LabeledGraph,
    target: LabeledGraph,
    token: Optional["CancellationToken"] = None,
    prefilter: bool = True,
    compiled: Optional[CompiledPattern] = None,
) -> bool:
    """``pattern ⊆ target`` in the sense of Definition 3.

    ``token`` bounds the search (see :func:`subgraph_monomorphisms`);
    expiry raises :class:`~repro.exceptions.BudgetExceeded` rather than
    guessing an answer.  ``prefilter`` and ``compiled`` (an unseeded
    :class:`CompiledPattern` of ``pattern``) are passed through to the
    matcher.
    """
    for _ in subgraph_monomorphisms(
        pattern, target, limit=1, token=token, prefilter=prefilter, compiled=compiled
    ):
        return True
    return False


def count_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: Optional[int] = None,
    token: Optional["CancellationToken"] = None,
) -> int:
    """Number of monomorphisms of ``pattern`` into ``target`` (capped by ``limit``).

    ``token`` bounds the enumeration exactly like
    :func:`subgraph_monomorphisms` (the pre-fix signature offered no
    pass-through, so budgeted callers could not bound the count).
    """
    return sum(
        1 for _ in subgraph_monomorphisms(pattern, target, limit=limit, token=token)
    )


def are_isomorphic(
    g1: LabeledGraph,
    g2: LabeledGraph,
    token: Optional["CancellationToken"] = None,
    compiled: Optional[CompiledPattern] = None,
) -> bool:
    """Exact isomorphism test (Definition 2).

    With equal vertex and edge counts, any monomorphism is bijective and
    must hit every edge of ``g2``, so it is a full isomorphism.
    ``token`` bounds the underlying search; expiry raises
    :class:`~repro.exceptions.BudgetExceeded`.  ``compiled`` is an
    unseeded :class:`CompiledPattern` of ``g1``, for callers that test
    one graph against many.
    """
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    # Cheap refutations: isomorphic graphs share their vertex-label
    # multiset and the label-pair counts of their (cached, and reused by
    # the matcher) MatcherIndex.
    if Counter(g1.vertex_labels()) != Counter(g2.vertex_labels()):
        return False
    if g1.matcher_index().pair_counts != g2.matcher_index().pair_counts:
        return False
    return is_subgraph_isomorphic(g1, g2, token=token, compiled=compiled)


def automorphisms(
    graph: LabeledGraph, token: Optional["CancellationToken"] = None
) -> List[Dict[int, int]]:
    """All label-preserving automorphisms of ``graph``.

    The identity is always included (for a non-empty graph).  Feature trees
    are small, so full enumeration is cheap; Section 5.3.1 uses these to
    minimize over symmetric renamings when building reconstruction forms.
    ``token`` optionally bounds the enumeration.
    """
    return list(subgraph_monomorphisms(graph, graph, token=token))
