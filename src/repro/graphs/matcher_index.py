"""Per-graph matcher acceleration structures (l2Match / CNI style).

The subgraph matcher in :mod:`repro.graphs.isomorphism` spends almost
all of its time expanding candidate vertices that a cheap invariant
could have refuted up front.  This module precomputes three such
invariants per graph, cached on :class:`~repro.graphs.graph.
LabeledGraph` (see ``LabeledGraph.matcher_index``) and invalidated by
``add_vertex``/``add_edge``:

* **Label-pair edge index** (l2Match's label-pair filter) —
  ``pair_counts[(l(u), l(uv), l(v))]`` counts directed incidences of
  each (vertex label, edge label, vertex label) triple.  A monomorphism
  maps every pattern incidence onto a distinct target incidence with the
  same triple, so a pattern whose pair multiset is not contained in the
  target's cannot embed at all; the matcher also uses the counts to pick
  the *rarest* label pair as each level's primary anchor.

* **Neighboring-label bitset signatures** (l2Match's NLI / the Compact
  Neighborhood Index) — ``nbr_vsig[v]`` / ``nbr_esig[v]`` are bitsets
  over the graph's own dense label alphabets (``vlabel_bits`` /
  ``elabel_bits``) recording which vertex and edge labels appear on
  ``v``'s incident edges.  A target vertex can host a pattern vertex
  only if its signatures are supersets of the pattern vertex's
  requirements — one AND plus compare refutes a candidate before any
  adjacency walk.

* **Walk-parity distance matrices** — ``parity_rows()`` returns two
  flat ``n*n`` bytearrays holding, for every ordered vertex pair, the
  minimum length of a connecting walk of even and of odd length
  (``255`` = none of length <= 254).  Monomorphisms map walks onto
  equal-length walks, so for every pattern pair with a finite parity-p
  walk bound the images must satisfy the same bound in the target.
  This is the invariant that collapses the classic adversarial
  instance — an odd cycle against a bipartite grid — at search depth 1
  instead of after an exponential path enumeration: adjacent odd-cycle
  vertices need both an odd walk (length 1) and an *even* walk (around
  the cycle) between their images, and no bipartite graph has both.
  Only a target builds the full matrices.  A pattern bound can fail
  only at a level placed before the pattern's last 2-core vertex (see
  :class:`~repro.graphs.isomorphism.CompiledPattern`), so the matcher
  runs :func:`parity_bfs` from those levels alone, and a forest pattern
  never asks its target for parity rows at all.

All three are *necessary* conditions on (partial) monomorphisms, so
using them to refute candidates never changes an answer set — the
30-corpus differential suites pin that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # structural typing avoids a module cycle with graph.py
    from repro.graphs.graph import LabeledGraph

#: Walk-parity matrices cost ``2 * n**2`` bytes plus one BFS per vertex;
#: above this vertex count :meth:`MatcherIndex.parity_rows` returns
#: ``None`` and the matcher simply skips parity pruning (the label-pair
#: and signature filters still apply).  Database graphs in the paper's
#: workloads are 1-2 orders of magnitude below the gate.
PARITY_MAX_VERTICES = 512

#: Stored parity distance meaning "no walk of length <= 254 with this
#: parity".  Clamping is sound on both sides: a pattern bound of 255 is
#: treated as *no constraint*, and a target value of 255 only ever fails
#: bounds below 255 — which a real walk could not satisfy either.
PARITY_INF = 255


class MatcherIndex:
    """Cached matcher-side invariants of one :class:`LabeledGraph`.

    Built once per graph (lazily, via ``graph.matcher_index()``) and
    shared by every subsequent matcher call against that graph.  The
    structure holds a reference to the graph's adjacency only to build
    the parity matrices on first use; the owning graph drops the whole
    index on mutation, so a live ``MatcherIndex`` always describes the
    current structure.
    """

    __slots__ = (
        "num_vertices",
        "vlabel_bits",
        "elabel_bits",
        "nbr_vsig",
        "nbr_esig",
        "pair_counts",
        "_adj",
        "_parity",
    )

    def __init__(self, graph: "LabeledGraph") -> None:
        adj = graph._adj
        vlabels = graph._vlabels
        n = len(vlabels)
        self.num_vertices = n
        self._adj = adj
        self._parity: Optional[Tuple[bytearray, bytearray]] = None

        vbits: Dict[Hashable, int] = {}
        for lbl in vlabels:
            if lbl not in vbits:
                vbits[lbl] = 1 << len(vbits)
        ebits: Dict[Hashable, int] = {}
        nbr_vsig = [0] * n
        nbr_esig = [0] * n
        pair_counts: Dict[Tuple[Hashable, Hashable, Hashable], int] = {}
        for u in range(n):
            lu = vlabels[u]
            sv = se = 0
            # Bitwise ORs and counts commute — iteration order is free.
            for v, el in adj[u].items():
                eb = ebits.get(el)
                if eb is None:
                    eb = 1 << len(ebits)
                    ebits[el] = eb
                sv |= vbits[vlabels[v]]
                se |= eb
                key = (lu, el, vlabels[v])
                pair_counts[key] = pair_counts.get(key, 0) + 1
            nbr_vsig[u] = sv
            nbr_esig[u] = se
        self.vlabel_bits = vbits
        self.elabel_bits = ebits
        self.nbr_vsig = nbr_vsig
        self.nbr_esig = nbr_esig
        self.pair_counts = pair_counts

    # ------------------------------------------------------------------
    # walk-parity distances (lazy; size-gated)
    # ------------------------------------------------------------------
    def parity_rows(self) -> Optional[Tuple[bytearray, bytearray]]:
        """``(even, odd)`` flat ``n*n`` min-walk-length matrices, or ``None``.

        ``even[s * n + t]`` is the minimum length of an even-length walk
        from ``s`` to ``t`` (0 for ``s == t``), ``odd`` likewise for odd
        walks; :data:`PARITY_INF` marks pairs with no such walk of
        length <= 254.  Built on first call with one BFS over
        ``(vertex, parity)`` states per source; graphs above
        :data:`PARITY_MAX_VERTICES` return ``None`` (callers skip
        parity pruning).
        """
        n = self.num_vertices
        if n > PARITY_MAX_VERTICES:
            return None
        if self._parity is None:
            self._parity = self._build_parity()
        return self._parity

    def _build_parity(self) -> Tuple[bytearray, bytearray]:
        return parity_bfs(self._adj, range(self.num_vertices))


def parity_bfs(
    adj: Sequence[Mapping[int, object]], sources: Sequence[int]
) -> Tuple[bytearray, bytearray]:
    """Minimum even and odd walk lengths from each source to every vertex.

    Row ``r`` of the two flat ``len(sources) * n`` bytearrays belongs to
    the ``r``-th source: ``even[r * n + t]`` is the minimum length of an
    even-length walk from it to ``t`` (0 for the source itself), ``odd``
    likewise for odd walks, :data:`PARITY_INF` where no such walk of
    length <= 254 exists.  One layered BFS over ``(vertex, parity)``
    states per source.  Serves both a target's all-pairs
    :meth:`MatcherIndex.parity_rows` and the few pattern levels whose
    bounds a :class:`~repro.graphs.isomorphism.CompiledPattern` keeps.
    """
    n = len(adj)
    even = bytearray(b"\xff" * (len(sources) * n))
    odd = bytearray(b"\xff" * (len(sources) * n))
    for r, s in enumerate(sources):
        base = r * n
        even[base + s] = 0
        # Layer d holds the vertices first reached by a walk of length d
        # with parity d % 2; lengths past 254 stay clamped at PARITY_INF.
        layer = [s]
        d = 0
        while layer and d < PARITY_INF - 1:
            d += 1
            row = odd if d & 1 else even
            reached = []
            for v in layer:
                for w in adj[v]:
                    if row[base + w] == PARITY_INF:
                        row[base + w] = d
                        reached.append(w)
            layer = reached
    return even, odd


def pair_subsumed(pattern_index: MatcherIndex, target_index: MatcherIndex) -> bool:
    """Is the pattern's label-pair incidence multiset contained in the target's?

    ``False`` *proves* the pattern cannot embed (each pattern incidence
    needs a distinct same-triple target incidence); ``True`` says
    nothing.  O(distinct pattern triples) dictionary probes — the cheap
    whole-graph refutation center pruning and verification run before
    touching the backtracking matcher.
    """
    tcounts = target_index.pair_counts
    for key, cnt in pattern_index.pair_counts.items():
        if tcounts.get(key, 0) < cnt:
            return False
    return True
