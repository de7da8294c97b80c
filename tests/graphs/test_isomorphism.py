"""Unit tests for the prefiltered backjumping monomorphism matcher."""

import pytest

from repro.core.budget import QueryBudget
from repro.exceptions import BudgetExceeded
from repro.graphs import (
    LabeledGraph,
    are_isomorphic,
    automorphisms,
    count_embeddings,
    cycle_graph,
    is_subgraph_isomorphic,
    path_graph,
    star_graph,
    subgraph_monomorphisms,
)
from repro.graphs.isomorphism import (
    CompiledPattern,
    _matching_order,
    label_pair_refuted,
)


class TestMonomorphisms:
    def test_single_edge_in_triangle(self, triangle):
        q = LabeledGraph(["C", "C"], [(0, 1, 1)])
        # Edges (0,1) and (1,2) match labels C-C with edge label 1; the C-N
        # edge (2,0) has label 2 and vertex N.  Matches: (0,1),(1,0),(1,... )
        embs = list(subgraph_monomorphisms(q, triangle))
        images = {frozenset(m.values()) for m in embs}
        assert images == {frozenset({0, 1})}
        assert len(embs) == 2  # both orientations

    def test_edge_label_must_match(self, triangle):
        q = LabeledGraph(["C", "N"], [(0, 1, 3)])
        assert not is_subgraph_isomorphic(q, triangle)  # no C-N edge labeled 3

    def test_vertex_label_must_match(self, triangle):
        q = LabeledGraph(["O", "C"], [(0, 1, 1)])
        assert not is_subgraph_isomorphic(q, triangle)

    def test_non_induced_semantics(self):
        # Pattern path a-b-c embeds into the labeled triangle even though
        # the triangle has an extra a-c edge (edge subgraph, Definition 3).
        pattern = path_graph(["a", "b", "c"])
        target = LabeledGraph(["a", "b", "c"], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert is_subgraph_isomorphic(pattern, target)

    def test_pattern_larger_than_target(self):
        assert not is_subgraph_isomorphic(
            path_graph(["a"] * 4), path_graph(["a"] * 3)
        )

    def test_empty_pattern_yields_nothing(self, triangle):
        assert list(subgraph_monomorphisms(LabeledGraph(), triangle)) == []

    def test_seed_restricts_results(self, triangle):
        q = LabeledGraph(["C", "C"], [(0, 1, 1)])
        embs = list(subgraph_monomorphisms(q, triangle, seed={0: 0}))
        assert embs == [{0: 0, 1: 1}]

    def test_bad_seed_label(self, triangle):
        q = LabeledGraph(["C", "C"], [(0, 1, 1)])
        assert list(subgraph_monomorphisms(q, triangle, seed={0: 2})) == []

    def test_bad_seed_edge(self, triangle):
        q = LabeledGraph(["C", "N"], [(0, 1, 1)])  # C-N with label 1 absent
        assert list(subgraph_monomorphisms(q, triangle, seed={0: 0, 1: 2})) == []

    def test_seed_with_duplicate_targets_rejected(self):
        q = path_graph(["a", "a", "a"])
        t = path_graph(["a", "a", "a", "a"])
        assert list(subgraph_monomorphisms(q, t, seed={0: 1, 2: 1})) == []

    def test_limit(self):
        q = LabeledGraph(["a", "a"], [(0, 1, 1)])
        t = cycle_graph(["a"] * 6)
        assert len(list(subgraph_monomorphisms(q, t))) == 12
        assert len(list(subgraph_monomorphisms(q, t, limit=5))) == 5

    def test_disconnected_pattern(self):
        pattern = LabeledGraph(["a", "b", "a", "b"], [(0, 1, 1), (2, 3, 1)])
        target = path_graph(["a", "b", "a", "b"])
        assert is_subgraph_isomorphic(pattern, target)

    def test_count_embeddings(self):
        star = star_graph("h", ["x", "x"])
        target = star_graph("h", ["x", "x", "x"])
        # choose 2 ordered leaves of 3: 6 embeddings
        assert count_embeddings(star, target) == 6

    def test_none_edge_labels_are_matched_exactly(self):
        # None is a legal edge label and must not collide with any real
        # label (the candidate filter uses a sentinel, not None).
        pattern = LabeledGraph(["a", "b"], [(0, 1, None)])
        target = LabeledGraph(["a", "b", "b"], [(0, 1, None), (0, 2, 1)])
        assert list(subgraph_monomorphisms(pattern, target)) == [{0: 0, 1: 1}]
        labeled = LabeledGraph(["a", "b"], [(0, 1, 1)])
        assert list(subgraph_monomorphisms(labeled, target)) == [{0: 0, 1: 2}]

    def test_prefilter_flag_does_not_change_answers(self, triangle):
        q = LabeledGraph(["C", "C"], [(0, 1, 1)])
        fast = list(subgraph_monomorphisms(q, triangle))
        slow = list(subgraph_monomorphisms(q, triangle, prefilter=False))
        assert fast == slow


class TestMatchingOrder:
    """Component-contiguous ordering (the disconnected-pattern fix).

    The pre-fix fallback refilled an empty frontier from the *global*
    vertex pool, so a disconnected pattern could interleave components
    and strand mid-component levels without a matched anchor.
    """

    @staticmethod
    def _component_runs(pattern, order, skip):
        comps = pattern.connected_components()
        comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
        runs = []
        for v in order[skip:]:
            ci = comp_of[v]
            if not runs or runs[-1] != ci:
                runs.append(ci)
        return runs

    def test_seeded_components_come_first_in_seed_order(self):
        # Two disjoint paths; one seed in each component, second
        # component's seed listed first.
        pattern = LabeledGraph(
            ["a"] * 6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]
        )
        order = _matching_order(pattern, (5, 0))
        assert order[:2] == [5, 0]
        assert self._component_runs(pattern, order, skip=2) == [1, 0]

    def test_unseeded_components_ordered_by_max_degree(self):
        # A 3-leaf star (max degree 3) must precede the path (max degree
        # 2) even though the path holds the smaller vertex ids.
        pattern = LabeledGraph(
            ["a"] * 7,
            [(0, 1, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (3, 6, 1)],
        )
        order = _matching_order(pattern, ())
        assert order[0] == 3
        assert set(order[:4]) == {3, 4, 5, 6}
        assert self._component_runs(pattern, order, skip=0) == [1, 0]

    def test_each_component_is_one_contiguous_run(self):
        pattern = LabeledGraph(
            ["a"] * 9,
            [(0, 1, 1), (2, 3, 1), (3, 4, 1), (5, 6, 1), (6, 7, 1), (7, 8, 1)],
        )
        order = _matching_order(pattern, ())
        runs = self._component_runs(pattern, order, skip=0)
        assert sorted(runs) == [0, 1, 2]  # no component re-entered

    def test_non_first_vertices_touch_their_component_prefix(self):
        pattern = LabeledGraph(
            ["a"] * 9,
            [(0, 1, 1), (2, 3, 1), (3, 4, 1), (5, 6, 1), (6, 7, 1), (7, 8, 1)],
        )
        order = _matching_order(pattern, ())
        placed = set()
        firsts = 0
        for v in order:
            if not any(w in placed for w in pattern.neighbors(v)):
                firsts += 1  # the entry point of a fresh component
            placed.add(v)
        assert firsts == len(pattern.connected_components())

    def test_two_component_pattern_enumerates_exactly(self):
        # Two disjoint a-b edges into the path a-b-a-b: the two pattern
        # edges must land on vertex-disjoint oriented a-b pairs.
        pattern = LabeledGraph(["a", "b", "a", "b"], [(0, 1, 1), (2, 3, 1)])
        target = path_graph(["a", "b", "a", "b"])
        embs = list(subgraph_monomorphisms(pattern, target))
        assert sorted(embs, key=lambda m: m[0]) == [
            {0: 0, 1: 1, 2: 2, 3: 3},
            {0: 2, 1: 3, 2: 0, 3: 1},
        ]

    def test_seed_across_components_restricts_exactly(self):
        pattern = LabeledGraph(["a", "b", "a", "b"], [(0, 1, 1), (2, 3, 1)])
        target = path_graph(["a", "b", "a", "b"])
        assert list(subgraph_monomorphisms(pattern, target, seed={0: 2})) == [
            {0: 2, 1: 3, 2: 0, 3: 1}
        ]


class TestIsomorphism:
    def test_relabeled_graphs_isomorphic(self, small_tree):
        assert are_isomorphic(small_tree, small_tree.relabeled([2, 0, 4, 1, 3]))

    def test_different_sizes_not_isomorphic(self):
        assert not are_isomorphic(path_graph(["a"] * 3), path_graph(["a"] * 4))

    def test_same_sizes_different_structure(self):
        p4 = path_graph(["a"] * 4)
        s3 = star_graph("a", ["a", "a", "a"])
        assert not are_isomorphic(p4, s3)

    def test_edge_label_sensitivity(self):
        g1 = path_graph(["a", "a", "a"], edge_label=1)
        g2 = LabeledGraph(["a", "a", "a"], [(0, 1, 1), (1, 2, 2)])
        assert not are_isomorphic(g1, g2)

    def test_cycle_vs_path_plus_edge(self):
        c4 = cycle_graph(["a"] * 4)
        other = LabeledGraph(["a"] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert not are_isomorphic(c4, other)

    def test_isolated_vertex_labels_count(self):
        """Equal label-pair counts, different labels on isolated vertices."""
        g1 = LabeledGraph(["a", "a", "b"], [(0, 1, 1)])
        g2 = LabeledGraph(["a", "a", "c"], [(0, 1, 1)])
        assert not are_isomorphic(g1, g2)
        assert are_isomorphic(g1, LabeledGraph(["b", "a", "a"], [(1, 2, 1)]))


class TestAutomorphisms:
    def test_identity_always_present(self, small_tree):
        auts = automorphisms(small_tree)
        assert {v: v for v in small_tree.vertices()} in auts

    def test_path_with_symmetric_labels(self):
        p = path_graph(["a", "b", "a"])
        auts = automorphisms(p)
        assert len(auts) == 2  # identity and the flip

    def test_asymmetric_path(self):
        p = path_graph(["a", "b", "c"])
        assert len(automorphisms(p)) == 1

    def test_uniform_cycle(self):
        c = cycle_graph(["a"] * 5)
        assert len(automorphisms(c)) == 10  # dihedral group D5

    def test_star_symmetry(self):
        s = star_graph("h", ["x", "x", "x"])
        assert len(automorphisms(s)) == 6  # S3 on the leaves


class TestTokenPassThrough:
    """The convenience wrappers forward ``token=`` into the enumerator.

    Pre-fix, :func:`count_embeddings`, :func:`are_isomorphic` and
    :func:`automorphisms` accepted no token at all, so budgeted callers
    could not bound them: a severed cancellation chain at the API
    boundary.
    """

    @staticmethod
    def _hard_instance():
        # Same adversary as the budget tests: odd cycle vs bipartite grid.
        m = n = 6
        verts = ["a"] * (m * n)
        edges = []
        for r in range(m):
            for c in range(n):
                v = r * n + c
                if c + 1 < n:
                    edges.append((v, v + 1, 1))
                if r + 1 < m:
                    edges.append((v, v + n, 1))
        grid = LabeledGraph(verts, edges)
        cycle = LabeledGraph(["a"] * 9, [(i, (i + 1) % 9, 1) for i in range(9)])
        return cycle, grid

    def test_count_embeddings_honors_budget(self):
        cycle, grid = self._hard_instance()
        token = QueryBudget(verify_steps=10).start()
        with pytest.raises(BudgetExceeded):
            count_embeddings(cycle, grid, token=token)
        assert token.expired and token.reason == "verify-budget"

    def test_automorphisms_honors_budget(self):
        token = QueryBudget(verify_steps=10).start()
        with pytest.raises(BudgetExceeded):
            automorphisms(cycle_graph(["a"] * 12), token=token)

    def test_are_isomorphic_charges_the_token(self):
        # The search here finishes inside one checkpoint interval, so the
        # residual flush (not a raising charge) is what must land: the
        # call succeeds, and the over-cap ledger expires the token.
        g = cycle_graph(["a"] * 6)
        token = QueryBudget(verify_steps=0).start()
        assert are_isomorphic(g, g.relabeled([3, 4, 5, 0, 1, 2]), token=token)
        assert token.work_charged > 0
        assert token.expired and token.reason == "verify-budget"

    def test_generous_tokens_change_no_answers(self):
        g = cycle_graph(["a"] * 6)
        budget = QueryBudget(verify_steps=100_000)
        assert are_isomorphic(g, g.relabeled([1, 2, 3, 4, 5, 0]), token=budget.start())
        assert count_embeddings(g, g, token=budget.start()) == 12
        assert len(automorphisms(g, token=budget.start())) == 12


class TestCompiledPattern:
    def test_reused_across_targets(self):
        pattern = cycle_graph(["a"] * 4)
        compiled = CompiledPattern(pattern)
        targets = [cycle_graph(["a"] * 4), path_graph(["a"] * 6), cycle_graph(["a"] * 5)]
        for target in targets:
            assert list(
                subgraph_monomorphisms(pattern, target, compiled=compiled)
            ) == list(subgraph_monomorphisms(pattern, target))
        assert is_subgraph_isomorphic(pattern, targets[0], compiled=compiled)
        assert not is_subgraph_isomorphic(pattern, targets[1], compiled=compiled)

    def test_seeded_compile_serves_seeds_with_its_keys(self):
        pattern = path_graph(["a", "b", "a"])
        target = star_graph("b", ["a", "a", "a"])
        compiled = CompiledPattern(pattern, (0,))
        assert compiled.order[0] == 0
        got = list(subgraph_monomorphisms(pattern, target, seed={0: 1}, compiled=compiled))
        assert got == list(subgraph_monomorphisms(pattern, target, seed={0: 1}))
        assert len(got) == 2

    def test_mismatched_compile_is_rejected(self):
        pattern = path_graph(["a", "b", "a"])
        target = star_graph("b", ["a", "a", "a"])
        with pytest.raises(ValueError):
            list(subgraph_monomorphisms(pattern, target, compiled=CompiledPattern(pattern, (0,))))
        with pytest.raises(ValueError):
            list(subgraph_monomorphisms(pattern.copy(), target, compiled=CompiledPattern(pattern)))

    def test_label_pair_refutation(self):
        triangle = cycle_graph(["a"] * 3)
        assert label_pair_refuted(LabeledGraph([], []), triangle)
        assert label_pair_refuted(path_graph(["a"] * 4), triangle)  # too many vertices
        assert label_pair_refuted(path_graph(["a", "b"]), triangle)
        assert not label_pair_refuted(path_graph(["a", "b"]), triangle, prefilter=False)
        assert not label_pair_refuted(path_graph(["a"] * 3), triangle)

    def test_are_isomorphic_with_compiled_probe(self):
        g = cycle_graph(["a"] * 6)
        compiled = CompiledPattern(g)
        assert are_isomorphic(g, g.relabeled([1, 2, 3, 4, 5, 0]), compiled=compiled)
        two_triangles = LabeledGraph(
            ["a"] * 6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]
        )
        assert not are_isomorphic(g, two_triangles, compiled=compiled)
