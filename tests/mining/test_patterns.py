"""Unit tests for the MinedPattern record."""

from repro.graphs import path_graph
from repro.mining import MinedPattern


class TestMinedPattern:
    def _pattern(self):
        return MinedPattern(path_graph(["a", "b"]), key="K")

    def test_add_embedding_dedupes(self):
        p = self._pattern()
        assert p.add_embedding(0, (3, 4))
        assert not p.add_embedding(0, (3, 4))
        assert p.add_embedding(0, (4, 3))
        assert p.total_embeddings() == 2

    def test_support_counts_graphs(self):
        p = self._pattern()
        p.add_embedding(0, (1, 2))
        p.add_embedding(0, (5, 6))
        p.add_embedding(3, (0, 1))
        assert p.support == 2
        assert p.support_set() == frozenset({0, 3})

    def test_size_is_edge_count(self):
        assert self._pattern().size == 1

    def test_iter_embeddings_missing_graph(self):
        assert list(self._pattern().iter_embeddings(9)) == []

    def test_repr_contains_counts(self):
        p = self._pattern()
        p.add_embedding(0, (1, 2))
        assert "support=1" in repr(p)
