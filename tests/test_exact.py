import itertools
import random
from fractions import Fraction

import pytest
from helpers import brute_max_weight_independent, reference_max_independent_set_exact

from ksetpack import (
    CapExceededError,
    ConflictGraph,
    ORACLE_CAP,
    conflict_graph,
    gen_random,
    is_packing,
    max_independent_set_exact,
    max_packing_exact,
    max_packing_value,
    packing_value,
)


def random_graph(rng, n, p, weighted):
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    weights = None
    if weighted:
        weights = [Fraction(rng.randrange(1, 20), rng.randrange(1, 5)) for _ in range(n)]
    return ConflictGraph.from_edges(n, edges, weights)


class TestMaxIndependentSet:
    def test_matches_bruteforce(self):
        rng = random.Random(20)
        for trial in range(60):
            n = rng.randrange(1, 13)
            g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.7]), trial % 2 == 1)
            got = max_independent_set_exact(g)
            want_val, want_members = brute_max_weight_independent(g)
            assert got == want_members
            assert sum((g.weights[v] for v in got), Fraction(0)) == want_val

    def test_lexicographic_tie_break(self):
        # path 0-1-2 with weights 1,2,1: {0,2} and {1} both weigh 2
        g = ConflictGraph.from_edges(
            3, [(0, 1), (1, 2)], [Fraction(1), Fraction(2), Fraction(1)]
        )
        assert max_independent_set_exact(g) == (0, 2)

    def test_empty_graph(self):
        g = ConflictGraph.from_edges(1, [])
        assert max_independent_set_exact(g) == (0,)

    def test_complete_graph_takes_heaviest(self):
        edges = list(itertools.combinations(range(5), 2))
        weights = [Fraction(w) for w in (2, 9, 4, 9, 1)]
        g = ConflictGraph.from_edges(5, edges, weights)
        assert max_independent_set_exact(g) == (1,)

    def test_cap(self):
        g = ConflictGraph.from_edges(ORACLE_CAP + 1, [])
        with pytest.raises(CapExceededError):
            max_independent_set_exact(g)
        assert len(max_independent_set_exact(g, cap=ORACLE_CAP + 1)) == ORACLE_CAP + 1


def optima(graph, value):
    """Every independent set of the given weight."""
    n = graph.vertex_count
    return [
        s
        for r in range(n + 1)
        for s in itertools.combinations(range(n), r)
        if not any(graph.adjacent(u, v) for u, v in itertools.combinations(s, 2))
        and sum((graph.weights[v] for v in s), Fraction(0)) == value
    ]


TIE_WEIGHTS = tuple(Fraction(p, q) for p, q in ((1, 6), (1, 3), (1, 2), (2, 3), (1, 1)))


class TestAgainstFractionOracle:
    """On integer-scaled weights the oracle must return the members of the
    Fraction-weight one: the same optimum and the same lex-smallest tie."""

    def test_tie_heavy_weights(self):
        rng = random.Random(31)
        ties = 0
        for trial in range(150):
            n = rng.randrange(1, 14)
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < rng.choice([0.2, 0.4, 0.6])
            ]
            weights = [rng.choice(TIE_WEIGHTS) for _ in range(n)]
            g = ConflictGraph.from_edges(n, edges, weights)
            got = max_independent_set_exact(g)
            assert got == reference_max_independent_set_exact(g)
            want_val, want_members = brute_max_weight_independent(g)
            assert got == want_members
            assert sum((g.weights[v] for v in got), Fraction(0)) == want_val
            ties += len(optima(g, want_val)) > 1
        assert ties >= 30  # the tie-break decides on many of the graphs


class TestMaxPacking:
    def test_fano_single_line(self, fano):
        best = max_packing_exact(fano)
        assert len(best.members) == 1
        assert max_packing_value(fano) == 1

    def test_pp3_single_line(self, pp3):
        assert max_packing_value(pp3) == 1

    def test_matches_independent_set_on_conflict_graph(self):
        rng = random.Random(8)
        for trial in range(15):
            got = gen_random(10, rng.randrange(4, 13), 3, seed=trial)
            best = max_packing_exact(got)
            assert is_packing(got, best)
            val, members = brute_max_weight_independent(conflict_graph(got))
            assert best.members == members
            assert packing_value(got, best) == val

    def test_weighted_prefers_value_over_cardinality(self):
        from ksetpack import Instance

        got = Instance(
            universe_size=4,
            sets=((0, 1), (2, 3), (0, 2)),
            k=2,
            weights=(Fraction(1), Fraction(1), Fraction(5)),
        )
        best = max_packing_exact(got)
        assert best.members == (2,)
        assert max_packing_value(got) == 5

    def test_cap_forwarded(self, fano):
        with pytest.raises(CapExceededError):
            max_packing_exact(fano, cap=3)
