import itertools
import random
from fractions import Fraction

import pytest
from helpers import all_pairs_conflict_graph, brute_claw_center
from hypothesis import given
from hypothesis import strategies as st

from ksetpack import (
    ConflictGraph,
    Instance,
    Packing,
    ParseError,
    WorkBudget,
    conflict_graph,
    gen_projective_plane,
    gen_random,
    instance_from_graph,
    is_packing,
    packing_value,
    parse_graph,
    parse_instance,
    serialize_instance,
    validate,
)
from ksetpack.weighted import _assert_claw_free


def inst(universe=6, sets=((0, 1), (2, 3)), k=2, weights=None):
    return Instance(universe_size=universe, sets=tuple(sets), k=k, weights=weights)


@st.composite
def instances(draw):
    universe = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(3, universe)))
    pool = list(itertools.chain.from_iterable(
        itertools.combinations(range(universe), size) for size in range(1, k + 1)
    ))
    sets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    weighted = draw(st.booleans())
    weights = None
    if weighted:
        weights = tuple(
            Fraction(draw(st.integers(min_value=1, max_value=40)), draw(st.integers(min_value=1, max_value=7)))
            for _ in sets
        )
    return Instance(universe_size=universe, sets=tuple(sets), k=k, weights=weights)


class TestValidate:
    def test_accepts_good_instance(self):
        assert validate(inst()) is None

    @pytest.mark.parametrize(
        "bad, rule",
        [
            (inst(universe=0), "universe-size"),
            (inst(sets=()), "set-count"),
            (inst(k=0), "k-positive"),
            (inst(sets=((0, 1, 2), (3,))), "set-size"),
            (inst(sets=((0,), ()), k=2), "set-size"),
            (inst(sets=((0, 0), (1, 2))), "duplicate-element"),
            (inst(sets=((0, 6), (1, 2))), "element-range"),
            (inst(sets=((1, 0), (2, 3))), "set-order"),
            (inst(weights=(Fraction(1),)), "weight-count"),
            (inst(weights=(Fraction(1), Fraction(0))), "weight-positive"),
        ],
    )
    def test_rejects(self, bad, rule):
        v = validate(bad)
        assert v is not None and v.rule == rule

    def test_reports_offending_index(self):
        v = validate(inst(sets=((0, 1), (2, 2))))
        assert v.index == 1


class TestProjectivePlane:
    def test_fano_shape(self, fano):
        assert fano.universe_size == 7
        assert fano.n == 7
        assert fano.k == 3
        assert all(len(s) == 3 for s in fano.sets)

    def test_order_three_shape(self, pp3):
        assert pp3.universe_size == 13
        assert pp3.n == 13
        assert pp3.k == 4
        assert all(len(s) == 4 for s in pp3.sets)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_any_two_lines_share_one_point(self, q):
        plane = gen_projective_plane(q)
        for a, b in itertools.combinations(plane.sets, 2):
            assert len(set(a) & set(b)) == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_point_on_q_plus_one_lines(self, q):
        plane = gen_projective_plane(q)
        count = [0] * plane.universe_size
        for s in plane.sets:
            for e in s:
                count[e] += 1
        assert all(c == q + 1 for c in count)

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
    def test_rejects_non_primes(self, q):
        with pytest.raises(ValueError):
            gen_projective_plane(q)

    def test_validates(self, fano, pp3):
        assert validate(fano) is None
        assert validate(pp3) is None


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(12, 15, 3, seed=7)
        b = gen_random(12, 15, 3, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        assert gen_random(12, 15, 3, seed=1) != gen_random(12, 15, 3, seed=2)

    def test_sets_distinct_sorted_k_uniform(self):
        got = gen_random(10, 30, 3, seed=3)
        assert len(set(got.sets)) == 30
        for s in got.sets:
            assert len(s) == 3 and s == tuple(sorted(s))
        assert validate(got) is None

    def test_rejects_when_too_few_subsets(self):
        with pytest.raises(ValueError):
            gen_random(4, 7, 2, seed=0)
        with pytest.raises(ValueError):
            gen_random(3, 1, 4, seed=0)

    def test_weights_on_grid_within_range(self):
        lo, hi = Fraction(1), Fraction(5)
        got = gen_random(12, 20, 3, seed=11, weight_range=(lo, hi))
        for w in got.weights:
            assert lo <= w <= hi
            step = (w - lo) / (hi - lo) * 1000
            assert step.denominator == 1

    def test_rejects_bad_weight_range(self):
        with pytest.raises(ValueError):
            gen_random(12, 5, 3, seed=0, weight_range=(Fraction(0), Fraction(2)))
        with pytest.raises(ValueError):
            gen_random(12, 5, 3, seed=0, weight_range=(Fraction(3), Fraction(2)))


class TestConflictGraph:
    def test_adjacency_is_set_overlap(self):
        got = gen_random(10, 16, 3, seed=5)
        g = conflict_graph(got)
        for i in range(got.n):
            for j in range(got.n):
                if i == j:
                    continue
                overlaps = bool(set(got.sets[i]) & set(got.sets[j]))
                assert g.adjacent(i, j) == overlaps

    @given(instances())
    def test_matches_all_pairs_reference(self, instance):
        assert conflict_graph(instance) == all_pairs_conflict_graph(instance)

    def test_fano_is_complete(self, fano):
        g = conflict_graph(fano)
        assert all(g.degree(v) == 6 for v in range(7))

    def test_weights_default_to_one(self):
        g = conflict_graph(inst())
        assert g.weights == (Fraction(1), Fraction(1))

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(2, [], weights=[Fraction(1)])
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(1, [], weights=[Fraction(0)])

    def test_edges_iterates_each_once_sorted(self):
        g = ConflictGraph.from_edges(4, [(2, 1), (0, 3), (1, 0)])
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


class TestPackingPredicates:
    def test_is_packing(self):
        i = inst(sets=((0, 1), (1, 2), (3, 4)))
        assert is_packing(i, Packing((0, 2)))
        assert not is_packing(i, Packing((0, 1)))
        assert is_packing(i, Packing(()))

    def test_is_packing_rejects_bad_index(self):
        with pytest.raises(ValueError):
            is_packing(inst(), Packing((5,)))

    def test_packing_value(self):
        i = inst(weights=(Fraction(3, 2), Fraction(2)))
        assert packing_value(i, Packing((0, 1))) == Fraction(7, 2)
        assert packing_value(inst(), Packing((0, 1))) == 2
        assert packing_value(inst(), Packing(())) == 0


class TestNeighborhoodOracle:
    """The claw-free check: some neighbourhood holds `bound` independent
    vertices exactly when the check fails at `bound`."""

    @staticmethod
    def claw_free(g, bound):
        try:
            _assert_claw_free(g, bound, WorkBudget())
        except ValueError:
            return False
        return True

    def test_star_center(self):
        g = ConflictGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not self.claw_free(g, 3)
        assert self.claw_free(g, 4)

    def test_triangle(self):
        g = ConflictGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert self.claw_free(g, 2)

    def test_isolated_vertex(self):
        g = ConflictGraph.from_edges(1, [])
        assert self.claw_free(g, 1)

    def test_paw_neighborhood(self):
        # center 0 sees a triangle edge (1,2) plus a pendant vertex 3
        g = ConflictGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert not self.claw_free(g, 2)
        assert self.claw_free(g, 3)

    def test_conflict_graph_of_instance_is_claw_bounded(self):
        # k-set instances are (k+1)-claw-free: neighborhoods hold at most k
        # pairwise-disjoint conflicting sets
        g = conflict_graph(gen_random(12, 14, 3, seed=9))
        _assert_claw_free(g, 4, WorkBudget())

    def test_matches_bruteforce(self):
        # the verdict and the least witness center; a hub adjacent to every
        # vertex holds the large independent sets of the rest
        rng = random.Random(17)
        for density in (0.2, 0.5, 0.8):
            for trial in range(12):
                n = rng.randrange(1, 13)
                hub = rng.randrange(n)
                edges = [
                    (u, v)
                    for u, v in itertools.combinations(range(n), 2)
                    if hub in (u, v) or rng.random() < density
                ]
                g = ConflictGraph.from_edges(n, edges)
                for bound in range(1, 6):
                    center = brute_claw_center(g, bound)
                    if center is None:
                        assert self.claw_free(g, bound)
                        continue
                    with pytest.raises(ValueError, match=rf"\(witness center {center}\)$"):
                        _assert_claw_free(g, bound, WorkBudget())

    @pytest.mark.parametrize(
        "graph, bound, center, units",
        [
            (ConflictGraph.from_edges(11, [(0, i) for i in range(1, 11)]), 3, 0, 3),
            (ConflictGraph.from_edges(31, [(0, i) for i in range(1, 31)]), 31, None, 0),
            (conflict_graph(gen_projective_plane(5)), 6, None, 10_850),
            (ConflictGraph.from_edges(4, list(itertools.combinations(range(4), 2))), 2, None, 20),
            (conflict_graph(gen_random(12, 14, 3, seed=9)), 4, None, 387),
        ],
        ids=["star-10", "star-30", "plane-5", "k4", "random-14"],
    )
    def test_work_units(self, graph, bound, center, units):
        # one unit per neighbour tried; a branch stops once too few are left
        budget = WorkBudget()
        if center is None:
            _assert_claw_free(graph, bound, budget)
        else:
            with pytest.raises(ValueError, match=rf"\(witness center {center}\)$"):
                _assert_claw_free(graph, bound, budget)
        assert budget.spent == units


class TestInstanceFromGraph:
    def test_conflict_graph_round_trips(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randrange(2, 9)
            possible = list(itertools.combinations(range(n), 2))
            edges = rng.sample(possible, rng.randrange(0, len(possible) + 1))
            got = instance_from_graph(n, edges)
            g = conflict_graph(got)
            assert sorted(g.edges()) == sorted(
                (min(u, v), max(u, v)) for u, v in edges
            )

    def test_isolated_vertices_get_private_elements(self):
        got = instance_from_graph(3, [(0, 1)])
        assert got.n == 3
        assert validate(got) is None
        assert not set(got.sets[2]) & (set(got.sets[0]) | set(got.sets[1]))

    def test_weights_carried(self):
        got = instance_from_graph(2, [(0, 1)], weights=[Fraction(3), Fraction(4)])
        assert got.weights == (Fraction(3), Fraction(4))

    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            instance_from_graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            instance_from_graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            instance_from_graph(2, [(0, 2)])


# Faults in the grammar both file formats share, as (instance text, graph
# text, line): each must fail at that line in both parsers.
SHARED_GRAMMAR_ERRORS = [
    ("p setpack 5 2 2\np setpack 5 2 2\n", "p graph 3 1\np graph 3 1\n", 2),
    ("p setpak 5 2 2\n1 2\n3 4\n", "p grahp 3 1\n1 2\n", 1),
    ("p setpack x 2 2\n1 2\n3 4\n", "p graph 3 x\n1 2\n", 1),
    ("p setpack 5 -1 2\n", "p graph 3 -1\n", 1),
    ("w 1 2\np setpack 5 2 2\n1 2\n3 4\n", "w 1 2 3\np graph 3 1\n1 2\n", 1),
    ("p setpack 5 2 2\nw 1 2\nw 1 2\n1 2\n3 4\n", "p graph 3 1\nw 1 2 3\nw 1 2 3\n1 2\n", 3),
    ("p setpack 5 2 2\n1 2\nw 1 2\n3 4\n", "p graph 3 2\n1 2\nw 1 2 3\n2 3\n", 3),
    ("p setpack 5 2 2\nw 1\n1 2\n3 4\n", "p graph 3 1\nw 1 2\n1 2\n", 2),
    ("p setpack 5 2 2\n1 x\n3 4\n", "p graph 3 1\n1 x\n", 2),
    ("1 2\n", "1 2\n", 1),
]


class TestFileFormat:
    @given(instances())
    def test_round_trip(self, instance):
        assert parse_instance(serialize_instance(instance)) == instance

    def test_parse_known_file(self):
        text = "c tiny\n\np setpack 5 2 2\nw 1/2 3\n1 2\n4 5\n"
        got = parse_instance(text)
        assert got == Instance(5, ((0, 1), (3, 4)), 2, (Fraction(1, 2), Fraction(3)))

    def test_serialize_is_one_based(self):
        text = serialize_instance(inst(sets=((0, 1), (2, 3))))
        assert "1 2" in text and "3 4" in text

    def test_serialize_rejects_invalid(self):
        with pytest.raises(ValueError):
            serialize_instance(inst(universe=0))

    @pytest.mark.parametrize(
        "text, lineno",
        [(text, lineno) for text, _, lineno in SHARED_GRAMMAR_ERRORS]
        + [
            ("p setpack 5 2 2\n1 2\n3 4\n5 1\n", 4),
            ("p setpack 5 2 2\n0 1\n3 4\n", 2),
            # a set that breaks validate is reported at its own line
            ("p setpack 5 1 2\n1 6\n", 2),
            ("c sets\np setpack 5 2 2\n1 2\n\n3 3\n", 5),
            ("p setpack 5 2 2\nw 1 2\n1 2 3\n4 5\n", 3),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.lineno == lineno

    def test_parse_errors_without_position(self):
        with pytest.raises(ParseError):
            parse_instance("c nothing here\n")
        with pytest.raises(ParseError):
            parse_instance("p setpack 5 2 2\n1 2\n")

    def test_parse_rejects_semantically_invalid(self):
        with pytest.raises(ValueError):
            parse_instance("p setpack 5 1 2\n1 6\n")
        # a violation outside the sets has no line of its own
        with pytest.raises(ValueError) as err:
            parse_instance("p setpack 5 1 2\nw 0\n1 2\n")
        assert not isinstance(err.value, ParseError)


class TestGraphFormat:
    def test_parse_known_file(self):
        text = "c two hubs\np graph 7 6\nw 10 10 10 10 10 18 18\n6 2\n6 3\n6 1\n7 1\n7 4\n7 5\n"
        n, edges, weights = parse_graph(text)
        assert n == 7
        assert edges == [(5, 1), (5, 2), (5, 0), (6, 0), (6, 3), (6, 4)]
        assert weights == tuple([Fraction(10)] * 5 + [Fraction(18)] * 2)

    def test_parse_unweighted(self):
        n, edges, weights = parse_graph("p graph 3 2\n1 2\n2 3\n")
        assert (n, edges, weights) == (3, [(0, 1), (1, 2)], None)

    @pytest.mark.parametrize(
        "text, lineno",
        [(text, lineno) for _, text, lineno in SHARED_GRAMMAR_ERRORS]
        + [
            ("p graph 3 1\n1 1\n", 2),
            ("p graph 3 1\n1 4\n", 2),
            ("p graph 3 1\n1 2 3\n", 2),
            ("p graph 3 1\n1 2\n2 3\n", 3),
            ("p graph 3 2\n1 2\n2 1\n", 3),
            ("p graph 0 0\n", 1),
        ],
    )
    def test_parse_errors(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.lineno == lineno

    def test_edge_count_must_match(self):
        with pytest.raises(ParseError):
            parse_graph("p graph 3 2\n1 2\n")
