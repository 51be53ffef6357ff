import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest
from helpers import brute_maximal_cliques

from ksetpack import (
    CapExceededError,
    ConflictGraph,
    GapReport,
    Instance,
    ParseError,
    build_intersecting_family_lp,
    build_standard_lp,
    conflict_graph,
    enumerate_maximal_cliques,
    export_theta3_sdp,
    gap_report,
    gen_random,
    instance_from_graph,
    max_packing_value,
    parse_sdpa,
    solve_lp,
)

F = Fraction


def triangle_instance():
    return instance_from_graph(3, [(0, 1), (0, 2), (1, 2)])


def disjoint_instance(m=3):
    return Instance(
        universe_size=2 * m,
        sets=tuple((2 * i, 2 * i + 1) for i in range(m)),
        k=2,
    )


class TestStandardLp:
    def test_fano_shape(self, fano):
        lp = build_standard_lp(fano)
        assert lp.num_vars == 7
        assert len(lp.constraints) == 7
        assert all(len(c.coeffs) == 3 for c in lp.constraints)
        assert all(c.label == "degree" for c in lp.constraints)
        assert all(c.relation == "<=" and c.rhs == 1 for c in lp.constraints)
        assert lp.lower == [F(0)] * 7 and lp.upper == [F(1)] * 7
        assert lp.objective == [F(1)] * 7

    def test_rows_are_set_incidence(self):
        got = gen_random(9, 12, 3, seed=13)
        lp = build_standard_lp(got)
        occurring = sorted({e for s in got.sets for e in s})
        assert len(lp.constraints) == len(occurring)
        for e, c in zip(occurring, lp.constraints):
            members = sorted(i for i, _ in c.coeffs)
            assert members == [i for i in range(got.n) if e in got.sets[i]]

    def test_unused_elements_get_no_row(self):
        got = Instance(universe_size=5, sets=((0, 1), (2, 3)), k=2)
        assert len(build_standard_lp(got).constraints) == 4

    def test_weighted_objective(self):
        got = Instance(
            universe_size=4,
            sets=((0, 1), (2, 3)),
            k=2,
            weights=(F(3, 2), F(2)),
        )
        lp = build_standard_lp(got)
        assert lp.objective == [F(3, 2), F(2)]

    def test_rejects_invalid_instance(self):
        with pytest.raises(ValueError):
            build_standard_lp(Instance(universe_size=0, sets=((0,),), k=1))

    def test_fano_value(self, fano):
        sol = solve_lp(build_standard_lp(fano))
        assert sol.objective_value == F(7, 3)
        assert sol.values == tuple([F(1, 3)] * 7)


class TestMaximalCliques:
    def test_fano_conflict_graph_is_one_clique(self, fano):
        assert enumerate_maximal_cliques(conflict_graph(fano)) == [tuple(range(7))]

    def test_edgeless(self):
        g = ConflictGraph.from_edges(3, [])
        assert enumerate_maximal_cliques(g) == [(0,), (1,), (2,)]

    def test_empty_graph(self):
        assert enumerate_maximal_cliques(ConflictGraph.from_edges(0, [])) == []

    def test_path(self):
        g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)])
        assert enumerate_maximal_cliques(g) == [(0, 1), (1, 2)]

    def test_matches_bruteforce(self):
        # at 0.9 most frames stop the pivot scan at a vertex seeing |P| - 1 of P
        rng = random.Random(14)
        for density in (0.45, 0.9):
            for trial in range(30):
                n = rng.randrange(1, 10)
                edges = [
                    e for e in itertools.combinations(range(n), 2) if rng.random() < density
                ]
                g = ConflictGraph.from_edges(n, edges)
                assert enumerate_maximal_cliques(g) == brute_maximal_cliques(g)

    def test_large_clique_needs_no_recursion(self):
        # one frame per clique member would pass a limit 100 above the caller
        g = ConflictGraph.from_edges(150, list(itertools.combinations(range(150), 2)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            cliques = enumerate_maximal_cliques(g)
        finally:
            sys.setrecursionlimit(limit)
        assert cliques == [tuple(range(150))]

    def test_cap(self):
        g = ConflictGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        with pytest.raises(CapExceededError):
            enumerate_maximal_cliques(g, cap=3)
        assert len(enumerate_maximal_cliques(g, cap=4)) == 4


class TestIntersectingFamilyLp:
    def test_fano_adds_single_clique_row(self, fano):
        lp = build_intersecting_family_lp(fano)
        labels = [c.label for c in lp.constraints]
        assert labels.count("degree") == 7
        assert labels.count("clique") == 1
        clique_row = lp.constraints[-1]
        assert sorted(i for i, _ in clique_row.coeffs) == list(range(7))

    def test_fano_value_drops_to_one(self, fano):
        sol = solve_lp(build_intersecting_family_lp(fano))
        assert sol.objective_value == F(1)

    def test_cap_forwarded(self, fano):
        with pytest.raises(CapExceededError):
            build_intersecting_family_lp(fano, cap=0)


class TestGapReports:
    def test_fano_standard(self, fano):
        report = gap_report(fano, "standard")
        assert report == GapReport("standard", F(7, 3), F(1), F(7, 3))
        k = fano.k
        assert report.gap == k - 1 + F(1, k)

    def test_fano_intersecting(self, fano):
        assert gap_report(fano, "intersecting").gap == 1

    def test_pp3_standard(self, pp3):
        report = gap_report(pp3, "standard")
        assert report.lp_value == F(13, 4)
        assert report.ilp_value == 1
        assert report.gap == pp3.k - 1 + F(1, pp3.k)

    def test_triangle(self):
        got = triangle_instance()
        assert gap_report(got, "standard").gap == F(3, 2)
        assert gap_report(got, "intersecting").gap == 1

    def test_disjoint_sets_have_no_gap(self):
        got = disjoint_instance()
        for variant in ("standard", "intersecting"):
            report = gap_report(got, variant)
            assert report.lp_value == report.ilp_value == 3
            assert report.gap == 1

    def test_weighted_scaling(self, fano):
        doubled = Instance(
            universe_size=7, sets=fano.sets, k=3, weights=tuple([F(2)] * 7)
        )
        report = gap_report(doubled, "standard")
        assert report.lp_value == F(14, 3)
        assert report.ilp_value == 2
        assert report.gap == F(7, 3)

    def test_unknown_variant(self, fano):
        with pytest.raises(ValueError):
            gap_report(fano, "fancy")

    def test_oracle_cap_forwarded(self, fano):
        with pytest.raises(CapExceededError):
            gap_report(fano, "standard", oracle_cap=3)

    def test_relaxation_ordering_on_random_instances(self):
        rng = random.Random(15)
        for trial in range(12):
            weighted = trial % 2 == 1
            got = gen_random(
                10,
                rng.randrange(5, 13),
                3,
                seed=trial,
                weight_range=(F(1), F(4)) if weighted else None,
            )
            std = solve_lp(build_standard_lp(got)).objective_value
            inter = solve_lp(build_intersecting_family_lp(got)).objective_value
            exact = max_packing_value(got)
            assert exact <= inter <= std


class TestSdpExport:
    def test_structure_fano(self, fano):
        g = conflict_graph(fano)  # K7: 21 edges
        problem = parse_sdpa(export_theta3_sdp(g))
        assert problem.num_constraints == 22
        assert problem.block_sizes == (7,)
        assert problem.rhs == tuple([F(0)] * 21 + [F(1)])
        objective = [e for e in problem.entries if e[0] == 0]
        assert len(objective) == 28  # full upper triangle of J
        trace = [e for e in problem.entries if e[0] == 22]
        assert [(i, j) for _, _, i, j, _ in trace] == [(i, i) for i in range(1, 8)]

    def test_edge_constraints_match_graph(self):
        g = ConflictGraph.from_edges(4, [(0, 2), (1, 3), (0, 1)])
        problem = parse_sdpa(export_theta3_sdp(g))
        edge_rows = [
            (i - 1, j - 1)
            for matno, _, i, j, v in problem.entries
            if 1 <= matno <= len(list(g.edges()))
        ]
        assert sorted(edge_rows) == sorted(g.edges())

    def test_single_vertex(self):
        problem = parse_sdpa(export_theta3_sdp(ConflictGraph.from_edges(1, [])))
        assert problem.num_constraints == 1
        assert problem.rhs == (F(1),)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            export_theta3_sdp(ConflictGraph.from_edges(0, []))

    def test_comment_line_present(self):
        text = export_theta3_sdp(ConflictGraph.from_edges(2, [(0, 1)]))
        assert text.splitlines()[0].startswith('"')


class TestSdpaParser:
    def test_accepts_separators_and_comments(self):
        text = '* note\n2\n1\n{3}\n(0, 1)\n1 1 1 2 1\n2 1 1 1 1\n'
        problem = parse_sdpa(text)
        assert problem.num_constraints == 2
        assert problem.block_sizes == (3,)
        assert problem.rhs == (F(0), F(1))
        assert problem.entries == ((1, 1, 1, 2, F(1)), (2, 1, 1, 1, F(1)))

    def test_negative_block_size_is_diagonal(self):
        problem = parse_sdpa("1\n1\n-3\n1\n1 1 2 2 5\n")
        assert problem.block_sizes == (-3,)

    @pytest.mark.parametrize(
        "text",
        [
            "1\n1\n2\n",  # missing rhs line
            "1\n2\n2\n1\n",  # block count does not match sizes
            "1\n1\n2\n1 2\n",  # rhs count mismatch
            "1\n1\n2\n1\n1 1 2 1 1\n",  # lower-triangle entry
            "1\n1\n2\n1\n1 1 1 3 1\n",  # index beyond block
            "1\n1\n2\n1\n2 1 1 1 1\n",  # matno beyond m
            "1\n1\n2\n1\n1 2 1 1 1\n",  # block index beyond count
            "1\n1\n2\n1\n1 1 1 1\n",  # four tokens
            "1\n1\n2\nx\n",  # non-numeric rhs
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_sdpa(text)

    def test_round_trip_random_graph(self):
        rng = random.Random(16)
        for trial in range(10):
            n = rng.randrange(1, 8)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            ]
            g = ConflictGraph.from_edges(n, edges)
            problem = parse_sdpa(export_theta3_sdp(g))
            assert problem.num_constraints == len(edges) + 1
            assert problem.block_sizes == (n,)
            assert len(problem.entries) == n * (n + 1) // 2 + len(edges) + n


def solve_exported_sdp(problem):
    cp = pytest.importorskip("cvxpy")
    import numpy as np

    n = problem.block_sizes[0]
    x = cp.Variable((n, n), symmetric=True)
    mats = {}
    for matno, _, i, j, value in problem.entries:
        mats.setdefault(matno, []).append((i - 1, j - 1, float(value)))

    def inner(matno):
        total = 0
        for i, j, value in mats.get(matno, []):
            total = total + value * (x[i, j] if i == j else 2 * x[i, j])
        return total

    constraints = [x >> 0]
    for cno in range(1, problem.num_constraints + 1):
        constraints.append(inner(cno) == float(problem.rhs[cno - 1]))
    task = cp.Problem(cp.Maximize(inner(0)), constraints)
    try:
        task.solve()
    except cp.SolverError:
        pytest.skip("no SDP-capable solver installed")
    assert task.status in ("optimal", "optimal_inaccurate")
    return task.value


class TestThetaNumerics:
    def test_pentagon(self):
        g = ConflictGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        value = solve_exported_sdp(parse_sdpa(export_theta3_sdp(g)))
        assert abs(value - 5 ** 0.5) < 1e-4

    def test_complete_graph(self, fano):
        value = solve_exported_sdp(parse_sdpa(export_theta3_sdp(conflict_graph(fano))))
        assert abs(value - 1) < 1e-4

    def test_edgeless(self):
        g = ConflictGraph.from_edges(3, [])
        value = solve_exported_sdp(parse_sdpa(export_theta3_sdp(g)))
        assert abs(value - 3) < 1e-4
