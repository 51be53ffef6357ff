import dataclasses
import random
from fractions import Fraction

import pytest
from helpers import brute_lp_optimum, reference_certify_optimal, reference_solve_lp
from hypothesis import given, settings
from hypothesis import strategies as st

import ksetpack.lp
from ksetpack import (
    Constraint,
    LinearProgram,
    LpSolution,
    build_intersecting_family_lp,
    build_standard_lp,
    certify_optimal,
    gen_projective_plane,
    gen_random,
    serialize_lp,
    solve_lp,
)
from ksetpack.lp import EQ, LEQ, check_lp

F = Fraction


def lp_of(num_vars, objective, rows, lower=None, upper=None):
    """rows: list of (dense_coeffs, relation, rhs)."""
    constraints = []
    for i, (dense, rel, rhs) in enumerate(rows):
        coeffs = tuple((j, F(c)) for j, c in enumerate(dense) if c != 0)
        constraints.append(Constraint(coeffs, rel, F(rhs), f"r{i}"))
    return LinearProgram(
        num_vars=num_vars,
        objective=[F(c) for c in objective],
        constraints=constraints,
        lower=[F(x) for x in lower] if lower else [F(0)] * num_vars,
        upper=[None if x is None else F(x) for x in upper]
        if upper
        else [None] * num_vars,
    )


class TestCheckLp:
    def test_accepts(self):
        check_lp(lp_of(2, [1, 1], [([1, 1], LEQ, 1)]))

    def test_rejects_no_vars(self):
        with pytest.raises(ValueError):
            check_lp(lp_of(0, [], []))

    def test_rejects_length_mismatch(self):
        bad = lp_of(2, [1, 1], [])
        bad.objective = [F(1)]
        with pytest.raises(ValueError):
            check_lp(bad)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            check_lp(lp_of(1, [1], [], lower=[2], upper=[1]))

    def test_rejects_bad_relation(self):
        bad = lp_of(1, [1], [])
        bad.constraints.append(Constraint(((0, F(1)),), ">=", F(0), "r"))
        with pytest.raises(ValueError):
            check_lp(bad)

    def test_rejects_unlabeled(self):
        bad = lp_of(1, [1], [])
        bad.constraints.append(Constraint(((0, F(1)),), LEQ, F(0), ""))
        with pytest.raises(ValueError):
            check_lp(bad)

    def test_rejects_duplicate_variable(self):
        bad = lp_of(2, [1, 1], [])
        bad.constraints.append(
            Constraint(((0, F(1)), (0, F(2))), LEQ, F(1), "r")
        )
        with pytest.raises(ValueError):
            check_lp(bad)

    def test_rejects_variable_out_of_range(self):
        bad = lp_of(1, [1], [])
        bad.constraints.append(Constraint(((3, F(1)),), LEQ, F(1), "r"))
        with pytest.raises(ValueError):
            check_lp(bad)


class TestSolveKnown:
    def test_two_variable_optimum(self):
        lp = lp_of(
            2, [1, 1], [([1, 2], LEQ, 4), ([3, 1], LEQ, 6)], upper=[10, 10]
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.values == (F(8, 5), F(6, 5))
        assert sol.objective_value == F(14, 5)
        assert sol.duals == (F(2, 5), F(1, 5))
        assert sol.bound_duals == (F(0), F(0))

    def test_equality_row(self):
        lp = lp_of(2, [1, -1], [([1, 1], EQ, 1)], upper=[1, 1])
        sol = solve_lp(lp)
        assert sol.values == (F(1), F(0))
        assert sol.objective_value == F(1)

    def test_infeasible(self):
        lp = lp_of(2, [1, 1], [([1, 1], EQ, 3)], upper=[1, 1])
        assert solve_lp(lp).status == "infeasible"

    def test_infeasible_contradictory_rows(self):
        lp = lp_of(1, [1], [([1], EQ, 1), ([1], EQ, 2)], upper=[5])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = lp_of(1, [1], [])
        assert solve_lp(lp).status == "unbounded"

    def test_unbounded_despite_rows(self):
        lp = lp_of(2, [1, 0], [([0, 1], LEQ, 3)])
        assert solve_lp(lp).status == "unbounded"

    def test_negative_lower_bounds(self):
        lp = lp_of(
            2, [1, 1], [([1, 1], LEQ, 1)], lower=[-3, -2], upper=[-1, 5]
        )
        sol = solve_lp(lp)
        assert sol.values == (F(-1), F(2))
        assert sol.objective_value == F(1)

    def test_negative_rhs_flip(self):
        # -x <= -1 forces x >= 1 while the objective pushes down
        lp = lp_of(1, [-1], [([-1], LEQ, -1)], upper=[5])
        sol = solve_lp(lp)
        assert sol.values == (F(1),)
        assert sol.objective_value == F(-1)

    def test_redundant_equality_rows(self):
        lp = lp_of(2, [1, 1], [([1, 1], EQ, 1), ([2, 2], EQ, 2)], upper=[1, 1])
        sol = solve_lp(lp)
        assert sol.objective_value == F(1)

    def test_degenerate_rows_terminate(self):
        lp = lp_of(
            2,
            [1, 1],
            [([1, 0], LEQ, 1), ([1, 0], LEQ, 1), ([1, 1], LEQ, 1), ([0, 1], LEQ, 0)],
            upper=[2, 2],
        )
        sol = solve_lp(lp)
        assert sol.objective_value == F(1)

    def test_fractional_data(self):
        lp = lp_of(1, [F(2, 3)], [([F(1, 2)], LEQ, F(3, 4))], upper=[10])
        sol = solve_lp(lp)
        assert sol.values == (F(3, 2),)
        assert sol.objective_value == F(1)

    def test_binding_upper_bound_dual(self):
        lp = lp_of(1, [1], [], upper=[7])
        sol = solve_lp(lp)
        assert sol.values == (F(7),)
        assert sol.bound_duals == (F(1),)


class TestAgainstVertexEnumeration:
    def test_random_lps(self):
        rng = random.Random(99)
        statuses = set()
        for trial in range(80):
            n = rng.randrange(1, 5)
            rows = []
            for _ in range(rng.randrange(0, 5)):
                dense = [F(rng.randrange(-3, 4)) for _ in range(n)]
                rel = LEQ if rng.random() < 0.8 else EQ
                rows.append((dense, rel, F(rng.randrange(-6, 7))))
            lower = [F(rng.choice([0, 0, -2])) for _ in range(n)]
            upper = [F(lo + rng.randrange(0, 7)) for lo in lower]
            lp = lp_of(
                n,
                [F(rng.randrange(-5, 6)) for _ in range(n)],
                rows,
                lower=lower,
                upper=upper,
            )
            sol = solve_lp(lp)
            want_status, want_val = brute_lp_optimum(lp)
            statuses.add(want_status)
            assert sol.status == want_status
            if want_status == "optimal":
                assert sol.objective_value == want_val
        assert statuses == {"optimal", "infeasible"}


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def general_lps(draw):
    """Up to 10 variables and 10 rows with denominators up to 7.  Most rows
    hold at a drawn point x0, often with equality, so that many LPs are
    feasible and degenerate.  Copies of `=` rows, scaled and possibly
    negated, make redundant rows, which phase 1 leaves with an artificial in
    the basis; degenerate `=` rows make clean-up pivots on negative entries."""
    n = draw(st.integers(1, 10))
    bounds = st.sampled_from((F(0), F(0), F(-1), F(-2), F(-1, 2), F(1, 3)))
    lower = [draw(bounds) for _ in range(n)]
    gaps = [abs(draw(fractions)) for _ in range(n)]
    upper = [
        None if draw(st.booleans()) and draw(st.booleans()) else lo + gap
        for lo, gap in zip(lower, gaps)
    ]
    x0 = [lo + draw(st.sampled_from((0, 0, F(1, 2), 1))) * gap for lo, gap in zip(lower, gaps)]
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = tuple((j, draw(fractions)) for j in sorted(support))
        rel = draw(st.sampled_from((LEQ, LEQ, EQ)))
        rhs = sum(a * x0[j] for j, a in coeffs)
        if rel == LEQ:
            rhs += draw(st.sampled_from((0, 0, 1, F(1, 3))))
        if draw(st.integers(0, 7)) == 0:
            rhs = draw(fractions)  # x0 no longer holds: some LPs are infeasible
        rows.append((coeffs, rel, rhs))
    equalities = [row for row in rows if row[1] == EQ]
    if equalities:
        for _ in range(draw(st.integers(0, 10 - len(rows)))):
            coeffs, _, rhs = draw(st.sampled_from(equalities))
            t = draw(st.sampled_from((F(1), F(-1), F(2), F(-1, 3), F(3, 2))))
            rows.append((tuple((j, t * a) for j, a in coeffs), EQ, t * rhs))
    return LinearProgram(
        num_vars=n,
        objective=[draw(fractions) for _ in range(n)],
        constraints=[
            Constraint(coeffs, rel, F(rhs), f"r{i}")
            for i, (coeffs, rel, rhs) in enumerate(rows)
        ],
        lower=lower,
        upper=upper,
    )


def assert_same_solution(lp):
    sol, want = solve_lp(lp), reference_solve_lp(lp)
    assert sol == want
    assert repr(sol) == repr(want)  # the same types too: Fraction, not int


class TestAgainstFractionSimplex:
    """The integer tableau must reproduce the Fraction simplex exactly: the
    same status, vertex, objective, duals and bound duals."""

    @given(general_lps())
    def test_general_lps(self, lp):
        assert_same_solution(lp)

    def test_phase_one_costs_undo_the_row_scaling(self):
        # the integer tableau scales the second row by 3, and so its
        # artificial; with equal phase-1 costs on both artificials, phase 1
        # would take another path on this degenerate LP and end at other duals
        lp = lp_of(2, [0, 1], [([1, 1], EQ, 0), ([F(-1, 3), F(-1, 3)], EQ, 0)], upper=[0, 0])
        assert_same_solution(lp)
        assert solve_lp(lp).bound_duals == (F(0), F(1))

    @pytest.mark.parametrize("n", [20, 30])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("build", [build_standard_lp, build_intersecting_family_lp])
    def test_random_relaxations(self, build, seed, n):
        inst = gen_random(n * 3 // 2, n, 3, seed, (F(1), F(5)))
        assert_same_solution(build(inst))

    @pytest.mark.parametrize("build", [build_standard_lp, build_intersecting_family_lp])
    def test_plane_of_order_five(self, build):
        assert_same_solution(build(gen_projective_plane(5)))


class TestCertify:
    def lp_and_solution(self):
        lp = lp_of(2, [1, 1], [([1, 2], LEQ, 4), ([3, 1], LEQ, 6)], upper=[10, 10])
        return lp, solve_lp(lp)

    def test_accepts_true_optimum(self):
        lp, sol = self.lp_and_solution()
        assert certify_optimal(lp, sol) is None

    def test_rejects_non_optimal_status(self):
        lp, sol = self.lp_and_solution()
        assert certify_optimal(lp, dataclasses.replace(sol, status="infeasible"))

    def test_rejects_tampered_value(self):
        lp, sol = self.lp_and_solution()
        bad = dataclasses.replace(sol, objective_value=sol.objective_value + 1)
        assert "objective" in certify_optimal(lp, bad)

    def test_rejects_infeasible_point(self):
        lp, sol = self.lp_and_solution()
        bad = dataclasses.replace(sol, values=(F(100), F(100)))
        assert certify_optimal(lp, bad) is not None

    def test_rejects_tampered_duals(self):
        lp, sol = self.lp_and_solution()
        bad = dataclasses.replace(sol, duals=(F(-1), sol.duals[1]))
        assert certify_optimal(lp, bad) is not None
        # feasible but suboptimal point with honest value: duality gap trips
        sub = dataclasses.replace(sol, values=(F(0), F(0)), objective_value=F(0))
        assert certify_optimal(lp, sub) is not None

    def test_rejects_missing_duals(self):
        lp, sol = self.lp_and_solution()
        bad = dataclasses.replace(sol, duals=None)
        assert "duals" in certify_optimal(lp, bad)

    def test_rejects_bound_dual_without_upper_bound(self):
        # max x0 s.t. x0 <= 5 has optimum 5; a bound dual on the free upper
        # side would otherwise "prove" the value 0
        lp = lp_of(1, [1], [([1], LEQ, 5)])
        fake = LpSolution("optimal", (F(0),), F(0), (F(0),), (F(1),))
        assert "no upper bound" in certify_optimal(lp, fake)
        assert solve_lp(lp).objective_value == 5

    def test_rejects_wrong_number_of_values(self):
        lp, sol = self.lp_and_solution()
        assert "values" in certify_optimal(lp, dataclasses.replace(sol, values=sol.values[:1]))
        longer = dataclasses.replace(sol, values=sol.values + (F(0),))
        assert "values" in certify_optimal(lp, longer)

    def test_rejects_wrong_number_of_duals(self):
        lp, sol = self.lp_and_solution()
        assert "duals" in certify_optimal(lp, dataclasses.replace(sol, duals=sol.duals[:1]))
        longer = dataclasses.replace(sol, duals=sol.duals + (F(0),))
        assert "duals" in certify_optimal(lp, longer)

    def test_solve_lp_raises_when_certificate_fails(self, monkeypatch):
        lp, _ = self.lp_and_solution()
        monkeypatch.setattr(ksetpack.lp, "certify_optimal", lambda lp, sol: "forged")
        with pytest.raises(RuntimeError) as err:
            solve_lp(lp)
        assert str(err.value).startswith("internal: optimum failed certification")
        assert str(err.value).endswith("forged")

    def test_rejects_wrong_number_of_bound_duals(self):
        lp, sol = self.lp_and_solution()
        shorter = dataclasses.replace(sol, bound_duals=sol.bound_duals[:1])
        assert "bound duals" in certify_optimal(lp, shorter)
        longer = dataclasses.replace(sol, bound_duals=sol.bound_duals + (F(0),))
        assert "bound duals" in certify_optimal(lp, longer)


nudges = st.sampled_from((F(1, 7), F(-1, 7)))
TAMPERINGS = (
    "none", "value", "dual", "bound_dual", "objective", "truncate", "extend",
    "free_bound_dual", "missing", "slack_bound_duals",
)


@st.composite
def certificate_cases(draw):
    """An LP of `general_lps` with its solution, or with that solution
    tampered with.  An LP without an optimum gets its non-optimal solution
    or a forged optimum, so that every check runs on it too."""
    lp = draw(general_lps())
    n, m = lp.num_vars, len(lp.constraints)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        if draw(st.booleans()):
            return lp, sol
        sol = LpSolution(
            "optimal",
            tuple(lo + draw(st.sampled_from((0, F(1, 2), 1))) for lo in lp.lower),
            draw(fractions),
            tuple(draw(fractions) for _ in range(m)),
            tuple(F(0) if hi is None else abs(draw(fractions)) for hi in lp.upper),
        )
    values, duals, bound_duals = list(sol.values), list(sol.duals), list(sol.bound_duals)
    tamper = draw(st.sampled_from(TAMPERINGS))
    if tamper == "value":
        values[draw(st.integers(0, n - 1))] += draw(nudges)
    elif tamper == "dual" and m:
        duals[draw(st.integers(0, m - 1))] += draw(nudges)
    elif tamper == "bound_dual":
        bound_duals[draw(st.integers(0, n - 1))] += draw(nudges)
    elif tamper == "objective":
        return lp, dataclasses.replace(sol, objective_value=sol.objective_value + draw(nudges))
    elif tamper in ("truncate", "extend"):
        vector = draw(st.sampled_from((values, duals, bound_duals)))
        if tamper == "truncate" and vector:
            vector.pop()
        else:
            vector.append(F(0))
    elif tamper == "free_bound_dual":
        free = [j for j in range(n) if lp.upper[j] is None]
        if free:
            bound_duals[draw(st.sampled_from(free))] = abs(draw(nudges))
    elif tamper == "slack_bound_duals":
        # still dual feasible, but the dual objective rises: a duality gap
        bound_duals = [u if hi is None else u + F(1, 7) for u, hi in zip(bound_duals, lp.upper)]
    elif tamper == "missing":
        field = draw(st.sampled_from(("values", "duals", "bound_duals")))
        return lp, dataclasses.replace(sol, **{field: None})
    return lp, dataclasses.replace(
        sol, values=tuple(values), duals=tuple(duals), bound_duals=tuple(bound_duals)
    )


class TestCertifyAgainstFractionSums:
    """The common-denominator certificate must give the verdict of the
    term-by-term Fraction one, message for message."""

    def test_same_verdict(self):
        seen = set()

        @settings(max_examples=200)
        @given(certificate_cases())
        def check(case):
            verdict = certify_optimal(*case)
            assert verdict == reference_certify_optimal(*case)
            seen.add(verdict if verdict is None else verdict.split()[0])

        check()
        # the examples reach a passing certificate and most of the checks
        assert {None, "status", "variable", "constraint", "objective", "dual",
                "bound", "duality", "solution"} <= seen


class TestSerialize:
    def test_shape(self):
        lp = lp_of(2, [1, F(1, 2)], [([1, 1], LEQ, 1)], upper=[1, None])
        text = serialize_lp(lp)
        lines = text.strip().splitlines()
        assert lines[0] == "lp maximize vars=2"
        assert lines[1].startswith("obj ")
        assert "1/2" in lines[1]
        assert any(line.startswith("row r0 <= 1 :") for line in lines)

    def test_mentions_bounds(self):
        lp = lp_of(1, [1], [], lower=[F(1, 3)], upper=[2])
        assert "1/3" in serialize_lp(lp)
