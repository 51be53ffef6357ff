import dataclasses
import random
from fractions import Fraction

import pytest
from helpers import brute_lp_optimum

from ksetpack import (
    Constraint,
    LinearProgram,
    LpSolution,
    certify_optimal,
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

    def test_rejects_wrong_number_of_bound_duals(self):
        lp, sol = self.lp_and_solution()
        shorter = dataclasses.replace(sol, bound_duals=sol.bound_duals[:1])
        assert "bound duals" in certify_optimal(lp, shorter)
        longer = dataclasses.replace(sol, bound_duals=sol.bound_duals + (F(0),))
        assert "bound duals" in certify_optimal(lp, longer)


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
