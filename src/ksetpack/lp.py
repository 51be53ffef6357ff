"""Exact rational linear programming: a small two-phase primal simplex.

Maximization LPs with sparse <=/= rows and per-variable bounds, solved in
Fraction arithmetic with Bland's anti-cycling rule, so optima are exact and
ties deterministic.  Solutions carry dual values, and certify_optimal checks
feasibility plus strong duality, which proves optimality independently of
how the solver got there.  Desk scale: one list per tableau row, no
factorization.  Pivots are sparse: a pivot touches only the nonzero columns
of the pivot row, in the rows with a nonzero in the entering column.  The
skipped entries would change by zero, so the pivot path and every result
are those of the dense method.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .util import format_fraction

LEQ = "<="
EQ = "="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[int, Fraction], ...]
    relation: str
    rhs: Fraction
    label: str


@dataclass
class LinearProgram:
    """max objective·x subject to the rows and lower <= x <= upper
    (upper None means unbounded above)."""

    num_vars: int
    objective: list[Fraction]
    constraints: list[Constraint]
    lower: list[Fraction]
    upper: list[Fraction | None]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    duals: tuple[Fraction, ...] | None = None
    bound_duals: tuple[Fraction, ...] | None = None


def check_lp(lp: LinearProgram) -> None:
    n = lp.num_vars
    if n < 1:
        raise ValueError("LP needs at least one variable")
    if len(lp.objective) != n or len(lp.lower) != n or len(lp.upper) != n:
        raise ValueError("objective/bounds length mismatch")
    for j in range(n):
        if lp.upper[j] is not None and lp.lower[j] > lp.upper[j]:
            raise ValueError(f"variable {j}: lower bound above upper bound")
    for c in lp.constraints:
        if c.relation not in (LEQ, EQ):
            raise ValueError(f"unknown relation {c.relation!r}")
        if not c.label:
            raise ValueError("every constraint needs a label")
        seen = set()
        for var, _ in c.coeffs:
            if not (0 <= var < n):
                raise ValueError(f"constraint {c.label}: variable {var} out of range")
            if var in seen:
                raise ValueError(f"constraint {c.label}: duplicate variable {var}")
            seen.add(var)


def _pivot(rows, rhs, obj, obj_rhs, basis, r, e):
    """Pivot on (r, e) in place, over the pivot row's nonzero columns only."""
    prow = rows[r]
    inv = Fraction(1) / prow[e]
    nz = [j for j, x in enumerate(prow) if x]
    for j in nz:
        prow[j] *= inv
    rhs[r] *= inv
    b = rhs[r]
    for i, row in enumerate(rows):
        f = row[e]
        if f and i != r:
            for j in nz:
                row[j] -= f * prow[j]
            rhs[i] -= f * b
    f = obj[e]
    if f:
        for j in nz:
            obj[j] -= f * prow[j]
        obj_rhs -= f * b
    basis[r] = e
    return obj_rhs


def _run_simplex(rows, rhs, obj, obj_rhs, basis, allowed):
    """Bland's rule: entering = lowest allowed column with negative reduced
    cost; leaving = smallest ratio, ties to the lowest basis index.
    Returns (status, obj_rhs)."""
    while True:
        enter = None
        for j in range(len(obj)):
            if allowed[j] and obj[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal", obj_rhs
        leave = None
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded", obj_rhs
        obj_rhs = _pivot(rows, rhs, obj, obj_rhs, basis, leave, enter)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex.  The returned optimum is certified inside
    this function by exact feasibility and strong duality."""
    check_lp(lp)
    n = lp.num_vars

    # shift to y = x - lower >= 0 and materialize upper bounds as rows
    shift_const = sum(
        (lp.objective[j] * lp.lower[j] for j in range(n)), Fraction(0)
    )
    internal: list[tuple[list[Fraction], str, Fraction, str, int]] = []
    for ci, c in enumerate(lp.constraints):
        dense = [Fraction(0)] * n
        adjust = Fraction(0)
        for var, coef in c.coeffs:
            dense[var] = Fraction(coef)
            adjust += coef * lp.lower[var]
        internal.append((dense, c.relation, Fraction(c.rhs) - adjust, "row", ci))
    for j in range(n):
        if lp.upper[j] is not None:
            dense = [Fraction(0)] * n
            dense[j] = Fraction(1)
            internal.append((dense, LEQ, lp.upper[j] - lp.lower[j], "bound", j))

    m = len(internal)
    # normalize rhs signs; remember flips for dual recovery
    sign = [1] * m
    rels = []
    for i, (dense, rel, b, kind, ref) in enumerate(internal):
        if b < 0:
            dense = [-x for x in dense]
            b = -b
            sign[i] = -1
            rel = {LEQ: ">=", EQ: EQ}[rel]
        internal[i] = (dense, rel, b, kind, ref)
        rels.append(rel)

    n_slack = sum(1 for r in rels if r in (LEQ, ">="))
    n_art = sum(1 for r in rels if r in (">=", EQ))
    ncols = n + n_slack + n_art
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    is_artificial = [False] * ncols
    unit_col = [0] * m  # the column whose tableau entry reads off row i's dual
    unit_sign = [1] * m

    si = n
    ai = n + n_slack
    for i, (dense, rel, b, kind, ref) in enumerate(internal):
        row = dense + [Fraction(0)] * (n_slack + n_art)
        if rel == LEQ:
            row[si] = Fraction(1)
            basis.append(si)
            unit_col[i], unit_sign[i] = si, 1
            si += 1
        elif rel == ">=":
            row[si] = Fraction(-1)
            unit_col[i], unit_sign[i] = si, -1
            si += 1
            row[ai] = Fraction(1)
            basis.append(ai)
            is_artificial[ai] = True
            ai += 1
        else:
            row[ai] = Fraction(1)
            basis.append(ai)
            is_artificial[ai] = True
            unit_col[i], unit_sign[i] = ai, 1
            ai += 1
        rows.append(row)
        rhs.append(b)

    live = [True] * m  # rows can be dropped as redundant after phase 1

    def build_obj(costs: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        obj = [-c for c in costs]
        obj_rhs = Fraction(0)
        for row, b, col in zip(rows, rhs, basis):
            cb = costs[col]
            if cb:
                for j, x in enumerate(row):
                    if x:
                        obj[j] += cb * x
                obj_rhs += cb * b
        return obj, obj_rhs

    if n_art:
        costs1 = [Fraction(0)] * ncols
        for j in range(ncols):
            if is_artificial[j]:
                costs1[j] = Fraction(-1)
        obj, obj_rhs = build_obj(costs1)
        status, obj_rhs = _run_simplex(
            rows, rhs, obj, obj_rhs, basis, [True] * ncols
        )
        assert status == "optimal"  # phase 1 is always bounded
        if obj_rhs != 0:
            return LpSolution(status="infeasible")
        for i in range(len(rows)):
            if is_artificial[basis[i]]:
                enter = next(
                    (
                        j
                        for j in range(ncols)
                        if not is_artificial[j] and rows[i][j] != 0
                    ),
                    None,
                )
                if enter is None:
                    live[i] = False  # redundant row; keep inert
                else:
                    _pivot(rows, rhs, obj, Fraction(0), basis, i, enter)

    costs2 = [Fraction(0)] * ncols
    for j in range(n):
        costs2[j] = Fraction(lp.objective[j])
    obj, obj_rhs = build_obj(costs2)
    allowed = [
        not is_artificial[j] for j in range(ncols)
    ]
    status, obj_rhs = _run_simplex(rows, rhs, obj, obj_rhs, basis, allowed)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    y = [Fraction(0)] * ncols
    for i in range(len(rows)):
        if live[i] or not is_artificial[basis[i]]:
            y[basis[i]] = rhs[i]
    values = tuple(lp.lower[j] + y[j] for j in range(n))

    duals = [Fraction(0)] * len(lp.constraints)
    bound_duals = [Fraction(0)] * n
    # map internal rows back to their input objects
    for i, (dense, rel, b, kind, ref) in enumerate(internal):
        d = obj[unit_col[i]] * unit_sign[i] * sign[i]
        if kind == "row":
            duals[ref] = d
        else:
            bound_duals[ref] = d

    solution = LpSolution(
        status="optimal",
        values=values,
        objective_value=obj_rhs + shift_const,
        duals=tuple(duals),
        bound_duals=tuple(bound_duals),
    )
    problem = certify_optimal(lp, solution)
    if problem is not None:
        raise RuntimeError(f"internal: optimum failed certification: {problem}")
    return solution


def certify_optimal(lp: LinearProgram, sol: LpSolution) -> str | None:
    """Independent optimality proof: exact primal feasibility, dual
    feasibility, and matching primal/dual objectives.  Returns None when the
    certificate checks out, else a description of the first failure."""
    if sol.status != "optimal":
        return f"status is {sol.status}"
    x = sol.values
    n = lp.num_vars
    if x is None:
        return "solution carries no values"
    if len(x) != n:
        return f"{len(x)} values for {n} variables"
    for j in range(n):
        if x[j] < lp.lower[j] or (lp.upper[j] is not None and x[j] > lp.upper[j]):
            return f"variable {j} breaks its bounds"
    for c in lp.constraints:
        lhs = sum((coef * x[var] for var, coef in c.coeffs), Fraction(0))
        if c.relation == LEQ and lhs > c.rhs:
            return f"constraint {c.label} violated"
        if c.relation == EQ and lhs != c.rhs:
            return f"constraint {c.label} violated"
    obj = sum((lp.objective[j] * x[j] for j in range(n)), Fraction(0))
    if obj != sol.objective_value:
        return "objective value does not match values"

    y = sol.duals
    ub = sol.bound_duals
    if y is None or ub is None:
        return "solution carries no duals"
    if len(y) != len(lp.constraints):
        return f"{len(y)} duals for {len(lp.constraints)} constraints"
    if len(ub) != n:
        return f"{len(ub)} bound duals for {n} variables"
    for c, yi in zip(lp.constraints, y):
        if c.relation == LEQ and yi < 0:
            return f"dual of {c.label} negative"
    slack = []
    col = [Fraction(0)] * n
    for c, yi in zip(lp.constraints, y):
        for var, coef in c.coeffs:
            col[var] += yi * coef
    for j in range(n):
        if ub[j] < 0:
            return f"bound dual of variable {j} negative"
        if ub[j] != 0 and lp.upper[j] is None:
            return f"bound dual of variable {j} has no upper bound"
        s = col[j] + ub[j] - lp.objective[j]
        if s < 0:
            return f"dual constraint for variable {j} violated"
        slack.append(s)
    dual_obj = (
        sum((yi * c.rhs for c, yi in zip(lp.constraints, y)), Fraction(0))
        + sum(
            (ub[j] * lp.upper[j] for j in range(n) if lp.upper[j] is not None),
            Fraction(0),
        )
        - sum((slack[j] * lp.lower[j] for j in range(n)), Fraction(0))
    )
    if dual_obj != obj:
        return f"duality gap: primal {obj}, dual {dual_obj}"
    return None


def serialize_lp(lp: LinearProgram) -> str:
    """Plain-text debugging form (not a standard format)."""
    out = [f"lp maximize vars={lp.num_vars}"]
    out.append("obj " + " ".join(format_fraction(c) for c in lp.objective))
    for j in range(lp.num_vars):
        hi = "inf" if lp.upper[j] is None else format_fraction(lp.upper[j])
        out.append(f"bound {j} {format_fraction(lp.lower[j])} {hi}")
    for c in lp.constraints:
        terms = " ".join(f"{var}:{format_fraction(coef)}" for var, coef in c.coeffs)
        out.append(f"row {c.label} {c.relation} {format_fraction(c.rhs)} : {terms}")
    return "\n".join(out) + "\n"
