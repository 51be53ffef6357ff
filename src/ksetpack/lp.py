"""Exact rational linear programming: a small two-phase primal simplex.

Maximization LPs with sparse <=/= rows and per-variable bounds, solved
exactly with Bland's anti-cycling rule, so optima are exact and ties
deterministic.  Solutions carry Fraction values and dual values, and
certify_optimal checks feasibility plus strong duality exactly, which
proves optimality independently of how the solver got there.  It reads
only the LP and the solution.  Each row lhs, the objective, each dual
column and the dual objective is one sum over a common denominator
(`_dot`): numerators are added as ints and one Fraction is made per sum.
Desk scale: one list per tableau row, no factorization.

The tableau is kept in Python ints over one common denominator d
(integer-preserving elimination: Edmonds 1967, Bareiss 1968).  Each row is
scaled by the positive lcm L_i of its denominators and the costs by theirs,
which scales the true tableau's rows and columns by positive factors only.
So every sign that Bland's rule reads and every ratio-test comparison are
those of the Fraction tableau, and the pivot path is the same.  After a
pivot d = |det B| for the basis B, so every update divides exactly.  Values,
objective and duals are read off as Fraction(entry, d) with the scalings
undone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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


def _dot(pairs) -> Fraction:
    """Exact sum of a·b over pairs of rationals (Fractions or ints): the
    numerators are summed as ints over one common denominator, zero terms
    are skipped, and one Fraction is made at the end."""
    num, den = 0, 1
    for a, b in pairs:
        an, ad = a.as_integer_ratio()
        if not an:
            continue
        bn, bd = b.as_integer_ratio()
        if not bn:
            continue
        q = ad * bd
        if den % q:
            lcm = den // math.gcd(den, q) * q
            num *= lcm // den
            den = lcm
        num += an * bn * (den // q)
    return Fraction(num, den)


def _pivot(rows, obj, basis, d, r, e):
    """Integer-preserving pivot on (r, e) in place; returns the new common
    denominator p.  Row r stays as it is, negated first when its pivot is
    negative so that the denominator stays positive.  Every other row, the
    objective included, becomes (p·row − row[e]·prow) / d, which divides
    exactly: with row[e] = 0 that is the rescale p·row / d, and with p = d
    only the nonzero columns of the pivot row change."""
    prow = rows[r]
    p = prow[e]
    if p < 0:
        p = -p
        prow[:] = [-y for y in prow]
    nz = [(j, y) for j, y in enumerate(prow) if y]
    for row in rows + [obj]:
        f = row[e]
        if row is prow or (p == d and not f):
            continue
        if p == d:
            for j, y in nz:
                row[j] -= f * y // d
        elif f:
            row[:] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        else:
            row[:] = [p * x // d for x in row]
    basis[r] = e
    return p


def _run_simplex(rows, obj, basis, d, width):
    """Bland's rule over the first `width` columns: entering = lowest column
    with negative reduced cost; leaving = smallest ratio rhs/entry over the
    positive entries (compared cross-multiplied), ties to the lowest basis
    index.  Returns (status, d)."""
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            return "optimal", d
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave is None:
            return "unbounded", d
        d = _pivot(rows, obj, basis, d, leave, enter)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex.  The returned optimum is certified inside
    this function by exact feasibility and strong duality."""
    check_lp(lp)
    n = lp.num_vars

    # shift to y = x - lower >= 0 and materialize upper bounds as rows
    lower = lp.lower
    shift_const = _dot(zip(lp.objective, lower))
    internal = [
        (
            c.coeffs,
            c.relation,
            _dot(chain(((c.rhs, 1),), ((-a, lower[v]) for v, a in c.coeffs if lower[v]))),
        )
        for c in lp.constraints
    ]
    bounded = [j for j in range(n) if lp.upper[j] is not None]
    internal += [
        (((j, 1),), LEQ, lp.upper[j] - lower[j] if lower[j] else lp.upper[j])
        for j in bounded
    ]

    # row i is scaled by the lcm L_i of its denominators, negated when its
    # rhs is negative (a <= row then becomes >=: slack -1 and an artificial)
    scales = [
        (-1 if b < 0 else 1) * math.lcm(b.denominator, *(a.denominator for _, a in co))
        for co, _, b in internal
    ]
    n_slack = sum(rel == LEQ for _, rel, _ in internal)
    n_art = sum(rel == EQ or s < 0 for (_, rel, _), s in zip(internal, scales))
    width = n + n_slack  # artificials are the last columns
    ncols = width + n_art
    rows: list[list[int]] = []  # integer entries, rhs last, over the denominator d
    basis: list[int] = []
    unit_col = []  # the column whose reduced cost reads off row i's dual
    back = []  # unit entry · ±L_i: turns that reduced cost into row i's dual
    art_scale = {}  # artificial column -> L_i of its row
    si, ai = n, width
    for (coeffs, rel, b), s in zip(internal, scales):
        row = [0] * (ncols + 1)
        for v, a in coeffs:
            row[v] = s // a.denominator * a.numerator
        row[-1] = s // b.denominator * b.numerator
        artificial = rel == EQ or s < 0
        unit = si if rel == LEQ else ai
        basis.append(ai if artificial else si)
        if rel == LEQ:
            row[si] = 1 if s > 0 else -1
            si += 1
        if artificial:
            row[ai] = 1
            art_scale[ai] = abs(s)
            ai += 1
        unit_col.append(unit)
        back.append(row[unit] * s)
        rows.append(row)

    def objective_row(costs: dict[int, int], d: int) -> list[int]:
        obj = [0] * (ncols + 1)
        for j, c in costs.items():
            obj[j] = -d * c
        for row, col in zip(rows, basis):
            cb = costs.get(col)
            if cb:
                obj = [o + cb * x for o, x in zip(obj, row)]
        return obj

    d = 1
    if n_art:
        # phase 1 minimizes the sum of the artificials of the unscaled rows:
        # row i's artificial is L_i times that one, so it costs 1/L_i
        l1 = math.lcm(*art_scale.values())
        obj = objective_row({j: -(l1 // s) for j, s in art_scale.items()}, d)
        status, d = _run_simplex(rows, obj, basis, d, ncols)
        assert status == "optimal"  # phase 1 is always bounded
        if obj[-1] != 0:
            return LpSolution(status="infeasible")
        for i, row in enumerate(rows):
            if basis[i] >= width:
                enter = next((j for j in range(width) if row[j]), None)
                if enter is not None:  # else the row is redundant; keep inert
                    d = _pivot(rows, obj, basis, d, i, enter)

    lc = math.lcm(*(c.denominator for c in lp.objective))
    costs = {j: lc // c.denominator * c.numerator for j, c in enumerate(lp.objective)}
    obj = objective_row(costs, d)
    status, d = _run_simplex(rows, obj, basis, d, width)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    zero = Fraction(0)  # shared by every zero entry of the solution
    y = [zero] * n
    for row, col in zip(rows, basis):
        if col < n and row[-1]:
            y[col] = Fraction(row[-1], d)
    values = tuple(lo + yj if lo else yj for lo, yj in zip(lower, y))
    dl = d * lc
    row_duals = [Fraction(obj[u] * k, dl) if obj[u] else zero for u, k in zip(unit_col, back)]
    m = len(lp.constraints)
    bound_duals = [zero] * n
    for j, dual in zip(bounded, row_duals[m:]):
        bound_duals[j] = dual
    objective_value = Fraction(obj[-1], dl)
    if shift_const:
        objective_value += shift_const

    solution = LpSolution(
        status="optimal",
        values=values,
        objective_value=objective_value,
        duals=tuple(row_duals[:m]),
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
        lhs = _dot((coef, x[var]) for var, coef in c.coeffs)
        if c.relation == LEQ and lhs > c.rhs:
            return f"constraint {c.label} violated"
        if c.relation == EQ and lhs != c.rhs:
            return f"constraint {c.label} violated"
    obj = _dot(zip(lp.objective, x))
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
    # column j of the dual: its terms y_i·a_ij, then + ub_j − c_j
    col: list[list] = [[] for _ in range(n)]
    for c, yi in zip(lp.constraints, y):
        if yi:
            for var, coef in c.coeffs:
                col[var].append((yi, coef))
    slack = []
    for j in range(n):
        if ub[j] < 0:
            return f"bound dual of variable {j} negative"
        if ub[j] != 0 and lp.upper[j] is None:
            return f"bound dual of variable {j} has no upper bound"
        col[j] += ((ub[j], 1), (lp.objective[j], -1))
        s = _dot(col[j])
        if s < 0:
            return f"dual constraint for variable {j} violated"
        slack.append(s)
    dual_obj = _dot(
        chain(
            zip(y, (c.rhs for c in lp.constraints)),
            ((u, hi) for u, hi in zip(ub, lp.upper) if hi is not None),
            ((s, -lo) for s, lo in zip(slack, lp.lower) if lo),
        )
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
