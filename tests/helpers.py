"""Brute-force oracles and random generators shared by the test modules.

Everything here is deliberately naive: exhaustive enumeration at sizes where
that is still instant.  The point is independence from the code under test.
"""
from __future__ import annotations

import decimal
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from ksetpack import (
    ORACLE_CAP,
    CapExceededError,
    Claw,
    ConflictGraph,
    ImprovingSet,
    Instance,
    Multigraph,
    Packing,
    SearchStats,
    WorkBudget,
    apply_claw,
    apply_improving_set,
    build_auxiliary_multigraph,
    find_improving_set,
    induced_edge_count,
    is_packing,
)
from ksetpack.lp import EQ, LEQ, LinearProgram, LpSolution, check_lp
from ksetpack.util import integral
from ksetpack.weighted import DECIMAL_PRECISION, _first_improvement, _search, _SolutionNeighbors


def brute_max_weight_independent(
    graph: ConflictGraph, weights=None
) -> tuple[Fraction, tuple[int, ...]]:
    """Best weight and lexicographically smallest argmax, by trying all 2^n subsets."""
    n = graph.vertex_count
    assert n <= 16, "oracle is exponential"
    w = weights if weights is not None else graph.weights
    masks = [0] * n
    for v in range(n):
        for u in graph.neighbors[v]:
            masks[v] |= 1 << u
    best_val = Fraction(0)
    best_members: tuple[int, ...] = ()
    for mask in range(1 << n):
        ok = True
        val = Fraction(0)
        for v in range(n):
            if mask >> v & 1:
                if masks[v] & mask:
                    ok = False
                    break
                val += w[v]
        if not ok:
            continue
        members = tuple(v for v in range(n) if mask >> v & 1)
        if val > best_val or (val == best_val and members < best_members):
            best_val = val
            best_members = members
    return best_val, best_members


def brute_maximal_cliques(graph: ConflictGraph) -> list[tuple[int, ...]]:
    """All maximal cliques by subset enumeration. Keep n small."""
    n = graph.vertex_count
    assert n <= 12
    adj = [set(graph.neighbors[v]) for v in range(n)]

    def is_clique(vs):
        return all(u in adj[v] for u, v in itertools.combinations(vs, 2))

    cliques = []
    for r in range(1, n + 1):
        for vs in itertools.combinations(range(n), r):
            if not is_clique(vs):
                continue
            if any(all(u in adj[w] for u in vs) for w in range(n) if w not in vs):
                continue
            cliques.append(vs)
    return sorted(cliques)


def brute_find_improving(instance: Instance, packing: Packing, t: int):
    """First (by size, then lex) collection of <= t disjoint outside sets that
    beats the packing members it overlaps.  Mirrors the search contract."""
    inside = set(packing.members)
    member_of = {}
    for i in packing.members:
        for e in instance.sets[i]:
            member_of[e] = i
    outside = [i for i in range(instance.n) if i not in inside]
    for size in range(1, t + 1):
        for combo in itertools.combinations(outside, size):
            seen: set[int] = set()
            disjoint = True
            for i in combo:
                s = set(instance.sets[i])
                if seen & s:
                    disjoint = False
                    break
                seen |= s
            if not disjoint:
                continue
            outgoing = sorted({member_of[e] for i in combo for e in instance.sets[i] if e in member_of})
            if size > len(outgoing):
                return combo, tuple(outgoing)
    return None


def all_pairs_conflict_graph(instance: Instance) -> ConflictGraph:
    """The conflict graph by testing every pair of sets for an overlap."""
    sets = [frozenset(s) for s in instance.sets]
    edges = [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if sets[i] & sets[j]
    ]
    return ConflictGraph.from_edges(instance.n, edges, instance.weights)


def brute_claw_center(graph: ConflictGraph, bound: int) -> int | None:
    """The least vertex whose neighbourhood holds `bound` pairwise
    non-adjacent vertices, by trying every `bound`-subset; None if none."""
    for v in range(graph.vertex_count):
        for combo in itertools.combinations(graph.neighbors[v], bound):
            if not any(graph.adjacent(x, y) for x, y in itertools.combinations(combo, 2)):
                return v
    return None


def brute_first_improvement(graph: ConflictGraph, a, gain, cost, candidates, t):
    """First pairwise non-adjacent subset of at most t candidates, by size
    then lex order, whose `gain` sum beats the `cost` sum of the members of
    A it displaces."""
    for size in range(1, t + 1):
        for combo in itertools.combinations(sorted(candidates), size):
            if any(graph.adjacent(u, v) for u, v in itertools.combinations(combo, 2)):
                continue
            removed = {x for u in combo for x in graph.neighbors[u] if x in a}
            if sum(gain[u] for u in combo) > sum(cost[x] for x in removed):
                return combo
    return None


def reference_power_local_search(graph: ConflictGraph, alpha: Fraction, t: int, start):
    """`power_local_search` from `start` as it was for fractional alpha,
    with a Decimal margin: each w^alpha to `DECIMAL_PRECISION` digits, and
    a swap counts when its Decimal gain exceeds
    10**(10 - DECIMAL_PRECISION) * (|p(A)| + 1).  Every step tries every
    pairwise non-adjacent subset of at most t outside vertices, by size
    then lex order.  Returns (solution, swaps applied)."""
    with decimal.localcontext(decimal.Context(prec=DECIMAL_PRECISION)):
        alpha_d = Decimal(alpha.numerator) / Decimal(alpha.denominator)
        powers = [(Decimal(w.numerator) / Decimal(w.denominator)) ** alpha_d for w in graph.weights]
        margin = Decimal(10) ** (10 - DECIMAL_PRECISION)
        a, swaps = frozenset(start), 0
        while True:
            threshold = margin * (abs(sum(powers[x] for x in a)) + 1)
            outside = [u for u in range(graph.vertex_count) if u not in a]

            def removed(combo):
                return {x for u in combo for x in graph.neighbors[u] if x in a}

            def gain(combo):
                return sum(powers[u] for u in combo) - sum(powers[x] for x in removed(combo))

            subsets = (
                combo
                for size in range(1, t + 1)
                for combo in itertools.combinations(outside, size)
                if not any(graph.adjacent(u, v) for u, v in itertools.combinations(combo, 2))
            )
            combo = next((c for c in subsets if gain(c) > threshold), None)
            if combo is None:
                return a, swaps
            a = (a - removed(combo)) | frozenset(combo)
            swaps += 1


def reference_nice_claw(graph: ConflictGraph, a, weights=None, budget=None):
    """`find_nice_claw` as it was before it ran on the swap engine's
    solution-neighbour view: Fraction charges recomputed from the neighbour
    lists, a greedy talon pass, and the depth-first search as its fallback."""
    a = frozenset(a)
    w = weights if weights is not None else graph.weights
    budget = budget if budget is not None else WorkBudget()

    def solution_neighbors(u):
        return [v for v in graph.neighbors[u] if v in a]

    def charge(u, v):
        nbrs = solution_neighbors(u)
        if not nbrs or min(nbrs, key=lambda x: (-w[x], x)) != v:
            return Fraction(0)
        total = sum((w[x] for x in nbrs), Fraction(0))
        return w[u] - Fraction(1, 2) * total

    for u in range(graph.vertex_count):
        budget.spend()
        if u not in a and not solution_neighbors(u):
            return Claw(center=None, talons=(u,))

    for v in sorted(a):
        half = Fraction(1, 2) * w[v]
        outside = [u for u in graph.neighbors[v] if u not in a]
        charges = [(charge(u, v), u) for u in outside]
        cands = [(c, u) for c, u in charges if c > 0]
        if not cands:
            continue
        if sum((c for c, _ in cands), Fraction(0)) <= half:
            continue
        cands.sort(key=lambda cu: (-cu[0], cu[1]))
        nbr = [frozenset(graph.neighbors[u]) for _, u in cands]

        picked: list[tuple[Fraction, int]] = []
        total = Fraction(0)
        for i, (c, u) in enumerate(cands):
            budget.spend()
            if any(u in graph.neighbors[p] for _, p in picked):
                continue
            picked.append((c, u))
            total += c
            if total > half:
                break
        if total <= half:
            picked = _reference_exhaustive_talons(cands, nbr, half, budget)
        if picked is not None:
            return Claw(center=v, talons=tuple(sorted(u for _, u in picked)))
    return None


def _reference_exhaustive_talons(cands, nbr, half, budget):
    suffix = [Fraction(0)] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + cands[i][0]

    chosen: list[tuple[Fraction, int]] = []

    def dfs(i: int, total: Fraction):
        if total > half:
            return list(chosen)
        if i == len(cands) or total + suffix[i] <= half:
            return None
        budget.spend()
        c, u = cands[i]
        if not any(p in nbr[i] for _, p in chosen):
            chosen.append((c, u))
            found = dfs(i + 1, total + c)
            if found is not None:
                return found
            chosen.pop()
        return dfs(i + 1, total)

    return dfs(0, Fraction(0))


def reference_nice_claw_loop(graph: ConflictGraph, a, weights=None, budget=None):
    """The nice-claw loop on `reference_nice_claw` and the checked
    `apply_claw`: (final solution, claws applied)."""
    budget = budget if budget is not None else WorkBudget()
    applied = 0
    while True:
        claw = reference_nice_claw(graph, a, weights, budget)
        if claw is None:
            return frozenset(a), applied
        a = apply_claw(graph, a, claw)
        applied += 1


def exhaustive_log_improvement(instance: Instance, packing: Packing, epsilon: Fraction):
    """The log-size improvement search with every subset of the auxiliary
    multigraph's vertices probed, by size then lex order, up to the bound."""
    aux, labels = build_auxiliary_multigraph(instance, packing, include_loops=False)
    n_aux = aux.vertex_count
    if n_aux < 2:
        return None
    size_cap = min(n_aux, math.floor(4 * (1 + 1 / epsilon) * math.log2(n_aux) + 1e-9))

    def candidate_from(x):
        incoming = sorted(labels[i] for i, (a, b) in enumerate(aux.edges) if a in x and b in x)
        seen: set[int] = set()
        for i in incoming:
            if seen & set(instance.sets[i]):
                return None
            seen |= set(instance.sets[i])
        outgoing = sorted(m for m in packing.members if seen & set(instance.sets[m]))
        if len(incoming) <= len(outgoing):
            return None
        return ImprovingSet(incoming=tuple(incoming), outgoing=tuple(outgoing))

    for size in range(1, size_cap + 1):
        for subset in itertools.combinations(range(n_aux), size):
            x = set(subset)
            if induced_edge_count(aux, x) > size:
                found = candidate_from(x)
                if found is not None:
                    return found
    return None


def reference_log_local_search(instance: Instance, epsilon: Fraction):
    """The log-size local search from one-step public functions: the first
    2-swap when there is one, else the exhaustive log-size search, each
    applied through `apply_improving_set`.  Returns the packing and the kind
    of each applied swap ("2" or "log")."""
    packing, kinds = Packing(()), []
    while True:
        imp, kind = find_improving_set(instance, packing, 2), "2"
        if imp is None:
            imp, kind = exhaustive_log_improvement(instance, packing, epsilon), "log"
            if imp is None:
                return packing, kinds
        packing = apply_improving_set(instance, packing, imp)
        kinds.append(kind)


def random_state(graph: ConflictGraph, rng: random.Random) -> frozenset[int]:
    """Random independent set: greedy over a shuffled order, then random drops."""
    order = list(range(graph.vertex_count))
    rng.shuffle(order)
    chosen: set[int] = set()
    for v in order:
        if not any(u in chosen for u in graph.neighbors[v]):
            chosen.add(v)
    return frozenset(v for v in chosen if rng.random() > 0.3)


def random_min_deg3_multigraph(n: int, rng: random.Random) -> Multigraph:
    """Pairing model: three stubs per vertex, one spare stub if the total is odd."""
    stubs = [v for v in range(n) for _ in range(3)]
    if len(stubs) % 2:
        stubs.append(rng.randrange(n))
    rng.shuffle(stubs)
    edges = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
    return Multigraph(n, tuple(edges))


def random_dense_multigraph(n: int, h: int, rng: random.Random, slack: int = 0) -> Multigraph:
    """Random multigraph with h*|E| >= (h+1)*|V|, i.e. dense enough for the
    bounded-size dense-subgraph search to be guaranteed an answer."""
    need = ((h + 1) * n + h - 1) // h + slack
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(need)]
    return Multigraph(n, tuple(edges))


def make_fig_graph() -> tuple[ConflictGraph, frozenset[int], frozenset[int]]:
    """Two heavy hubs versus five unit-ish spokes.

    Vertices 0..4 weigh 10, vertices 5 and 6 weigh 18.  Vertex 5 conflicts
    with 0,1,2 and vertex 6 with 0,3,4, so {0..4} and {5,6} are the two
    maximal solutions of interest.
    """
    weights = [Fraction(10)] * 5 + [Fraction(18)] * 2
    edges = [(5, 1), (5, 2), (5, 0), (6, 0), (6, 3), (6, 4)]
    graph = ConflictGraph.from_edges(7, edges, weights)
    return graph, frozenset(range(5)), frozenset({5, 6})


def random_weighted_instance(rng: random.Random, universe: int, n: int, k: int) -> Instance:
    from ksetpack import gen_random

    return gen_random(universe, n, k, seed=rng.randrange(10**6), weight_range=(Fraction(1), Fraction(5)))


def assert_valid_packing(instance: Instance, members) -> None:
    assert is_packing(instance, Packing(tuple(sorted(members))))


def solve_square_fraction(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = b exactly; None if A is singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_lp_optimum(lp) -> tuple[str, Fraction | None]:
    """Exact optimum by vertex enumeration. Every variable must have a finite
    upper bound so the feasible region is a polytope."""
    n = lp.num_vars
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for c in lp.constraints:
        dense = [Fraction(0)] * n
        for var, coef in c.coeffs:
            dense[var] = coef
        rows.append((dense, c.relation, c.rhs))
    for j in range(n):
        assert lp.upper[j] is not None, "oracle needs a bounded box"
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        rows.append((unit, ">=", lp.lower[j]))
        rows.append((unit, "<=", lp.upper[j]))

    def feasible(x):
        for dense, rel, rhs in rows:
            lhs = sum(d * xi for d, xi in zip(dense, x))
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        x = solve_square_fraction([rows[i][0] for i in combo], [rows[i][2] for i in combo])
        if x is None or not feasible(x):
            continue
        val = sum(c * xi for c, xi in zip(lp.objective, x))
        if best is None or val > best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


# The same two-phase simplex on a Fraction tableau, with one division per
# pivot row: the reference that solve_lp, on its integer tableau, must match
# field for field.
def _reference_pivot(rows, rhs, obj, obj_rhs, basis, r, e):
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


def _reference_run_simplex(rows, rhs, obj, obj_rhs, basis, allowed):
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
        obj_rhs = _reference_pivot(rows, rhs, obj, obj_rhs, basis, leave, enter)


def reference_solve_lp(lp: LinearProgram) -> LpSolution:
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
        status, obj_rhs = _reference_run_simplex(
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
                    _reference_pivot(rows, rhs, obj, Fraction(0), basis, i, enter)

    costs2 = [Fraction(0)] * ncols
    for j in range(n):
        costs2[j] = Fraction(lp.objective[j])
    obj, obj_rhs = build_obj(costs2)
    allowed = [
        not is_artificial[j] for j in range(ncols)
    ]
    status, obj_rhs = _reference_run_simplex(rows, rhs, obj, obj_rhs, basis, allowed)
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
    problem = reference_certify_optimal(lp, solution)
    if problem is not None:
        raise RuntimeError(f"internal: optimum failed certification: {problem}")
    return solution


# certify_optimal as it was when it summed Fractions term by term: the
# reference that the common-denominator certificate must match, message for
# message.
def reference_certify_optimal(lp: LinearProgram, sol: LpSolution) -> str | None:
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


# max_independent_set_exact as it was on Fraction weights: the reference
# for the oracle on integer-scaled weights.
def reference_max_independent_set_exact(
    graph: ConflictGraph, cap: int = ORACLE_CAP
) -> tuple[int, ...]:
    """Maximum-weight independent set, ties toward the lexicographically
    smallest sorted member tuple.  Branches on the highest-degree candidate;
    bounds by total remaining weight.  Raises CapExceededError above `cap`
    vertices."""
    n = graph.vertex_count
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds exact oracle cap {cap}")
    neighbor_sets = [frozenset(graph.neighbors[v]) for v in range(n)]
    best_value = Fraction(0)
    best_members: tuple[int, ...] = ()

    def explore(candidates: set[int], chosen: list[int], value: Fraction) -> None:
        nonlocal best_value, best_members
        bound = value + sum((graph.weights[v] for v in candidates), Fraction(0))
        if bound < best_value:
            return
        if not candidates:
            members = tuple(sorted(chosen))
            if value > best_value or (value == best_value and members < best_members):
                best_value = value
                best_members = members
            return
        # branch vertex: most conflicts among the remaining candidates
        branch = max(
            candidates,
            key=lambda v: (len(neighbor_sets[v] & candidates), -v),
        )
        chosen.append(branch)
        explore(candidates - neighbor_sets[branch] - {branch}, chosen, value + graph.weights[branch])
        chosen.pop()
        explore(candidates - {branch}, chosen, value)

    explore(set(range(n)), [], Fraction(0))
    return best_members


# square_imp as it was before its verdicts carried from one step to the
# next: every step rescans every vertex and every center.
def reference_square_imp(
    graph: ConflictGraph,
    weights: Sequence[Fraction] | None = None,
    max_talons: int | None = None,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
) -> frozenset[int]:
    """Accept any claw whose talon swap strictly increases the sum of
    squared weights; stop when none exists.  Centers are scanned in
    ascending id (1-claws first), talon subsets by size then lex; each
    accepted swap strictly increases w²(A), so the loop terminates."""
    w = weights if weights is not None else graph.weights
    budget = budget if budget is not None else WorkBudget()
    squares = integral([x * x for x in w])
    view = _SolutionNeighbors(graph, frozenset())

    def step():
        a, sol = view.a, view.sol
        for u in range(graph.vertex_count):
            budget.spend()
            if u not in a and squares[u] > sum(squares[x] for x in sol[u]):
                return (u,)
        for v in sorted(a):
            cands = [u for u in graph.neighbors[v] if u not in a]
            limit = max_talons if max_talons is not None else len(cands)
            talons = _first_improvement(
                view.nbr, sol, squares, squares, cands, min(limit, len(cands)), budget
            )
            if talons is not None:
                return talons
        return None

    return _search(view, step, stats)
