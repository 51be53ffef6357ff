"""Unweighted local search: t-improving sets, the ratio-bound calculator,
and the auxiliary-multigraph search for improvements of logarithmic size.

The t-swap search is the swap engine of `weighted` with unit potential: a
swap of at most t outside sets must raise the packing's cardinality.  It
runs on the conflict graph, built once per search.

A dense subgraph of the auxiliary multigraph (more edges than vertices)
does NOT necessarily yield an improvement, because the outside sets behind
its edges may intersect each other.  So the log-size search probes
connected member sets with the swap engine's first-connected search, on
its solution-neighbour view, and grows only sets whose edges' sets are
pairwise non-adjacent in the conflict graph: the first dense one is an
improving swap.  A disconnected such set has a dense component of smaller
size, so the result is the same as probing every subset by size, then lex
order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance, Packing, conflict_graph, is_packing
from .multigraph import Multigraph
from .util import SearchStats, WorkBudget
from .weighted import _first_connected, _search, _SolutionNeighbors, _t_swap_step


@dataclass(frozen=True)
class ImprovingSet:
    """A swap: add `incoming` (pairwise disjoint, outside the packing),
    remove `outgoing` (exactly the members they intersect)."""

    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]


def _view(instance: Instance, packing: Packing) -> _SolutionNeighbors:
    """The swap engine's view of the conflict graph at the packing, after
    checking that the packing is one."""
    if not is_packing(instance, packing):
        raise ValueError("packing is not pairwise disjoint")
    return _SolutionNeighbors(conflict_graph(instance), frozenset(packing.members))


def _unit_swap_step(view: _SolutionNeighbors, t: int, budget):
    """The engine's t-swap step with unit potential, after checking t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    ones = [1] * view.graph.vertex_count
    return _t_swap_step(view, ones, ones, t, budget)


def _improving_set(view: _SolutionNeighbors, incoming) -> ImprovingSet | None:
    """The swap of the incoming sets on the view; None for None."""
    if incoming is None:
        return None
    outgoing = set().union(*(view.sol[u] for u in incoming))
    return ImprovingSet(incoming=incoming, outgoing=tuple(sorted(outgoing)))


def find_improving_set(
    instance: Instance,
    packing: Packing,
    t: int,
    budget: WorkBudget | None = None,
) -> ImprovingSet | None:
    """First improving set with at most t incoming sets, by size then lex
    order, or None (which certifies t-local optimality)."""
    view = _view(instance, packing)
    return _improving_set(view, _unit_swap_step(view, t, budget)())


def apply_improving_set(
    instance: Instance, packing: Packing, imp: ImprovingSet
) -> Packing:
    """Apply the swap, re-deriving and checking everything against the
    packing so a stale or corrupted ImprovingSet cannot slip through."""
    members = set(packing.members)
    incoming = list(imp.incoming)
    if not incoming:
        raise ValueError("improving set has no incoming sets")
    if any(i in members for i in incoming):
        raise ValueError("stale improving set: incoming overlaps the packing")
    for i in incoming:
        if not (0 <= i < instance.n):
            raise ValueError(f"incoming index {i} out of range")
    occupied: set[int] = set()
    for i in incoming:
        if any(e in occupied for e in instance.sets[i]):
            raise ValueError("incoming sets are not pairwise disjoint")
        occupied.update(instance.sets[i])
    outgoing = {m for m in members if any(e in occupied for e in instance.sets[m])}
    if outgoing != set(imp.outgoing):
        raise ValueError("stale improving set: outgoing does not match packing")
    if len(incoming) <= len(outgoing):
        raise ValueError("set is not improving")
    result = Packing(members=tuple(sorted((members - outgoing) | set(incoming))))
    if not is_packing(instance, result):
        raise RuntimeError("internal: applied swap broke disjointness")
    return result


def t_local_search(
    instance: Instance,
    t: int,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
    start: Packing | None = None,
) -> Packing:
    """Apply first improving sets of at most t sets until none is left,
    from empty or from `start`: the swap engine with unit potential on a
    conflict graph built once.  Terminates: cardinality strictly increases
    with each swap."""
    view = _view(instance, start if start is not None else Packing(members=()))
    members = _search(view, _unit_swap_step(view, t, budget), stats)
    return Packing(members=tuple(sorted(members)))


def hs_bound(k: int, t: int) -> Fraction:
    """Worst-case ratio (optimum over t-locally-optimal) for k-set packing,
    the Hurkens-Schrijver bound.  Decreases from (k+1)/2 at t=2 toward k/2."""
    if k < 3 or t < 2:
        raise ValueError("need k >= 3 and t >= 2")
    r = (t + 1) // 2
    p = (k - 1) ** r
    if t % 2 == 1:
        return Fraction(k * p - k, 2 * p - k)
    return Fraction(k * p - 2, 2 * p - 2)


def _auxiliary_edges(sol, include_loops: bool):
    """The auxiliary multigraph under the solution neighbours `sol`: an
    outside set meeting exactly two members is an edge between them (one
    member: a loop, if include_loops).  Yields (set, its members sorted)
    by ascending set."""
    for u, ends in enumerate(sol):
        if len(ends) == 2 or (include_loops and len(ends) == 1):
            yield u, sorted(ends)


def build_auxiliary_multigraph(
    instance: Instance, packing: Packing, include_loops: bool
) -> tuple[Multigraph, tuple[int, ...]]:
    """One vertex per packing member, in member order, and the edges of
    `_auxiliary_edges`.  Returns the multigraph and, per edge, the outside
    set index that produced it."""
    sol = _view(instance, packing).sol
    pos = {m: i for i, m in enumerate(packing.members)}
    edges = list(_auxiliary_edges(sol, include_loops))
    ends = tuple((pos[e[0]], pos[e[-1]]) for _, e in edges)
    return Multigraph(len(packing.members), ends), tuple(u for u, _ in edges)


def _positive(epsilon) -> Fraction:
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps


def _log_swap(view: _SolutionNeighbors, eps: Fraction, budget):
    """The incoming sets, ascending, of the first connected set of at most
    4*(1 + 1/eps)*log2(|A|) members of the view's A, by size then lex
    order, that induces more auxiliary edges than members and whose edges'
    sets are pairwise disjoint; or None."""
    members = sorted(view.a)
    if len(members) < 2:
        return None
    size_cap = min(len(members), math.floor(4 * (1 + 1 / eps) * math.log2(len(members)) + 1e-9))
    edges = list(_auxiliary_edges(view.sol, include_loops=False))
    # member -> adjacent member -> the outside sets behind their edges
    between: dict[int, dict[int, list[int]]] = {m: {} for m in members}
    for u, (b, c) in edges:
        between[b].setdefault(c, []).append(u)
        between[c].setdefault(b, []).append(u)
    nbr = view.nbr

    def grow(x, w, state):
        # (edges minus vertices, the induced edges' sets); two sets overlap
        # exactly when they are adjacent
        excess, used = state
        fresh = [u for c in x for u in between[w].get(c, ())]
        met = used.union(fresh)
        if any(not nbr[u].isdisjoint(met) for u in fresh):
            return None
        return excess - 1 + len(fresh), met

    verified = [set() for _ in range(size_cap)]
    dense = _first_connected(members, verified, between.__getitem__, grow, budget)
    if dense is None:
        return None
    return tuple(u for u, (b, c) in edges if b in dense and c in dense)


def log_improvement_search(
    instance: Instance,
    packing: Packing,
    epsilon: Fraction,
    budget: WorkBudget | None = None,
) -> ImprovingSet | None:
    """Search for an improving set through dense subgraphs of the auxiliary
    multigraph, within the size bound 4*(1 + 1/eps)*log2(|packing|).

    Returns the first connected vertex set up to the bound, by size, then
    lex order, that induces more edges than vertices and whose edges' sets
    are pairwise disjoint: those sets come in, and the members they meet
    leave.  None means no such set exists within the bound -- not that no
    improvement of larger size does.
    """
    eps = _positive(epsilon)
    budget = budget if budget is not None else WorkBudget()
    view = _view(instance, packing)
    return _improving_set(view, _log_swap(view, eps, budget))


def log_local_search(
    instance: Instance,
    epsilon: Fraction,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
) -> Packing:
    """Interleave plain 2-swaps with the logarithmic-size multigraph search:
    each step applies the first 2-swap, or when the packing is 2-locally
    optimal, the first log-size swap; stop when both come up empty.  Both
    run on one solution-neighbour view of one conflict graph, so the 2-swap
    verdicts outlive a log-size swap.  Terminates because every applied
    swap strictly grows the packing."""
    eps = _positive(epsilon)
    budget = budget if budget is not None else WorkBudget()
    view = _view(instance, Packing(members=()))
    two_swap = _unit_swap_step(view, 2, budget)

    def step() -> tuple[int, ...] | None:
        incoming = two_swap()
        if incoming is None:
            incoming = _log_swap(view, eps, budget)
            imp = _improving_set(view, incoming)
            if imp is not None and len(imp.incoming) <= len(imp.outgoing):
                raise RuntimeError("internal: log-size swap did not grow the packing")
        return incoming

    return Packing(members=tuple(sorted(_search(view, step, stats))))
