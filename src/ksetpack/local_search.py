"""Unweighted local search: t-improving sets, the ratio-bound calculator,
and the auxiliary-multigraph search for improvements of logarithmic size.

The t-swap search is the swap engine of `weighted` with unit potential: a
swap of at most t outside sets must raise the packing's cardinality.  It
runs on the conflict graph, built once per search.

The auxiliary-multigraph route comes with a caveat: a dense subgraph of the
auxiliary graph does NOT necessarily yield a usable improvement, because the
outside sets behind its edges may intersect each other.  Every candidate is
therefore validated before being returned, and callers must expect none.
Its search beyond the constructive route probes connected vertex sets only,
with the swap engine's enumerator, and grows only sets whose edges carry
pairwise disjoint sets.  A disconnected validated set has a validated
component of smaller size, so it returns the same set as probing every
subset by size, then lex order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instance import (
    Instance,
    Packing,
    conflict_graph,
    is_packing,
)
from .multigraph import Multigraph, find_dense_subgraph
from .util import SearchStats, WorkBudget
from .weighted import _connected_layers, _search, _t_swap_step


@dataclass(frozen=True)
class ImprovingSet:
    """A swap: add `incoming` (pairwise disjoint, outside the packing),
    remove `outgoing` (exactly the members they intersect)."""

    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]


def _unit_swap_step(instance: Instance, packing: Packing, t: int, budget):
    """The engine's t-swap step with unit potential, after input checks."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not is_packing(instance, packing):
        raise ValueError("packing is not pairwise disjoint")
    return _t_swap_step(conflict_graph(instance), [1] * instance.n, t, budget)


def find_improving_set(
    instance: Instance,
    packing: Packing,
    t: int,
    budget: WorkBudget | None = None,
) -> ImprovingSet | None:
    """First improving set with at most t incoming sets, by size then lex
    order, or None (which certifies t-local optimality)."""
    members = frozenset(packing.members)
    after = _unit_swap_step(instance, packing, t, budget)(members)
    if after is None:
        return None
    return ImprovingSet(
        incoming=tuple(sorted(after - members)),
        outgoing=tuple(sorted(members - after)),
    )


def _outgoing(instance: Instance, members, incoming) -> set[int] | None:
    """The members that the incoming sets meet, or None when two incoming
    sets meet each other."""
    occupied: set[int] = set()
    for i in incoming:
        elems = instance.sets[i]
        if any(e in occupied for e in elems):
            return None
        occupied.update(elems)
    return {m for m in members if any(e in occupied for e in instance.sets[m])}


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
    outgoing = _outgoing(instance, members, incoming)
    if outgoing is None:
        raise ValueError("incoming sets are not pairwise disjoint")
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
    packing = start if start is not None else Packing(members=())
    step = _unit_swap_step(instance, packing, t, budget)
    members = _search(frozenset(packing.members), step, stats)
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


def build_auxiliary_multigraph(
    instance: Instance, packing: Packing, include_loops: bool
) -> tuple[Multigraph, tuple[int, ...]]:
    """One vertex per packing member; each outside set meeting exactly two
    members becomes an edge between them (exactly one member: a loop, if
    include_loops).  Returns the multigraph and, per edge, the outside set
    index that produced it."""
    if not is_packing(instance, packing):
        raise ValueError("packing is not pairwise disjoint")
    members = list(packing.members)
    member_pos = {m: i for i, m in enumerate(members)}
    member_elements = [frozenset(instance.sets[m]) for m in members]
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    for f in range(instance.n):
        if f in member_pos:
            continue
        elems = frozenset(instance.sets[f])
        hits = [i for i, me in enumerate(member_elements) if me & elems]
        if len(hits) == 2:
            edges.append((hits[0], hits[1]))
            labels.append(f)
        elif len(hits) == 1 and include_loops:
            edges.append((hits[0], hits[0]))
            labels.append(f)
    return (
        Multigraph(vertex_count=len(members), edges=tuple(edges)),
        tuple(labels),
    )


def log_improvement_search(
    instance: Instance,
    packing: Packing,
    epsilon: Fraction,
    budget: WorkBudget | None = None,
) -> ImprovingSet | None:
    """Search for an improving set through dense subgraphs of the auxiliary
    multigraph, within the size bound 4*(1 + 1/eps)*log2(|packing|).

    Tries the constructive dense-subgraph procedure when the density
    precondition holds, then every connected vertex set up to the bound
    whose edges' sets are pairwise disjoint, by size, then lex order.  Every
    candidate is validated (incoming pairwise disjoint, strictly improving);
    invalid candidates are skipped, and None means no validated improvement
    was found -- not that none exists of larger size.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    budget = budget if budget is not None else WorkBudget()
    aux, labels = build_auxiliary_multigraph(instance, packing, include_loops=False)
    n_aux = aux.vertex_count
    if n_aux < 2:
        return None
    size_cap = min(n_aux, math.floor(4 * (1 + 1 / eps) * math.log2(n_aux) + 1e-9))

    def candidate_from(x: frozenset[int] | set[int]) -> ImprovingSet | None:
        eids = [
            i for i, (a, b) in enumerate(aux.edges) if a in x and b in x
        ]
        incoming = sorted(labels[i] for i in eids)
        outgoing = _outgoing(instance, packing.members, incoming)
        # None: the dense subgraph lied, its sets intersect
        if outgoing is None or len(incoming) <= len(outgoing):
            return None
        return ImprovingSet(incoming=tuple(incoming), outgoing=tuple(sorted(outgoing)))

    h = math.ceil(1 / eps)
    if h * len(aux.edges) >= (h + 1) * n_aux:
        dense = find_dense_subgraph(aux, h)
        if len(dense) <= size_cap:
            found = candidate_from(dense)
            if found is not None:
                return found
    # A set is validated iff it is dense and the sets behind its induced
    # edges are pairwise disjoint; the second holds for every subset too, so
    # a set that breaks it is not grown.  The first validated set is
    # connected: a dense component of a disconnected one is validated at a
    # smaller size.
    between: list[dict[int, list[int]]] = [{} for _ in range(n_aux)]
    for (a, b), f in zip(aux.edges, labels):
        between[a].setdefault(b, []).append(f)
        between[b].setdefault(a, []).append(f)

    def grow(members, w, state):
        # (edges minus vertices, elements of the induced edges' sets)
        excess, used = state
        fresh = [f for c in members for f in between[w].get(c, ())]
        elems = [e for f in fresh for e in instance.sets[f]]
        met = used.union(elems)
        if len(met) < len(used) + len(elems):
            return None
        return excess - 1 + len(fresh), met

    layers = _connected_layers(
        range(n_aux),
        [set() for _ in range(size_cap)],
        between.__getitem__,
        grow,
        (0, frozenset()),
        lambda state: state[0] > 0,
        budget,
    )
    for dense_sets in layers:
        for x in dense_sets:
            found = candidate_from(set(x))
            if found is not None:
                return found
    return None


def log_local_search(
    instance: Instance,
    epsilon: Fraction,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
) -> Packing:
    """Interleave plain 2-swaps with the logarithmic-size multigraph search:
    each step applies the first 2-swap, or when the packing is 2-locally
    optimal, one larger improving set; stop when both come up empty.  One
    conflict graph serves the whole run.  Terminates because every applied
    swap strictly grows the packing."""
    budget = budget if budget is not None else WorkBudget()
    two_swap = _unit_swap_step(instance, Packing(members=()), 2, budget)

    def step(a: frozenset[int]) -> frozenset[int] | None:
        after = two_swap(a)
        if after is not None:
            return after
        packing = Packing(members=tuple(sorted(a)))
        imp = log_improvement_search(instance, packing, epsilon, budget)
        if imp is None:
            return None
        return frozenset(apply_improving_set(instance, packing, imp).members)

    return Packing(members=tuple(sorted(_search(frozenset(), step, stats))))
