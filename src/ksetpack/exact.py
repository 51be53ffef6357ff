"""Exact oracles: maximum-weight packing via branch and bound.

Desk-scale only.  The solver works on the conflict graph (packings are
exactly its independent sets) and is guarded by a hard size cap.  Weights
are scaled once to integers by the lcm of their denominators, so the bound
and every comparison run on ints; a positive scaling keeps every outcome.
"""
from __future__ import annotations

from fractions import Fraction

from .instance import ConflictGraph, Instance, Packing, conflict_graph, packing_value
from .util import CapExceededError, integral

ORACLE_CAP = 40


def max_independent_set_exact(
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
    weights = integral(graph.weights)
    best_value = 0
    best_members: tuple[int, ...] = ()

    def explore(candidates: set[int], chosen: list[int], value: int) -> None:
        nonlocal best_value, best_members
        bound = value + sum(weights[v] for v in candidates)
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
        explore(candidates - neighbor_sets[branch] - {branch}, chosen, value + weights[branch])
        chosen.pop()
        explore(candidates - {branch}, chosen, value)

    explore(set(range(n)), [], 0)
    return best_members


def max_packing_exact(instance: Instance, cap: int = ORACLE_CAP) -> Packing:
    """Maximum-weight packing of an instance (cardinality when unweighted)."""
    members = max_independent_set_exact(conflict_graph(instance), cap=cap)
    return Packing(members=members)


def max_packing_value(instance: Instance, cap: int = ORACLE_CAP) -> Fraction:
    return packing_value(instance, max_packing_exact(instance, cap=cap))
