"""Multigraphs and small dense-subgraph extraction.

A subgraph is "dense" here when it has strictly more edges than vertices.
Two constructive procedures find such subgraphs of logarithmic size: one for
multigraphs of minimum degree 3 (BFS lollipops, one contraction step), one
for multigraphs satisfying the density bound h·|E| >= (h+1)·|V| (reduce,
contract degree-2 chains, then reuse the first procedure).  The reduction
keeps one map from each surviving vertex to its live edges and updates it in
place, so each round costs one pass over the survivors plus the incidence
lists it edits.  An exhaustive checker serves as the reference
implementation for both.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .util import CapExceededError

EXHAUSTIVE_GUARD = 20


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; loops (u, u) and parallel edges allowed.
    A loop contributes 2 to its vertex's degree."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def degree(self, v: int) -> int:
        return sum(2 if (u, w) == (v, v) else (u == v) + (w == v) for u, w in self.edges)


def induced_edge_count(g: Multigraph, x: frozenset[int] | set[int]) -> int:
    """Number of edges (loops included) with both endpoints in x."""
    return sum(1 for u, v in g.edges if u in x and v in x)


def is_connected_induced(g: Multigraph, x: frozenset[int] | set[int]) -> bool:
    """True iff the subgraph induced on x is connected (loops irrelevant)."""
    if not x:
        return True
    adj: dict[int, set[int]] = {v: set() for v in x}
    for u, v in g.edges:
        if u in x and v in x and u != v:
            adj[u].add(v)
            adj[v].add(u)
    start = min(x)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(x)


def _lollipop(n: int, edges: list[tuple[int, int]], root: int) -> frozenset[int] | None:
    """BFS from root; return the union of the tree paths to some vertex u
    with at most one child and to the far end of a non-tree edge at u.

    The returned set Y always induces at least |Y| edges.  Scanning u in
    (distance, id) order keeps both the result and its size bound
    deterministic.  Returns None when no such u exists (possible only for a
    root of degree < 3 in an otherwise min-degree-3 graph).
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (a, b) in enumerate(edges):
        adj[a].append((b, eid))
        if a != b:
            adj[b].append((a, eid))
    for lst in adj:
        lst.sort()

    parent = {root: None}
    dist = {root: 0}
    tree_eids: set[int] = set()
    children = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w, eid in adj[u]:
            if w not in parent:
                parent[w] = u
                dist[w] = dist[u] + 1
                children[w] = 0
                children[u] += 1
                tree_eids.add(eid)
                queue.append(w)

    def path_to_root(x: int) -> set[int]:
        out = set()
        while x is not None:
            out.add(x)
            x = parent[x]
        return out

    for u in sorted(parent, key=lambda v: (dist[v], v)):
        if children[u] > 1:
            continue
        spare = None
        for w, eid in adj[u]:
            if eid not in tree_eids:
                spare = (w, eid)
                break
        if spare is None:
            continue
        w = spare[0]
        return frozenset(path_to_root(u) | path_to_root(w))
    return None


def find_dense_subgraph_min_deg3(g: Multigraph, v: int) -> frozenset[int]:
    """In a multigraph of minimum degree 3, find X containing v such that
    G[X] is connected and has strictly more edges than vertices, with
    |X| <= 4*log2(n) - 1 for n >= 2.

    First BFS lollipop from v; if it induces exactly |Y| edges, contract Y to
    a single vertex (dropping Y-internal edges) and take a second lollipop
    from the contracted vertex; the union of both is strictly dense.
    """
    n = g.vertex_count
    if not (0 <= v < n):
        raise ValueError(f"start vertex {v} out of range")
    for u, d in enumerate(g.degrees()):
        if d < 3:
            raise ValueError(f"vertex {u} has degree {d} < 3")

    edges = list(g.edges)
    y1 = _lollipop(n, edges, v)
    if y1 is None:
        raise RuntimeError("internal: no low-child vertex with a spare edge")
    if induced_edge_count(g, y1) > len(y1):
        x = y1
    else:
        # contract y1 to a fresh vertex; keep original ids for the rest
        keep = sorted(u for u in range(n) if u not in y1)
        idmap = {u: i for i, u in enumerate(keep)}
        y_new = len(keep)
        edges2: list[tuple[int, int]] = []
        for a, b in edges:
            ina, inb = a in y1, b in y1
            if ina and inb:
                continue
            edges2.append((y_new if ina else idmap[a], y_new if inb else idmap[b]))
        y2 = _lollipop(y_new + 1, edges2, y_new)
        if y2 is None:
            raise RuntimeError("internal: contracted lollipop not found")
        x = y1 | frozenset(keep[u] for u in y2 if u != y_new)

    if not (v in x and is_connected_induced(g, x) and induced_edge_count(g, x) > len(x)):
        raise RuntimeError("internal: dense-subgraph postcondition failed")
    if n >= 2 and len(x) > 4 * math.log2(n) - 1 + 1e-9:
        raise RuntimeError(f"internal: |X| = {len(x)} above 4*log2({n}) - 1")
    return x


def find_dense_subgraph(g: Multigraph, h: int) -> frozenset[int]:
    """In a multigraph with h·|E| >= (h+1)·|V|, find X inducing strictly
    more edges than vertices, |X| < 4·h·log2(n).

    Procedure: repeatedly delete low-degree vertices, single-loop vertices,
    cycle components and degree-2 chains of >= h vertices (all preserve the
    density bound); contract the surviving short chains to single edges,
    which leaves minimum degree 3; extract a dense subgraph there and
    re-expand the chains behind its edges.
    """
    if h < 1:
        raise ValueError("h must be a positive integer")
    n = g.vertex_count
    if h * len(g.edges) < (h + 1) * n:
        raise ValueError(
            f"density precondition fails: {h}*{len(g.edges)} < {h + 1}*{n}"
        )

    # surviving vertex -> its live edge ids, ascending, a loop listed once;
    # "degree <= 1, or degree 2 with a loop" is then "at most one edge"
    inc: dict[int, list[int]] = {v: [] for v in range(n)}
    for eid, (a, b) in enumerate(g.edges):
        inc[a].append(eid)
        if a != b:
            inc[b].append(eid)

    while True:
        low = [v for v, eids in inc.items() if len(eids) <= 1]
        if low:
            doomed = [min(low)]
        else:
            chains = _chains(g, inc)
            doomed = next(
                (comp for comp, ends in chains if ends is None or len(comp) >= h), None
            )
            if doomed is None:
                break
        for v in doomed:
            for eid in inc.pop(v):
                a, b = g.edges[eid]
                other = b if a == v else a
                if other in inc:
                    inc[other].remove(eid)

    if not inc:
        raise RuntimeError("internal: reduction emptied the graph")

    # contract surviving chains (each < h vertices, none a cycle) to single edges
    chained = {v for comp, _ in chains for v in comp}
    core = sorted(set(inc) - chained)
    idmap = {v: i for i, v in enumerate(core)}
    edges2 = [(idmap[a], idmap[b]) for _, (a, b) in chains]
    interiors = [comp for comp, _ in chains]
    chain_eids = {eid for v in chained for eid in inc[v]}
    for eid in sorted({eid for v in core for eid in inc[v]} - chain_eids):
        a, b = g.edges[eid]
        edges2.append((idmap[a], idmap[b]))
        interiors.append([])

    core_graph = Multigraph(vertex_count=len(core), edges=tuple(edges2))
    x_core = find_dense_subgraph_min_deg3(core_graph, 0)
    m = len(x_core)
    chosen = [
        i
        for i, (a, b) in enumerate(core_graph.edges)
        if a in x_core and b in x_core
    ]
    chosen.sort(key=lambda i: (core_graph.edges[i], i))
    chosen = chosen[: m + 1]

    x = {core[u] for u in x_core}
    for i in chosen:
        x.update(interiors[i])

    if induced_edge_count(g, x) <= len(x):
        raise RuntimeError("internal: expanded subgraph not dense")
    if n >= 2 and len(x) >= 4 * h * math.log2(n) - 1e-9:
        raise RuntimeError(f"internal: |X| = {len(x)} not below 4*{h}*log2({n})")
    return frozenset(x)


def _chains(g: Multigraph, inc: dict[int, list[int]]):
    """Every maximal chain of the graph `inc` describes, ordered by lowest
    vertex, as `_trace_chain` returns it.  A chain vertex has exactly two
    incident edges, and neither is a loop."""
    chain_verts = {
        v
        for v, eids in inc.items()
        if len(eids) == 2 and all(g.edges[e][0] != g.edges[e][1] for e in eids)
    }
    chains = []
    seen: set[int] = set()
    for v in sorted(chain_verts):
        if v not in seen:
            comp, ends = _trace_chain(g, inc, chain_verts, v)
            seen.update(comp)
            chains.append((comp, ends))
    return chains


def _trace_chain(
    g: Multigraph,
    inc: dict[int, list[int]],
    chain_verts: set[int],
    start: int,
):
    """Walk the maximal chain through `start`, first along its lower edge.

    Returns (component, ends) where component is the list of chain vertices
    and ends is the sorted pair of attachment endpoints, or None when the
    walk closes a pure cycle.
    """
    comp = [start]
    ends: list[int] = []
    for eid in inc[start]:  # one walk out along each of its two edges
        cur = start
        while True:
            a, b = g.edges[eid]
            other = b if a == cur else a
            if other not in chain_verts:
                ends.append(other)
                break
            if other == start:
                return comp, None  # closed a cycle of chain vertices
            comp.append(other)
            e0, e1 = inc[other]
            cur, eid = other, (e1 if e0 == eid else e0)
    return comp, (min(ends), max(ends))


def has_small_dense_subgraph(g: Multigraph, size_bound: int) -> bool:
    """Exhaustive reference check: does any X with |X| <= size_bound induce
    strictly more edges than vertices?  Guarded to small graphs."""
    n = g.vertex_count
    if n > EXHAUSTIVE_GUARD:
        raise CapExceededError(
            f"{n} vertices exceeds exhaustive guard {EXHAUSTIVE_GUARD}"
        )
    for size in range(1, min(size_bound, n) + 1):
        for subset in combinations(range(n), size):
            x = set(subset)
            if induced_edge_count(g, x) > size:
                return True
    return False
