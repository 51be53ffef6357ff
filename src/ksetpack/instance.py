"""Set-packing instances, conflict graphs, generators and file I/O.

An instance is a family of small sets over a universe {0, ..., N-1}; a
packing is a pairwise-disjoint subfamily.  All weights are exact rationals.
Elements and set indices are 0-based in memory and 1-based in files.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .util import ParseError, format_fraction, parse_fraction


@dataclass(frozen=True)
class Instance:
    """A k-set packing instance. Sets are sorted tuples of element ids."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]
    k: int
    weights: tuple[Fraction, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.sets)

    def weight(self, i: int) -> Fraction:
        return self.weights[i] if self.weights is not None else Fraction(1)


@dataclass(frozen=True)
class Packing:
    """Indices of a pairwise-disjoint subfamily, sorted ascending."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str
    index: int | None = None


@dataclass(frozen=True)
class ConflictGraph:
    """Intersection graph of an instance: one vertex per set, an edge per
    overlapping pair.  Doubles as a general weighted graph container for the
    search routines; weights are strictly positive rationals."""

    neighbors: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, sorted."""
        for u in range(self.vertex_count):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Sequence[tuple[int, int]],
        weights: Sequence[Fraction] | None = None,
    ) -> "ConflictGraph":
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
        if weights is None:
            w = (Fraction(1),) * vertex_count
        else:
            w = tuple(Fraction(x) for x in weights)
            if len(w) != vertex_count:
                raise ValueError("weight count does not match vertex count")
            if any(x <= 0 for x in w):
                raise ValueError("vertex weights must be strictly positive")
        return cls(tuple(tuple(sorted(s)) for s in adj), w)


def validate(instance: Instance) -> Violation | None:
    """Check structural invariants; return the first violation, or None."""
    if instance.universe_size < 1:
        return Violation("universe-size", f"universe size {instance.universe_size} < 1")
    if instance.n < 1:
        return Violation("set-count", "instance has no sets")
    if instance.k < 1:
        return Violation("k-positive", f"k = {instance.k} < 1")
    for i, s in enumerate(instance.sets):
        if not (1 <= len(s) <= instance.k):
            return Violation(
                "set-size", f"set {i} has {len(s)} elements, need 1..{instance.k}", i
            )
        if len(set(s)) != len(s):
            return Violation("duplicate-element", f"set {i} repeats an element", i)
        for e in s:
            if not (0 <= e < instance.universe_size):
                return Violation(
                    "element-range",
                    f"set {i} contains {e}, outside 0..{instance.universe_size - 1}",
                    i,
                )
        if tuple(sorted(s)) != s:
            return Violation("set-order", f"set {i} is not sorted", i)
    if instance.weights is not None:
        if len(instance.weights) != instance.n:
            return Violation(
                "weight-count",
                f"{len(instance.weights)} weights for {instance.n} sets",
            )
        for i, w in enumerate(instance.weights):
            if w <= 0:
                return Violation("weight-positive", f"weight of set {i} is {w}", i)
    return None


def conflict_graph(instance: Instance) -> ConflictGraph:
    """Build the intersection graph: sets are adjacent iff they overlap.
    Pairs are read off an element -> sets index, so the cost follows the
    overlaps, not the n² pairs."""
    holders: dict[int, list[int]] = {}
    for i, s in enumerate(instance.sets):
        for e in s:
            holders.setdefault(e, []).append(i)
    edges = {
        (i, j) for group in holders.values() for i in group for j in group if i < j
    }
    return ConflictGraph.from_edges(instance.n, edges, instance.weights)


def is_packing(instance: Instance, packing: Packing) -> bool:
    """True iff the members are valid indices and pairwise disjoint."""
    seen: set[int] = set()
    for i in packing.members:
        if not (0 <= i < instance.n):
            raise ValueError(f"packing member {i} out of range")
        for e in instance.sets[i]:
            if e in seen:
                return False
            seen.add(e)
    return True


def packing_value(instance: Instance, packing: Packing) -> Fraction:
    """Total weight of the packing (cardinality when unweighted)."""
    return sum((instance.weight(i) for i in packing.members), Fraction(0))


def gen_projective_plane(q: int) -> Instance:
    """Projective plane of prime order q as a set system.

    Points are the q*q + q + 1 one-dimensional subspaces of GF(q)^3, each
    named by its normalized vector (first nonzero coordinate 1); sets are the
    lines.  The result is (q+1)-uniform and (q+1)-regular, and any two lines
    share exactly one point.
    """
    if q < 2 or any(q % p == 0 for p in range(2, q)):
        raise ValueError(f"q = {q} is not a prime")
    vectors = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if (a, b, c) == (0, 0, 0):
                    continue
                first = a if a else (b if b else c)
                if first == 1:
                    vectors.append((a, b, c))
    assert len(vectors) == q * q + q + 1
    point_id = {v: i for i, v in enumerate(vectors)}
    lines = []
    for line_vec in vectors:
        la, lb, lc = line_vec
        pts = sorted(
            point_id[(a, b, c)]
            for (a, b, c) in vectors
            if (la * a + lb * b + lc * c) % q == 0
        )
        lines.append(tuple(pts))
    return Instance(
        universe_size=len(vectors), sets=tuple(lines), k=q + 1, weights=None
    )


def gen_random(
    universe_size: int,
    n: int,
    k: int,
    seed: int,
    weight_range: tuple[Fraction, Fraction] | None = None,
) -> Instance:
    """Sample n distinct k-subsets of a universe, uniformly, reproducibly.

    Optional weights are drawn from a 1/1000 grid over [lo, hi] so they stay
    exact rationals.  Raises ValueError when n < 1, when fewer than n
    distinct k-subsets exist, or if resampling against duplicates somehow
    exceeds 100*n tries.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 sets, got n={n}")
    if k < 1 or k > universe_size:
        raise ValueError(f"need 1 <= k <= universe size, got k={k}, N={universe_size}")
    if math.comb(universe_size, k) < n:
        raise ValueError(
            f"only {math.comb(universe_size, k)} distinct {k}-subsets exist, need {n}"
        )
    rng = random.Random(seed)
    chosen: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    failures = 0
    while len(chosen) < n:
        s = tuple(sorted(rng.sample(range(universe_size), k)))
        if s in seen:
            failures += 1
            if failures > 100 * n:
                raise ValueError("resampling budget exhausted while avoiding duplicates")
            continue
        seen.add(s)
        chosen.append(s)
    weights = None
    if weight_range is not None:
        lo, hi = Fraction(weight_range[0]), Fraction(weight_range[1])
        if lo <= 0 or hi < lo:
            raise ValueError("weight range must satisfy 0 < lo <= hi")
        grid = 1000
        weights = tuple(
            lo + (hi - lo) * Fraction(rng.randrange(grid + 1), grid) for _ in range(n)
        )
    return Instance(universe_size=universe_size, sets=tuple(chosen), k=k, weights=weights)


def instance_from_graph(
    vertex_count: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[Fraction] | None = None,
) -> Instance:
    """Encode a simple graph as a set-packing instance.

    Each edge becomes one element; each vertex becomes the set of its
    incident edges (isolated vertices get a private fresh element), so the
    conflict graph of the result is the input graph and packings are
    independent sets.  With max degree d this uses k = max(d, 1).
    """
    incident: list[list[int]] = [[] for _ in range(vertex_count)]
    seen: set[tuple[int, int]] = set()
    for eid, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        incident[u].append(eid)
        incident[v].append(eid)
    next_element = len(edges)
    sets = []
    for v in range(vertex_count):
        if incident[v]:
            sets.append(tuple(sorted(incident[v])))
        else:
            sets.append((next_element,))
            next_element += 1
    k = max(len(s) for s in sets)
    w = tuple(Fraction(x) for x in weights) if weights is not None else None
    return Instance(universe_size=next_element, sets=tuple(sets), k=k, weights=w)


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    Grammar (1-based ids, 'c' lines are comments, blank lines ignored)::

        p setpack <universe-size> <set-count> <k>
        w <r1> ... <rn>              optional, rationals as p or p/q
        <e1> <e2> ... <ek'>          one line per set

    Raises ParseError with a line number on any syntax problem, and
    ValueError if the parsed instance violates a structural invariant.
    """
    header: tuple[int, int, int] | None = None
    weights: tuple[Fraction, ...] | None = None
    sets: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate p line", lineno)
            if len(fields) != 5 or fields[1] != "setpack":
                raise ParseError("expected 'p setpack N n k'", lineno)
            try:
                header = (int(fields[2]), int(fields[3]), int(fields[4]))
            except ValueError:
                raise ParseError("p line fields must be integers", lineno) from None
            if min(header) < 0:
                raise ParseError("p line counts must be >= 0", lineno)
            continue
        if fields[0] == "w":
            if header is None:
                raise ParseError("w line before p line", lineno)
            if weights is not None:
                raise ParseError("duplicate w line", lineno)
            if sets:
                raise ParseError("w line must precede set lines", lineno)
            try:
                weights = tuple(parse_fraction(f) for f in fields[1:])
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
            if len(weights) != header[1]:
                raise ParseError(
                    f"expected {header[1]} weights, got {len(weights)}", lineno
                )
            continue
        if header is None:
            raise ParseError("set line before p line", lineno)
        try:
            elements = [int(f) for f in fields]
        except ValueError:
            raise ParseError("set line fields must be integers", lineno) from None
        if any(e < 1 for e in elements):
            raise ParseError("element ids are 1-based", lineno)
        sets.append(tuple(sorted(e - 1 for e in elements)))
        if len(sets) > header[1]:
            raise ParseError(f"more than {header[1]} set lines", lineno)
    if header is None:
        raise ParseError("missing p line")
    if len(sets) != header[1]:
        raise ParseError(f"expected {header[1]} set lines, got {len(sets)}")
    instance = Instance(
        universe_size=header[0], sets=tuple(sets), k=header[2], weights=weights
    )
    violation = validate(instance)
    if violation is not None:
        raise ValueError(f"invalid instance: {violation.rule}: {violation.detail}")
    return instance


def serialize_instance(instance: Instance) -> str:
    """Render an instance in the file format; parse_instance inverts this."""
    violation = validate(instance)
    if violation is not None:
        raise ValueError(f"invalid instance: {violation.rule}: {violation.detail}")
    lines = [f"p setpack {instance.universe_size} {instance.n} {instance.k}"]
    if instance.weights is not None:
        lines.append("w " + " ".join(format_fraction(w) for w in instance.weights))
    for s in instance.sets:
        lines.append(" ".join(str(e + 1) for e in s))
    return "\n".join(lines) + "\n"


def parse_graph(
    text: str,
) -> tuple[int, list[tuple[int, int]], tuple[Fraction, ...] | None]:
    """Parse the simple-graph file format (1-based vertex ids).

    Grammar ('c' lines are comments, blank lines ignored)::

        p graph <vertex-count> <edge-count>
        w <r1> ... <rn>              optional vertex weights
        <u> <v>                      one line per edge

    Returns (vertex_count, edges, weights) with 0-based endpoints, suitable
    for instance_from_graph.
    """
    header: tuple[int, int] | None = None
    weights: tuple[Fraction, ...] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate p line", lineno)
            if len(fields) != 4 or fields[1] != "graph":
                raise ParseError("expected 'p graph n m'", lineno)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError("p line fields must be integers", lineno) from None
            if header[0] < 1 or header[1] < 0:
                raise ParseError("need at least one vertex and m >= 0", lineno)
            continue
        if fields[0] == "w":
            if header is None:
                raise ParseError("w line before p line", lineno)
            if weights is not None:
                raise ParseError("duplicate w line", lineno)
            if edges:
                raise ParseError("w line must precede edge lines", lineno)
            try:
                weights = tuple(parse_fraction(f) for f in fields[1:])
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
            if len(weights) != header[0]:
                raise ParseError(
                    f"expected {header[0]} weights, got {len(weights)}", lineno
                )
            continue
        if header is None:
            raise ParseError("edge line before p line", lineno)
        if len(fields) != 2:
            raise ParseError("edge lines are '<u> <v>'", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
        if not (1 <= u <= header[0] and 1 <= v <= header[0]):
            raise ParseError("vertex ids are 1-based and at most n", lineno)
        if u == v:
            raise ParseError(f"loop at vertex {u} not allowed", lineno)
        edges.append((u - 1, v - 1))
        seen.add(frozenset((u, v)))
        if len(seen) < len(edges):
            raise ParseError(f"duplicate edge ({u}, {v})", lineno)
        if len(edges) > header[1]:
            raise ParseError(f"more than {header[1]} edge lines", lineno)
    if header is None:
        raise ParseError("missing p line")
    if len(edges) != header[1]:
        raise ParseError(f"expected {header[1]} edge lines, got {len(edges)}")
    return header[0], edges, weights
