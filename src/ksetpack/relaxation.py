"""LP relaxations of set packing and a Lovász theta-3 SDP exporter.

Two LP formulations over the same variables (one per set, box [0,1]):
the standard one with a row per element, and a tighter one that adds a row
per maximal clique of the conflict graph.  Any pairwise-intersecting family
lies inside some maximal clique, so the clique rows dominate every
intersecting-family constraint.  Combined with the exact oracle this gives
integrality-gap measurements as literal rational equalities.

The theta-3 relaxation is exported in SDPA sparse format for an external
SDP solver; solving it is out of scope here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import ORACLE_CAP, max_packing_value
from .instance import ConflictGraph, Instance, _require_valid, conflict_graph
from .lp import LEQ, Constraint, LinearProgram, solve_lp
from .util import CapExceededError, ParseError

CLIQUE_CAP = 100_000
_ONE = Fraction(1)  # one shared object for every unit coefficient and bound


def build_standard_lp(instance: Instance) -> LinearProgram:
    """One variable per set with bounds [0,1]; for every element that occurs
    at all, a row summing its sets' variables to at most 1.  Objective is the
    weight vector (all ones when unweighted)."""
    _require_valid(instance)
    member_of: dict[int, list[int]] = {}
    for i, s in enumerate(instance.sets):
        for e in s:
            member_of.setdefault(e, []).append(i)
    constraints = [
        Constraint(
            coeffs=tuple((i, _ONE) for i in member_of[e]),
            relation=LEQ,
            rhs=_ONE,
            label="degree",
        )
        for e in sorted(member_of)
    ]
    n = instance.n
    return LinearProgram(
        num_vars=n,
        objective=[instance.weight(i) for i in range(n)],
        constraints=constraints,
        lower=[Fraction(0)] * n,
        upper=[_ONE] * n,
    )


def enumerate_maximal_cliques(
    graph: ConflictGraph, cap: int = CLIQUE_CAP
) -> list[tuple[int, ...]]:
    """All maximal cliques, sorted, via Bron-Kerbosch with pivoting.

    The pivot is the first candidate, in id order, that sees |P| - 1 of P
    or more, else the one seeing the most of P (lowest id on ties), so
    only its non-neighbors spawn branches.  The cliques are sorted at the
    end, so the pivot changes the work only.  Raises CapExceededError as
    soon as more than `cap` cliques have been reported.
    """
    n = graph.vertex_count
    if n == 0:
        return []
    nbr = [frozenset(graph.neighbors[v]) for v in range(n)]
    found: list[tuple[int, ...]] = []

    # frames (r, P, X, branches left) on a stack: no recursion per member
    frames: list[tuple[tuple[int, ...], set[int], set[int], list[int]]] = []

    def push(r: tuple[int, ...], p: set[int], x: set[int]) -> None:
        if not p and not x:
            found.append(tuple(sorted(r)))
            if len(found) > cap:
                raise CapExceededError(f"more than {cap} maximal cliques")
            return
        pivot, most = None, -1
        for u in sorted(p | x):  # one seeing |P| - 1 of P leaves one branch at most
            seen = len(p & nbr[u])
            if seen > most:
                pivot, most = u, seen
                if seen >= len(p) - 1:
                    break
        frames.append((r, p, x, sorted(p - nbr[pivot], reverse=True)))

    push((), set(range(n)), set())
    while frames:
        r, p, x, todo = frames[-1]
        if not todo:
            frames.pop()
            continue
        v = todo.pop()
        push(r + (v,), p & nbr[v], x & nbr[v])
        p.remove(v)
        x.add(v)
    found.sort()
    return found


def build_intersecting_family_lp(
    instance: Instance, cap: int = CLIQUE_CAP
) -> LinearProgram:
    """Standard LP plus one row per maximal clique of the conflict graph.
    Every clique is rechecked for pairwise adjacency before it becomes a
    constraint."""
    lp = build_standard_lp(instance)
    g = conflict_graph(instance)
    for clique in enumerate_maximal_cliques(g, cap=cap):
        for a, b in itertools.combinations(clique, 2):
            if not g.adjacent(a, b):
                raise RuntimeError(
                    f"internal: enumerated vertex set {clique} is not a clique"
                )
        lp.constraints.append(
            Constraint(
                coeffs=tuple((i, _ONE) for i in clique),
                relation=LEQ,
                rhs=_ONE,
                label="clique",
            )
        )
    return lp


@dataclass(frozen=True)
class GapReport:
    variant: str
    lp_value: Fraction
    ilp_value: Fraction
    gap: Fraction


def relaxation_value(
    instance: Instance, variant: str, clique_cap: int = CLIQUE_CAP
) -> Fraction:
    """Optimum of the chosen LP relaxation ('standard' or 'intersecting')."""
    if variant == "standard":
        lp = build_standard_lp(instance)
    elif variant == "intersecting":
        lp = build_intersecting_family_lp(instance, cap=clique_cap)
    else:
        raise ValueError(f"unknown LP variant {variant!r}")
    sol = solve_lp(lp)
    if sol.status != "optimal":
        # cannot happen: 0 is feasible and the box bounds the objective
        raise RuntimeError(f"internal: relaxation came back {sol.status}")
    return sol.objective_value


def gap_report(
    instance: Instance,
    variant: str,
    oracle_cap: int = ORACLE_CAP,
    clique_cap: int = CLIQUE_CAP,
) -> GapReport:
    """Solve the chosen relaxation and the exact problem; gap = LP / exact."""
    lp_value = relaxation_value(instance, variant, clique_cap=clique_cap)
    ilp_value = max_packing_value(instance, cap=oracle_cap)
    return GapReport(
        variant=variant,
        lp_value=lp_value,
        ilp_value=ilp_value,
        gap=lp_value / ilp_value,
    )


def export_theta3_sdp(graph: ConflictGraph) -> str:
    """Render the theta-3 program for the graph in SDPA sparse format.

    maximize <J, X>  s.t.  X_uv = 0 per edge, trace(X) = 1, X psd.

    One block of size n.  Constraint matrices: one per edge (single
    upper-triangle entry, rhs 0) followed by the identity (rhs 1); the
    objective matrix is all ones.  Indices are 1-based per the format.
    """
    n = graph.vertex_count
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    edges = list(graph.edges())
    m = len(edges) + 1
    lines = [
        '" theta-3: maximize <J,X>, X_uv = 0 on edges, trace(X) = 1, X psd',
        str(m),
        "1",
        str(n),
        " ".join(["0"] * len(edges) + ["1"]),
    ]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            lines.append(f"0 1 {i} {j} 1")
    for cno, (u, v) in enumerate(edges, start=1):
        lines.append(f"{cno} 1 {u + 1} {v + 1} 1")
    for i in range(1, n + 1):
        lines.append(f"{m} 1 {i} {i} 1")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SdpaProblem:
    """Parsed SDPA sparse file: entries are (matno, block, i, j, value)."""

    num_constraints: int
    block_sizes: tuple[int, ...]
    rhs: tuple[Fraction, ...]
    entries: tuple[tuple[int, int, int, int, Fraction], ...]


def _sdpa_tokens(line: str) -> list[str]:
    # the format permits {}(), and commas as separators on the header lines
    for ch in "{}(),":
        line = line.replace(ch, " ")
    return line.split()


def parse_sdpa(text: str) -> SdpaProblem:
    """Parse SDPA sparse text (inverse of export_theta3_sdp, but accepts any
    well-formed file).  Lines starting with '"' or '*' are comments."""
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in '"*':
            continue
        data.append((lineno, line))
    if len(data) < 4:
        raise ParseError("need m, #blocks, block sizes and rhs lines")

    def header_ints(idx: int, count: int | None, what: str) -> list[int]:
        lineno, line = data[idx]
        toks = _sdpa_tokens(line)
        if count is not None and len(toks) != count:
            raise ParseError(f"expected {count} {what} field(s)", lineno)
        try:
            return [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"{what} fields must be integers", lineno) from None

    m = header_ints(0, 1, "constraint-count")[0]
    nblocks = header_ints(1, 1, "block-count")[0]
    if m < 0 or nblocks < 1:
        raise ParseError("constraint or block count out of range")
    sizes = header_ints(2, nblocks, "block-size")
    lineno, line = data[3]
    rhs_tokens = _sdpa_tokens(line)
    if len(rhs_tokens) != m:
        raise ParseError(f"expected {m} rhs values, got {len(rhs_tokens)}", lineno)
    try:
        rhs = tuple(Fraction(t) for t in rhs_tokens)
    except (ValueError, ZeroDivisionError):
        raise ParseError("rhs values must be numeric", lineno) from None

    entries = []
    for lineno, line in data[4:]:
        toks = _sdpa_tokens(line)
        if len(toks) != 5:
            raise ParseError("entry lines are 'matno block i j value'", lineno)
        try:
            matno, blk, i, j = (int(t) for t in toks[:4])
            value = Fraction(toks[4])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad entry line {line!r}", lineno) from None
        if not (0 <= matno <= m):
            raise ParseError(f"matrix index {matno} out of range 0..{m}", lineno)
        if not (1 <= blk <= nblocks):
            raise ParseError(f"block index {blk} out of range", lineno)
        size = abs(sizes[blk - 1])
        if not (1 <= i <= j <= size):
            raise ParseError(
                f"entry ({i}, {j}) outside upper triangle of block size {size}",
                lineno,
            )
        entries.append((matno, blk, i, j, value))
    return SdpaProblem(
        num_constraints=m,
        block_sizes=tuple(sizes),
        rhs=rhs,
        entries=tuple(entries),
    )
