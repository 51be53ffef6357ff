"""Weighted local search on vertex-weighted claw-free graphs, and the one
swap engine every local search of the package runs on.

The engine keeps an independent set A and applies a first improving swap
until none is left: add pairwise non-adjacent outside vertices, remove
their solution neighbours.  Only the test of a swap differs between the
searches: the sum of a potential p over the incoming vertices must beat
its sum over the members that leave, with p = 1 for the Hurkens-Schrijver
t-swap (`local_search.t_local_search`), p = w² for SquareImp and p =
w^alpha for the misdirected power search, whose non-integer alpha takes a
lower bound on w^alpha for incoming vertices and an upper bound for
leaving ones; or, in Berman's nice-claw loops (WishfulThinking and the
rescale-and-floor variant), talons whose charges pass half the center's
weight.  The greedy baseline lives here too.  All comparisons are in
integers, scaled by a common denominator.

A swap search probes only connected sets of outside vertices: two are
linked when they are non-adjacent and share a solution neighbour.  The gain
is a sum of fixed terms, one per vertex, so it adds up over the link
components of a set: at the first size with an improving set every
improving set is connected, and the lex-first swap over all subsets is
found among the connected ones.  They are enumerated by least vertex in the
manner of Wernicke's ESU (`_connected_sets`), and `_first_connected`
returns the first that passes, for the log-size search of `local_search`
too.  A run builds its view once, at its start solution: A and each
vertex's solution neighbours (`_SolutionNeighbors`).  A step only finds the
next swap on the view, and `_search` applies it there, updating the
vertices the swap touched: the neighbours of the members that left or came
in.  The 2-swap phase and the log-size search of
`local_search.log_local_search` are two steps on one view.  The verdicts
of a step carry to the next: the t-swap step keeps its links and, per
size, the anchors with no improving set (`_Verdicts`), and SquareImp keeps
the vertices with no improving 1-claw and the centers with no improving
claw.  A swap voids them only near the vertices it touched, so a step
re-probes only what the last swap could have changed, and finds the same
swap as a full search.  Every applied swap is checked for independence in
full, once.  The nice-claw loop, which WishfulThinking and the rescaled run
share, reads its charges off the view, doubled and in integers, and finds
talons by one depth-first search whose first branch is the greedy pick;
the claw-free check runs it with unit charges.

Solution sets are frozensets of vertex ids.  Functions accept an optional
weight override so callers can search under modified weights (rescaled,
floored) without rebuilding the graph; overrides may contain zeros even
though graph weights themselves are strictly positive.
"""
from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .instance import ConflictGraph
from .util import SearchStats, WorkBudget, integral

# decimal digits for the weight powers of fractional alpha in the power search
DECIMAL_PRECISION = 60


@dataclass(frozen=True)
class Claw:
    """An induced star: center absent means a 1-claw (single talon)."""

    center: int | None
    talons: tuple[int, ...]


def _check_independent(graph: ConflictGraph, a) -> frozenset[int]:
    """A as a frozenset, after checking that it is independent in the graph."""
    a = frozenset(a)
    for u in a:
        if not (0 <= u < graph.vertex_count):
            raise ValueError(f"vertex {u} out of range")
    for u in a:
        for v in graph.neighbors[u]:
            if v > u and v in a:
                raise ValueError(f"set is not independent: edge ({u}, {v})")
    return a


# The swap engine.  A step finds the next swap on its view: the incoming
# vertices, ascending, or None at a local optimum.
_Step = Callable[[], "tuple[int, ...] | None"]


def _connected_sets(anchor, size, links, grow, budget):
    """Yield (members, state) once for each connected set of exactly `size`
    vertices whose least vertex is `anchor` (Wernicke's ESU: a set grows
    by the vertices its parent may still add and by those neighbours of its
    newest vertex that are neither members nor members' neighbours, so no
    set recurs).

    `links(w)` lists w's neighbours, each once.  `grow(members, w, state)`
    is the state of members + [w], or None to skip that set and every set
    grown from it; the veto must hold for all supersets too.  The empty
    set's state is (0, frozenset()), and `members` is a shared list.  One
    work unit per connected set probed, the anchor alone included."""
    budget.spend()
    state = grow([], anchor, (0, frozenset()))
    if state is None:
        return
    members = [anchor]
    if size == 1:
        yield members, state
        return
    ext = [u for u in links(anchor) if u > anchor]
    # one frame per member: the vertices it may still grow by, the members
    # and their neighbours, and its state
    frames = [(ext, {anchor, *ext}, state)]
    while frames:
        ext, closed, state = frames[-1]
        if not ext:
            frames.pop()
            members.pop()
            continue
        w = ext.pop()
        budget.spend()
        after = grow(members, w, state)
        if after is None:
            continue
        members.append(w)
        if len(members) == size:
            yield members, after
            members.pop()
            continue
        fresh = [u for u in links(w) if u > anchor and u not in closed]
        frames.append((ext + fresh, closed.union(fresh), after))


def _first_connected(anchors, verified, links, grow, budget):
    """The first connected set, by size s up to len(verified), whose
    state's gain `state[0]` is positive: the lex-least such set, as a
    sorted tuple, at the first anchor in ascending order that
    `verified[s - 1]` does not hold; or None.  An anchor whose sets of
    size s all fail joins `verified[s - 1]`; one with no set of size s has
    none larger, so it joins every larger size too."""
    for size, done in enumerate(verified, 1):
        for anchor in anchors:
            if anchor in done:
                continue
            reached = False
            found = []
            for members, state in _connected_sets(anchor, size, links, grow, budget):
                reached = True
                if state[0] > 0:
                    found.append(tuple(sorted(members)))
            if found:
                return min(found)
            if reached:
                done.add(anchor)
            else:
                for larger in verified[size - 1:]:
                    larger.add(anchor)
    return None


def _linked(nbr, sol, w) -> set[int]:
    """The vertices linked to w: non-adjacent to w and sharing a solution
    neighbour with it.  Every neighbour of a member lies outside A."""
    near = set().union(*(nbr[m] for m in sol[w]))
    near -= nbr[w]
    near.discard(w)
    return near


class _Verdicts:
    """What a first-improvement search has shown about a solution A, kept
    from one step to the next: each candidate's links, and per size s the
    anchors verified at s (`verified[s - 1]`): no connected set of s
    candidates with that least vertex improves, or none exists.

    A swap changes the solution neighbours of the vertices it touches only
    (`_SolutionNeighbors.swap`).  An untouched vertex keeps its side of A,
    its solution neighbours and its links, and a link through a member that
    left or came in makes both ends touched.  So a connected set with no
    touched member survives the swap with the same gain, and a set the swap
    creates holds a touched candidate within s - 1 links of its anchor."""

    def __init__(self, t: int):
        self.links: dict[int, set[int]] = {}
        self.verified: list[set[int]] = [set() for _ in range(t)]

    def forget(self, view: _SolutionNeighbors) -> None:
        """Drop what the swaps since the last call may have changed: the
        links of the touched vertices and, at each size s, the verdicts on
        the anchors within s - 1 links of a touched candidate."""
        touched, nbr, sol = view.take_touched(), view.nbr, view.sol
        for w in touched:
            self.links.pop(w, None)
        # breadth first, in lists: large temporary sets fragment the heap
        ring = [w for w in touched if w not in view.a]
        seen = set(ring)
        for hops in range(len(self.verified)):
            for done in self.verified[hops:]:
                done.difference_update(ring)
            if hops + 1 == len(self.verified):
                break
            further = []
            for w in ring:
                if w not in self.links:
                    self.links[w] = _linked(nbr, sol, w)
                for v in self.links[w]:
                    if v not in seen:
                        seen.add(v)
                        further.append(v)
            ring = further


def _first_improvement(nbr, sol, gain, cost, candidates, t, budget, verdicts=None):
    """First subset of at most t candidates (ascending ids), by size then
    lex order, whose swap has a positive gain: the sum of `gain` over the
    subset minus the sum of `cost` over the members it displaces.  `sol[u]`
    is u's solution neighbours.  `verdicts` carries the links and the
    verified anchors of earlier steps (see `_Verdicts`), and holds only
    while every step's candidates are all the vertices outside its A; the
    search skips the verified anchors and records the ones it verifies.

    Link two candidates when they are non-adjacent and share a solution
    neighbour.  The removed members of two link components are disjoint, so
    the gain adds up over the components of a subset: an improving subset
    of several components has an improving component of smaller size.  At
    the first size with an improving subset every improving subset is then
    connected, and the lex-first is the lex-least at the least anchor that
    has one.  So only connected subsets are probed, and a verified anchor,
    which has no improving set of that size, cannot hold the lex-first.
    """
    verdicts = verdicts if verdicts is not None else _Verdicts(t)
    allowed = set(candidates)
    cache = verdicts.links

    def links(w: int) -> set[int]:
        if w not in cache:
            cache[w] = _linked(nbr, sol, w) & allowed
        return cache[w]

    def grow(members, w, state):
        if any(c in nbr[w] for c in members):
            return None
        total, removed = state
        leaving = sol[w] - removed
        return total + gain[w] - sum(cost[x] for x in leaving), removed | leaving

    return _first_connected(candidates, verdicts.verified, links, grow, budget)


def _apply_swap(
    graph: ConflictGraph, a: frozenset[int], incoming: tuple[int, ...]
) -> frozenset[int]:
    removed = {x for u in incoming for x in graph.neighbors[u] if x in a}
    return _check_independent(graph, (a - removed) | frozenset(incoming))


class _SolutionNeighbors:
    """A run's solution A and each vertex's solution neighbours `sol[u]`,
    built once at the run's start.  Only `swap` changes them after that, and
    it records the vertices each swap touched."""

    def __init__(self, graph: ConflictGraph, a: frozenset[int]):
        self.graph = graph
        self.nbr = [frozenset(graph.neighbors[u]) for u in range(graph.vertex_count)]
        self.a = a
        self.sol = [set(self.nbr[u] & a) for u in range(graph.vertex_count)]
        self.touched: set[int] = set()

    def take_touched(self) -> set[int]:
        """The vertices the swaps since the last call touched."""
        touched, self.touched = self.touched, set()
        return touched

    def swap(self, incoming: tuple[int, ...]) -> None:
        """Apply the swap to A (checked as ever) and update the touched
        vertices: the neighbours of the members that left or came in, whose
        solution neighbours change.  The members that left are among them,
        as neighbours of the incoming vertices."""
        after = _apply_swap(self.graph, self.a, incoming)
        for x in self.a - after:
            for u in self.nbr[x]:
                self.sol[u].discard(x)
            self.touched |= self.nbr[x]
        for i in incoming:
            for u in self.nbr[i]:
                self.sol[u].add(i)
            self.touched |= self.nbr[i]
        self.a = after


def _t_swap_step(view: _SolutionNeighbors, gain, cost, t: int, budget) -> _Step:
    """Swaps of at most t outside vertices whose integer `gain` sum beats
    the integer `cost` sum of the members that leave.  The verdicts of one
    step carry to the next (`_Verdicts`), so a step re-searches only what
    the last swap touched.  t is clamped to the vertex count, as no swap is
    larger, so the verdicts kept stay small."""
    budget = budget if budget is not None else WorkBudget()
    t = min(t, view.graph.vertex_count)
    verdicts = _Verdicts(t)

    def step() -> tuple[int, ...] | None:
        outside = [u for u in range(view.graph.vertex_count) if u not in view.a]
        verdicts.forget(view)
        return _first_improvement(view.nbr, view.sol, gain, cost, outside, t, budget, verdicts)

    return step


def _search(view: _SolutionNeighbors, step: _Step, stats: SearchStats | None):
    """Apply the swaps `step` finds on the view until it finds none,
    counting them; the final solution."""
    while (incoming := step()) is not None:
        view.swap(incoming)
        if stats is not None:
            stats.iterations += 1
    return view.a


def _heaviest(nbrs, w) -> int | None:
    """The heaviest of `nbrs`, ties to the lowest id; None when empty."""
    return min(nbrs, key=lambda v: (-w[v], v), default=None)


def heaviest_solution_neighbor(
    graph: ConflictGraph,
    a: frozenset[int],
    u: int,
    weights: Sequence[Fraction] | None = None,
) -> int | None:
    """n(u, A): the maximum-weight neighbor of u inside A, ties to the
    lowest id; None when u has no neighbor in A."""
    if not (0 <= u < graph.vertex_count):
        raise ValueError(f"vertex {u} out of range")
    w = weights if weights is not None else graph.weights
    return _heaviest([v for v in graph.neighbors[u] if v in a], w)


def charge(
    graph: ConflictGraph,
    a: frozenset[int],
    u: int,
    v: int,
    weights: Sequence[Fraction] | None = None,
) -> Fraction:
    """w(u) - w(N(u) ∩ A)/2 when v is u's heaviest solution neighbor,
    else 0.  Each outside vertex thus charges at most one member."""
    a = _check_independent(graph, a)
    if not (0 <= u < graph.vertex_count):
        raise ValueError(f"vertex {u} out of range")
    if u in a:
        raise ValueError(f"u = {u} must lie outside the solution")
    if v not in a:
        raise ValueError(f"v = {v} must lie inside the solution")
    w = weights if weights is not None else graph.weights
    nbrs = [x for x in graph.neighbors[u] if x in a]
    if _heaviest(nbrs, w) != v:
        return Fraction(0)
    return w[u] - Fraction(1, 2) * sum((w[x] for x in nbrs), Fraction(0))


def find_nice_claw(
    graph: ConflictGraph,
    a: frozenset[int],
    weights: Sequence[Fraction] | None = None,
    budget: WorkBudget | None = None,
) -> Claw | None:
    """Return a nice claw against A, or None when no good claw exists.

    1-claws first (an outside vertex with no solution neighbor, lowest id).
    Then, for each center v in A: candidates are outside neighbors charging
    v positively, and the talons are the first independent subset of them
    whose charges sum past w(v)/2, searched depth-first in decreasing
    charge order.  The first branch is the greedy pick, and the search is
    exhaustive, so None is a certificate that no good claw exists at all.
    """
    view = _SolutionNeighbors(graph, _check_independent(graph, a))
    w = integral(weights if weights is not None else graph.weights)
    return _nice_claw(view, w, budget if budget is not None else WorkBudget())


def _nice_claw(view: _SolutionNeighbors, w, budget) -> Claw | None:
    """`find_nice_claw` on the view and integer weights `w`: u's doubled
    charge 2w(u) - w(sol[u]) goes to its heaviest solution neighbour v and
    is compared with w(v)."""
    a, sol = view.a, view.sol
    cands: dict[int, list[tuple[int, int]]] = {}
    for u in range(view.graph.vertex_count):
        budget.spend()
        if u in a:
            continue
        if not sol[u]:
            return Claw(center=None, talons=(u,))
        doubled = 2 * w[u] - sum(w[x] for x in sol[u])
        if doubled > 0:
            cands.setdefault(_heaviest(sol[u], w), []).append((doubled, u))
    for v in sorted(cands):
        ranked = sorted(cands[v], key=lambda cu: (-cu[0], cu[1]))
        talons = _first_independent(ranked, view.nbr, w[v], budget)
        if talons is not None:
            return Claw(center=v, talons=tuple(sorted(talons)))
    return None


def _first_independent(cands, nbr, bar, budget) -> list[int] | None:
    """The first independent subset of the (charge, vertex) candidates whose
    charges sum past `bar`, depth-first in the given order; a branch ends
    once the charges left cannot pass `bar`.  One work unit per candidate
    tried.  In non-increasing charge order up to the first sum past `bar`,
    every talon taken is needed; with unit charges the result is the
    lex-first independent subset of bar + 1 candidates."""
    suffix = list(accumulate((c for c, _ in reversed(cands)), initial=0))[::-1]
    taken: list[int] = []
    i = total = 0
    while total <= bar:
        if i == len(cands) or total + suffix[i] <= bar:
            if not taken:
                return None
            i = taken.pop()
            total -= cands[i][0]
        else:
            budget.spend()
            c, u = cands[i]
            if not any(cands[j][1] in nbr[u] for j in taken):
                taken.append(i)
                total += c
        i += 1
    return [cands[j][1] for j in taken]


def apply_claw(
    graph: ConflictGraph,
    a: frozenset[int],
    claw: Claw,
) -> frozenset[int]:
    """A ∪ talons minus the talons' solution neighbors; always independent."""
    a = _check_independent(graph, a)
    talons = claw.talons
    if not talons:
        raise ValueError("claw has no talons")
    if claw.center is None and len(talons) != 1:
        raise ValueError("a 1-claw has exactly one talon")
    if claw.center is not None:
        if claw.center not in a:
            raise ValueError("claw center must lie in the solution")
        if any(t not in graph.neighbors[claw.center] for t in talons):
            raise ValueError("claw center must be adjacent to every talon")
    talon_set = frozenset(talons)
    if talon_set & a:
        raise ValueError("talons must lie outside the solution")
    _check_independent(graph, talon_set)
    return _apply_swap(graph, a, talons)


def _assert_claw_free(graph: ConflictGraph, claw_bound: int, budget) -> None:
    """Error when some neighborhood holds claw_bound independent vertices.
    Each is searched by the talon search with unit charges, on `budget`, so
    a dense input ends in CapExceededError rather than running unbounded."""
    nbr = [frozenset(graph.neighbors[u]) for u in range(graph.vertex_count)]
    for v in range(graph.vertex_count):
        units = [(1, u) for u in graph.neighbors[v]]
        if _first_independent(units, nbr, claw_bound - 1, budget) is not None:
            raise ValueError(f"graph is not {claw_bound}-claw-free (witness center {v})")


def squared_weight(
    graph: ConflictGraph,
    a: frozenset[int],
    weights: Sequence[Fraction] | None = None,
) -> Fraction:
    w = weights if weights is not None else graph.weights
    return sum((w[v] * w[v] for v in a), Fraction(0))


def total_weight(
    graph: ConflictGraph,
    a: frozenset[int],
    weights: Sequence[Fraction] | None = None,
) -> Fraction:
    w = weights if weights is not None else graph.weights
    return sum((w[v] for v in a), Fraction(0))


def wishful_thinking(
    graph: ConflictGraph,
    claw_bound: int,
    weights: Sequence[Fraction] | None = None,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
    check_claw_free: bool = True,
) -> frozenset[int]:
    """Apply nice claws until none remains.  On a claw_bound-claw-free graph
    the result is within factor claw_bound/2 of the best independent set."""
    if claw_bound < 1:
        raise ValueError("claw_bound must be >= 1")
    budget = budget if budget is not None else WorkBudget()
    if check_claw_free:
        _assert_claw_free(graph, claw_bound, budget)
    return _nice_claw_loop(graph, frozenset(), weights, budget, stats)


def _nice_claw_loop(graph: ConflictGraph, a, weights, budget, stats) -> frozenset[int]:
    """Apply nice claws under `weights` from A until none is left."""
    budget = budget if budget is not None else WorkBudget()
    view = _SolutionNeighbors(graph, a)
    w = integral(weights if weights is not None else graph.weights)

    def step() -> tuple[int, ...] | None:
        claw = _nice_claw(view, w, budget)
        return None if claw is None else claw.talons

    return _search(view, step, stats)


def square_imp(
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
    if max_talons is not None and max_talons < 1:
        raise ValueError("max_talons must be >= 1")
    w = weights if weights is not None else graph.weights
    budget = budget if budget is not None else WorkBudget()
    squares = integral([x * x for x in w])
    view = _SolutionNeighbors(graph, frozenset())
    # verdicts kept across swaps: vertices with no improving 1-claw
    # (members included), and centers with no improving claw.  A swap
    # voids them for the vertices it touched, and for the centers next to
    # one, whose candidates or their solution neighbours may have changed.
    lone: set[int] = set()
    centers: set[int] = set()

    def step() -> tuple[int, ...] | None:
        a, sol, touched = view.a, view.sol, view.take_touched()
        lone.difference_update(touched)
        centers.difference_update(touched, *(view.nbr[x] for x in touched))
        for u in range(graph.vertex_count):
            if u in lone:
                continue
            budget.spend()
            if u not in a and squares[u] > sum(squares[x] for x in sol[u]):
                return (u,)
            lone.add(u)
        for v in sorted(a):
            if v in centers:
                continue
            cands = [u for u in graph.neighbors[v] if u not in a]
            limit = max_talons if max_talons is not None else len(cands)
            talons = _first_improvement(
                view.nbr, sol, squares, squares, cands, min(limit, len(cands)), budget
            )
            if talons is not None:
                return talons
            centers.add(v)
        return None

    return _search(view, step, stats)


def greedy_weighted(
    graph: ConflictGraph, weights: Sequence[Fraction] | None = None
) -> frozenset[int]:
    """Maximal independent set taking vertices by descending weight,
    ties to the lowest id."""
    w = weights if weights is not None else graph.weights
    a: set[int] = set()
    blocked: set[int] = set()
    for v in sorted(range(graph.vertex_count), key=lambda u: (-w[u], u)):
        if v in blocked:
            continue
        a.add(v)
        blocked.add(v)
        blocked.update(graph.neighbors[v])
    return frozenset(a)


def rescale_floor_weights(
    graph: ConflictGraph, base: frozenset[int], k: int
) -> tuple[list[Fraction], Fraction]:
    """Rescale all weights so the base solution weighs exactly k*n, then
    floor.  Returns (floored weights, scale).  Floors may be zero."""
    if k < 1:
        raise ValueError("k must be >= 1")
    base_weight = total_weight(graph, base)
    if base_weight <= 0:
        raise ValueError("base solution must have positive weight")
    scale = Fraction(k * graph.vertex_count) / base_weight
    floored = [Fraction(int(wv * scale)) for wv in graph.weights]
    return floored, scale


def rescaled_run(
    graph: ConflictGraph,
    k: int,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
) -> frozenset[int]:
    """Greedy start, rescale so the greedy solution weighs k*n, floor, then
    run the nice-claw loop under the floored weights."""
    if graph.vertex_count == 0:
        return frozenset()
    a = greedy_weighted(graph)
    floored, _ = rescale_floor_weights(graph, a, k)
    return _nice_claw_loop(graph, a, floored, budget, stats)


def power_local_search(
    graph: ConflictGraph,
    alpha: Fraction,
    t: int,
    budget: WorkBudget | None = None,
    stats: SearchStats | None = None,
    start: frozenset[int] | None = None,
) -> frozenset[int]:
    """Local search guided by the misdirected objective sum of w(v)^alpha.

    From the greedy solution (or `start`), accept any swap of at most t
    incoming vertices that strictly increases the power objective, removing
    the incoming vertices' solution neighbors.  Integer alpha compares
    exactly.  Fractional alpha evaluates each w^alpha once, to
    `DECIMAL_PRECISION` digits, as x; with m = 10**(10 - DECIMAL_PRECISION)
    far above the decimal error (about 10**-59 relative), x*(1 - m) and
    x*(1 + m) bound w^alpha.  A swap counts when the low bounds coming in
    beat the high bounds leaving, so every swap raises the true sum.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 1:
        raise ValueError("t must be >= 1")
    a = greedy_weighted(graph) if start is None else _check_independent(graph, start)

    # the widest exponent range, so that no power overflows or rounds to 0
    wide = decimal.Context(prec=DECIMAL_PRECISION, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(wide):
        if alpha.denominator == 1:
            low = high = [w ** alpha.numerator for w in graph.weights]
        else:
            alpha_d = Decimal(alpha.numerator) / Decimal(alpha.denominator)
            powers = [
                (Decimal(w.numerator) / Decimal(w.denominator)) ** alpha_d
                for w in graph.weights
            ]
            m = Decimal(10) ** (10 - DECIMAL_PRECISION)
            low = [x * (1 - m) for x in powers]
            high = [x * (1 + m) for x in powers]
    # one scale for both bounds, so the gain compares them exactly
    bounds = integral(low + high)
    n = graph.vertex_count
    view = _SolutionNeighbors(graph, a)
    return _search(view, _t_swap_step(view, bounds[:n], bounds[n:], t, budget), stats)
