import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import (
    brute_first_improvement,
    random_state,
    reference_nice_claw,
    reference_nice_claw_loop,
    reference_power_local_search,
    reference_square_imp,
)
from hypothesis import given
from hypothesis import strategies as st

from ksetpack import (
    CapExceededError,
    Claw,
    ConflictGraph,
    SearchStats,
    WorkBudget,
    apply_claw,
    charge,
    conflict_graph,
    find_nice_claw,
    gen_projective_plane,
    gen_random,
    greedy_weighted,
    heaviest_solution_neighbor,
    instance_from_graph,
    max_packing_value,
    power_local_search,
    rescaled_run,
    square_imp,
    squared_weight,
    t_local_search,
    total_weight,
    wishful_thinking,
)
from ksetpack import weighted
from ksetpack.bench import run_algorithm
from ksetpack.weighted import (
    _first_improvement,
    _nice_claw_loop,
    _SolutionNeighbors,
    _t_swap_step,
    rescale_floor_weights,
)

F = Fraction


def random_weighted_graph(rng, n, p):
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    weights = [F(rng.randrange(1, 12), rng.randrange(1, 4)) for _ in range(n)]
    return ConflictGraph.from_edges(n, edges, weights)


class TestHeaviestSolutionNeighbor:
    def test_picks_heaviest(self):
        g = ConflictGraph.from_edges(3, [(0, 1), (0, 2)], [F(1), F(2), F(5)])
        assert heaviest_solution_neighbor(g, frozenset({1, 2}), 0) == 2

    def test_ties_go_to_lowest_id(self, fig_graph):
        g, s, _ = fig_graph
        assert heaviest_solution_neighbor(g, s, 5) == 0
        assert heaviest_solution_neighbor(g, s, 6) == 0

    def test_none_without_neighbors(self):
        g = ConflictGraph.from_edges(2, [])
        assert heaviest_solution_neighbor(g, frozenset({1}), 0) is None

    def test_weight_override(self):
        g = ConflictGraph.from_edges(3, [(0, 1), (0, 2)], [F(1), F(2), F(5)])
        assert heaviest_solution_neighbor(g, frozenset({1, 2}), 0, [F(1), F(9), F(5)]) == 1

    @pytest.mark.parametrize("u", [-1, 3])
    def test_rejects_vertex_out_of_range(self, u):
        g = ConflictGraph.from_edges(3, [(0, 1), (0, 2)], [F(1), F(2), F(5)])
        with pytest.raises(ValueError, match=f"vertex {u} out of range"):
            heaviest_solution_neighbor(g, frozenset({1}), u)


class TestCharge:
    def test_worked_example(self, fig_graph):
        g, s, _ = fig_graph
        assert charge(g, s, 5, 0) == 3
        assert charge(g, s, 6, 0) == 3
        # vertex 1 is a solution neighbor of 5 but not its chargee
        assert charge(g, s, 5, 1) == 0
        assert charge(g, s, 6, 3) == 0

    def test_charge_can_be_negative(self):
        g = ConflictGraph.from_edges(2, [(0, 1)], [F(10), F(4)])
        assert charge(g, frozenset({0}), 1, 0) == F(4) - F(5)

    def test_validation(self, fig_graph):
        g, s, _ = fig_graph
        with pytest.raises(ValueError):
            charge(g, s, 0, 1)  # u inside the solution
        with pytest.raises(ValueError):
            charge(g, s, 5, 6)  # v outside the solution
        with pytest.raises(ValueError):
            charge(g, frozenset({5, 1}), 6, 1)  # not independent

    @pytest.mark.parametrize("u", [-1, 3])
    def test_rejects_vertex_out_of_range(self, u):
        g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)], [F(1), F(2), F(5)])
        with pytest.raises(ValueError, match=f"vertex {u} out of range"):
            charge(g, frozenset({1}), u, 1)

    def test_concentrates_on_heaviest_neighbor(self):
        rng = random.Random(41)
        for trial in range(30):
            g = random_weighted_graph(rng, rng.randrange(3, 10), 0.4)
            a = random_state(g, rng)
            for u in range(g.vertex_count):
                if u in a:
                    continue
                target = heaviest_solution_neighbor(g, a, u)
                charges = {v: charge(g, a, u, v) for v in a}
                for v, c in charges.items():
                    if v != target:
                        assert c == 0
                if target is not None:
                    nbr_weight = sum(
                        (g.weights[x] for x in g.neighbors[u] if x in a), F(0)
                    )
                    assert charges[target] == g.weights[u] - nbr_weight / 2

    def test_squared_weights_bounded_by_heaviest(self):
        # sum of w(v)^2 over u's solution neighbors never exceeds
        # w(n(u, A)) times their plain weight sum
        rng = random.Random(42)
        checked = 0
        for trial in range(100):
            g = random_weighted_graph(rng, rng.randrange(3, 11), 0.5)
            a = random_state(g, rng)
            u = rng.randrange(g.vertex_count)
            if u in a:
                continue
            nbrs = [x for x in g.neighbors[u] if x in a]
            if not nbrs:
                continue
            top = g.weights[heaviest_solution_neighbor(g, a, u)]
            assert sum(g.weights[x] ** 2 for x in nbrs) <= top * sum(
                g.weights[x] for x in nbrs
            )
            checked += 1
        assert checked > 30


def brute_good_claw_exists(g, a):
    """Reference check: some center v in A has an independent set of
    positively-charging outside neighbors beating w(v)/2, or a 1-claw."""
    for u in range(g.vertex_count):
        if u not in a and not any(x in a for x in g.neighbors[u]):
            return True
    for v in sorted(a):
        cands = [
            u
            for u in g.neighbors[v]
            if u not in a and charge(g, a, u, v) > 0
        ]
        for r in range(1, len(cands) + 1):
            for combo in itertools.combinations(cands, r):
                if any(
                    y in g.neighbors[x] for x, y in itertools.combinations(combo, 2)
                ):
                    continue
                if sum(charge(g, a, u, v) for u in combo) > g.weights[v] / 2:
                    return True
    return False


class TestFindNiceClaw:
    def test_worked_example(self, fig_graph):
        g, s, _ = fig_graph
        assert find_nice_claw(g, s) == Claw(center=0, talons=(5, 6))

    def test_prefers_one_claws(self):
        g = ConflictGraph.from_edges(3, [(0, 1)], [F(1), F(3), F(2)])
        assert find_nice_claw(g, frozenset({0})) == Claw(center=None, talons=(2,))

    def test_none_is_complete(self):
        rng = random.Random(43)
        nones = claws = 0
        for trial in range(150):
            g = random_weighted_graph(rng, rng.randrange(3, 9), 0.5)
            a = random_state(g, rng)
            got = find_nice_claw(g, a)
            if got is None:
                assert not brute_good_claw_exists(g, a)
                nones += 1
            else:
                claws += 1
        assert nones > 10 and claws > 10

    def test_claws_are_good_and_minimal(self):
        rng = random.Random(44)
        seen = 0
        for trial in range(200):
            g = random_weighted_graph(rng, rng.randrange(3, 10), 0.4)
            a = random_state(g, rng)
            got = find_nice_claw(g, a)
            if got is None or got.center is None:
                continue
            seen += 1
            v = got.center
            half = g.weights[v] / 2
            charges = [charge(g, a, u, v) for u in got.talons]
            assert all(c > 0 for c in charges)
            assert all(v in g.neighbors[u] for u in got.talons)
            assert not any(
                y in g.neighbors[x]
                for x, y in itertools.combinations(got.talons, 2)
            )
            total = sum(charges)
            assert total > half
            for c in charges:
                assert total - c <= half  # dropping any talon breaks goodness
        assert seen > 40

    def test_applying_increases_squared_weight(self):
        rng = random.Random(45)
        seen = 0
        for trial in range(150):
            g = random_weighted_graph(rng, rng.randrange(3, 10), 0.4)
            a = random_state(g, rng)
            got = find_nice_claw(g, a)
            if got is None:
                continue
            after = apply_claw(g, a, got)
            assert squared_weight(g, after) > squared_weight(g, a)
            seen += 1
        assert seen > 40

    def test_exhaustive_fallback_beats_greedy(self):
        # center 0 weighs 8; candidates charge 3, 2.5, 2.5 but the heaviest
        # conflicts with both others, so greedy (3 then stuck) misses the
        # pair 2.5 + 2.5 > 4
        g = ConflictGraph.from_edges(
            4,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
            [F(8), F(7), F(13, 2), F(13, 2)],
        )
        a = frozenset({0})
        got = find_nice_claw(g, a)
        assert got == Claw(center=0, talons=(2, 3))

    def test_many_talons(self):
        # each leaf charges 1/2 against half of 1000, so the claw needs 1001
        # talons, past the interpreter's default recursion limit
        leaves = 1100
        weights = [F(1000)] + [F(1001, 2)] * leaves
        g = ConflictGraph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)], weights)
        assert find_nice_claw(g, frozenset({0})) == Claw(center=0, talons=tuple(range(1, 1002)))

    def test_budget_forwarded(self, fig_graph):
        g, s, _ = fig_graph
        with pytest.raises(CapExceededError):
            find_nice_claw(g, s, budget=WorkBudget(limit=1))


class TestApplyClaw:
    def test_one_claw_adds(self):
        g = ConflictGraph.from_edges(2, [])
        assert apply_claw(g, frozenset(), Claw(None, (1,))) == frozenset({1})

    def test_swap(self, fig_graph):
        g, s, t = fig_graph
        assert apply_claw(g, s, Claw(0, (5, 6))) == t

    @pytest.mark.parametrize(
        "a, claw",
        [
            (frozenset(), Claw(None, ())),  # no talons
            (frozenset(), Claw(None, (1, 2))),  # 1-claw with two talons
            (frozenset(), Claw(0, (5,))),  # center outside the solution
            (frozenset({0}), Claw(0, (4,))),  # talon not adjacent to center
            (frozenset({0, 3}), Claw(0, (3,))),  # talon inside the solution
            (frozenset({0}), Claw(0, (5, 6))),  # talons adjacent to each other
        ],
    )
    def test_rejects(self, a, claw):
        g = ConflictGraph.from_edges(
            7, [(0, 1), (0, 2), (0, 5), (0, 6), (5, 6), (0, 3)]
        )
        with pytest.raises(ValueError):
            apply_claw(g, a, claw)


class TestWishfulThinking:
    def test_worked_example(self, fig_graph):
        g, _, t = fig_graph
        got = wishful_thinking(g, 4)
        assert got == t
        assert total_weight(g, got) == 36

    def test_result_is_maximal_independent(self):
        rng = random.Random(46)
        for trial in range(10):
            got = gen_random(12, 14, 3, seed=500 + trial, weight_range=(F(1), F(5)))
            g = conflict_graph(got)
            a = wishful_thinking(g, 4)
            for u in range(g.vertex_count):
                if u not in a:
                    assert any(x in a for x in g.neighbors[u])

    def test_ratio_bound_on_conflict_graphs(self):
        rng = random.Random(47)
        for trial in range(12):
            k = rng.choice([3, 4])
            got = gen_random(
                3 * k, rng.randrange(8, 15), k, seed=600 + trial, weight_range=(F(1), F(5))
            )
            a = wishful_thinking(conflict_graph(got), k + 1)
            assert max_packing_value(got) / total_weight(conflict_graph(got), a) <= F(k + 1, 2)

    def test_claw_free_check(self):
        star = ConflictGraph.from_edges(5, [(0, v) for v in range(1, 5)])
        with pytest.raises(ValueError):
            wishful_thinking(star, 4)
        assert wishful_thinking(star, 5) == frozenset({1, 2, 3, 4})
        assert wishful_thinking(star, 4, check_claw_free=False) is not None

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("claw_bound", [0, -1])
    def test_rejects_claw_bound_below_one(self, fig_graph, claw_bound, check):
        g, _, _ = fig_graph
        budget = WorkBudget()
        with pytest.raises(ValueError, match="claw_bound must be >= 1"):
            wishful_thinking(g, claw_bound, budget=budget, check_claw_free=check)
        assert budget.spent == 0

    @pytest.mark.parametrize("leaves", [10, 30])
    def test_claw_free_check_on_stars_either_side_of_guard(self, leaves):
        edges = [(0, v) for v in range(1, leaves + 1)]
        star = ConflictGraph.from_edges(leaves + 1, edges)
        with pytest.raises(ValueError, match="not 3-claw-free"):
            wishful_thinking(star, 3)

    def test_claw_free_check_above_guard_accepts_plane(self):
        plane = gen_projective_plane(5)  # complete conflict graph, degree 30
        g = conflict_graph(plane)
        assert min(g.degree(v) for v in range(g.vertex_count)) > 25
        checked, unchecked = WorkBudget(), WorkBudget()
        assert len(wishful_thinking(g, plane.k + 1, budget=checked)) == 1
        wishful_thinking(g, plane.k + 1, budget=unchecked, check_claw_free=False)
        assert checked.spent > unchecked.spent  # the check spends the caller's budget

    def test_claw_free_check_above_guard_prunes_unreachable_sizes(self):
        leaves = 30
        edges = [(0, v) for v in range(1, leaves + 1)]
        star = ConflictGraph.from_edges(leaves + 1, edges)
        budget = WorkBudget(limit=100_000)  # the unpruned check walks 2^30 subsets
        got = wishful_thinking(star, leaves + 1, budget=budget)
        assert got == frozenset(range(1, leaves + 1))

    def test_claw_free_check_above_guard_stops_on_budget(self):
        # N(0) is 15 disjoint edges: no 16 independent vertices, but the
        # search for them probes about 3^15 subsets.
        edges = [(0, v) for v in range(1, 31)] + [(v, v + 1) for v in range(1, 31, 2)]
        g = ConflictGraph.from_edges(31, edges)
        wishful_thinking(g, 16, budget=WorkBudget(limit=10_000), check_claw_free=False)
        with pytest.raises(CapExceededError):
            wishful_thinking(g, 16, budget=WorkBudget(limit=10_000))

    def test_claw_free_check_spends_budget_on_small_graphs(self):
        # K4 is 2-claw-free: every neighbourhood is a triangle
        g = ConflictGraph.from_edges(4, list(itertools.combinations(range(4), 2)))
        checked, unchecked = WorkBudget(), WorkBudget()
        assert wishful_thinking(g, 2, budget=checked) == frozenset({0})
        assert wishful_thinking(g, 2, budget=unchecked, check_claw_free=False) == frozenset({0})
        assert checked.spent > unchecked.spent

    def test_one_independence_check_per_step(self, fig_graph, monkeypatch):
        g, _, _ = fig_graph
        real, calls = weighted._check_independent, []

        def counted(graph, a):
            calls.append(a)
            return real(graph, a)

        monkeypatch.setattr(weighted, "_check_independent", counted)
        stats = SearchStats()
        wishful_thinking(g, 4, stats=stats, check_claw_free=False)
        assert stats.iterations >= 2
        assert len(calls) == stats.iterations

    def test_stats_count_applied_claws(self, fig_graph):
        g, _, _ = fig_graph
        stats = SearchStats()
        wishful_thinking(g, 4, stats=stats)
        assert stats.iterations >= 2


@st.composite
def swap_states(draw):
    """A random graph with a potential, an independent set A, a sorted list
    of candidates outside A, and a swap size t."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = ConflictGraph.from_edges(n, [e for e, kept in zip(pairs, keep) if kept])
    fractions = st.fractions(min_value=0, max_value=5, max_denominator=3)
    potential = draw(st.lists(fractions, min_size=n, max_size=n))
    a: set[int] = set()
    for v in draw(st.permutations(range(n))):
        if draw(st.booleans()) and not any(u in a for u in g.neighbors[v]):
            a.add(v)
    outside = [u for u in range(n) if u not in a]
    candidates = draw(st.sets(st.sampled_from(outside))) if outside else set()
    return g, potential, frozenset(a), sorted(candidates), draw(st.integers(1, 4))


@st.composite
def claw_states(draw):
    """A random weighted graph (n <= 12), an independent set A, and either
    no weight override or one drawn with zeros, as floored weights have."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    positive = st.fractions(min_value=F(1, 3), max_value=6, max_denominator=3)
    weights = draw(st.lists(positive, min_size=n, max_size=n))
    g = ConflictGraph.from_edges(n, [e for e, kept in zip(pairs, keep) if kept], weights)
    override = None
    if draw(st.booleans()):
        override = draw(st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n))
    a: set[int] = set()
    for v in draw(st.permutations(range(n))):
        if draw(st.booleans()) and not any(u in a for u in g.neighbors[v]):
            a.add(v)
    return g, frozenset(a), override


class TestNiceClawMatchesReference:
    @given(claw_states())
    def test_find_nice_claw(self, state):
        g, a, override = state
        ours, theirs = WorkBudget(), WorkBudget()
        assert find_nice_claw(g, a, override, ours) == reference_nice_claw(g, a, override, theirs)
        assert ours.spent <= theirs.spent  # the greedy pass spent on failed centers only

    @given(claw_states())
    def test_loop_from_a_random_start(self, state):
        g, start, override = state
        ours, theirs = WorkBudget(limit=100_000), WorkBudget(limit=100_000)
        stats = SearchStats()
        got = _nice_claw_loop(g, start, override, ours, stats)
        assert (got, stats.iterations) == reference_nice_claw_loop(g, start, override, theirs)
        assert ours.spent <= theirs.spent


class TestFirstImprovement:
    @given(swap_states())
    def test_is_brute_force_first(self, state):
        g, potential, a, candidates, t = state
        nbr = [frozenset(g.neighbors[u]) for u in range(g.vertex_count)]
        sol = [set(nbr[u] & a) for u in range(g.vertex_count)]
        got = _first_improvement(nbr, sol, potential, potential, candidates, t, WorkBudget())
        assert got == brute_first_improvement(g, a, potential, potential, candidates, t)


@st.composite
def step_runs(draw):
    """A random graph (n <= 11), a unit or small-integer potential for the
    incoming vertices, the same or a cost at least as large for the leaving
    members, a swap size t, and an independent start."""
    n = draw(st.integers(min_value=1, max_value=11))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = ConflictGraph.from_edges(n, [e for e, kept in zip(pairs, keep) if kept])
    integers = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    gain = draw(st.one_of(st.just([1] * n), integers))
    raised = integers.map(lambda up: [x + y for x, y in zip(gain, up)])
    cost = draw(st.one_of(st.just(gain), raised))
    a: set[int] = set()
    for v in draw(st.permutations(range(n))):
        if draw(st.booleans()) and not any(u in a for u in g.neighbors[v]):
            a.add(v)
    return g, gain, cost, draw(st.integers(1, 3)), frozenset(a)


class TestTSwapStep:
    """The step keeps its verdicts from one swap on its view to the next;
    each answer must still be the brute-force first improvement on the
    view's A, and the view's solution neighbours must stay exact."""

    @given(step_runs(), st.randoms(use_true_random=False))
    def test_every_step_is_brute_force_first(self, run, rng):
        g, gain, cost, t, a = run
        view = _SolutionNeighbors(g, a)
        step = _t_swap_step(view, gain, cost, t, WorkBudget())
        for _ in range(12):
            a = view.a
            outside = [u for u in range(g.vertex_count) if u not in a]
            combo = brute_first_improvement(g, a, gain, cost, outside, t)
            got = step()
            assert got == combo
            if got is not None and rng.random() < 0.7:
                view.swap(got)
                removed = {x for u in combo for x in g.neighbors[u] if x in a}
                assert view.a == (a - removed) | set(combo)
                assert view.sol == [set(g.neighbors[u]) & view.a for u in range(g.vertex_count)]
                continue
            # a solution no step found starts a fresh view and step
            if rng.random() < 0.5:
                a = frozenset(v for v in a if rng.random() < 0.6)
            else:
                a = random_state(g, rng)
            view = _SolutionNeighbors(g, a)
            step = _t_swap_step(view, gain, cost, t, WorkBudget())

    def test_swap_reopens_an_anchor_one_link_away(self):
        # A = {2, 3}.  Anchor 0 has no improving pair, and {4, 5} replaces
        # 3.  Then 1's only solution neighbour is 2, and {0, 1} trades 2
        # for two: anchor 0 is untouched, one link from the touched 1.
        g = ConflictGraph.from_edges(6, [(0, 2), (1, 2), (1, 3), (3, 4), (3, 5)])
        view = _SolutionNeighbors(g, frozenset({2, 3}))
        step = _t_swap_step(view, [1] * 6, [1] * 6, 2, WorkBudget())
        assert step() == (4, 5)
        view.swap((4, 5))
        assert view.a == frozenset({2, 4, 5})
        assert step() == (0, 1)

    def test_swap_touches_the_incoming_vertices_neighbours(self):
        # On the path 1-0-2-3-4 (weights 1, 2, 1, 4, 4), a step whose
        # verdicts outlived a change next to an incoming vertex misses a
        # later swap and stops at {1, 3}.
        g = ConflictGraph.from_edges(5, [(0, 1), (0, 2), (2, 3), (3, 4)], [1, 2, 1, 4, 4])
        budget, stats = WorkBudget(), SearchStats()
        got = power_local_search(g, F(1), 2, budget, stats, start=frozenset())
        assert got == frozenset({1, 2, 4})
        assert (stats.iterations, budget.spent) == (5, 17)

    def test_huge_t_is_clamped_to_the_vertex_count(self):
        # no swap is larger than the graph, so t = 10**4 on ten sets keeps
        # verdicts for ten sizes only, and runs as t = 10 does
        inst = gen_random(15, 10, 3, seed=1)
        ones = [1] * inst.n
        tracemalloc.start()
        try:
            view = _SolutionNeighbors(conflict_graph(inst), frozenset())
            _t_swap_step(view, ones, ones, 10**4, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        budgets, stats = (WorkBudget(), WorkBudget()), (SearchStats(), SearchStats())
        huge = t_local_search(inst, 10**4, budgets[0], stats[0])
        assert huge == t_local_search(inst, inst.n, budgets[1], stats[1])
        assert stats[0].iterations == stats[1].iterations
        assert budgets[0].spent == budgets[1].spent

    def test_a_new_start_takes_a_new_view(self):
        # path 0-1-2: from {1} no swap of one vertex improves, and both
        # ends stay verified on that view.  A view at the empty set, with
        # its own step, finds {0}, and leaves the first view as it was.
        g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)])
        first = _SolutionNeighbors(g, frozenset({1}))
        assert _t_swap_step(first, [1, 1, 1], [1, 1, 1], 1, WorkBudget())() is None
        fresh = _SolutionNeighbors(g, frozenset())
        assert _t_swap_step(fresh, [1, 1, 1], [1, 1, 1], 1, WorkBudget())() == (0,)
        assert (first.a, first.sol) == (frozenset({1}), [{1}, set(), {1}])


class TestSquareImp:
    def test_worked_example(self, fig_graph):
        g, _, t = fig_graph
        assert square_imp(g, max_talons=3) == t

    def test_local_optimum_has_no_positive_swap(self):
        rng = random.Random(48)
        for trial in range(10):
            g = random_weighted_graph(rng, rng.randrange(4, 10), 0.4)
            a = square_imp(g)
            w2 = lambda xs: sum(g.weights[x] ** 2 for x in xs)
            for v in range(g.vertex_count):
                if v in a:
                    continue
                removed = {x for x in g.neighbors[v] if x in a}
                assert w2([v]) <= w2(removed)

    def test_ratio_bound_on_conflict_graphs(self):
        rng = random.Random(49)
        for trial in range(10):
            k = rng.choice([3, 4])
            got = gen_random(
                3 * k, rng.randrange(8, 14), k, seed=700 + trial, weight_range=(F(1), F(5))
            )
            g = conflict_graph(got)
            a = square_imp(g, max_talons=k)
            assert max_packing_value(got) / total_weight(g, a) <= F(k + 1, 2)

    @given(claw_states(), st.sampled_from([None, 1, 2]))
    def test_matches_reference(self, state, max_talons):
        g, _, override = state
        ours, theirs = WorkBudget(), WorkBudget()
        got, expected = SearchStats(), SearchStats()
        assert square_imp(g, override, max_talons, ours, got) == reference_square_imp(
            g, override, max_talons, theirs, expected
        )
        assert got.iterations == expected.iterations
        assert ours.spent <= theirs.spent

    @pytest.mark.parametrize("max_talons", [None, 2])
    def test_swap_reopens_a_center_next_to_it(self, max_talons):
        # center 0 has no improving claw under A = {0, 1}; the claw {4, 5}
        # at center 1 takes 1 out, and {2, 3} at center 0 then improves
        g = ConflictGraph.from_edges(
            6, [(0, 2), (0, 3), (1, 2), (1, 4), (1, 5)], [F(3), F(3), F(3), F(1), F(3), F(3)]
        )
        stats = SearchStats()
        assert square_imp(g, max_talons=max_talons, stats=stats) == frozenset({2, 3, 4, 5})
        assert stats.iterations == 4

    @pytest.mark.parametrize("max_talons", [0, -2])
    def test_rejects_max_talons_below_one(self, max_talons):
        g = conflict_graph(gen_random(30, 20, 3, 1, weight_range=(F(1), F(5))))
        with pytest.raises(ValueError, match="max_talons must be >= 1"):
            square_imp(g, max_talons=max_talons)

    def test_max_talons_limits_swaps(self):
        # triangle-free star: center 0 in, three independent talons improve
        # jointly but not in pairs
        g = ConflictGraph.from_edges(
            4, [(0, 1), (0, 2), (0, 3)], [F(5), F(3), F(3), F(3)]
        )
        capped = square_imp(g, max_talons=2)
        assert capped == frozenset({0})
        assert square_imp(g, max_talons=3) == frozenset({1, 2, 3})


class TestGreedy:
    def test_takes_heaviest_first(self, fig_graph):
        g, _, t = fig_graph
        assert greedy_weighted(g) == t

    def test_tie_by_id(self):
        g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)])
        assert greedy_weighted(g) == frozenset({0, 2})

    def test_maximal(self):
        rng = random.Random(50)
        for trial in range(10):
            g = random_weighted_graph(rng, rng.randrange(3, 12), 0.4)
            a = greedy_weighted(g)
            for u in range(g.vertex_count):
                assert u in a or any(x in a for x in g.neighbors[u])

    def test_ratio_bound_k(self):
        rng = random.Random(51)
        for trial in range(10):
            k = rng.choice([3, 4])
            got = gen_random(
                3 * k, rng.randrange(8, 14), k, seed=800 + trial, weight_range=(F(1), F(5))
            )
            g = conflict_graph(got)
            assert max_packing_value(got) / total_weight(g, greedy_weighted(g)) <= k


class TestRescaledRun:
    def test_rescale_floor(self):
        g = ConflictGraph.from_edges(3, [(0, 1)], [F(3, 2), F(2), F(7, 3)])
        floored, scale = rescale_floor_weights(g, frozenset({0, 1}), 3)
        assert scale == F(9) / F(7, 2)
        assert floored == [int(F(3, 2) * scale), int(F(2) * scale), int(F(7, 3) * scale)]

    def test_rejects_empty_base(self):
        g = ConflictGraph.from_edges(2, [])
        with pytest.raises(ValueError):
            rescale_floor_weights(g, frozenset(), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        # k = 0 floored every weight to 0; k = -1 made the claw loop cycle
        g = conflict_graph(gen_random(30, 20, 3, 1, weight_range=(F(1), F(5))))
        with pytest.raises(ValueError, match="k must be >= 1"):
            rescale_floor_weights(g, greedy_weighted(g), k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            rescaled_run(g, k, WorkBudget(limit=200_000))

    def test_matches_wishful_on_unit_weights(self):
        rng = random.Random(52)
        for trial in range(8):
            got = gen_random(12, rng.randrange(8, 15), 3, seed=900 + trial)
            g = conflict_graph(got)
            assert rescaled_run(g, 3) == wishful_thinking(g, 4)

    def test_iteration_cap(self):
        rng = random.Random(53)
        for trial in range(10):
            got = gen_random(12, 15, 3, seed=1000 + trial, weight_range=(F(1), F(5)))
            g = conflict_graph(got)
            stats = SearchStats()
            rescaled_run(g, 3, stats=stats)
            assert stats.iterations <= 9 * g.vertex_count

    def test_empty_graph(self):
        assert rescaled_run(ConflictGraph.from_edges(0, []), 3) == frozenset()


class TestPowerLocalSearch:
    def test_alpha_three_halves_stays_put(self, fig_graph):
        g, s, _ = fig_graph
        assert power_local_search(g, F(3, 2), 2, start=s) == s

    def test_alpha_eight_fifths_jumps(self, fig_graph):
        g, s, t = fig_graph
        assert power_local_search(g, F(8, 5), 2, start=s) == t

    def test_integer_alpha_exact(self, fig_graph):
        g, s, t = fig_graph
        assert power_local_search(g, F(2), 2, start=s) == t
        # alpha = 1 is undistorted weight, and plain 2-swaps climb from the
        # greedy hubs back to the heavier five-spoke solution
        assert power_local_search(g, F(1), 2) == s

    def test_default_start_is_greedy(self, fig_graph):
        g, _, t = fig_graph
        assert power_local_search(g, F(3, 2), 2) == t

    @pytest.mark.parametrize(
        "w0, swaps", [(F(4), False), (F(3999, 1000), False), (F(4001, 1000), True)]
    )
    def test_ties_never_swap(self, w0, swaps):
        # 4^(3/2) = 8 = 8 * 1^(3/2): vertex 0 against its eight unit members
        g = ConflictGraph.from_edges(9, [(0, m) for m in range(1, 9)], [w0] + [F(1)] * 8)
        members = frozenset(range(1, 9))
        got = power_local_search(g, F(3, 2), 1, start=members)
        assert got == (frozenset({0}) if swaps else members)

    def test_huge_alpha_does_not_underflow(self):
        # (1/1000)^alpha lies below Decimal's default exponent range, where it
        # rounds to 0; equal weights rank swaps as alpha = 3/2 does
        g = ConflictGraph.from_edges(3, [(0, 1), (0, 2)], [F(1, 1000)] * 3)
        assert power_local_search(g, F(700001, 2), 2) == frozenset({1, 2})
        assert power_local_search(g, F(3, 2), 2) == frozenset({1, 2})

    def test_huge_alpha_does_not_overflow(self):
        # (10**10)^alpha lies above Decimal's default exponent range
        instance = instance_from_graph(3, [(0, 1), (0, 2)], [10**10, 1, 1])
        assert run_algorithm(instance, "power:200001/2:2").members == (0,)

    def test_matches_the_margin_search(self):
        # the old rule compared Decimal gains against a relative margin and
        # tried every non-adjacent subset; the bounds must swap the same
        rng = random.Random(56)
        for trial in range(8):
            g = random_weighted_graph(rng, rng.randrange(6, 12), 0.3)
            for alpha in (F(1, 2), F(3, 2), F(5, 3), F(8, 5)):
                for t in (1, 2, 3):
                    start, stats = random_state(g, rng), SearchStats()
                    got = power_local_search(g, alpha, t, stats=stats, start=start)
                    assert (got, stats.iterations) == reference_power_local_search(
                        g, alpha, t, start
                    )

    def test_result_independent_and_deterministic(self):
        rng = random.Random(54)
        for trial in range(6):
            g = random_weighted_graph(rng, rng.randrange(4, 10), 0.4)
            a = power_local_search(g, F(3, 2), 2)
            b = power_local_search(g, F(3, 2), 2)
            assert a == b
            for x, y in itertools.combinations(sorted(a), 2):
                assert y not in g.neighbors[x]

    def test_rejects_bad_parameters(self, fig_graph):
        g, s, _ = fig_graph
        with pytest.raises(ValueError):
            power_local_search(g, F(0), 2)
        with pytest.raises(ValueError):
            power_local_search(g, F(3, 2), 0)
        with pytest.raises(ValueError):
            power_local_search(g, F(3, 2), 2, start=frozenset({5, 1}))
