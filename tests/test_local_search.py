import random
from fractions import Fraction

import pytest
from helpers import (
    brute_find_improving,
    exhaustive_log_improvement,
    reference_log_local_search,
)
from hypothesis import given
from hypothesis import strategies as st

from ksetpack import (
    CapExceededError,
    ImprovingSet,
    Instance,
    Packing,
    SearchStats,
    WorkBudget,
    apply_improving_set,
    build_auxiliary_multigraph,
    conflict_graph,
    find_improving_set,
    gen_random,
    hs_bound,
    is_packing,
    log_improvement_search,
    log_local_search,
    max_packing_value,
    packing_value,
    power_local_search,
    t_local_search,
)
from ksetpack.bench import run_algorithm


def planted_three_for_two():
    """Packing {0, 1} is 2-locally optimal, but trading both members for the
    three bridge sets gains one."""
    return Instance(
        universe_size=6,
        sets=((0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5)),
        k=3,
    )


def random_packing(instance, rng):
    order = list(range(instance.n))
    rng.shuffle(order)
    members: list[int] = []
    occupied: set[int] = set()
    for i in order:
        s = set(instance.sets[i])
        if not (s & occupied) and rng.random() > 0.4:
            members.append(i)
            occupied |= s
    return Packing(tuple(sorted(members)))


class TestFindImprovingSet:
    def test_matches_bruteforce(self):
        rng = random.Random(31)
        for trial in range(40):
            got = gen_random(10, rng.randrange(5, 14), 3, seed=trial)
            packing = random_packing(got, rng)
            for t in (1, 2, 3):
                found = find_improving_set(got, packing, t)
                want = brute_find_improving(got, packing, t)
                if want is None:
                    assert found is None
                else:
                    assert (found.incoming, found.outgoing) == want

    def test_rejects_bad_t(self, fano):
        with pytest.raises(ValueError):
            find_improving_set(fano, Packing(()), 0)

    def test_rejects_overlapping_packing(self):
        got = planted_three_for_two()
        with pytest.raises(ValueError):
            find_improving_set(got, Packing((0, 2)), 1)

    def test_none_certifies_local_optimality(self):
        got = planted_three_for_two()
        assert find_improving_set(got, Packing((0, 1)), 2) is None
        found = find_improving_set(got, Packing((0, 1)), 3)
        assert found == ImprovingSet(incoming=(2, 3, 4), outgoing=(0, 1))

    def test_budget_is_charged(self):
        got = planted_three_for_two()
        budget = WorkBudget(limit=2)
        with pytest.raises(CapExceededError):
            find_improving_set(got, Packing((0, 1)), 2, budget)


class TestApplyImprovingSet:
    def test_applies(self):
        got = planted_three_for_two()
        after = apply_improving_set(
            got, Packing((0, 1)), ImprovingSet((2, 3, 4), (0, 1))
        )
        assert after == Packing((2, 3, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            apply_improving_set(
                planted_three_for_two(), Packing(()), ImprovingSet((), ())
            )

    def test_rejects_incoming_already_inside(self):
        got = planted_three_for_two()
        with pytest.raises(ValueError):
            apply_improving_set(got, Packing((0,)), ImprovingSet((0,), ()))

    def test_rejects_intersecting_incoming(self):
        got = Instance(universe_size=4, sets=((0, 1), (1, 2), (3,)), k=2)
        with pytest.raises(ValueError):
            apply_improving_set(got, Packing(()), ImprovingSet((0, 1), ()))

    def test_rejects_stale_outgoing(self):
        got = planted_three_for_two()
        with pytest.raises(ValueError):
            apply_improving_set(got, Packing((0, 1)), ImprovingSet((2, 3, 4), (0,)))

    def test_rejects_non_improving(self):
        got = planted_three_for_two()
        with pytest.raises(ValueError):
            apply_improving_set(got, Packing((0,)), ImprovingSet((2,), (0,)))


class TestTLocalSearch:
    def test_result_is_locally_optimal_packing(self):
        rng = random.Random(32)
        for trial in range(15):
            got = gen_random(12, rng.randrange(6, 16), 3, seed=100 + trial)
            packing = t_local_search(got, 2)
            assert is_packing(got, packing)
            assert brute_find_improving(got, packing, 2) is None

    def test_respects_start(self):
        got = planted_three_for_two()
        packing = t_local_search(got, 3, start=Packing((0, 1)))
        assert packing == Packing((2, 3, 4))

    def test_counts_iterations(self):
        got = planted_three_for_two()
        stats = SearchStats()
        t_local_search(got, 2, stats=stats)
        assert stats.iterations >= 1

    def test_ratio_within_bound(self):
        rng = random.Random(33)
        for trial in range(20):
            k = rng.choice([3, 4])
            got = gen_random(12, rng.randrange(8, 18), k, seed=200 + trial)
            for t in (2, 3):
                local = t_local_search(got, t)
                assert local.members  # nonempty whenever sets exist
                ratio = Fraction(max_packing_value(got)) / len(local.members)
                assert ratio <= hs_bound(k, t)

    def test_is_power_search_with_unit_gain(self):
        # on unit weights, alpha = 1 from an empty start is the same search
        for trial in range(12):
            got = gen_random(18, 12, 3, seed=700 + trial)
            graph = conflict_graph(got)
            for t in (1, 2, 3):
                budgets = (WorkBudget(), WorkBudget())
                stats = (SearchStats(), SearchStats())
                local = t_local_search(got, t, budgets[0], stats[0])
                power = power_local_search(
                    graph, Fraction(1), t, budgets[1], stats[1], start=frozenset()
                )
                assert local.members == tuple(sorted(power))
                assert stats[0].iterations == stats[1].iterations
                assert budgets[0].spent == budgets[1].spent

    def test_three_swaps_probe_connected_sets_only(self):
        # members and swaps of the all-subsets search, which spent 511030
        # work units here
        run = run_algorithm(gen_random(300, 200, 3, 1), "local:3")
        assert run.members == (
            2, 3, 4, 5, 6, 8, 11, 14, 16, 17, 18, 19, 20, 21, 22, 25, 28, 30, 31,
            33, 34, 36, 38, 40, 42, 43, 45, 46, 47, 51, 52, 53, 54, 55, 57, 58,
            60, 64, 65, 66, 71, 72, 73, 77, 79, 80, 84, 85, 96, 112, 114, 117,
            129, 130, 134, 148, 157, 159, 162, 176, 177, 195,
        )
        assert run.iterations == 62
        assert run.work < 100_000


class TestHsBound:
    def test_frozen_values(self):
        assert hs_bound(3, 2) == 2
        assert hs_bound(3, 3) == Fraction(9, 5)
        assert hs_bound(3, 4) == Fraction(5, 3)
        assert hs_bound(4, 2) == Fraction(5, 2)
        assert hs_bound(4, 3) == Fraction(16, 7)

    def test_first_step_is_half_k_plus_one(self):
        for k in range(3, 8):
            assert hs_bound(k, 2) == Fraction(k + 1, 2)

    @given(st.integers(min_value=3, max_value=6), st.integers(min_value=2, max_value=10))
    def test_monotone_and_above_half_k(self, k, t):
        assert hs_bound(k, t + 1) <= hs_bound(k, t)
        assert hs_bound(k, t) > Fraction(k, 2)

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            hs_bound(2, 2)
        with pytest.raises(ValueError):
            hs_bound(3, 1)


class TestAuxiliaryMultigraph:
    def test_hand_example(self):
        got = Instance(
            universe_size=9,
            sets=((0, 1), (2, 3), (1, 2), (3, 4), (5, 6), (0, 2, 4)),
            k=3,
        )
        aux, labels = build_auxiliary_multigraph(got, Packing((0, 1)), include_loops=True)
        assert aux.vertex_count == 2
        assert aux.edges == ((0, 1), (1, 1), (0, 1))
        assert labels == (2, 3, 5)

    def test_loops_excluded(self):
        got = Instance(
            universe_size=9,
            sets=((0, 1), (2, 3), (1, 2), (3, 4), (5, 6), (0, 2, 4)),
            k=3,
        )
        aux, labels = build_auxiliary_multigraph(got, Packing((0, 1)), include_loops=False)
        assert aux.edges == ((0, 1), (0, 1))
        assert labels == (2, 5)

    def test_rejects_overlapping_packing(self):
        got = planted_three_for_two()
        with pytest.raises(ValueError):
            build_auxiliary_multigraph(got, Packing((0, 2)), include_loops=True)


class TestLogImprovementSearch:
    def test_finds_planted_improvement(self):
        got = planted_three_for_two()
        found = log_improvement_search(got, Packing((0, 1)), Fraction(1))
        assert found == ImprovingSet(incoming=(2, 3, 4), outgoing=(0, 1))

    def test_none_on_tiny_packing(self):
        got = planted_three_for_two()
        assert log_improvement_search(got, Packing((0,)), Fraction(1)) is None

    def test_rejects_bad_epsilon(self):
        got = planted_three_for_two()
        with pytest.raises(ValueError):
            log_improvement_search(got, Packing((0, 1)), Fraction(0))

    def test_candidates_validated_not_trusted(self):
        # two outside sets both touch members 0 and 1 AND each other, so the
        # dense {0,1} subgraph yields no usable swap
        got = Instance(
            universe_size=7,
            sets=((0, 1), (2, 3), (1, 2, 6), (0, 3, 6), (1, 3, 6)),
            k=3,
        )
        found = log_improvement_search(got, Packing((0, 1)), Fraction(1))
        assert found is None


def planted_log_improvement(n: int, seed: int) -> tuple[Instance, Packing]:
    """A 2-locally optimal packing of a random instance with r + 1 pairwise
    disjoint pairs added across r of its members (a cycle and a chord, or
    three parallel pairs), and two decoy pairs from those members to others.
    No outside set met two of the r members before.  The pairs meet two
    members each, so the packing stays 2-locally optimal."""
    rng = random.Random(1000 * n + seed)
    base = gen_random(n * 3 // 2, n, 3, seed)
    packing = t_local_search(base, 2)
    aux, _ = build_auxiliary_multigraph(base, packing, include_loops=False)
    linked = {frozenset(e) for e in aux.edges}
    want = rng.randrange(2, 6)
    chosen: list[int] = []
    for pos in rng.sample(range(len(packing.members)), len(packing.members)):
        if len(chosen) < want and all(frozenset((pos, c)) not in linked for c in chosen):
            chosen.append(pos)
    chosen = [packing.members[pos] for pos in chosen]
    r = len(chosen)
    assert r >= 2
    spare = {m: rng.sample(base.sets[m], 3) for m in chosen}
    ends = [(chosen[i], chosen[(i + 1) % r]) for i in range(r)]
    ends = [tuple(chosen)] * 3 if r == 2 else ends + [tuple(rng.sample(chosen, 2))]
    extra = [tuple(sorted((spare[u].pop(), spare[v].pop()))) for u, v in ends]
    others = [m for m in packing.members if m not in chosen]
    for _ in range(2):
        u, v = rng.choice(chosen), rng.choice(others)
        extra.append(tuple(sorted((rng.choice(base.sets[u]), rng.choice(base.sets[v])))))
    return Instance(base.universe_size, base.sets + tuple(extra), 3), packing


class TestLogImprovementDifferential:
    """The connected search against a copy of the exhaustive search over
    every vertex subset of the auxiliary multigraph."""

    def test_matches_exhaustive_search(self):
        cases = []
        for n in (20, 30, 40, 50, 60):
            for seed in range(1, 7):
                cases.append(planted_log_improvement(n, seed))
                if n <= 40:
                    plain = gen_random(n * 3 // 2, n, 3, seed)
                    cases.append((plain, t_local_search(plain, 2)))
        found = set()
        for instance, packing in cases:
            assert t_local_search(instance, 2, start=packing) == packing
            for eps in (Fraction(1), Fraction(3)):
                want = exhaustive_log_improvement(instance, packing, eps)
                assert log_improvement_search(instance, packing, eps) == want
                found.add(None if want is None else len(want.incoming))
        assert {None, 3, 4, 5, 6} <= found


class TestLogLocalSearch:
    def test_beats_two_local_on_planted_instance(self):
        got = planted_three_for_two()
        stats = SearchStats()
        packing = log_local_search(got, Fraction(1), stats=stats)
        assert packing == Packing((2, 3, 4))
        assert stats.iterations >= 1

    def test_matches_two_local_value_or_better(self):
        rng = random.Random(34)
        for trial in range(12):
            got = gen_random(12, rng.randrange(8, 18), 3, seed=300 + trial)
            base = len(t_local_search(got, 2).members)
            better = log_local_search(got, Fraction(1, 2))
            assert is_packing(got, better)
            assert len(better.members) >= base

    def test_deterministic(self):
        got = gen_random(12, 14, 3, seed=77)
        assert log_local_search(got, Fraction(1)) == log_local_search(got, Fraction(1))

    def test_rejects_bad_epsilon_before_any_work(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            log_local_search(gen_random(30, 20, 3, 1), 0, budget=WorkBudget(limit=50))

    def test_matches_one_step_reference(self):
        # the 2-swap verdicts outlive a log-size swap: a 2-swap step after
        # one must still find the swap a fresh search finds
        followed = 0
        for n in (20, 24, 30):
            for seed in range(1, 15):
                instance, _ = planted_log_improvement(n, seed)
                for eps in (Fraction(1, 2), Fraction(1)):
                    want, kinds = reference_log_local_search(instance, eps)
                    stats = SearchStats()
                    assert log_local_search(instance, eps, stats=stats) == want
                    assert stats.iterations == len(kinds)
                    followed += ("log", "2") in zip(kinds, kinds[1:])
        assert followed >= 10
