import random
from fractions import Fraction

import pytest
from helpers import brute_find_improving
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
