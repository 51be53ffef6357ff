"""Output checks made by the benchmark itself, outside the timed region.

Everything here works from the raw sets of an instance.  None of it calls
the package's own checkers (`is_packing`, `certify_optimal`,
`_check_independent`), so a fault that those share cannot hide.
"""
from __future__ import annotations

import csv
from collections import defaultdict
from fractions import Fraction
from itertools import combinations


class Mismatch(Exception):
    """An operation's output broke a property it must have."""


def _owners(instance, members) -> dict[int, int]:
    """element -> the member holding it; members must be valid, sorted,
    distinct and pairwise disjoint."""
    if list(members) != sorted(set(members)):
        raise Mismatch(f"members {members} are not sorted and distinct")
    owner: dict[int, int] = {}
    for m in members:
        if not 0 <= m < instance.n:
            raise Mismatch(f"member {m} out of range")
        for e in instance.sets[m]:
            if e in owner:
                raise Mismatch(f"members {owner[e]} and {m} share element {e}")
            owner[e] = m
    return owner


def _outside_hits(instance, members) -> dict[int, set[int]]:
    """For each set outside a maximal packing, the members it meets."""
    owner = _owners(instance, members)
    inside = set(members)
    hits = {}
    for i in range(instance.n):
        if i in inside:
            continue
        hit = {owner[e] for e in instance.sets[i] if e in owner}
        if not hit:
            raise Mismatch(f"set {i} is disjoint from the packing (not maximal)")
        hits[i] = hit
    return hits


def _weight(instance, i: int) -> Fraction:
    return instance.weights[i] if instance.weights is not None else Fraction(1)


def two_local_unit(instance, run) -> None:
    """Unweighted result of `local:2` or `loglocal:1`: a packing of value
    |members| that no swap of one or two outside sets improves."""
    hits = _outside_hits(instance, run.members)
    if run.value != len(run.members):
        raise Mismatch(f"value {run.value} != |members| = {len(run.members)}")
    # With no free set, a pair meets at most one member only when both
    # sets meet the same single member.
    single = defaultdict(list)
    for i, hit in hits.items():
        if len(hit) == 1:
            single[next(iter(hit))].append(i)
    for group in single.values():
        for a, b in combinations(group, 2):
            if not set(instance.sets[a]) & set(instance.sets[b]):
                raise Mismatch(f"sets {a} and {b} improve the packing by a 2-swap")


def _weighted_maximal(instance, run) -> dict[int, set[int]]:
    hits = _outside_hits(instance, run.members)
    value = sum((_weight(instance, m) for m in run.members), Fraction(0))
    if run.value != value:
        raise Mismatch(f"value {run.value} != member weight {value}")
    return hits


def square_local(instance, run) -> None:
    """`squareimp` and `power:2:2`: no single outside set beats the squared
    weight of the members it meets."""
    for u, hit in _weighted_maximal(instance, run).items():
        wu = _weight(instance, u)
        if wu * wu > sum(_weight(instance, x) ** 2 for x in hit):
            raise Mismatch(f"set {u} improves the squared weight")


def wishful_local(instance, run) -> None:
    """`wishful`: every outside u with heaviest solution neighbour v has
    w(u) - w(N(u) ∩ A)/2 <= w(v)/2, so no 1-talon claw is nice."""
    for u, hit in _weighted_maximal(instance, run).items():
        v = min(hit, key=lambda x: (-_weight(instance, x), x))
        excess = _weight(instance, u) - sum(_weight(instance, x) for x in hit) / 2
        if excess > _weight(instance, v) / 2:
            raise Mismatch(f"set {u} is a nice 1-talon claw on member {v}")


def max_packing_weight(instance) -> Fraction:
    """Maximum packing weight by depth-first search over the sets in index
    order, on element bitmasks, pruned by the weight still available."""
    masks = [sum(1 << e for e in s) for s in instance.sets]
    weights = [_weight(instance, i) for i in range(instance.n)]
    suffix = [Fraction(0)] * (instance.n + 1)
    for i in range(instance.n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    best = Fraction(0)

    def search(i: int, used: int, value: Fraction) -> None:
        nonlocal best
        best = max(best, value)
        if i == instance.n or value + suffix[i] <= best:
            return
        if not masks[i] & used:
            search(i + 1, used | masks[i], value + weights[i])
        search(i + 1, used, value)

    search(0, 0, Fraction(0))
    return best


def gap_rows(instance, plane_q: int | None, text: str) -> None:
    """`bench` CSV for one instance with `algorithms exact greedy` and
    `gaps standard intersecting`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# ksetpack-bench-csv"):
        raise Mismatch("CSV lacks its version header")
    rows = list(csv.DictReader(lines[1:]))
    if [row["algorithm"] for row in rows] != ["exact", "greedy"]:
        raise Mismatch(f"unexpected rows {[row['algorithm'] for row in rows]}")
    exact = max_packing_weight(instance)
    for row in rows:
        if row["status"] != "ok":
            raise Mismatch(f"{row['algorithm']} row has status {row['status']}")
        shape = (row["universe"], row["n"], row["k"])
        if shape != tuple(str(x) for x in (instance.universe_size, instance.n, instance.k)):
            raise Mismatch(f"row describes another instance: {shape}")
        if Fraction(row["exact"]) != exact:
            raise Mismatch(f"exact column {row['exact']} != independent maximum {exact}")
        gap_standard = Fraction(row["gap_standard"])
        gap_intersecting = Fraction(row["gap_intersecting"])
        if not exact <= gap_intersecting * exact <= gap_standard * exact:
            raise Mismatch("LP values break exact <= LP_intersecting <= LP_standard")
    exact_row, greedy_row = rows
    if Fraction(exact_row["value"]) != exact or Fraction(exact_row["ratio"]) != 1:
        raise Mismatch("exact row does not reach the maximum")
    ratio = Fraction(greedy_row["ratio"])
    if not 1 <= ratio <= instance.k or Fraction(greedy_row["value"]) * ratio != exact:
        raise Mismatch(f"greedy ratio {ratio} outside [1, k] or inconsistent")
    if plane_q is not None:
        q = plane_q
        if exact != 1:
            raise Mismatch(f"projective plane of order {q} has a packing of {exact}")
        if gap_standard != Fraction(q * q + q + 1, q + 1) or gap_intersecting != 1:
            raise Mismatch(f"plane q={q}: gaps {gap_standard}, {gap_intersecting}")
