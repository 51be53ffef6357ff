"""Regression fixture: the outputs of the exact simplex, frozen.

`lp_fixture.json` holds, for each LP, the status, values, objective value,
duals and bound duals that `solve_lp` returned when it was written, as
rational strings.  The LPs are the standard and intersecting relaxations of
random instances and of projective planes, plus seeded random general LPs
(negative lower bounds, free upper bounds, `=` rows, negative right-hand
sides, fractional coefficients) whose results include infeasible and
unbounded ones.  Any change to the simplex must reproduce them exactly:
the same pivots give the same vertex and the same duals.  Regenerate (only
when an output change is intended) with::

    PYTHONPATH=src python tests/test_lp_fixture.py --write
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ksetpack import (
    Constraint,
    LinearProgram,
    build_intersecting_family_lp,
    build_standard_lp,
    gen_projective_plane,
    gen_random,
    solve_lp,
)
from ksetpack.lp import EQ, LEQ
from ksetpack.util import format_fraction

FIXTURE = Path(__file__).with_name("lp_fixture.json")
WEIGHTS = (Fraction(1), Fraction(5))
GENERAL_SEEDS = range(1, 201)


def _fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randrange(lo, hi + 1), rng.choice((1, 1, 2, 3)))


def random_general_lp(seed: int) -> LinearProgram:
    """A small LP that exercises every branch of the two-phase method."""
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    constraints = []
    for i in range(rng.randrange(0, 7)):
        support = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        constraints.append(
            Constraint(
                coeffs=tuple((j, _fraction(rng, -3, 4)) for j in support),
                relation=EQ if rng.random() < 0.2 else LEQ,
                rhs=_fraction(rng, -4, 8),
                label=f"r{i}",
            )
        )
    lower = [Fraction(rng.choice((0, 0, -2, -1))) / rng.choice((1, 2)) for _ in range(n)]
    upper = [
        None if rng.random() < 0.3 else lo + _fraction(rng, 0, 6) for lo in lower
    ]
    return LinearProgram(
        num_vars=n,
        objective=[_fraction(rng, -5, 5) for _ in range(n)],
        constraints=constraints,
        lower=lower,
        upper=upper,
    )


def lps():
    for n in (6, 9, 12):
        for weighted in (False, True):
            for seed in range(1, 21):
                label = f"random n={n} {'w1:5' if weighted else 'unit'} seed={seed}"
                inst = gen_random(n * 3 // 2, n, 3, seed, WEIGHTS if weighted else None)
                yield f"standard | {label}", build_standard_lp(inst)
                yield f"intersecting | {label}", build_intersecting_family_lp(inst)
    for q in (2, 3, 5):
        plane = gen_projective_plane(q)
        yield f"standard | plane q={q}", build_standard_lp(plane)
        yield f"intersecting | plane q={q}", build_intersecting_family_lp(plane)
    for seed in GENERAL_SEEDS:
        yield f"general | seed={seed}", random_general_lp(seed)


def _strings(xs):
    return None if xs is None else [format_fraction(x) for x in xs]


def compute() -> dict:
    solutions = {}
    for key, lp in lps():
        sol = solve_lp(lp)
        solutions[key] = {
            "status": sol.status,
            "values": _strings(sol.values),
            "objective_value": None
            if sol.objective_value is None
            else format_fraction(sol.objective_value),
            "duals": _strings(sol.duals),
            "bound_duals": _strings(sol.bound_duals),
        }
    return solutions


@pytest.fixture(scope="module")
def frozen_and_now():
    return json.loads(FIXTURE.read_text()), compute()


def test_every_solution_matches(frozen_and_now):
    frozen, now = frozen_and_now
    assert set(now) == set(frozen)
    differ = [key for key in frozen if now[key] != frozen[key]]
    assert not differ, f"{len(differ)} solutions changed, first: {differ[0]}"


def test_fixture_covers_every_status(frozen_and_now):
    frozen, _ = frozen_and_now
    general = [sol["status"] for key, sol in frozen.items() if key.startswith("general")]
    assert len(general) == len(GENERAL_SEEDS)
    assert {"optimal", "infeasible", "unbounded"} <= set(general)
    relaxations = [sol for key, sol in frozen.items() if not key.startswith("general")]
    assert len(relaxations) == 2 * (3 * 2 * 20 + 3)
    assert all(sol["status"] == "optimal" for sol in relaxations)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n")
