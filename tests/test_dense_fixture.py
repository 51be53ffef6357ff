"""Regression fixture: the outputs of the dense-subgraph reduction, frozen.

`dense_fixture.json` holds, for each seeded multigraph and h, the sorted
vertex set that `find_dense_subgraph(g, h)` returned when it was written, or
the type and message of the exception it raised.  The inputs are random
multigraphs that meet the density bound h·|E| >= (h+1)·|V| with some slack,
and multigraphs built from a dense core plus the structures the reduction
deletes or contracts: pendant paths, loop vertices, cycle components, long
and short chains and parallel edges, under a random relabelling (some of
these fail the bound and record the error).  Any change to the reduction
must reproduce them exactly.  Regenerate (only when an output change is
intended) with::

    PYTHONPATH=src python tests/test_dense_fixture.py --write
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from helpers import random_dense_multigraph
from ksetpack import Multigraph, find_dense_subgraph

FIXTURE = Path(__file__).with_name("dense_fixture.json")
QUALIFIED_SEEDS = range(1, 21)
BUILT_SEEDS = range(1, 161)


def random_built_multigraph(rng: random.Random) -> Multigraph:
    """A random core with pendants, loops, cycles, chains and parallel edges
    hung on it, vertices shuffled."""
    core = rng.randrange(1, 9)
    edges = [(rng.randrange(core), rng.randrange(core)) for _ in range(core * rng.choice((1, 2, 3)))]
    n = core

    def fresh(count: int) -> list[int]:
        nonlocal n
        n += count
        return list(range(n - count, n))

    for _ in range(rng.randrange(0, 6)):
        kind = rng.randrange(6)
        anchor = rng.randrange(n)
        if kind == 0:  # pendant path
            path = [anchor] + fresh(rng.randrange(1, 4))
            edges += zip(path, path[1:])
        elif kind == 1:  # vertex with one loop, sometimes also one edge out
            (v,) = fresh(1)
            edges.append((v, v))
            if rng.random() < 0.5:
                edges.append((v, anchor))
        elif kind == 2:  # cycle component
            cycle = fresh(rng.randrange(1, 5))
            edges += zip(cycle, cycle[1:] + cycle[:1])
        elif kind == 3:  # chain between two existing vertices
            path = [anchor] + fresh(rng.randrange(1, 6)) + [rng.randrange(n)]
            edges += zip(path, path[1:])
        elif kind == 4:  # parallel copies of existing edges
            edges += rng.choices(edges or [(anchor, anchor)], k=rng.randrange(1, 4))
        else:  # loop on an existing vertex
            edges.append((anchor, anchor))
    perm = list(range(n))
    rng.shuffle(perm)
    return Multigraph(n, tuple((perm[a], perm[b]) for a, b in edges))


def cases():
    for h in (1, 2, 3):
        for slack in range(4):
            for seed in QUALIFIED_SEEDS:
                rng = random.Random(f"qualified {h} {slack} {seed}")
                g = random_dense_multigraph(rng.randrange(2, 41), h, rng, slack)
                yield f"qualified h={h} slack={slack} seed={seed}", g, h
    for seed in BUILT_SEEDS:
        rng = random.Random(f"built {seed}")
        g = random_built_multigraph(rng)
        yield f"built seed={seed}", g, rng.choice((0, 1, 1, 2, 2, 3, 3, 4))


def compute() -> dict:
    results = {}
    for key, g, h in cases():
        try:
            results[key] = sorted(find_dense_subgraph(g, h))
        except Exception as exc:  # the fixture records every outcome
            results[key] = {"error": type(exc).__name__, "message": str(exc)}
    return results


@pytest.fixture(scope="module")
def frozen_and_now():
    return json.loads(FIXTURE.read_text()), compute()


def test_every_result_matches(frozen_and_now):
    frozen, now = frozen_and_now
    assert set(now) == set(frozen)
    differ = [key for key in frozen if now[key] != frozen[key]]
    assert not differ, f"{len(differ)} results changed, first: {differ[0]}"


def test_fixture_covers_errors_and_reductions(frozen_and_now):
    frozen, _ = frozen_and_now
    qualified = [r for key, r in frozen.items() if key.startswith("qualified")]
    assert len(qualified) == 3 * 4 * len(QUALIFIED_SEEDS)
    assert all(isinstance(r, list) for r in qualified)
    built = [r for key, r in frozen.items() if key.startswith("built")]
    assert len(built) == len(BUILT_SEEDS)
    errors = {r["error"] for r in built if isinstance(r, dict)}
    assert errors == {"ValueError"}
    assert sum(isinstance(r, list) for r in built) >= len(built) // 3


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n")
