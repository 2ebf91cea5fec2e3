"""The backend's triangle search against the per-map scan oracle.

``NakayamaBackend.triangle_enumerate`` is the tests' literal triangle
search, the oracle of the approximation triangles and the peel.  It is
held here to an independent scan (``helpers.scan_enumerate``): c split
by the recursive walk (``helpers.splits_3way``) that the product walk of
``_splits_3way`` replaced, density read off freshly built block masks,
and a full cone per dense map.  Both must give the same triangles in
the same order, and the same work budget, one unit per connecting map
scanned, so ``BudgetExceeded`` falls at the same point.  Comparing
triangles loses nothing of the connecting map: each dense triangle's
third map is the shift of its connecting map, and the shift is
injective on stable Hom.
"""

import random

import pytest

from cotor.core import BudgetExceeded, Mor, Obj, multisets_over
from cotor.nakayama import NakayamaBackend, _splits_3way

from helpers import scan_run, splits_3way

# Every Nakayama backend with at most 9 indecomposables (K = m(n-1)).
UP_TO_9 = [(m, n) for n in range(2, 11) for m in range(1, 10) if m * (n - 1) <= 9]

# Work bound of one oracle run; a case whose scan needs more is
# compared up to the point where this bound runs out.
LIMIT = 300


# ---------------------------------------------------------------- runs


def search_run(b, xset, yset, c, cap, budget):
    got = []
    try:
        for w in b.triangle_enumerate(xset, yset, c, cap=cap, budget=budget):
            got.append(w)
    except BudgetExceeded:
        return got, True
    return got, False


# ---------------------------------------------------------------- cases


def random_cases(b, rng, count):
    """Seeded (xset, yset, c, cap), cap <= 3.  Every other case takes c
    from the cone of a random connecting map between ends drawn from the
    two sets, plus split summands, so that it has witnesses."""
    k = b.K
    for i in range(count):
        xset = sorted(rng.sample(range(k), rng.randint(0, min(3, k))))
        yset = sorted(rng.sample(range(k), rng.randint(0, min(3, k))))
        cap = rng.randint(1, 3)
        c = Obj.from_iter(rng.randrange(k) for _ in range(rng.randint(1, 3)))
        if i % 2 and xset and yset:
            x1 = Obj.from_iter(rng.choice(xset) for _ in range(rng.randint(1, 2)))
            y1 = Obj.from_iter(rng.choice(yset) for _ in range(rng.randint(1, 2)))
            y1m = b.shift_obj(y1, -1)
            d = b.hom_dim(y1m, x1)
            core = b.cone(Mor(y1m, x1, rng.getrandbits(d))).c if d else Obj.zero()
            extra = [rng.choice(xset + yset) for _ in range(rng.randint(0, 1))]
            c = core.plus(Obj.from_iter(extra))
        yield xset, yset, c, cap


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("mn", UP_TO_9, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_indexed_enumeration_matches_the_scan(mn):
    oracle_b = NakayamaBackend(*mn)
    b = NakayamaBackend(*mn)
    rng = random.Random(100 * mn[0] + mn[1])
    for xset, yset, c, cap in random_cases(oracle_b, rng, 4):
        want, total, ran_out = scan_run(oracle_b, xset, yset, c, cap, LIMIT)
        # Every budget from 1 to the oracle's spend.  With budget B the
        # search yields the triangles charged by then, and raises unless
        # it finished within B.
        for budget in range(1, total + 1):
            got, raised = search_run(b, xset, yset, c, cap, budget)
            expected = [w for w, at in want if at <= budget]
            assert got == expected, (xset, yset, c, cap, budget)
            assert raised == (ran_out or budget < total), (xset, yset, c, cap, budget)
        if not ran_out:
            got, raised = search_run(b, xset, yset, c, cap, None)
            assert not raised
            assert got == [w for w, _ in want]


def test_split_walk_matches_the_recursion():
    # Every object of at most 4 summands over K = 6, against end sets
    # that are empty, disjoint, overlapping and equal.
    k = NakayamaBackend(3, 3).K
    every = list(range(k))
    sides = [
        ([], []), ([], every), (every, []), ([0, 2, 4], [1, 3, 5]),
        ([0, 1, 2, 3], [2, 3, 4]), ([5], [0, 5]), (every, every),
    ]
    for size in range(5):
        for summands in multisets_over(every, size):
            c = Obj(summands)
            for xset, yset in sides:
                want = list(splits_3way(c, xset, yset))
                assert list(_splits_3way(c, tuple(xset), tuple(yset))) == want


def witnessed_cases(b, rng, count):
    """Seeded (xset, yset, c, cap), cap 2 or 3, with c the cone of a
    random connecting map between ends of up to two summands drawn from
    the sets (the sum of the ends when there is no map), plus at most
    one split summand."""
    k = b.K
    for _ in range(count):
        xset = sorted(rng.sample(range(k), rng.randint(1, 4)))
        yset = sorted(rng.sample(range(k), rng.randint(1, 4)))
        x1 = Obj.from_iter(rng.choice(xset) for _ in range(rng.randint(1, 2)))
        y1 = Obj.from_iter(rng.choice(yset) for _ in range(rng.randint(1, 2)))
        y1m = b.shift_obj(y1, -1)
        d = b.hom_dim(y1m, x1)
        core = b.cone(Mor(y1m, x1, rng.getrandbits(d))).c if d else x1.plus(y1)
        extra = [rng.choice(xset + yset) for _ in range(rng.randint(0, 1))]
        yield xset, yset, core.plus(Obj.from_iter(extra)), rng.randint(2, 3)


@pytest.mark.parametrize("mn", [(4, 4), (6, 3)], ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_indexed_enumeration_matches_the_scan_above_ten(mn):
    # K = 12, one backend for all runs, so later runs read the cones and
    # triangles that earlier ones stored.
    oracle_b = NakayamaBackend(*mn)
    b = NakayamaBackend(*mn)
    rng = random.Random(100 * mn[0] + mn[1])
    finished = 0
    for xset, yset, c, cap in witnessed_cases(oracle_b, rng, 10):
        want, total, ran_out = scan_run(oracle_b, xset, yset, c, cap, 1000)
        finished += not ran_out
        for budget in (1, 7, 50, 500, None):
            if budget is None:
                if not ran_out:
                    assert search_run(b, xset, yset, c, cap, None) == (
                        [w for w, _ in want], False
                    )
                continue
            got, raised = search_run(b, xset, yset, c, cap, budget)
            assert got == [w for w, at in want if at <= budget], (xset, yset, c, budget)
            assert raised == (ran_out or budget < total), (xset, yset, c, budget)
    assert finished
