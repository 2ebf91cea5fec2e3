"""Cone-indexed triangle enumeration against the per-map scan it replaces.

``NakayamaBackend.triangle_enumerate`` walks, for each end pair
(X1, Y1), only the dense connecting maps Y1[-1] -> X1 whose cone is the
wanted core, read from an index the backend keeps per end pair.  Before
the index it scanned every connecting map, filtered the dense ones and
computed each one's cone.  That scan survives here only as the oracle:
the same triangles in the same order, and the same work budget, one
unit per connecting map scanned, so ``BudgetExceeded`` falls at the
same point.  Comparing triangles loses nothing of the connecting map:
each dense triangle's third map is the shift of its connecting map,
and the shift is injective on stable Hom.  The oracle splits c by the
recursive walk (``helpers.splits_3way``) that the product walk of
``_splits_3way`` replaced.
"""

import random

import pytest

from cotor.core import BudgetExceeded, Mor, Obj, multisets_over
from cotor.nakayama import NakayamaBackend, _splits_3way

from helpers import splits_3way, with_split

# Every Nakayama backend with at most 9 indecomposables (K = m(n-1)).
UP_TO_9 = [(m, n) for n in range(2, 11) for m in range(1, 10) if m * (n - 1) <= 9]

# Work bound of one oracle run; a case whose scan needs more is
# compared up to the point where this bound runs out.
LIMIT = 300


# ---------------------------------------------------------------- oracle


def dense_masks(b, src, dst):
    """Masks of the blocks out of each summand of src and into each
    summand of dst; a map is dense when it meets all of them."""
    layout = b.block_layout(src, dst)
    rows = [0] * len(src)
    cols = [0] * len(dst)
    for p, q, off, bd in layout:
        mask = ((1 << bd) - 1) << off
        rows[p] |= mask
        cols[q] |= mask
    return rows + cols, sum(bd for *_, bd in layout)


def scan_enumerate(b, xset, yset, c, cap, budget, spent):
    """The per-map scan: every connecting map y1[-1] -> x1 is charged,
    the dense ones get a cone, and those whose cone is the core yield a
    triangle.  ``spent[0]`` counts the units charged so far."""
    xset = sorted(set(xset))
    yset = sorted(set(yset))

    def spend():
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExceeded("triangle enumeration budget exhausted")

    for xtra, ytra, core in splits_3way(c, xset, yset):
        if core.is_zero:
            if len(xtra) <= cap and len(ytra) <= cap:
                spend()
                yield with_split(b, [], xtra, ytra)
        for sx in range(1, cap - len(xtra) + 1):
            for sy in range(1, cap - len(ytra) + 1):
                for x1 in multisets_over(xset, sx):
                    x1_obj = Obj.from_iter(x1)
                    for y1 in multisets_over(yset, sy):
                        y1_obj = Obj.from_iter(y1)
                        y1m = b.shift_obj(y1_obj, -1)
                        masks, d = dense_masks(b, y1m, x1_obj)
                        if d == 0 or any(mk == 0 for mk in masks):
                            continue
                        for coords in range(1, 1 << d):
                            spend()
                            if any(not (coords & mk) for mk in masks):
                                continue
                            delta = Mor(y1m, x1_obj, coords)
                            cone = b.cone(delta)
                            if cone.c != core:
                                continue
                            tri = with_split(b, [b.rotate_left(cone)], xtra, ytra)
                            b._check_triangle(tri)
                            yield tri


def scan_run(b, xset, yset, c, cap, limit=LIMIT):
    """Oracle triangles with the units spent when each was yielded, the
    units spent in all, and whether the limit ran out."""
    spent = [0]
    got = []
    try:
        for w in scan_enumerate(b, xset, yset, c, cap, limit, spent):
            got.append((w, spent[0]))
    except BudgetExceeded:
        return got, limit, True
    return got, spent[0], False


def indexed_run(b, xset, yset, c, cap, budget):
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


def check_index(b):
    """Every end pair the backend has indexed: its masks are the block
    masks, the cone lists are disjoint and ascending, together they are
    the dense maps among the scanned ones, and each list sits under its
    maps' cone."""
    for (x1, y1), pair in b._stored.get("_end_pair", {}).items():
        y1m = b.shift_obj(Obj(y1), -1)
        masks, d = dense_masks(b, y1m, Obj(x1))
        if pair is None:
            assert d == 0 or not all(masks)
            continue
        assert (pair.x1_obj, pair.y1m, pair.masks) == (Obj(x1), y1m, tuple(masks))
        assert pair.span == (1 << d) - 1
        assert 0 <= pair.scanned <= pair.span
        listed = []
        for cobj, maps in pair.by_cone.items():
            assert maps == sorted(set(maps))
            for coords in maps:
                assert b.cone(Mor(y1m, Obj(x1), coords)).c == cobj
            listed += maps
        dense = [
            coords
            for coords in range(1, pair.scanned + 1)
            if all(coords & mk for mk in masks)
        ]
        assert sorted(listed) == dense


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("mn", UP_TO_9, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_indexed_enumeration_matches_the_scan(mn):
    oracle_b = NakayamaBackend(*mn)
    b = NakayamaBackend(*mn)
    rng = random.Random(100 * mn[0] + mn[1])
    for xset, yset, c, cap in random_cases(oracle_b, rng, 4):
        want, total, ran_out = scan_run(oracle_b, xset, yset, c, cap)
        # Every budget from 1 to the oracle's spend, in rising order, so the
        # index of a pair is also extended from a partial scan.  With
        # budget B the scan yields the triangles charged by then, and
        # raises unless it finished within B.
        for budget in range(1, total + 1):
            got, raised = indexed_run(b, xset, yset, c, cap, budget)
            expected = [w for w, at in want if at <= budget]
            assert got == expected, (xset, yset, c, cap, budget)
            assert raised == (ran_out or budget < total), (xset, yset, c, cap, budget)
        if not ran_out:
            got, raised = indexed_run(b, xset, yset, c, cap, None)
            assert not raised
            assert got == [w for w, _ in want]
    check_index(b)


def test_index_is_filled_once_and_read_across_calls():
    b = NakayamaBackend(3, 4)
    every = list(range(b.K))
    c = Obj.of(0, 5)
    first = list(b.triangle_enumerate(every, every, c, cap=2))
    assert first
    cones = set(b._stored.get("cone", {}))
    again = list(b.triangle_enumerate(every, every, c, cap=2))
    assert again == first
    assert set(b._stored.get("cone", {})) == cones
    assert all(p is None or p.scanned == p.span for p in b._stored.get("_end_pair", {}).values())
    check_index(b)


def test_budget_stops_the_index_scan():
    b = NakayamaBackend(1, 8)
    ids = list(range(b.K))
    with pytest.raises(BudgetExceeded):
        for _ in b.triangle_enumerate(ids, ids, Obj.of(3), cap=3, budget=50):
            pass
    assert len(b._stored.get("cone", {})) <= 50
    assert any(p is not None and p.scanned < p.span for p in b._stored.get("_end_pair", {}).values())
    check_index(b)


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
    # K = 12, one indexed backend for all runs, budgets in rising order,
    # so later runs extend indexes that earlier ones left part-scanned.
    oracle_b = NakayamaBackend(*mn)
    b = NakayamaBackend(*mn)
    rng = random.Random(100 * mn[0] + mn[1])
    finished = partial = 0
    for xset, yset, c, cap in witnessed_cases(oracle_b, rng, 10):
        want, total, ran_out = scan_run(oracle_b, xset, yset, c, cap, limit=1000)
        finished += not ran_out
        for budget in (1, 7, 50, 500, None):
            if budget is None:
                if not ran_out:
                    assert indexed_run(b, xset, yset, c, cap, None) == (
                        [w for w, _ in want], False
                    )
                continue
            got, raised = indexed_run(b, xset, yset, c, cap, budget)
            assert got == [w for w, at in want if at <= budget], (xset, yset, c, budget)
            assert raised == (ran_out or budget < total), (xset, yset, c, budget)
            partial += any(
                p is not None and 0 < p.scanned < p.span
                for p in b._stored.get("_end_pair", {}).values()
            )
    assert finished and partial
    check_index(b)
