"""Stored tables that twin pairs share, against the routes they replace.

The conditions layer keeps four pair-independent pieces once per input:
the span of maps factoring through one member (``PairEngine._member_span``,
concatenated by ``factoring_subspace``), the composition operators
(``Backend.left_op`` and ``right_op``), each triangle the literal search
yields, per connecting map and split (``NakayamaBackend._sum_tri``), and
the isomorphism test modulo a core (``PairEngine.iso_mod``).  Each is
held here to the route it replaced, kept in ``helpers`` as the oracle: the
same vectors in the same order, the same matrices, the same triangles in
the same order with the same work budget as the per-map scan
(``helpers.scan_enumerate``).  A stored answer is kept only
once its checks pass, so a failing check raises again on every call.
"""

import itertools
import random

import pytest

from cotor.core import BudgetExceeded, InternalCheckError, Mor, Obj, multisets_over
from cotor.nakayama import NakayamaBackend
from cotor.pairs import PairEngine
from cotor.quotient import ZIQuotient
from cotor.subcats import Subcat
from helpers import (
    basis_products, one_more_m01, op_by_compose, scan_run, with_split
)

# Every Nakayama backend with at most 9 indecomposables (K = m(n-1)).
UP_TO_9 = [(m, n) for n in range(2, 11) for m in range(1, 10) if m * (n - 1) <= 9]

# Highest work budget tried per case; a case whose scan needs more is
# compared at every budget up to this one.
LIMIT = 120


def _ids(mn):
    return f"{mn[0]}-{mn[1]}"


# ---------------------------------------------------------------- triangle search


def _run(gen):
    got = []
    try:
        for tri in gen:
            got.append(tri)
    except BudgetExceeded:
        return got, True
    return got, False


def _walk_cases(k):
    """(xset, yset, c): every side set among the empty set, the singletons,
    two overlapping pairs and everything, against every c of one or two
    summands, on a seeded sample so the case count stays small."""
    sides = [(), *((i,) for i in range(k)), (0, k - 1), (k // 2, k - 1)]
    sides.append(tuple(range(k)))
    cs = [Obj(c) for size in (1, 2) for c in multisets_over(range(k), size)]
    rng = random.Random(k)
    for c in cs:
        for _ in range(3):
            yield rng.choice(sides), rng.choice(sides), c
        yield tuple(range(k)), tuple(range(k)), c


@pytest.mark.parametrize("mn", [(2, 2), (2, 3)], ids=_ids)
@pytest.mark.parametrize("cap", [2, 3, 4])
def test_triangle_search_matches_the_scan_at_every_budget(mn, cap):
    oracle_b = NakayamaBackend(*mn)
    b = NakayamaBackend(*mn)
    for xset, yset, c in _walk_cases(b.K):
        # Every budget from 1 up, until the scan finishes or LIMIT is
        # reached: the same triangles in the same order, and the same
        # verdict on whether the budget ran out.
        want, total, ran_out = scan_run(oracle_b, xset, yset, c, cap, LIMIT)
        for budget in range(1, total + 1):
            got, raised = _run(b.triangle_enumerate(xset, yset, c, cap=cap, budget=budget))
            case = (xset, yset, c, cap, budget)
            assert got == [w for w, at in want if at <= budget], case
            assert raised == (ran_out or budget < total), case
        if not ran_out:
            got = _run(b.triangle_enumerate(xset, yset, c, cap=cap))
            assert got == ([w for w, _ in want], False)


# ---------------------------------------------------------------- factoring spans


def _objects(k):
    """Every indecomposable and two sums of two, one with a repeat."""
    objs = [Obj.of(i) for i in range(k)]
    objs += [Obj.of(0, k - 1), Obj.of(k // 2, k // 2)]
    return list(dict.fromkeys(objs))


@pytest.mark.parametrize("mn", UP_TO_9, ids=_ids)
def test_factoring_spans_match_the_basis_products(mn):
    b = NakayamaBackend(*mn)
    eng = PairEngine(b)
    oracle_b = NakayamaBackend(*mn)
    tcps = eng.enumerate_tcp()
    cores = {p.s.intersect(p.t).bits for p in tcps if eng.is_concentric(p)}
    cores |= {1 << i for i in range(b.K)} | {(1 << b.K) - 1}
    objs = _objects(b.K)
    for bits in sorted(cores):
        core = Subcat(b, bits)
        for src in objs:
            for dst in objs:
                got = eng.factoring_subspace(src, core, dst)
                assert got == basis_products(oracle_b, src, core, dst), (bits, src, dst)
    # each member's span is stored once and shared by every core
    for src in objs:
        for mid in range(b.K):
            assert eng._member_span(src, mid, src) is eng._member_span(src, mid, src)


# ---------------------------------------------------------------- operators


@pytest.mark.parametrize("mn", [(1, 4), (2, 3), (3, 3), (3, 4)], ids=_ids)
def test_stored_operators_match_a_compose_loop(mn):
    b = NakayamaBackend(*mn)
    oracle_b = NakayamaBackend(*mn)
    rng = random.Random(7 * mn[0] + mn[1])
    k = b.K

    def some_obj():
        return Obj.from_iter(rng.randrange(k) for _ in range(rng.randint(0, 3)))

    for _ in range(60):
        x, y, z = some_obj(), some_obj(), some_obj()
        h = Mor(x, y, rng.getrandbits(b.hom_dim(x, y)))
        left = b.left_op(h, z)
        right = b.right_op(h, z)
        assert left == op_by_compose(oracle_b, h, z, "left")
        assert right == op_by_compose(oracle_b, h, z, "right")
        assert (left.rows, left.cols) == (b.hom_dim(z, y), b.hom_dim(z, x))
        assert (right.rows, right.cols) == (b.hom_dim(x, z), b.hom_dim(y, z))
        assert b.left_op(h, z) is left and b.right_op(h, z) is right


# ---------------------------------------------------------------- split triangles


@pytest.mark.parametrize("mn", [(2, 2), (2, 3), (1, 5)], ids=_ids)
def test_stored_split_triangle_is_the_built_one(mn):
    b = NakayamaBackend(*mn)
    ends = [Obj(s) for size in range(3) for s in multisets_over(range(b.K), size)]
    for xtra in ends:
        for ytra in ends:
            tri = b._sum_tri(None, xtra, ytra)
            assert tri == with_split(b, [], xtra, ytra)
            assert (tri.a, tri.c) == (xtra, ytra)
            assert b._sum_tri(None, xtra, ytra) is tri


def test_searches_share_one_split_triangle():
    b = NakayamaBackend(2, 3)
    c = Obj.of(0, 1)
    split = b._sum_tri(None, Obj.of(0), Obj.of(1))
    for xset, yset, cap in (([0], [1], 2), ([0, 2], [1], 3), ([0], [1, 3], 2)):
        hits = [t for t in b.triangle_enumerate(xset, yset, c, cap=cap) if t == split]
        assert len(hits) == 1 and hits[0] is split


@pytest.mark.parametrize("mn", [(2, 3), (3, 2)], ids=_ids)
def test_repeated_searches_yield_the_stored_triangles(mn):
    # A search run again yields the very same Tri objects, still in the
    # scan's order, and at every budget it stops where the scan does.
    oracle_b = NakayamaBackend(*mn)
    b = NakayamaBackend(*mn)
    every = tuple(range(b.K))
    dense = 0
    for c in (Obj(c) for size in (1, 2) for c in multisets_over(every, size)):
        timed, total, _ = scan_run(oracle_b, every, every, c, 2, None)
        want = [w for w, _ in timed]
        first, _ = _run(b.triangle_enumerate(every, every, c, cap=2))
        again, _ = _run(b.triangle_enumerate(every, every, c, cap=2))
        assert first == want
        assert len(again) == len(first)
        assert all(t is u for t, u in zip(again, first))
        dense += sum(not t.h.is_zero for t in first)
        for budget in range(1, min(total, LIMIT) + 1):
            want_b = ([w for w, at in timed if at <= budget], budget < total)
            got_b = _run(b.triangle_enumerate(every, every, c, cap=2, budget=budget))
            assert got_b == want_b, (c, budget)
            assert all(t is u for t, u in zip(got_b[0], first))
    assert dense, "no dense triangle was compared"


# ---------------------------------------------------------------- isomorphisms


def _twins_sharing_a_core(eng):
    """Two concentric twin pairs with the same nonzero core and a middle
    indecomposable outside it in common, with that indecomposable."""
    tcps = eng.enumerate_tcp()
    concentric = [p for p in tcps if eng.is_concentric(p)]
    for p1, p2 in itertools.combinations(concentric, 2):
        q1, q2 = ZIQuotient.for_pair(eng, p1), ZIQuotient.for_pair(eng, p2)
        if q1.i_set == q2.i_set and not q1.i_set.is_empty:
            common = q1.z_set.intersect(q2.z_set).ids()
            z = next((i for i in common if i not in q1.i_set), None)
            if z is not None:
                return q1, q2, Obj.of(z)
    raise AssertionError("no two twin pairs share a core")


def test_twin_pairs_with_one_core_share_an_iso_entry(monkeypatch):
    b = NakayamaBackend(2, 5)
    eng = PairEngine(b)
    q1, q2, z = _twins_sharing_a_core(eng)
    assert q1 is not q2
    f = b.identity(z)
    assert q1.iso_in_quotient(f) is True
    table = eng._stored["iso_mod"]
    # the other entries are the radical tests modulo the zero class
    core = {k: v for k, v in table.items() if k[0]}
    assert core == {(q1.i_set.bits, z, z, f.coords): True}
    before = dict(table)
    # the second pair reads the first pair's entry: no solve, no cone
    work = []
    spans = eng.factoring_subspace
    monkeypatch.setattr(
        eng, "factoring_subspace", lambda *a: work.append(a) or spans(*a)
    )
    monkeypatch.setattr(b, "cone_obj", lambda f: work.append(f))
    assert q2.iso_in_quotient(f) is True
    assert table == before and work == []


# ---------------------------------------------------------------- failing checks


def test_a_disagreeing_cone_route_raises_on_every_call_and_stores_nothing(
    monkeypatch,
):
    b = NakayamaBackend(2, 3)
    eng = PairEngine(b)
    tcps = eng.enumerate_tcp()
    # a zero core: a quotient isomorphism is an isomorphism, with cone 0
    q = next(
        q for q in (ZIQuotient.for_pair(eng, p) for p in tcps if eng.is_concentric(p))
        if q.i_set.is_empty and not q.z_set.is_empty
    )
    cones, sums = dict(b._stored.get("cone", {})), dict(b._stored.get("_sum_tri", {}))
    # a fresh map: its cone split disagrees with the count
    x1 = Obj.of(0)
    xx = Obj.of(0, 0)
    delta = Mor(xx, x1, (1 << b.hom_dim(xx, x1)) - 1)
    assert (delta.src, delta.dst, delta.coords) not in cones
    with monkeypatch.context() as m:
        m.setattr(b, "_cone_counts", one_more_m01(b._cone_counts))
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="rank count"):
                b.cone(delta)
            with pytest.raises(InternalCheckError, match="rank count"):
                b._sum_tri(delta, Obj.zero(), Obj.zero())
    assert b._stored.get("cone", {}) == cones and b._stored.get("_sum_tri", {}) == sums
    # a fresh quotient map: the cone route contradicts the inverse solve
    zid = min(q.z_set.ids())
    f = b.identity(Obj.of(zid, zid))
    isos = dict(eng._stored["iso_mod"])
    assert (q.i_set.bits, f.src, f.dst, f.coords) not in isos
    honest = eng.in_star
    monkeypatch.setattr(eng, "in_star", lambda x, y, c, step: not honest(x, y, c, step))
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="routes disagree"):
            q.iso_in_quotient(f)
    assert eng._stored["iso_mod"] == isos
