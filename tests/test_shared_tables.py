"""Stored tables that twin pairs share, against the routes they replace.

The pair and conditions layers keep seven pair-independent pieces once
per input: the span of maps factoring through one member
(``PairEngine._member_span``, concatenated by ``factoring_subspace``), the
composition operators (``Backend.left_op`` and ``right_op``), each
triangle the literal search yields, per connecting map and split
(``NakayamaBackend._sum_tri``), the isomorphism test modulo a core
(``PairEngine.iso_mod``), condition (I)'s comparison map and condition
(III)'s span test, per the maps they read and the core, or the members
of V the maps can factor through (``quotient._comparison`` and
``PairEngine._heart_verdict``), and the tops an approximation reads per
member and summand, per the other members through which a map factors
(``PairEngine._tops``).  Each is held here to the route it replaced,
kept in ``helpers`` as the oracle: the same vectors in the same order,
the same matrices, the same triangles in the same order with the same
work budget as the per-map scan (``helpers.scan_enumerate``), the same
comparison maps and verdicts as the per-pair routes
(``helpers.per_pair_mu`` and ``per_pair_heart``), the same tops as the
route over the whole class (``helpers.per_class_tops``).  Each of those
answers is keyed by its arguments; the keys that dropped part of their
inputs, kept in ``helpers`` too (``approx_key``, ``heart_key`` and
``comparison_key``), are equal to them for approximations and finer for
the other two, and an entry that now serves inputs whose old keys
differ must give what the per-pair routes give on each.  The counts
tests pin how many entries one suite run keeps, so a return to per-pair
or per-class keys fails a test, not only a timer.  A stored
answer is kept only once its checks pass, so a failing check raises
again on every call, and the checks that read a pair's own classes run
for every pair.
"""

import itertools
import random
import re

import pytest

from cotor import cli, quotient
from cotor.core import (
    BudgetExceeded, InternalCheckError, Mor, Obj, Tri, multisets_over
)
from cotor.nakayama import NakayamaBackend
from cotor.pairs import PairEngine, reach
from cotor.quotient import ZIQuotient
from cotor.subcats import Subcat, closed_sets, iter_bits, left_perp, right_perp
from helpers import (
    approx_key, basis_products, comparison_key, heart_key, one_more_m01,
    op_by_compose, per_class_tops, per_pair_heart, per_pair_mu, scan_run,
    with_split
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
                got = eng.factoring_subspace(src, bits, dst)
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
    assert eng.iso_mod(q1.i_set, f) is True
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
    assert eng.iso_mod(q2.i_set, f) is True
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
            eng.iso_mod(q.i_set, f)
    assert eng._stored["iso_mod"] == isos


# ---------------------------------------------------------------- condition answers


def _heart_tests(p):
    """The (object, cotorsion pair) inputs of condition (III) on p."""
    return [(Obj.of(i), p.inner) for i in p.u] + [(Obj.of(i), p.outer) for i in p.t]


def _recorded(monkeypatch, eng):
    """Record the arguments of every ``approximation``, ``_heart_verdict``
    and ``quotient._comparison`` call on eng, in three lists."""
    log = {"approximation": [], "_heart_verdict": [], "_comparison": []}
    for name in ("approximation", "_heart_verdict"):
        honest = getattr(eng, name)

        def wrapped(*a, _honest=honest, _log=log[name]):
            _log.append(a)
            return _honest(*a)

        monkeypatch.setattr(eng, name, wrapped)
    honest_cmp = quotient._comparison

    def comparison(engine, *a):
        if engine is eng:
            log["_comparison"].append(a)
        return honest_cmp(engine, *a)

    monkeypatch.setattr(quotient, "_comparison", comparison)
    return log


def _coarser(args, old_keys, answers):
    """Per distinct argument tuple, the old keys of the inputs that passed
    it, checking that inputs with equal arguments got equal answers; the
    number of argument tuples that served more than one old key."""
    seen: dict = {}
    for a, k, got in zip(args, old_keys, answers):
        keys, want = seen.setdefault(a, (set(), got))
        assert got == want, "one stored entry gave two answers"
        keys.add(k)
    return sum(len(keys) > 1 for keys, _ in seen.values())


@pytest.mark.parametrize("mn", [(2, 4), (3, 4), (5, 3), (4, 4)], ids=_ids)
def test_shared_condition_answers_match_the_per_pair_routes(monkeypatch, mn):
    """Every comparison map and heart test against the per-pair routes.
    The stored answers are keyed by their arguments: the approximations
    by their old key exactly, the other two by a key equal to the old one
    or coarser, so some entry serves inputs whose old keys differ, and on
    those the per-pair routes agree too."""
    eng = PairEngine(NakayamaBackend(*mn))
    log = _recorded(monkeypatch, eng)
    maps = hearts = 0
    mus, mu_keys, heart_vs, heart_keys = [], [], [], []
    for p in eng.concentric_tcps():
        q = ZIQuotient.for_pair(eng, p)
        tu, complete = eng.star.star_indecs(p.t, p.u)
        assert complete
        for x in map(Obj.of, tu):
            z, verdict = q.mu_map(x)
            mus.append(per_pair_mu(q, x))
            assert (z, verdict.is_yes) == mus[-1]
            assert not verdict.is_inconclusive
            mu_keys.append(comparison_key(q, x))
            maps += 1
        for x, pair in _heart_tests(p):
            asked = len(log["_heart_verdict"])
            verdict = eng.h_vanishes(x, pair)
            want = per_pair_heart(eng, x, pair)
            assert verdict.is_yes == want
            assert not verdict.is_inconclusive
            # h_vanishes keeps its own answer per (x, pair)
            if len(log["_heart_verdict"]) > asked:
                heart_vs.append(want)
                heart_keys.append(heart_key(x, pair))
            hearts += 1
    stored = eng._stored
    assert len(log["_comparison"]) == maps
    assert len(log["_heart_verdict"]) == len(stored["h_vanishes"]) <= hearts
    # an approximation is stored by exactly its old key
    assert set(stored["_approximation"]) == {approx_key(*a) for a in log["approximation"]}
    # one entry per distinct argument tuple, so fewer than the inputs
    assert 0 < len(stored["_comparison"]) == len(set(log["_comparison"])) < maps
    assert 0 < len(stored["_heart_verdict"]) == len(set(log["_heart_verdict"]))
    # some entry of each serves inputs whose old keys differ
    assert _coarser(log["_comparison"], mu_keys, mus)
    assert _coarser(log["_heart_verdict"], heart_keys, heart_vs)


def _sharing(inputs, key):
    """Two (pair, object) inputs whose keys coincide, the second of a pair
    other than the first's, with their common key."""
    seen = {}
    for p, x in inputs:
        k = key(p, x)
        if k in seen and seen[k][0] != p:
            return seen[k], (p, x), k
        seen.setdefault(k, (p, x))
    raise AssertionError("no two twin pairs share a key")


def test_a_shared_comparison_still_checks_each_pairs_triangle_ends(monkeypatch):
    eng = PairEngine(NakayamaBackend(3, 4))
    b = eng.backend

    def key(p, x):
        # the stored key of the comparison that q.mu_map(x) reads
        q = ZIQuotient.for_pair(eng, p)
        w1 = eng.decomposition(p.u, x, p.u, q.v_up)
        w2 = eng.decomposition(q.s_down, x, q.s_down, p.t)
        maps = (w1.f, w2.g, q.adjoint(w1.a, 1)[1].g, q.adjoint(w2.c, -1)[1].f)
        return (q.i_set.bits, *(f.key() for f in maps))

    inputs = [
        (p, Obj.of(x)) for p in eng.concentric_tcps()
        for x in eng.star.star_indecs(p.t, p.u)[0]
    ]
    (p1, x), (p2, _), k = _sharing(inputs, key)
    q1, q2 = ZIQuotient.for_pair(eng, p1), ZIQuotient.for_pair(eng, p2)
    want = q1.mu_map(x)
    assert eng._stored["_comparison"][k] == want
    # the right U-approximation triangle of x gains an end outside V[1]
    outside = next(i for i in range(b.K) if i not in q2.v_up)
    approx, honest = eng.approximation(p2.u, x, 1), b.cone

    def cone(f):
        tri = honest(f)
        if f != approx:
            return tri
        bad = tri.c.plus(Obj.of(outside))
        return Tri(tri.f, Mor(tri.b, bad), Mor(bad, b.shift_obj(tri.a, 1)))

    monkeypatch.setattr(b, "cone", cone)
    # the end check of that triangle, not of another that reads the map
    ends = re.escape(f"has an end outside {p2.u.labels()} * {q2.v_up.labels()}")
    with pytest.raises(InternalCheckError, match=ends):
        q2.mu_map(x)
    assert eng._stored["_comparison"][k] == want


def test_a_shared_heart_test_still_checks_each_pairs_left_cocone(monkeypatch):
    eng = PairEngine(NakayamaBackend(3, 4))
    b = eng.backend

    def key(pair, x):
        # the stored key of the span test that h_vanishes(x, pair) reads
        v1 = pair.v.shifted(1)
        right = eng.decomposition(pair.u, x, pair.u, v1)
        left = eng.approximation(v1, x, -1)
        return (reach(pair.v, x, -1), right.g.key(), left.key())

    inputs = [(pair, x) for p in eng.concentric_tcps() for x, pair in _heart_tests(p)]
    (pair1, x), (pair2, _), k = _sharing(inputs, key)
    want = eng.h_vanishes(x, pair1)
    assert eng._stored["_heart_verdict"][k] is want
    # the left approximation's cocone gains a summand outside U
    outside = next(i for i in range(b.K) if i not in pair2.u)
    left, honest = eng.approximation(pair2.v.shifted(1), x, -1), b.cone_obj

    def cone_obj(f):
        got = honest(f)
        return got.plus(b.shift_obj(Obj.of(outside), 1)) if f == left else got

    monkeypatch.setattr(b, "cone_obj", cone_obj)
    with pytest.raises(InternalCheckError, match="left approximation .* end outside"):
        eng.h_vanishes(x, pair2)
    assert eng._stored["_heart_verdict"][k] is want
    assert (x, pair2.key()) not in eng._stored["h_vanishes"]


@pytest.mark.parametrize(
    "spec, want, keyed_by_reach",
    [("nakayama:m=3,n=4", (306, 876, 114, 462), (387, 876, 189, 462)),
     ("nakayama:m=5,n=3", (870, 6620, 120, 2360), (1090, 6620, 200, 2360))],
)
def test_conditions_suite_shares_its_answers(
    monkeypatch, capsys, spec, want, keyed_by_reach
):
    """Shared comparison entries and ``mu_map`` calls, shared heart entries
    and ``h_vanishes`` answers, over one ``verify --suite conditions``.
    ``keyed_by_reach`` are the counts under the old keys (``helpers``),
    which the argument keys may only lower."""
    engines, calls = [], []
    init, mu_map = PairEngine.__init__, ZIQuotient.mu_map

    def capture(self, *a, **k):
        init(self, *a, **k)
        engines.append(self)

    def counted(self, x):
        calls.append(x)
        return mu_map(self, x)

    monkeypatch.setattr(PairEngine, "__init__", capture)
    monkeypatch.setattr(ZIQuotient, "mu_map", counted)
    assert cli.main(["verify", "--suite", "conditions", "--backend", spec]) == 0
    capsys.readouterr()
    [eng] = engines
    stored = eng._stored
    got = (len(stored["_comparison"]), len(calls),
           len(stored["_heart_verdict"]), len(stored["h_vanishes"]))
    assert got == want
    assert all(g <= k for g, k in zip(got, keyed_by_reach))


# ---------------------------------------------------------------- approximation tops


@pytest.mark.parametrize(
    "mn, sample", [((2, 4), None), ((3, 4), None), ((4, 5), 100)],
    ids=["2-4", "3-4", "4-5-sample"],
)
def test_stored_tops_match_the_per_class_route(monkeypatch, mn, sample):
    """Every top an approximation reads, by every closed first class U and
    its V[1] (a seeded sample of the classes where ``sample`` is set), for
    both steps, against the tops built from the whole class; classes with
    the same members through which a map factors read one stored tuple."""
    b = NakayamaBackend(*mn)
    eng = PairEngine(b)
    classes = [
        Subcat(b, bits)
        for bits in closed_sets(b.K, lambda s: left_perp(right_perp(Subcat(b, s))).bits)
    ]
    if sample:
        classes = random.Random(sample).sample(classes, sample)
    out, into = b.hom_masks()
    honest, read = eng._tops, []

    def tops(*key):
        got = honest(*key)
        read.append((key, got))
        return got

    monkeypatch.setattr(eng, "_tops", tops)
    # the body of approximation, so that every class reads its own tops
    build = PairEngine._approximation.__wrapped__
    first: dict = {}
    shared = 0
    for u in classes:
        for cls in (u, right_perp(u).shifted(1)):
            for j in range(b.K):
                for step, near in ((1, into), (-1, out)):
                    read.clear()
                    build(eng, reach(cls, Obj.of(j), step), Obj.of(j), step)
                    assert [key[0] for key, _ in read] == list(iter_bits(cls.bits & near[j]))
                    for key, got in read:
                        assert list(got) == per_class_tops(eng, cls, key[0], j, step)
                        owner, kept = first.setdefault(key, (cls.bits, got))
                        assert got is kept
                        shared += owner != cls.bits
    assert shared


def test_counts_suite_stores_tops_once_per_their_inputs(monkeypatch, capsys):
    """Stored tops and approximations after one ``verify --suite counts``
    on nakayama:m=4,n=5.  With tops computed per class, and coverage read
    off a cone for the members of either side too, that run computed tops
    1,056 times and kept 432 approximations."""
    engines = []
    init = PairEngine.__init__

    def capture(self, *a, **k):
        init(self, *a, **k)
        engines.append(self)

    monkeypatch.setattr(PairEngine, "__init__", capture)
    assert cli.main(["verify", "--suite", "counts", "--backend", "nakayama:m=4,n=5"]) == 0
    capsys.readouterr()
    [eng] = engines
    stored = eng._stored
    assert (len(stored["_tops"]), len(stored["_approximation"])) == (200, 266)
