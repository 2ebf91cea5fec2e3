"""Pair engine: detection, enumeration, twins, conditions, Hovey class.

The count oracle is a free double loop over all (U, V) subset pairs
checking the two defining properties directly: degree-one vanishing
from the Hom tables and per-indecomposable coverage by literal triangle
enumeration.  It shares no pruning or perpendicular logic with the
engine's sweep.
"""

import pytest

from cotor.core import BudgetExceeded, InputError, InternalCheckError, Obj
from cotor.nakayama import NakayamaBackend
from cotor.pairs import (
    CotorsionPair,
    PairEngine,
    TwinCotorsionPair,
    _approx_key,
    trivial_hovey_tcp,
    trivial_pairs,
)
from cotor.quotient import ZIQuotient
from cotor.subcats import StarEngine, Subcat, left_perp, right_perp

INSTANCES = [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]

CP_COUNTS = {(1, 3): 2, (1, 4): 2, (2, 2): 4, (2, 3): 10, (3, 2): 8}
TCP_COUNTS = {(1, 3): 3, (1, 4): 3, (2, 2): 9, (2, 3): 35, (3, 2): 27}
CONCENTRIC_COUNTS = {(1, 3): 3, (1, 4): 3, (2, 2): 5, (2, 3): 15, (3, 2): 12}


@pytest.fixture(scope="module")
def engines():
    return {mn: PairEngine(NakayamaBackend(*mn)) for mn in INSTANCES}


# ---------------------------------------------------------------- oracle


def oracle_ext_vanishes(b, u_ids, v_ids):
    return all(
        b.hom_dim_pair(i, b.shift_id(j, 1)) == 0
        for i in u_ids
        for j in v_ids
    )


def oracle_covers(b, u_ids, v_ids, cap=3):
    v1 = [b.shift_id(j, 1) for j in v_ids]
    for c in range(b.K):
        hit = False
        for _ in b.triangle_enumerate(u_ids, v1, Obj.of(c), cap=cap):
            hit = True
            break
        if not hit:
            return False
    return True


def oracle_cotorsion_pairs(b):
    k = b.K
    found = []
    for ub in range(1 << k):
        u_ids = [i for i in range(k) if (ub >> i) & 1]
        for vb in range(1 << k):
            v_ids = [i for i in range(k) if (vb >> i) & 1]
            if not oracle_ext_vanishes(b, u_ids, v_ids):
                continue
            if oracle_covers(b, u_ids, v_ids):
                found.append((ub, vb))
    return found


# ---------------------------------------------------------------- detection


def test_enumeration_matches_free_double_loop(engines):
    for mn in ((1, 3), (2, 2), (1, 4), (3, 2)):
        eng = engines[mn]
        want = set(oracle_cotorsion_pairs(eng.backend))
        assert {p.key() for p in eng.enumerate_cotorsion().pairs} == want


def test_cotorsion_counts_frozen(engines):
    for mn, eng in engines.items():
        assert len(eng.enumerate_cotorsion().pairs) == CP_COUNTS[mn], mn


def test_two_by_two_has_two_cluster_tilting_pairs(engines):
    enum = engines[(2, 2)].enumerate_cotorsion()
    ct = [p for p in enum.pairs if p.flags()["cluster_tilting"]]
    assert len(ct) == 2
    assert {frozenset(p.u.labels()) for p in ct} == {
        frozenset({"M(0,1)"}),
        frozenset({"M(1,1)"}),
    }


def test_enumerated_pairs_satisfy_both_perp_identities(engines):
    for eng in engines.values():
        for p in eng.enumerate_cotorsion().pairs:
            assert p.v == right_perp(p.u)
            assert p.u == left_perp(p.v)
            assert eng.ext1_witness(p.u, p.v) is None


def test_rejections_carry_reasons(engines):
    eng = engines[(2, 2)]
    b = eng.backend
    v = eng.is_cotorsion_pair(Subcat.of(b, [0]), Subcat.of(b, [1]))
    assert v.is_no and v.reason


def test_trivial_pairs_always_verify(engines):
    for eng in engines.values():
        all_cp, zero_cp = trivial_pairs(eng)
        assert all_cp.u == Subcat.everything(eng.backend)
        assert zero_cp.u.is_empty
        assert all_cp.flags()["t_structure"]
        assert all_cp.flags()["co_t_structure"]
        assert not all_cp.flags()["cluster_tilting"]


def test_pair_requires_one_backend():
    b1, b2 = NakayamaBackend(1, 3), NakayamaBackend(2, 2)
    with pytest.raises(InputError):
        CotorsionPair(Subcat.empty(b1), Subcat.empty(b2))


# ---------------------------------------------------------------- twins


def test_twin_counts_frozen(engines):
    for mn, eng in engines.items():
        tcps = eng.enumerate_tcp()
        assert len(tcps) == TCP_COUNTS[mn], mn
        conc = [p for p in tcps if eng.is_concentric(p)]
        assert len(conc) == CONCENTRIC_COUNTS[mn], mn


def test_twin_enumeration_matches_direct_orthogonality(engines):
    # Independent pass: a twin is an ordered pair of enumerated pairs
    # whose first inner class has no degree-one maps to the outer
    # coclass, read straight off the Hom tables.
    for mn in ((1, 3), (2, 2), (3, 2)):
        eng = engines[mn]
        b = eng.backend
        cps = eng.enumerate_cotorsion().pairs
        want = set()
        for inner in cps:
            for outer in cps:
                if oracle_ext_vanishes(b, inner.u.ids(), outer.v.ids()):
                    want.add(inner.key() + outer.key())
        tcps = eng.enumerate_tcp()
        assert {p.key() for p in tcps} == want


def test_is_tcp_rejects_unverified_constituents(engines):
    eng = engines[(2, 2)]
    b = eng.backend
    fake = CotorsionPair(Subcat.of(b, [0]), Subcat.of(b, [1]))
    good = trivial_pairs(eng)[0]
    with pytest.raises(InputError):
        eng.is_tcp(fake, good)
    with pytest.raises(InputError):
        eng.make_tcp(good, fake)


def test_twin_flags_on_the_doubled_cluster_pair(engines):
    eng = engines[(2, 2)]
    b = eng.backend
    s0 = Subcat.from_labels(b, ["M(0,1)"])
    cp = CotorsionPair(s0, s0)
    assert eng.is_cotorsion_pair(cp.u, cp.v).is_yes
    doubled = eng.make_tcp(cp, cp)
    f = doubled.flags()
    assert f["degenerate"] and f["rigid_pair"] and f["zz_setting"]
    assert f["cluster_tilting"]
    assert not f["t_structure"]


def test_trivial_hovey_twin_structure(engines):
    for eng in engines.values():
        p = trivial_hovey_tcp(eng)
        assert p.s.is_empty and p.v.is_empty
        assert len(p.t) == eng.backend.K
        assert eng.is_concentric(p)
        f = p.flags()
        assert f["rigid_pair"] and not f["degenerate"]


# ---------------------------------------------------------------- derived sets


def test_derived_sets_of_the_trivial_hovey_pair(engines):
    for eng in engines.values():
        p = trivial_hovey_tcp(eng)
        d = eng.derived_sets(p)
        assert d.i.is_empty
        assert d.z == Subcat.everything(eng.backend)
        assert d.n_i.is_empty and d.n_f.is_empty


def test_derived_sets_of_doubled_pairs_cover_everything(engines):
    eng = engines[(2, 2)]
    for cp in eng.enumerate_cotorsion().pairs:
        p = eng.make_tcp(cp, cp)
        d = eng.derived_sets(p)
        assert d.n_i == Subcat.everything(eng.backend)
        assert d.n_f == Subcat.everything(eng.backend)
        assert d.i == cp.u.intersect(cp.v)


def test_derived_sets_need_concentric_input(engines):
    eng = engines[(2, 2)]
    tcps = eng.enumerate_tcp()
    skew = [p for p in tcps if not eng.is_concentric(p)]
    assert skew
    with pytest.raises(InputError):
        eng.derived_sets(skew[0])


def test_condition_I_refuses_a_pair_that_is_not_concentric(engines, monkeypatch):
    # The subquotient is built first, and refuses the pair before the
    # star T * U is searched.
    eng = engines[(2, 2)]
    skew = next(p for p in eng.enumerate_tcp() if not eng.is_concentric(p))
    monkeypatch.setattr(
        StarEngine, "star_indecs", lambda *a, **k: pytest.fail("the peel ran")
    )
    with pytest.raises(InputError, match="concentric"):
        eng.check_condition_I(skew)


def test_orthogonal_stars_refuse_classes_with_degree_one_maps(engines):
    # Membership by one approximation needs Hom(X, Y) = 0, so the
    # extension classes of an unverified twin pair with Ext^1(S, V) != 0,
    # and isomorphisms modulo a core with Ext^1(core, core) != 0, refuse.
    eng = engines[(2, 2)]
    b = eng.backend
    every = Subcat.everything(b)
    whole = CotorsionPair(every, every)
    p = TwinCotorsionPair(whole, whole)
    assert eng.is_concentric(p)
    with pytest.raises(InputError, match="Ext"):
        eng.derived_sets(p)
    with pytest.raises(InputError, match="Ext"):
        eng.iso_mod(every, b.identity(Obj.of(0)))


# ---------------------------------------------------------------- vanishing


def test_h_vanishes_on_the_trivial_pairs(engines):
    eng = engines[(2, 2)]
    all_cp, zero_cp = trivial_pairs(eng)
    for i in range(eng.backend.K):
        x = Obj.of(i)
        assert eng.h_vanishes(x, all_cp).is_yes
        assert eng.h_vanishes(x, zero_cp).is_yes


def test_h_vanishes_reads_one_right_and_one_left_approximation(monkeypatch):
    # For the (zero, everything) pair the right 0-approximation of M(0,1)
    # is 0 -> x and the left approximation by everything is an isomorphism.
    eng = PairEngine(NakayamaBackend(2, 2))
    b = eng.backend
    _, zero_cp = trivial_pairs(eng)
    x = Obj.of(0)
    v1 = zero_cp.v.shifted(1)
    honest_approx, honest_span = eng.approximation, eng.factoring_subspace
    asked, spans = [], []
    # the radical of each End(u) reads approximations of its own (through
    # iso_mod's cone route), so it is built before the recording starts
    for u in range(b.K):
        eng._end_radical(u)

    def approx(cls, c, step):
        asked.append((cls, c, step))
        return honest_approx(cls, c, step)

    def span(*a):
        spans.append(a)
        return honest_span(*a)

    def searched(*a, **k):
        raise AssertionError("heart vanishing ran the triangle search")

    monkeypatch.setattr(eng, "approximation", approx)
    monkeypatch.setattr(eng, "factoring_subspace", span)
    monkeypatch.setattr(b, "triangle_enumerate", searched)
    got = eng.h_vanishes(x, zero_cp)
    assert got.is_yes and got.reason is None
    # the left one twice: for its map and for in_star's check of its
    # cocone, which an unpatched engine answers from its store
    assert asked == [(zero_cp.u, x, 1), (v1, x, -1), (v1, x, -1)]
    # one span through V per triangle; the radical's isomorphism tests
    # modulo the zero class read theirs before the recording
    assert [a for a in spans if a[1] == zero_cp.v] == [(x, zero_cp.v, x)] * 2
    right, left = (honest_approx(*a) for a in asked[:2])
    assert (right.src, b.cone_obj(right)) == (Obj.zero(), x)
    assert b.cone_obj(left) == Obj.zero() and left.dst == x


def test_h_vanishes_raises_when_its_two_triangles_disagree(monkeypatch):
    eng = PairEngine(NakayamaBackend(2, 2))
    b = eng.backend
    s0 = Subcat.of(b, [0])
    pair = CotorsionPair(s0, s0)
    x = Obj.of(1)
    assert eng.is_cotorsion_pair(pair.u, pair.v).is_yes
    want = eng.h_vanishes(x, pair)
    assert not want.is_inconclusive
    # The verdict needs no search and no budget.
    starved = PairEngine(b)
    starved.star.budget = 0

    def searched(*a, **k):
        raise BudgetExceeded("triangle enumeration budget exhausted")
        yield

    monkeypatch.setattr(b, "triangle_enumerate", searched)
    assert starved.h_vanishes(x, pair) == want
    # A span that holds every map on its second call makes the left
    # triangle read yes where the right one read no.
    assert want.is_no
    broke = PairEngine(b)
    honest, calls = broke.factoring_subspace, []

    def flaky(src, mids, dst):
        calls.append(mids)
        if mids == pair.v and calls.count(mids) == 2:
            return [1 << k for k in range(b.hom_dim(src, dst))]
        return honest(src, mids, dst)

    monkeypatch.setattr(broke, "factoring_subspace", flaky)
    with pytest.raises(InternalCheckError, match="depends on the witness"):
        broke.h_vanishes(x, pair)


def test_condition_III_compares_two_triangles_on_every_heart_test(monkeypatch):
    # With S = T = U = V = add M(0,1) the heart test reads a right and a
    # left approximation triangle, and its verdict carries no note.  The
    # inner and outer pairs agree, so the second test is the stored first.
    b = NakayamaBackend(2, 2)
    eng = PairEngine(b)
    s0 = CotorsionPair(Subcat.of(b, [0]), Subcat.of(b, [0]))
    p = eng.make_tcp(s0, s0)
    honest, steps = eng.approximation, []
    # the radicals are built before the recording, as their isomorphism
    # tests read approximations of their own
    for u in range(b.K):
        eng._end_radical(u)

    def approx(cls, c, step):
        steps.append((c, step))
        return honest(cls, c, step)

    monkeypatch.setattr(eng, "approximation", approx)
    got = eng.check_condition_III(p)
    assert got.is_yes and got.reason is None
    # the left approximation is read again by in_star's cocone check
    assert steps == [(Obj.of(0), 1), (Obj.of(0), -1), (Obj.of(0), -1)]


def _record_cone_work(monkeypatch, b, log):
    kernels = ("_cone_counts", "_cone_module")
    for name in ("triangle_enumerate", "cone", "cone_obj", *kernels):
        honest = getattr(b, name)

        def wrapped(*a, _honest=honest, _name=name, **k):
            log.append((_name, a))
            return _honest(*a, **k)

        monkeypatch.setattr(b, name, wrapped)


def test_repeated_searches_are_answered_from_the_stored_results(monkeypatch):
    b = NakayamaBackend(3, 2)
    eng = PairEngine(b)
    log: list = []
    s0 = Subcat.of(b, [0])
    pair = CotorsionPair(s0, right_perp(s0))
    assert eng.is_cotorsion_pair(pair.u, pair.v).is_yes
    want = eng.h_vanishes(Obj.of(1), pair)
    _record_cone_work(monkeypatch, b, log)
    assert eng.h_vanishes(Obj.of(1), pair) is want
    assert log == []

    # Two concentric twin pairs on the outer pair (add{M(0,1), M(1,1)},
    # add M(0,1)); the second one's outer decompositions were all found
    # for the first.
    tcps = eng.enumerate_tcp()
    outer = [
        p for p in tcps
        if eng.is_concentric(p) and p.u.labels() == ["M(0,1)", "M(1,1)"]
        and p.v.labels() == ["M(0,1)"]
    ]
    assert [p.s.labels() for p in outer] == [["M(0,1)"], ["M(0,1)", "M(1,1)"]]
    first, second = outer
    eng.check_condition_I(first)
    built = set(eng._stored["approximation"])

    def by_u(keys):
        # a triangle is stored per the members of its class that reach c
        return {k for k in keys if k == _approx_key(first.u, *k[1:])}

    log.clear()
    assert eng.check_condition_I(second).is_yes
    assert not [a for name, a in log if name in ("_cone_counts", "_cone_module")]
    assert not [a for name, a in log if name == "triangle_enumerate"]
    added = set(eng._stored["approximation"]) - built
    assert by_u(built) and not by_u(added)


def test_factoring_subspace_pinned():
    eng = PairEngine(NakayamaBackend(1, 3))
    b = eng.backend
    m1, m2 = Obj.of(b.id_of("M(0,1)")), Obj.of(b.id_of("M(0,2)"))
    # Through the short module every composite dies stably.
    assert eng.factoring_subspace(m2, Subcat.of(b, [b.id_of("M(0,1)")]), m2) == []
    # Through itself the identity survives.
    through_self = eng.factoring_subspace(
        m2, Subcat.of(b, [b.id_of("M(0,2)")]), m2
    )
    assert b.identity(m2).coords in through_self


# ---------------------------------------------------------------- conditions


def test_conditions_on_two_by_two_concentric_pairs(engines):
    eng = engines[(2, 2)]
    conc = [p for p in eng.enumerate_tcp() if eng.is_concentric(p)]
    assert len(conc) == 5
    for p in conc:
        v2 = eng.check_condition_II(p)
        v3 = eng.check_condition_III(p)
        v1 = eng.check_condition_I(p)
        # All five pass everything on this backend; freezing that pins
        # the engine against regressions in any of the three checks.
        assert v2.is_yes and v3.is_yes and v1.is_yes, p.as_labels()


def test_conditions_split_on_a_three_block_pair(engines):
    # Concentric pair whose quotient keeps its right adjoint but loses
    # the left one; pins the checks in a mixed regime.
    eng = engines[(3, 2)]
    b = eng.backend
    p = eng.make_tcp(
        CotorsionPair(
            Subcat.from_labels(b, ["M(0,1)"]),
            Subcat.from_labels(b, ["M(0,1)", "M(2,1)"]),
        ),
        CotorsionPair(
            Subcat.from_labels(b, ["M(0,1)", "M(1,1)"]),
            Subcat.from_labels(b, ["M(0,1)"]),
        ),
    )
    assert eng.is_concentric(p)
    assert eng.check_condition_I(p).is_yes
    assert eng.check_condition_II(p).is_no
    assert eng.check_condition_III(p).is_no


def test_condition_I_tests_no_sum_whose_summand_leaves_its_star():
    # The cause behind ROADMAP item 1: T * U is not closed under direct
    # summands, so its indecomposables, which condition (I) tests, do not
    # reach the sum below, whose comparison map is not invertible.  What
    # (I) should read here stays open, so its verdict is not pinned.
    b = NakayamaBackend(3, 7)
    eng = PairEngine(b)

    def cls(*labels):
        return Subcat.from_labels(b, labels)

    s = cls("M(0,2)")
    t = cls(
        "M(0,1)", "M(0,2)", "M(0,3)", "M(0,4)", "M(0,5)", "M(0,6)", "M(1,1)", "M(2,6)"
    )
    u = cls(
        "M(0,1)", "M(0,2)", "M(0,5)", "M(0,6)", "M(1,1)", "M(1,4)", "M(2,3)", "M(2,6)"
    )
    p = eng.make_tcp(CotorsionPair(s, t), CotorsionPair(u, s))
    assert eng.is_concentric(p)
    assert eng.check_condition_II(p).is_yes
    alone = Obj.of(b.id_of("M(1,5)"))
    summed = alone.plus(Obj.of(b.id_of("M(0,2)")))
    assert eng.star.star_contains(t, u, alone).is_no
    assert eng.star.star_contains(t, u, summed).is_yes
    assert ZIQuotient.for_pair(eng, p).mu_map(summed)[1].is_no


def test_condition_checks_are_cached(engines):
    eng = engines[(2, 2)]
    p = trivial_hovey_tcp(eng)
    assert eng.check_condition_II(p) is eng.check_condition_II(p)
    assert eng.check_condition_I(p) is eng.check_condition_I(p)


# ---------------------------------------------------------------- hovey


def test_hovey_anchors(engines):
    for mn in ((1, 3), (2, 2), (3, 2)):
        eng = engines[mn]
        ok, n = eng.is_hovey(trivial_hovey_tcp(eng))
        assert ok.is_yes and n is not None and n.is_empty
        for cp in eng.enumerate_cotorsion().pairs:
            ok, n = eng.is_hovey(eng.make_tcp(cp, cp))
            assert ok.is_yes
            assert n == Subcat.everything(eng.backend)


def test_hovey_rejects_mismatched_classes(engines):
    # Frozen: exactly these concentric pairs have differing initial
    # and final extension classes; every other instance has none.
    non_hovey = {(1, 3): 0, (1, 4): 0, (2, 2): 0, (2, 3): 4, (3, 2): 3}
    for mn, eng in engines.items():
        conc = [p for p in eng.enumerate_tcp() if eng.is_concentric(p)]
        bad = 0
        for p in conc:
            ok, n = eng.is_hovey(p)
            if ok.is_no:
                bad += 1
                assert n is None
                assert "extension classes differ" in ok.reason
            else:
                assert ok.is_yes and n is not None
        assert bad == non_hovey[mn], mn
