"""Subcategory bitsets, perpendiculars, and the star-product engines.

The peel engine and the literal triangle enumerator are independent
search strategies for the same membership question, so their answers are
compared on cases where the stripped side is known to be closed under
extensions, which is what the peel engine's yes side requires.
"""

import random

import pytest

from cotor.core import BudgetExceeded, InputError, Obj
from cotor.nakayama import NakayamaBackend
from cotor.pairs import PairEngine
from cotor.polygon import PolygonBackend, enumerate_ptolemy, enumerate_rigid
from cotor.subcats import (
    StarEngine,
    Subcat,
    enumerate_subcats,
    left_perp,
    right_perp,
)
from helpers import ext_closure, first_witness, literal_contains, witnesses


@pytest.fixture(scope="module")
def b22():
    return NakayamaBackend(2, 2)


@pytest.fixture(scope="module")
def b14():
    return NakayamaBackend(1, 4)


@pytest.fixture(scope="module")
def b23():
    return NakayamaBackend(2, 3)


# ---------------------------------------------------------------- bitsets


def test_subcat_construction_and_validation(b22):
    assert Subcat.empty(b22).is_empty
    assert len(Subcat.everything(b22)) == b22.K
    assert Subcat.of(b22, [1, 0, 1]).ids() == [0, 1]
    with pytest.raises(InputError):
        Subcat(b22, 1 << b22.K)
    with pytest.raises(InputError):
        Subcat.of(b22, [7])
    with pytest.raises(InputError):
        Subcat.from_labels(b22, ["nope"])


def test_subcat_set_algebra(b14):
    a = Subcat.of(b14, [0, 1])
    b = Subcat.of(b14, [1, 2])
    assert a.union(b).ids() == [0, 1, 2]
    assert a.intersect(b).ids() == [1]
    assert a.minus(b).ids() == [0]
    assert a.intersect(b).issubset(a)
    assert not a.issubset(b)
    assert 1 in a and 2 not in a
    assert a.labels() == ["M(0,1)", "M(0,2)"]
    assert a.contains_obj(Obj.of(0, 1, 1))
    assert not a.contains_obj(Obj.of(0, 2))


def test_subcat_backends_do_not_mix(b22, b14):
    with pytest.raises(InputError):
        Subcat.empty(b22).union(Subcat.empty(b14))


def test_subcat_shift_round_trip(b23):
    s = Subcat.of(b23, [0, 3])
    assert s.shifted(1).shifted(-1) == s
    assert s.shifted(0) == s
    # Shifting the full set permutes it onto itself.
    assert Subcat.everything(b23).shifted(1) == Subcat.everything(b23)


# ---------------------------------------------------------------- perpendiculars


def test_perps_encode_degree_one_vanishing(b23):
    # Membership in either perp is the same Ext vanishing statement,
    # read through the two sides of the shift invariance of Hom.
    for bits in range(1 << b23.K):
        x = Subcat(b23, bits)
        rp = right_perp(x)
        for c in range(b23.K):
            want = all(
                b23.hom_dim_pair(i, b23.shift_id(c, 1)) == 0 for i in x
            )
            assert (c in rp) == want
        lp = left_perp(x)
        for c in range(b23.K):
            want = all(
                b23.hom_dim_pair(c, b23.shift_id(i, 1)) == 0 for i in x
            )
            assert (c in lp) == want


def test_perp_galois_connection(b23):
    for bits in range(1 << b23.K):
        x = Subcat(b23, bits)
        rp = right_perp(x)
        # x lands back inside the left perp of its right perp.
        assert x.issubset(left_perp(rp))
        # One more round does not move the perp.
        assert right_perp(left_perp(rp)) == rp


def test_perps_are_antitone(b23):
    small = Subcat.of(b23, [0])
    large = Subcat.of(b23, [0, 1, 2])
    assert right_perp(large).issubset(right_perp(small))
    assert left_perp(large).issubset(left_perp(small))
    assert right_perp(Subcat.empty(b23)) == Subcat.everything(b23)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_polygon_perps_are_the_arcs_crossing_no_member(n):
    # Perpendiculars need no exact triangles: on the polygon both are the
    # arcs that cross no member, with crossing read off the endpoints.
    poly = PolygonBackend(n)
    arcs = [poly.arc_of_id(i) for i in range(poly.K)]

    def crossing(a, b):
        return a.i < b.i < a.j < b.j or b.i < a.i < b.j < a.j

    # every class on K <= 9 arcs, 300 random ones on the 14 of the heptagon
    rng = random.Random(n)
    classes = range(1 << poly.K) if poly.K <= 9 else [
        rng.getrandbits(poly.K) & rng.getrandbits(poly.K) for _ in range(300)
    ]
    for bits in classes:
        x = Subcat(poly, bits)
        want = Subcat.of(poly, (
            c for c, a in enumerate(arcs) if not any(crossing(a, arcs[m]) for m in x)
        ))
        assert right_perp(x) == want == left_perp(x), x.labels()


# ---------------------------------------------------------------- star engine


def test_star_trivial_routes(b22):
    eng = StarEngine(b22)
    x, y = Subcat.of(b22, [0]), Subcat.of(b22, [1])
    assert eng.star_contains(x, y, Obj.zero()).is_yes
    assert eng.star_contains(x, Subcat.empty(b22), Obj.of(0)).is_yes
    assert eng.star_contains(x, Subcat.empty(b22), Obj.of(1)).is_no
    assert eng.star_contains(Subcat.empty(b22), y, Obj.of(1)).is_yes
    assert eng.star_contains(Subcat.empty(b22), y, Obj.of(0)).is_no
    # One-sided membership never needs a search.
    assert eng.star_contains(x, y, Obj.of(0, 0)).is_yes


def test_star_covers_the_cotorsion_identity(b22):
    # For the (S0, S0) pair the whole category is S0 * S0[1].
    eng = StarEngine(b22)
    s0 = Subcat.from_labels(b22, ["M(0,1)"])
    got, complete = eng.star_indecs(s0, s0.shifted(1))
    assert complete
    assert got == Subcat.everything(b22)


def test_peel_and_literal_engines_agree(b14, b23):
    # Two definite answers must coincide; an inconclusive verdict on
    # either side carries no information and is skipped, though enough
    # cases must be decided by both for the comparison to mean anything.
    for b, floor in ((b14, 24), (b23, 90)):
        # Narrow cap: literal exhaustion stays cheap and still definite.
        eng = StarEngine(b, cap=2, budget=20_000)
        singles = [Subcat.of(b, [i]) for i in range(b.K)]
        ys = {right_perp(s) for s in singles}
        ys.add(Subcat.everything(b))
        objs = [Obj.of(i) for i in range(b.K)] + [Obj.of(0, b.K - 1)]
        both_definite = 0
        for x in singles:
            for y in ys:
                for c in objs:
                    via_peel = eng.star_contains(x, y, c)
                    via_literal = literal_contains(eng, x, y, c)
                    if via_peel.is_inconclusive or via_literal.is_inconclusive:
                        continue
                    both_definite += 1
                    assert via_peel.state == via_literal.state, (
                        x.labels(), y.labels(), c,
                        via_peel.state, via_literal.state,
                    )
        assert both_definite >= floor


# Every Nakayama backend with at most 9 indecomposables (K = m(n-1)).
UP_TO_NINE = [(m, n) for n in range(2, 11) for m in range(1, 10) if m * (n - 1) <= 9]


def extension_closed_classes(b):
    """The sides of every cotorsion pair and their shifts by one either
    way; each is closed under extensions."""
    found = set()
    for cp in PairEngine(b).enumerate_cotorsion().pairs:
        for side in (cp.u, cp.v):
            found.update(side.shifted(k).bits for k in (-1, 0, 1))
    return [Subcat(b, bits) for bits in sorted(found)]


# The literal enumerator's cost grows steeply with the cap: cap 1 covers
# every backend in about ten seconds, cap 2 the small ones.
@pytest.mark.parametrize(
    "mn,cap",
    [(mn, 1) for mn in UP_TO_NINE]
    + [(mn, 2) for mn in UP_TO_NINE if mn[0] * (mn[1] - 1) <= 5],
    ids=lambda v: str(v),
)
def test_the_peel_matches_the_literal_enumerator(mn, cap):
    # Y runs over the extension-closed classes, X over the single
    # indecomposables and the whole category, and C over the
    # indecomposables; every verdict must be definite and agree.
    b = NakayamaBackend(*mn)
    eng = StarEngine(b, cap=cap)
    others = [Subcat.of(b, [i]) for i in range(b.K)] + [Subcat.everything(b)]
    for y in extension_closed_classes(b):
        for x in others:
            for i in range(b.K):
                c = Obj.of(i)
                peel = eng.star_contains(x, y, c)
                literal = literal_contains(eng, x, y, c)
                assert not literal.is_inconclusive
                assert peel.state == literal.state, (
                    x.labels(), y.labels(), b.label_of(i)
                )


def test_star_budget_degrades_to_inconclusive(b23):
    eng = StarEngine(b23, budget=1)
    x = Subcat.of(b23, [0])
    y = right_perp(x)
    v = eng.star_contains(x, y, Obj.of(1, 2))
    assert v.is_inconclusive and v.reason == "peel budget exhausted"
    _, complete = eng.star_indecs(x, y)
    assert isinstance(complete, bool)
    v = eng._literal_verdict(x, y, Obj.of(2, 3))
    if not v.is_yes:  # a first-shot witness can legitimately beat the budget
        assert v.is_inconclusive


def test_a_repeated_shift_builds_nothing_new(monkeypatch):
    b = NakayamaBackend(2, 3)
    x = Subcat.of(b, [0, 2])
    first, back = x.shifted(1), x.shifted(-1)
    assert first == Subcat.of(b, [b.shift_id(0, 1), b.shift_id(2, 1)])

    def shifted_again(*a):
        raise AssertionError("a stored shift was built again")

    monkeypatch.setattr(b, "shift_id", shifted_again)
    assert Subcat.of(b, [0, 2]).shifted(1) is first
    assert x.shifted(-1) is back


def test_find_witness_returns_checked_triangles(b22):
    eng = StarEngine(b22)
    x = Subcat.of(b22, [0])
    y = Subcat.of(b22, [1])
    # S0 + S1 decomposes as the split extension of these two classes.
    t = next(witnesses(eng, x, y, Obj.of(0, 1), eng.cap), None)
    assert t is not None
    assert t.b == Obj.of(0, 1)  # searched object sits in the middle
    assert x.contains_obj(t.a)
    assert y.contains_obj(t.c)
    assert b22.compose(t.f, t.g).is_zero
    assert b22.compose(t.g, t.h).is_zero
    # No witness exists when the second class cannot reach the object.
    assert next(witnesses(eng, x, x, Obj.of(1), eng.cap), None) is None


def test_witnesses_come_from_the_least_productive_cap_only():
    b = NakayamaBackend(2, 2)
    eng = StarEngine(b)
    s0 = Subcat.of(b, [0])
    y = right_perp(s0).shifted(1)
    for c in (Obj.of(0), Obj.of(1)):
        per_cap = [
            list(b.triangle_enumerate(s0.ids(), y.ids(), c, cap=cap))
            for cap in (2, 3)
        ]
        # Cap 3 has more witnesses, and the search stops before them.
        assert 0 < len(per_cap[0]) < len(per_cap[1])
        assert list(witnesses(eng, s0, y, c, 3)) == per_cap[0]


def test_witnesses_escalate_past_empty_caps(monkeypatch):
    b = NakayamaBackend(2, 2)
    eng = StarEngine(b)
    honest = b.triangle_enumerate
    asked = []

    def from_cap_three(xs, ys, c, cap=4, budget=None):
        asked.append(cap)
        if cap >= 3:
            yield from honest(xs, ys, c, cap=cap, budget=budget)

    monkeypatch.setattr(b, "triangle_enumerate", from_cap_three)
    s0 = Subcat.of(b, [0])
    y = right_perp(s0).shifted(1)
    got = list(witnesses(eng, s0, y, Obj.of(0), 4))
    assert got == list(honest(s0.ids(), y.ids(), Obj.of(0), cap=3))
    assert asked == [2, 3]
    asked.clear()
    assert list(witnesses(eng, s0, y, Obj.of(0), 2)) == []
    assert asked == [2]


def test_first_witness_is_the_first_of_the_search(monkeypatch):
    b = NakayamaBackend(2, 3)
    s0 = Subcat.of(b, [0])
    y = right_perp(s0).shifted(1)
    cases = [(s0, y, Obj.of(i), top) for i in range(b.K) for top in (2, 4)]
    cases += [(s0, s0, Obj.of(1), 4), (s0, y, Obj.of(0, 1), 4)]
    found = 0
    for x, yy, c, top in cases:
        want = next(witnesses(StarEngine(b), x, yy, c, top), None)
        eng = StarEngine(b)
        got = first_witness(eng, x, yy, c, top)
        if want is None:
            assert got is None
        else:
            found += 1
            assert got == want
    assert 0 < found < len(cases)


def test_first_witness_stores_answers_but_not_budget_failures(monkeypatch):
    b = NakayamaBackend(2, 3)
    s0 = Subcat.of(b, [0])
    y = right_perp(s0).shifted(1)
    eng = StarEngine(b)
    got = first_witness(eng, s0, y, Obj.of(1), 4)
    none = first_witness(eng, s0, s0, Obj.of(1), 4)
    assert got is not None and none is None

    def searched(*a, **k):
        raise AssertionError("a stored answer was searched again")

    monkeypatch.setattr(b, "triangle_enumerate", searched)
    assert first_witness(eng, s0, y, Obj.of(1), 4) is got
    assert first_witness(eng, s0, s0, Obj.of(1), 4) is None
    monkeypatch.undo()
    broke = StarEngine(b, budget=0)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            first_witness(broke, s0, y, Obj.of(1), 4)


# ---------------------------------------------------------------- closure


def test_pair_extensions_pinned():
    b = NakayamaBackend(2, 2)
    s0, s1 = b.id_of("M(0,1)"), b.id_of("M(1,1)")
    eng = StarEngine(b)
    mids = eng.pair_extensions(s0, s1)
    assert mids[0] == Obj.of(s0, s1)  # zero connecting map comes first
    assert Obj.zero() in mids  # the isomorphism connecting map
    assert len(mids) == 2
    # No degree-one incidence, so only the split extension exists.
    assert eng.pair_extensions(s0, s0) == [Obj.of(s0, s0)]


def test_pairwise_closure_predicate():
    b13 = NakayamaBackend(1, 3)
    eng = StarEngine(b13)
    m1 = Subcat.from_labels(b13, ["M(0,1)"])
    assert not eng.is_ext_closed_pairwise(m1)  # self extension escapes
    assert eng.is_ext_closed_pairwise(Subcat.everything(b13))
    assert eng.is_ext_closed_pairwise(Subcat.empty(b13))
    b22 = NakayamaBackend(2, 2)
    assert StarEngine(b22).is_ext_closed_pairwise(
        Subcat.from_labels(b22, ["M(0,1)"])
    )


def test_ext_closure_fixed_points(b22):
    eng = StarEngine(b22)
    s0 = Subcat.of(b22, [0])
    closed, complete = ext_closure(eng, s0)
    assert complete and closed == s0

    b13 = NakayamaBackend(1, 3)
    eng13 = StarEngine(b13)
    grown, complete = ext_closure(eng13, Subcat.of(b13, [0]))
    assert complete and grown == Subcat.everything(b13)


# ---------------------------------------------------------------- enumeration


def test_enumerate_subcats_is_exhaustive(b22):
    all_sets = enumerate_subcats(b22, lambda s: True)
    assert len(all_sets) == 1 << b22.K
    assert len(enumerate_subcats(b22, lambda s: len(s) == 1)) == b22.K


def test_enumerate_subcats_size_guard():
    wide = PolygonBackend(10)  # 35 arcs, above the enumeration limit
    sweep = lambda b: enumerate_subcats(b, lambda s: True)  # noqa: E731
    for walk in (sweep, enumerate_rigid, enumerate_ptolemy):
        with pytest.raises(InputError, match="at most 27 indecomposables"):
            walk(wide)
