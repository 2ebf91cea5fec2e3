"""Subquotient category: Hom spaces, shifts, triangles, comparison map.

At this scale exactly one concentric twin pair per backend has a
middle class strictly larger than its core, the pair with empty core
and full middle.  Its quotient is the ambient category, so everything
is checkable against raw backend data.  All other concentric pairs
collapse to the zero category, which pins the degenerate paths.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from cotor import cli
from cotor.core import InputError, Mor, Obj, scatter_blocks
from cotor.nakayama import NakayamaBackend
from cotor.pairs import CotorsionPair, PairEngine, trivial_hovey_tcp
from cotor.quotient import ZIQuotient
from cotor.subcats import Subcat
from helpers import searched_classes


@pytest.fixture(scope="module")
def eng13():
    return PairEngine(NakayamaBackend(1, 3))


@pytest.fixture(scope="module")
def eng14():
    return PairEngine(NakayamaBackend(1, 4))


@pytest.fixture(scope="module")
def eng22():
    return PairEngine(NakayamaBackend(2, 2))


@pytest.fixture(scope="module")
def q13(eng13):
    return ZIQuotient.for_pair(eng13, trivial_hovey_tcp(eng13))


@pytest.fixture(scope="module")
def q14(eng14):
    return ZIQuotient.for_pair(eng14, trivial_hovey_tcp(eng14))


@pytest.fixture(scope="module")
def q22(eng22):
    return ZIQuotient.for_pair(eng22, trivial_hovey_tcp(eng22))


@pytest.fixture(scope="module")
def qzero(eng22):
    """Doubled cluster pair: core equals middle, quotient is zero."""
    b = eng22.backend
    s0 = Subcat.from_labels(b, ["M(0,1)"])
    return ZIQuotient.for_pair(eng22, eng22.make_tcp(
        CotorsionPair(s0, s0), CotorsionPair(s0, s0)
    ))


def indecs(q):
    return [Obj.of(i) for i in range(q.backend.K)]


def reduced(q, f):
    """The canonical form of f's class modulo the core."""
    return q.hom_mod_I(f.src, f.dst).reduce(f.coords)


# ---------------------------------------------------------------- hom spaces


def test_empty_core_keeps_ambient_homs(q14):
    b = q14.backend
    for x in indecs(q14):
        for y in indecs(q14):
            space = q14.hom_mod_I(x, y)
            assert space.dim == space.full_dim == b.hom_dim(x, y)
            for f in b.hom_elements(x, y):
                assert (reduced(q14, f) == 0) == f.is_zero


def test_quotient_space_canonical_forms(q14):
    b = q14.backend
    m2 = Obj.of(b.id_of("M(0,2)"))
    space = q14.hom_mod_I(m2, m2)
    assert space.dim == 2
    forms = [space.lift(c) for c in range(1 << space.dim)]
    assert forms[0] == 0
    assert len(set(forms)) == 4
    for c in forms:
        assert space.reduce(c) == c


def test_same_class_tracks_ambient_equality(q14):
    b = q14.backend
    m2 = Obj.of(b.id_of("M(0,2)"))
    f, g = Mor(m2, m2, 1), Mor(m2, m2, 2)
    assert reduced(q14, f) == reduced(q14, f)
    assert reduced(q14, f) != reduced(q14, g)
    assert reduced(q14, f.plus(g)) == reduced(q14, g.plus(f))


def test_hom_needs_middle_class_objects(qzero):
    outside = Obj.of(qzero.backend.id_of("M(1,1)"))
    with pytest.raises(InputError):
        qzero.hom_mod_I(outside, outside)


# ---------------------------------------------------------------- shifts


def test_suspension_matches_shift_when_core_is_empty(q14, q22):
    for q in (q14, q22):
        b = q.backend
        for z in indecs(q):
            up = q.shift(z, 1)
            down = q.shift(z, -1)
            assert q.class_of(up) == q.class_of(b.shift_obj(z, 1))
            assert q.class_of(down) == q.class_of(b.shift_obj(z, -1))


def test_round_trip_is_identity(q14, q22):
    for q in (q14, q22):
        for z in indecs(q):
            assert q.class_of(q.shift(q.shift(z, 1), -1)) == q.class_of(z)
            assert q.class_of(q.shift(q.shift(z, -1), 1)) == q.class_of(z)


def test_adjunction_dimensions(q14):
    for x in indecs(q14):
        for y in indecs(q14):
            left = q14.hom_mod_I(q14.shift(x, 1), y).dim
            right = q14.hom_mod_I(x, q14.shift(y, -1)).dim
            assert left == right


def test_degree_one_dims_match_ambient(q14):
    b = q14.backend
    for x in indecs(q14):
        for y in indecs(q14):
            assert q14.ext1_zi(x, y) == b.hom_dim(x, b.shift_obj(y, 1))


def test_shifts_distribute_over_summands(q14):
    b = q14.backend
    wide = Obj.of(0, 1, 1, 2)
    per_summand = [q14.shift(Obj.of(i), 1) for i in wide.summands]
    merged = Obj.from_iter(
        i for part in per_summand for i in part.summands
    )
    assert q14.class_of(q14.shift(wide, 1)) == q14.class_of(merged)


# ---------------------------------------------------------------- functor


def test_suspension_of_morphisms_matches_shift(q14):
    b = q14.backend
    m2 = Obj.of(b.id_of("M(0,2)"))
    for k in range(b.hom_dim(m2, m2)):
        f = Mor(m2, m2, 1 << k)
        sf = q14.Sigma_mor(f)
        shifted = b.shift_mor(f, 1)
        assert (sf.src, sf.dst) == (shifted.src, shifted.dst)
        assert reduced(q14, sf) == reduced(q14, shifted)


def test_suspension_of_morphisms_is_additive(q14):
    b = q14.backend
    m2 = Obj.of(b.id_of("M(0,2)"))
    f, g = Mor(m2, m2, 1), Mor(m2, m2, 2)
    sf, sg, sfg = q14.Sigma_mor(f), q14.Sigma_mor(g), q14.Sigma_mor(f.plus(g))
    assert reduced(q14, sfg) == reduced(q14, sf.plus(sg))
    assert reduced(q14, q14.Sigma_mor(Mor(m2, m2, 0))) == 0
    assert q14.engine.iso_mod(q14.i_set, q14.Sigma_mor(b.identity(m2)))


def test_triangle_completion_squares_commute(eng13, q13):
    b = eng13.backend
    m1 = Obj.of(b.id_of("M(0,1)"))
    m2 = Obj.of(b.id_of("M(0,2)"))
    incl = Mor(m1, m2, 1)
    t = b.cone(incl)
    m0, m1m, m2m = q13.complete_triangle_map(
        t, t, {0: b.identity(t.a), 1: b.identity(t.b)}
    )
    assert m0.coords == b.identity(t.a).coords
    assert b.compose(m0, t.f).coords == b.compose(t.f, m1m).coords
    assert b.compose(m1m, t.g).coords == b.compose(t.g, m2m).coords
    assert (
        b.compose(m2m, t.h).coords
        == b.compose(t.h, b.shift_mor(m0, 1)).coords
    )


# ---------------------------------------------------------------- triangles


def test_standard_right_triangle_reaches_the_cone(q13):
    b = q13.backend
    m1 = Obj.of(b.id_of("M(0,1)"))
    m2 = Obj.of(b.id_of("M(0,2)"))
    f = Mor(m1, m2, 1)
    third, second = q13.standard_right_triangle(f)
    cobj = b.cone(f).c
    # Empty core: the third vertex is the plain cone up to quotient iso.
    assert q13.class_of(third) == q13.class_of(cobj)
    assert second.src == m2
    assert second.dst == third


def test_standard_right_triangle_of_identity_collapses(q13):
    b = q13.backend
    m2 = Obj.of(b.id_of("M(0,2)"))
    third, _ = q13.standard_right_triangle(b.identity(m2))
    assert q13.class_of(third) == ()


def test_standard_left_triangle_reaches_the_shifted_cocone(q13):
    b = q13.backend
    m1 = Obj.of(b.id_of("M(0,1)"))
    m2 = Obj.of(b.id_of("M(0,2)"))
    f = Mor(m1, m2, 1)
    first = q13.standard_left_triangle(f)
    cobj = b.cone(f).c
    assert q13.class_of(first) == q13.class_of(b.shift_obj(cobj, -1))


@pytest.mark.parametrize(
    "mn", [(2, 3), (3, 3), (1, 4)], ids=lambda mn: "m=%d,n=%d" % mn
)
def test_standard_triangles_match_hand_built_oracles(mn):
    """Over every concentric pair and every map between indecomposables
    of the quotient, the right third read from the cone object equals
    the full triangle's, and the left triangle's first object is the
    coadjoint image of the shifted cone of [f, pi], built here by hand
    from the full cone."""
    eng = PairEngine(NakayamaBackend(*mn))
    b = eng.backend
    tcps = eng.enumerate_tcp()
    maps = 0
    for p in tcps:
        if not eng.is_concentric(p):
            continue
        q = ZIQuotient.for_pair(eng, p)
        reps = [Obj.of(r) for r in q.zi_objects()]
        for f in (f for x in reps for y in reps for f in b.hom_elements(x, y)):
            third, second = q.standard_right_triangle(f)
            assert q.standard_right_third(f) == third
            assert (second.src, second.dst) == (f.dst, third)
            pi = q.bracket(f.dst, -1)[1].f
            glued = scatter_blocks(
                b, [f.src, pi.src], [f.dst], [(0, 0, f), (1, 0, pi)]
            )
            cocone = b.shift_obj(b.cone(glued).c, -1)
            assert p.t.contains_obj(cocone)
            first = q.standard_left_triangle(f)
            assert q.z_set.contains_obj(first)
            assert q.class_of(first) == q.class_of(q.adjoint(cocone, -1)[0])
            maps += 1
    assert maps > 0


# ---------------------------------------------------------------- isomorphy


def test_iso_routes_agree_in_both_regimes(q22, qzero):
    b = q22.backend
    x = Obj.of(0)
    assert q22.engine.iso_mod(q22.i_set, b.identity(x))
    assert not q22.engine.iso_mod(q22.i_set, Mor(x, x, 0))
    # In the zero quotient every map, including zero, is invertible.
    assert qzero.engine.iso_mod(qzero.i_set, Mor(x, x, 0))
    assert qzero.engine.iso_mod(qzero.i_set, b.identity(x))


def test_zero_quotient_collapses_everything(qzero):
    b = qzero.backend
    x = Obj.of(b.id_of("M(0,1)"))
    assert qzero.zi_objects() == []
    assert qzero.class_of(x) == ()
    assert reduced(qzero, b.identity(x)) == 0
    assert qzero.class_of(x) == qzero.class_of(Obj.zero())
    outside = next(i for i in range(b.K) if i not in qzero.z_set)
    with pytest.raises(InputError):
        qzero.class_of(Obj.of(outside))
    assert qzero.mu_map(x)[1].is_yes
    s = qzero.summary()
    assert s["core"] == ["M(0,1)"] and s["objects"] == []


@pytest.mark.parametrize("mn", [(2, 4), (3, 4), (4, 4), (5, 3), (2, 6)])
def test_quotient_objects_are_the_middle_class_outside_the_core(mn):
    """Krull-Schmidt in place of the class search, on every concentric
    pair: the search merges no two ids and sends no id elsewhere, the
    quotient objects are Z minus I, the quotient decomposition of Z drops
    the core, and each object keeps a nonzero endomorphism ring modulo I."""
    eng = PairEngine(NakayamaBackend(*mn))
    pairs = eng.concentric_tcps()
    assert pairs
    for p in pairs:
        q = ZIQuotient.for_pair(eng, p)
        outside = [z for z in q.z_set.ids() if z not in q.i_set]
        assert searched_classes(q) == {
            z: (z if z in outside else None) for z in q.z_set.ids()
        }
        assert q.zi_objects() == outside
        assert q.class_of(Obj.from_iter(q.z_set.ids())) == tuple(outside)
        for z in outside:
            assert q.hom_mod_I(Obj.of(z), Obj.of(z)).dim > 0


def test_quotient_objects_with_empty_core(q14):
    assert q14.zi_objects() == [0, 1, 2]
    assert q14.class_of(Obj.of(0, 2)) == (0, 2)


# ---------------------------------------------------------------- comparison


def test_comparison_map_is_iso_on_every_object(q14):
    for x in indecs(q14) + [Obj.of(0, 1, 2)]:
        z, v = q14.mu_map(x)
        assert v.is_yes
        assert z is not None
        assert q14.engine.iso_mod(q14.i_set, z)


def test_summary_shape(q22):
    s = q22.summary()
    assert set(s) == {
        "core", "middle", "objects", "shift_table", "quotient_hom_dims"
    }
    assert s["core"] == []
    assert sorted(s["middle"]) == ["M(0,1)", "M(1,1)"]
    entry = s["shift_table"]["M(0,1)"]
    assert entry["suspension"] == ["M(1,1)"]
    assert entry["desuspension"] == ["M(1,1)"]


# ---------------------------------------------------------------- guards


def test_adjoint_images_validate_membership(qzero):
    b = qzero.backend
    outside = Obj.of(b.id_of("M(1,1)"))
    inside = Obj.of(b.id_of("M(0,1)"))
    with pytest.raises(InputError):
        qzero.adjoint(outside, 1)
    with pytest.raises(InputError):
        qzero.adjoint(outside, -1)
    with pytest.raises(InputError):
        qzero.bracket(outside, 1)
    with pytest.raises(InputError):
        qzero.bracket(inside, 2)


@pytest.mark.parametrize("step", [0, 2])
def test_adjoint_and_shift_take_one_step_either_way(q22, step):
    z = Obj.of(0)
    with pytest.raises(InputError):
        q22.adjoint(z, step)
    with pytest.raises(InputError):
        q22.shift(z, step)


def test_shared_instance_per_pair(eng22):
    p = trivial_hovey_tcp(eng22)
    assert ZIQuotient.for_pair(eng22, p) is ZIQuotient.for_pair(eng22, p)


def test_the_subquotient_shifts_its_sides_once(monkeypatch, capsys):
    # S[-1], V[1], U[-1] and T[1] are built when a subquotient is; the
    # adjoints, brackets and comparison maps read them, never shift anew.
    honest_shifted, honest_init = Subcat.shifted, ZIQuotient.__init__
    callers, built = Counter(), []

    def shifted(self, k):
        code = sys._getframe(1).f_code
        callers[Path(code.co_filename).name, code.co_name] += 1
        return honest_shifted(self, k)

    def init(self, engine, p):
        built.append(p.key())
        honest_init(self, engine, p)

    monkeypatch.setattr(Subcat, "shifted", shifted)
    monkeypatch.setattr(ZIQuotient, "__init__", init)
    argv = ["verify", "--suite", "conditions", "--backend", "nakayama:m=3,n=4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    from_quotient = {name: n for (f, name), n in callers.items() if f == "quotient.py"}
    assert built and from_quotient == {"__init__": 4 * len(built)}
