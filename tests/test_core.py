"""Shared object, morphism, and verdict model.

Generic backend behaviour is exercised through the smallest morphism
level backend, two indecomposables with every Hom space one
dimensional, so each assertion stays hand checkable.
"""

import dataclasses
import itertools
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotor.core import (
    Backend,
    CapabilityError,
    Indec,
    InputError,
    Mor,
    Obj,
    Tri,
    Verdict,
    multisets_over,
    stored,
)
from cotor.f2 import F2Matrix
from cotor.nakayama import NakayamaBackend, RawModule, _PairTable

from helpers import is_isomorphism


@pytest.fixture(scope="module")
def b13():
    return NakayamaBackend(1, 3)


# ---------------------------------------------------------------- verdicts


def test_verdict_states_and_predicates():
    assert Verdict.yes().is_yes
    assert Verdict.no().is_no
    assert Verdict.inconclusive("cap").is_inconclusive
    assert Verdict.inconclusive("cap").reason == "cap"
    with pytest.raises(InputError):
        Verdict("maybe")


def test_verdict_conjunction_precedence():
    y, n, i = Verdict.yes(), Verdict.no("bad"), Verdict.inconclusive("cap")
    assert Verdict.all_of([]).is_yes
    assert Verdict.all_of([y, y]).is_yes
    # A definite counterexample beats an exhausted search.
    assert Verdict.all_of([i, n, y]) is n
    assert Verdict.all_of([y, i]) is i


def test_verdict_conjunction_answers_with_its_no_or_inconclusive_part():
    # a no or an inconclusive part answers with its own reason
    a, b = Verdict.yes(reason="a"), Verdict.yes(reason="b")
    n, i = Verdict.no("bad"), Verdict.inconclusive("cap")
    assert Verdict.all_of([a, n]) is n
    assert Verdict.all_of([a, i, b]) is i


# ---------------------------------------------------------------- objects


def test_obj_construction_and_sorting():
    assert Obj.of(3, 1, 2).summands == (1, 2, 3)
    assert Obj.from_iter([2, 2, 0]).summands == (0, 2, 2)
    assert Obj.zero().is_zero
    assert len(Obj.of(5, 5)) == 2
    with pytest.raises(InputError):
        Obj((2, 1))


def test_obj_multiset_algebra():
    x = Obj.of(0, 1, 1)
    assert x.plus(Obj.of(0)).summands == (0, 0, 1, 1)
    assert x.counts() == {0: 1, 1: 2}


def _values(b):
    """One instance of each slotted value type, from the backend b."""
    x, y = Obj.of(0), Obj.of(0, 1)
    return [
        x,
        Mor(x, y, 0b1),
        Tri(Mor(x, y), Mor(y, x), Mor(x, x)),
        Verdict.no("bad"),
        b.indecs[0],
        F2Matrix.identity(2),
        b._single[0].raw,
        b._pairs[(0, 0)],
    ]


def test_value_types_are_slotted_and_frozen(b13):
    values = _values(b13)
    assert {type(v) for v in values} == {
        Obj, Mor, Tri, Verdict, Indec, F2Matrix, RawModule, _PairTable
    }
    for v in values:
        fields = [f.name for f in dataclasses.fields(v)]
        assert not hasattr(v, "__dict__"), type(v)
        assert tuple(type(v).__slots__) == tuple(fields)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, fields[0], getattr(v, fields[0]))
        # no slot for a new name; the exact error differs across versions
        with pytest.raises((AttributeError, TypeError)):
            v.extra = 1


def test_value_types_keep_field_hash_and_equality(b13):
    for v in _values(b13):
        parts = tuple(getattr(v, f.name) for f in dataclasses.fields(v))
        assert hash(v) == hash(parts)
        twin = type(v)(*parts)
        assert twin == v and hash(twin) == hash(v) and twin is not v
        assert v != parts
    assert Verdict.yes("a") != Verdict.yes("b")
    assert Mor(Obj.of(0), Obj.of(0), 1) != Mor(Obj.of(0), Obj.of(0), 0)


def test_obj_orders_by_summand_tuples():
    objs = [Obj(s) for size in range(4) for s in itertools.product(range(3), repeat=size)
            if list(s) == sorted(s)]
    assert sorted(objs, reverse=True) == [
        Obj(s) for s in sorted((o.summands for o in objs), reverse=True)
    ]
    assert Obj.zero() < Obj.of(0) < Obj.of(0, 0) < Obj.of(1) <= Obj.of(1)


# ---------------------------------------------------------------- morphisms


def test_mor_addition_is_coordinatewise():
    x, y = Obj.of(0), Obj.of(1)
    f = Mor(x, y, 0b101)
    g = Mor(x, y, 0b011)
    assert f.plus(g).coords == 0b110
    assert f.plus(f).is_zero
    with pytest.raises(InputError):
        f.plus(Mor(y, x, 0))


def test_tri_refuses_maps_that_do_not_chain():
    x, y, z = Obj.of(0), Obj.of(1), Obj.zero()
    t = Tri(Mor(x, y), Mor(y, z), Mor(z, x))
    assert (t.a, t.b, t.c) == (x, y, z)
    with pytest.raises(InputError):
        Tri(Mor(x, y), Mor(x, z), Mor(z, x))  # f ends at y, g starts at x
    with pytest.raises(InputError):
        Tri(Mor(x, y), Mor(y, z), Mor(y, x))  # g ends at z, h starts at y


def test_missing_capability_raises():
    class ObjectOnly(Backend):
        spec_string = "object-only"

    bo = ObjectOnly()
    with pytest.raises(CapabilityError):
        bo.hom_dim_pair(0, 0)
    with pytest.raises(CapabilityError):
        bo.cone(Mor(Obj.zero(), Obj.zero()))
    with pytest.raises(CapabilityError):
        bo.shift_mor(Mor(Obj.zero(), Obj.zero()), 1)
    with pytest.raises(CapabilityError):
        is_isomorphism(bo, Mor(Obj.zero(), Obj.zero()))
    with pytest.raises(CapabilityError):
        is_isomorphism(bo, Mor(Obj.of(0), Obj.of(0)))


# ---------------------------------------------------------------- enumeration


@given(
    st.lists(st.integers(0, 9), unique=True, min_size=1, max_size=4),
    st.integers(0, 4),
)
def test_multisets_over_matches_nondecreasing_tuples(ids, size):
    got = list(multisets_over(ids, size))
    want = sorted(
        t
        for t in itertools.product(sorted(ids), repeat=size)
        if tuple(sorted(t)) == t
    )
    assert got == want


# ---------------------------------------------------------------- backend layer


def test_labels_round_trip(b13):
    assert [i.label for i in b13.indecs] == ["M(0,1)", "M(0,2)"]
    for ind in b13.indecs:
        assert b13.id_of(ind.label) == ind.id
    with pytest.raises(InputError):
        b13.id_of("M(9,9)")
    x = Obj.from_iter(b13.id_of(l) for l in ["M(0,2)", "M(0,1)"])
    assert b13.obj_labels(x) == ["M(0,1)", "M(0,2)"]


def test_block_layout_partitions_hom_space(b13):
    x = Obj.of(0, 0, 1)
    y = Obj.of(0, 1)
    layout = b13.block_layout(x, y)
    assert len(layout) == len(x) * len(y)
    off = 0
    for p, q, o, d in layout:
        assert o == off
        assert d == b13.hom_dim_pair(x.summands[p], y.summands[q])
        off += d
    assert off == b13.hom_dim(x, y)


def test_hom_elements_zero_first_and_complete(b13):
    x = Obj.of(0, 1)
    d = b13.hom_dim(x, x)
    elems = list(b13.hom_elements(x, x))
    assert len(elems) == 1 << d
    assert elems[0].is_zero
    assert len({f.coords for f in elems}) == len(elems)
    # Deterministic order: a second pass is identical.
    assert [f.coords for f in b13.hom_elements(x, x)] == [
        f.coords for f in elems
    ]


def test_identity_is_neutral_for_composition(b13):
    x = Obj.of(0, 1, 1)
    idx = b13.identity(x)
    for f in itertools.islice(b13.hom_elements(x, x), 16):
        assert b13.compose(idx, f) == f
        assert b13.compose(f, idx) == f


def test_rotations_preserve_exactness(b13):
    x, y = Obj.of(1), Obj.of(1)
    f = next(f for f in b13.hom_elements(x, y) if not f.is_zero)
    t = b13.cone(f)
    left, right = b13.rotate_left(t), b13.rotate_right(t)
    assert (left.a, left.b, left.c) == (t.b, t.c, b13.shift_obj(t.a, 1))
    assert (right.a, right.b, right.c) == (b13.shift_obj(t.c, -1), t.a, t.b)
    for rot in (left, right):
        assert b13.compose(rot.f, rot.g).is_zero
        assert b13.compose(rot.g, rot.h).is_zero
    # A full turn of three left rotations lands on the shifted triangle.
    turned = b13.rotate_left(b13.rotate_left(b13.rotate_left(t)))
    assert turned.a == b13.shift_obj(t.a, 1)
    assert turned.b == b13.shift_obj(t.b, 1)
    assert turned.c == b13.shift_obj(t.c, 1)


def test_direct_sum_of_triangles(b13):
    x, y = Obj.of(1), Obj.of(1)
    f = next(f for f in b13.hom_elements(x, y) if not f.is_zero)
    w = b13.cone(f)
    w0 = b13.cone(Mor(Obj.of(0), Obj.of(0), 0))
    t = b13.direct_sum_tri([w, w0])
    assert t.a == w.a.plus(w0.a)
    assert t.b == w.b.plus(w0.b)
    assert t.c == w.c.plus(w0.c)
    assert b13.compose(t.f, t.g).is_zero
    assert b13.compose(t.g, t.h).is_zero


def test_empty_direct_sum_is_the_zero_triangle(b13):
    t = b13.direct_sum_tri([])
    assert t.a.is_zero and t.b.is_zero and t.c.is_zero


# ---------------------------------------------------------------- stored answers


class Counted:
    """Methods behind ``stored`` that count the computations they run."""

    def __init__(self, answers=None):
        self.runs = []
        self.answers = answers or {}

    @stored()
    def lone(self, x):
        self.runs.append(("lone", x))
        return self.answers.get(x, x)

    @stored()
    def pair(self, x, y):
        self.runs.append(("pair", x, y))
        return self.answers.get((x, y), (x, y))

    @stored(key=lambda x, step=1: (len(x), step))
    def keyed(self, x, step=1):
        self.runs.append(("keyed", x, step))
        return len(x) * step

    @stored()
    def failing(self, x):
        self.runs.append(("failing", x))
        raise InputError(f"no answer for {x}")


def test_stored_computes_once_per_key():
    c = Counted()
    assert [c.lone(1), c.lone(1), c.lone(2)] == [1, 1, 2]
    assert [c.pair(1, 2), c.pair(1, 2), c.pair(2, 1)] == [(1, 2), (1, 2), (2, 1)]
    # the key maps the arguments: equal lengths and steps share one entry
    assert [c.keyed("ab"), c.keyed("cd", 1), c.keyed("ab", 2)] == [2, 2, 4]
    assert c.runs == [
        ("lone", 1), ("lone", 2), ("pair", 1, 2), ("pair", 2, 1),
        ("keyed", "ab", 1), ("keyed", "ab", 2),
    ]
    # by default the tuple of the arguments is the key
    assert c._stored["lone"] == {(1,): 1, (2,): 2}
    assert set(c._stored["pair"]) == {(1, 2), (2, 1)}
    assert set(c._stored["keyed"]) == {(2, 1), (2, 2)}


def test_stored_keeps_none_and_false_answers():
    c = Counted({1: None, 2: False, (0, 0): None})
    for _ in range(3):
        assert c.lone(1) is None
        assert c.lone(2) is False
        assert c.pair(0, 0) is None
    assert c.runs == [("lone", 1), ("lone", 2), ("pair", 0, 0)]


def test_stored_never_keeps_an_error():
    c = Counted()
    for _ in range(3):
        with pytest.raises(InputError, match="no answer for 7"):
            c.failing(7)
    assert c.runs == [("failing", 7)] * 3
    assert c._stored["failing"] == {}


def test_stored_tables_are_per_instance():
    a, b = Counted({1: "a"}), Counted({1: "b"})
    assert (a.lone(1), b.lone(1), a.lone(1), b.lone(1)) == ("a", "b", "a", "b")
    assert a.runs == b.runs == [("lone", 1)]
    assert a._stored["lone"] is not b._stored["lone"]


def test_stored_methods_are_plain_functions_in_the_class_dict():
    for name in ("lone", "pair", "keyed", "failing"):
        raw = Counted.__dict__[name]
        assert type(raw) is types.FunctionType
        assert raw.__name__ == name
    # a wrapper built by calling the raw function, as a layer tracer
    # does, still reaches the stored table
    calls = []
    raw = Counted.__dict__["lone"]

    def traced(self, x):
        calls.append(x)
        return raw(self, x)

    c = Counted()
    assert traced(c, 3) == traced(c, 3) == 3
    assert calls == [3, 3] and c.runs == [("lone", 3)]
