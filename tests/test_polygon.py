"""Polygon arc backend against a from-scratch combinatorial oracle.

The oracle below rebuilds arcs, crossings, and the two closure notions
directly from vertex arithmetic and subset enumeration, sharing no code
with the backend.  Counts for the pentagon are frozen after the oracle
confirms them.
"""

import itertools
import random

import pytest

from cotor.core import InputError, Obj, _incidence_masks
from cotor.polygon import (
    Arc,
    PolygonBackend,
    cut_reduction,
    enumerate_ptolemy,
    enumerate_rigid,
    is_rigid,
    parse_spec,
    triangulations_among,
    zz_mutate,
)
from cotor.subcats import Subcat

# ---------------------------------------------------------------- oracle


def oracle_arcs(n):
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if (i, j) != (0, n - 1)
    ]


def oracle_cross(a, b):
    if len({a[0], a[1], b[0], b[1]}) < 4:
        return False
    inside0 = a[0] < b[0] < a[1]
    inside1 = a[0] < b[1] < a[1]
    return inside0 != inside1


def oracle_rigid_sets(n):
    arcs = oracle_arcs(n)
    out = []
    for r in range(len(arcs) + 1):
        for comb in itertools.combinations(arcs, r):
            if all(
                not oracle_cross(a, b)
                for a, b in itertools.combinations(comb, 2)
            ):
                out.append(frozenset(comb))
    return out


def oracle_triangulations(n):
    rigid = set(oracle_rigid_sets(n))
    arcs = oracle_arcs(n)
    return [
        s
        for s in rigid
        if all(s | {a} not in rigid for a in arcs if a not in s)
    ]


def oracle_ptolemy_sets(n):
    arcs = oracle_arcs(n)
    valid = set(arcs)

    def closed(s):
        for a, b in itertools.combinations(s, 2):
            if not oracle_cross(a, b):
                continue
            for p in a:
                for q in b:
                    conn = (min(p, q), max(p, q))
                    if conn in valid and conn not in s:
                        return False
        return True

    out = []
    for r in range(len(arcs) + 1):
        for comb in itertools.combinations(arcs, r):
            if closed(frozenset(comb)):
                out.append(frozenset(comb))
    return out


def as_pairs(backend, s: Subcat):
    return frozenset(
        (backend.arc_of_id(i).i, backend.arc_of_id(i).j) for i in s
    )


# ---------------------------------------------------------------- construction


def test_arc_validation():
    with pytest.raises(InputError):
        Arc(3, 1)
    b = PolygonBackend(5)
    with pytest.raises(InputError):
        b.arc(0, 1)  # boundary edge
    with pytest.raises(InputError):
        b.arc(0, 4)  # boundary edge through the wrap
    assert b.arc(3, 1) == Arc(1, 3)
    with pytest.raises(InputError):
        PolygonBackend(3)


def test_construction_cap_refuses_before_building_arcs():
    # N = 46 has 989 arcs, the last N under the cap of 1000.
    assert len(PolygonBackend(46).indecs) == 989
    with pytest.raises(InputError, match="polygon:N=47 has 1034 arcs, above the cap 1000"):
        PolygonBackend(47)


def test_parse_spec():
    assert parse_spec("polygon:N=6").n == 6
    for bad in ("nakayama:m=1,n=3", "polygon:6", "polygon:N=x"):
        with pytest.raises(InputError):
            parse_spec(bad)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_arc_inventory_matches_oracle(n):
    b = PolygonBackend(n)
    assert len(b.indecs) == n * (n - 3) // 2
    got = {(b.arc_of_id(i).i, b.arc_of_id(i).j) for i in range(b.K)}
    assert got == set(oracle_arcs(n))
    for i in range(b.K):
        a = b.arc_of_id(i)
        assert b.id_of_arc(a) == i
        assert a.label() == f"arc({a.i},{a.j})"


# ---------------------------------------------------------------- crossing


@pytest.mark.parametrize("n", [4, 5, 6])
def test_crossing_matches_oracle(n):
    b = PolygonBackend(n)
    for i in range(b.K):
        for j in range(b.K):
            a, c = b.arc_of_id(i), b.arc_of_id(j)
            want = oracle_cross((a.i, a.j), (c.i, c.j))
            assert b.ext_incidence(i, j) == want
            assert b.ext_incidence(j, i) == want  # crossing is symmetric


@pytest.mark.parametrize("n", range(4, 13))
def test_crossing_rows_match_the_pairwise_test(n):
    # The rows are built per vertex; the K^2 crossing predicate is their
    # oracle.
    b = PolygonBackend(n)
    assert b.ext1_masks() == _incidence_masks(b.K, b.ext_incidence)


def test_crossing_rows_match_the_pairwise_test_on_sampled_arcs_of_46_gon():
    b = PolygonBackend(46)
    out, into = b.ext1_masks()
    for i in random.Random(46).sample(range(b.K), 40):
        assert out[i] == sum(1 << c for c in range(b.K) if b.ext_incidence(i, c))
        assert into[i] == sum(1 << c for c in range(b.K) if b.ext_incidence(c, i))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_connecting_masks_match_the_arc_geometry(n):
    # is_ptolemy and enumerate_ptolemy both read these masks, so they are
    # held here to the arcs joining an endpoint of a to an endpoint of b,
    # for every b crossing a, built from the vertex pairs alone.
    b = PolygonBackend(n)
    valid = set(oracle_arcs(n))
    ends = [(b.arc_of_id(i).i, b.arc_of_id(i).j) for i in range(b.K)]
    for a in range(b.K):
        want = {}
        for c in range(b.K):
            if oracle_cross(ends[a], ends[c]):
                joins = {(min(p, q), max(p, q)) for p in ends[a] for q in ends[c]}
                want[c] = sum(1 << b.id_of_arc(Arc(*j)) for j in joins & valid)
        assert b.connecting_masks[a] == want, ends[a]


# ---------------------------------------------------------------- rotation


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rotation_is_a_cyclic_action(n):
    b = PolygonBackend(n)
    for i in range(b.K):
        a = b.arc_of_id(i)
        assert b.rotate(a, n) == a
        assert b.rotate(b.rotate(a, 1), -1) == a
        assert b.shift_id(i, n) == i
    # Shifting preserves crossings.
    for i in range(b.K):
        for j in range(b.K):
            assert b.ext_incidence(i, j) == b.ext_incidence(
                b.shift_id(i, 1), b.shift_id(j, 1)
            )


def test_rotation_pinned_on_pentagon():
    b = PolygonBackend(5)
    x = Obj.of(b.id_of("arc(0,2)"))
    assert b.shift_obj(x, 5) == x
    assert b.obj_labels(b.shift_obj(x, 1)) == ["arc(1,4)"]


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rigid_sets_match_oracle(n):
    b = PolygonBackend(n)
    got = {as_pairs(b, s) for s in enumerate_rigid(b)}
    assert got == set(oracle_rigid_sets(n))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_triangulations_match_oracle(n):
    b = PolygonBackend(n)
    tris = triangulations_among(b, enumerate_rigid(b))
    assert {as_pairs(b, s) for s in tris} == set(oracle_triangulations(n))
    assert all(len(s) == n - 3 for s in tris)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ptolemy_sets_match_oracle(n):
    b = PolygonBackend(n)
    got = {as_pairs(b, s) for s in enumerate_ptolemy(b)}
    assert got == set(oracle_ptolemy_sets(n))


def test_pentagon_counts_frozen():
    b = PolygonBackend(5)
    assert len(enumerate_rigid(b)) == 11
    assert len(triangulations_among(b, enumerate_rigid(b))) == 5
    assert len(enumerate_ptolemy(b)) == 17


def test_square_counts_frozen():
    b = PolygonBackend(4)
    assert b.K == 2
    assert len(enumerate_rigid(b)) == 3  # empty set and both singletons
    assert len(triangulations_among(b, enumerate_rigid(b))) == 2
    assert len(enumerate_ptolemy(b)) == 4


def test_hexagon_counts_frozen():
    b = PolygonBackend(6)
    assert len(enumerate_rigid(b)) == 45
    assert len(triangulations_among(b, enumerate_rigid(b))) == 14
    assert len(enumerate_ptolemy(b)) == 82


# ---------------------------------------------------------------- cut reduction


def test_cut_reduction_structure():
    b = PolygonBackend(6)
    rigid = Subcat.from_labels(b, ["arc(0,3)"])
    red = cut_reduction(b, rigid)
    assert sorted(sorted(p) for p in red.pieces) == [[0, 1, 2, 3], [0, 3, 4, 5]]
    assert set(red.z.labels()) == {
        "arc(0,2)", "arc(0,3)", "arc(0,4)", "arc(1,3)", "arc(3,5)"
    }
    # Transport covers exactly the reduced class minus the cut set.
    assert set(red.forward) == set(red.z.ids()) - set(rigid.ids())
    for idx, key in red.forward.items():
        assert red.backward[key] == idx


def test_cut_reduction_rejects_crossing_cut():
    b = PolygonBackend(5)
    crossing_pair = Subcat.from_labels(b, ["arc(0,2)", "arc(1,3)"])
    with pytest.raises(InputError):
        cut_reduction(b, crossing_pair)


def test_reduced_shift_cycles_inside_pieces():
    b = PolygonBackend(6)
    red = cut_reduction(b, Subcat.from_labels(b, ["arc(0,3)"]))
    for idx in red.forward:
        piece_idx, _ = red.forward[idx]
        size = len(red.pieces[piece_idx])
        assert red.reduced_shift(idx, size) == idx
        assert red.reduced_shift(red.reduced_shift(idx, 1), -1) == idx


# ---------------------------------------------------------------- mutation


def test_zz_mutate_with_empty_cut_is_global_rotation():
    b = PolygonBackend(4)
    a = Subcat.from_labels(b, ["arc(0,2)"])
    out = zz_mutate(b, Subcat.empty(b), a, 1)
    assert out.labels() == ["arc(1,3)"]
    assert zz_mutate(b, Subcat.empty(b), out, 1) == a


def test_zz_mutate_swaps_pentagon_triangulations():
    b = PolygonBackend(5)
    rigid = Subcat.from_labels(b, ["arc(0,2)"])
    t1 = Subcat.from_labels(b, ["arc(0,2)", "arc(0,3)"])
    t2 = Subcat.from_labels(b, ["arc(0,2)", "arc(2,4)"])
    assert zz_mutate(b, rigid, t1, 1) == t2
    assert zz_mutate(b, rigid, t2, 1) == t1
    assert zz_mutate(b, rigid, t1, 0) == t1
    assert zz_mutate(b, rigid, zz_mutate(b, rigid, t1, 1), -1) == t1


def test_zz_mutate_preserves_triangulations():
    b = PolygonBackend(6)
    rigid = Subcat.from_labels(b, ["arc(0,3)"])
    tris = [
        t for t in triangulations_among(b, enumerate_rigid(b)) if rigid.issubset(t)
    ]
    assert tris
    for t in tris:
        for k in (1, -1, 2):
            out = zz_mutate(b, rigid, t, k)
            assert len(out) == b.n - 3
            assert is_rigid(b, out)
            assert rigid.issubset(out)


def test_zz_mutate_input_validation():
    b = PolygonBackend(5)
    rigid = Subcat.from_labels(b, ["arc(0,2)"])
    with pytest.raises(InputError):
        zz_mutate(b, rigid, Subcat.from_labels(b, ["arc(0,3)"]), 1)
    with pytest.raises(InputError):
        zz_mutate(b, rigid, Subcat.from_labels(b, ["arc(0,2)", "arc(1,4)"]), 1)
