"""Stable module category backend.

The two oracles the backend docstring promises live here: the closed
min formula for one vertex stable Hom dimensions, and the raw module
round trip through decomposition.  Both are computed independently of
the backend's own tables.
"""

import random
from collections import Counter

import pytest

from cotor.core import (
    BudgetExceeded, InputError, InternalCheckError, Mor, Obj, multisets_over
)
from cotor.f2 import F2Matrix, rank, solve
from cotor.nakayama import (
    NakayamaBackend,
    RawModule,
    _assemble,
    _commutation_rows,
    _hom_basis_raw,
    _solve_module_map,
    _unflatten,
    parse_spec,
    split_module,
)

from helpers import (
    cover_omega,
    decompose_counts,
    decompose_module,
    is_isomorphism,
    module_cone_obj,
    one_more_m01,
)

INSTANCES = [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


@pytest.fixture(scope="module")
def backends():
    return {mn: NakayamaBackend(*mn) for mn in INSTANCES}


# ---------------------------------------------------------------- construction


def test_parameter_validation():
    with pytest.raises(InputError):
        NakayamaBackend(0, 3)
    with pytest.raises(InputError):
        NakayamaBackend(1, 1)
    with pytest.raises(InputError):
        NakayamaBackend(5, 7)  # 30 indecomposables, above the default cap


def test_parse_spec_round_trip():
    b = parse_spec("nakayama:m=2,n=2")
    assert b.spec_string == "nakayama:m=2,n=2"
    assert b.K == 2
    for bad in (
        "polygon:N=5",
        "nakayama:m=2",
        "nakayama:m=2,n=2,k=1",
        "nakayama:m=two,n=2",
        "nakayama:m2n2",
    ):
        with pytest.raises(InputError):
            parse_spec(bad)


def test_indecomposable_inventory(backends):
    for (m, n), b in backends.items():
        assert b.K == m * (n - 1)
        labels = {i.label for i in b.indecs}
        assert labels == {
            f"M({i},{l})" for i in range(m) for l in range(1, n)
        }


# ---------------------------------------------------------------- shift


def test_shift_pinned_values():
    b13 = NakayamaBackend(1, 3)
    a, c = b13.id_of("M(0,1)"), b13.id_of("M(0,2)")
    assert b13.shift_id(a, 1) == c and b13.shift_id(c, 1) == a

    b22 = NakayamaBackend(2, 2)
    s0, s1 = b22.id_of("M(0,1)"), b22.id_of("M(1,1)")
    assert b22.shift_id(s0, 1) == s1 and b22.shift_id(s1, 1) == s0

    b12 = NakayamaBackend(1, 2)
    assert b12.K == 1 and b12.shift_id(0, 1) == 0


def test_shift_is_an_invertible_action(backends):
    for b in backends.values():
        ids = list(range(b.K))
        assert sorted(b.shift_id(i, 1) for i in ids) == ids
        x = Obj.from_iter(ids)
        for k in range(-3, 4):
            assert b.shift_obj(b.shift_obj(x, k), -k) == x
        assert b.shift_obj(Obj.zero(), 2) == Obj.zero()


# ---------------------------------------------------------------- Hom spaces


def test_one_vertex_dims_match_min_formula(backends):
    # Oracle: dim Hom(M(0,i), M(0,j)) = min(i, j, n-i, n-j) when m=1.
    for (m, n), b in backends.items():
        if m != 1:
            continue
        for i in range(1, n):
            for j in range(1, n):
                got = b.hom_dim_pair(b.id_of(f"M(0,{i})"), b.id_of(f"M(0,{j})"))
                assert got == min(i, j, n - i, n - j)


def test_hom_dim_is_biadditive(backends):
    b = backends[(2, 3)]
    x, xp = Obj.of(0, 1), Obj.of(2)
    y = Obj.of(1, 3)
    assert b.hom_dim(x.plus(xp), y) == b.hom_dim(x, y) + b.hom_dim(xp, y)
    assert b.hom_dim(y, x.plus(xp)) == b.hom_dim(y, x) + b.hom_dim(y, xp)
    assert b.hom_dim(Obj.zero(), y) == 0


def test_ext_incidence_on_two_simples():
    b = NakayamaBackend(2, 2)
    s0, s1 = b.id_of("M(0,1)"), b.id_of("M(1,1)")
    assert b.ext_incidence(s0, s1) and b.ext_incidence(s1, s0)
    assert not b.ext_incidence(s0, s0) and not b.ext_incidence(s1, s1)
    # Ext is Hom into the shift, so the two must agree.
    for i in (s0, s1):
        for j in (s0, s1):
            assert b.ext_incidence(i, j) == (
                b.hom_dim_pair(i, b.shift_id(j, 1)) > 0
            )


def test_stable_hom_table_is_consistent(backends):
    for (m, n), b in backends.items():
        table = b.stable_hom_table()
        for (la, lb), d in table["dims"].items():
            assert d == b.hom_dim_pair(b.id_of(la), b.id_of(lb))
            fact = table["factoring"][(la, lb)]
            assert fact["factoring_dim"] == fact["full_dim"] - d
            assert len(fact["factoring_basis"]) == fact["factoring_dim"]


def test_table_pinned_for_smallest_instance():
    table = NakayamaBackend(1, 3).stable_hom_table()
    assert all(d == 1 for d in table["dims"].values())
    assert len(table["dims"]) == 4


# ---------------------------------------------------------------- composition


def test_composition_associative_on_basis(backends):
    b = backends[(2, 2)]
    x = Obj.of(0, 1)
    basis = [Mor(x, x, 1 << t) for t in range(b.hom_dim(x, x))]
    for f in basis:
        for g in basis:
            fg = b.compose(f, g)
            for h in basis:
                assert b.compose(fg, h) == b.compose(f, b.compose(g, h))


def test_composition_is_bilinear(backends):
    b = backends[(1, 4)]
    x = Obj.of(0, 1, 2)
    d = b.hom_dim(x, x)
    rng = random.Random(1)
    for _ in range(20):
        f = Mor(x, x, rng.getrandbits(d))
        g = Mor(x, x, rng.getrandbits(d))
        h = Mor(x, x, rng.getrandbits(d))
        assert b.compose(f.plus(g), h) == b.compose(f, h).plus(b.compose(g, h))
        assert b.compose(f, g.plus(h)) == b.compose(f, g).plus(b.compose(f, h))


def test_stably_trivial_composite_through_the_short_module():
    b = parse_spec("nakayama:m=1,n=3")
    m1, m2 = Obj.of(b.id_of("M(0,1)")), Obj.of(b.id_of("M(0,2)"))
    surj = Mor(m2, m1, 1)  # both Hom spaces are one dimensional
    incl = Mor(m1, m2, 1)
    through_short = b.compose(surj, incl)
    # End(M(0,2)) is one dimensional, so a nonzero value would be the
    # identity class and would force M(0,2) to be a summand of M(0,1).
    assert not is_isomorphism(b, through_short)
    assert through_short.is_zero
    # The other order passes through the top of M(0,1) and dies rawly.
    assert b.compose(incl, surj).is_zero


def test_is_isomorphism_basics(backends):
    for b in backends.values():
        x = Obj.from_iter(range(min(3, b.K)))
        assert is_isomorphism(b, b.identity(x))
        assert not is_isomorphism(b, Mor(x, x, 0))
        assert is_isomorphism(b, Mor(Obj.zero(), Obj.zero(), 0))
        y = Obj.of(0, 0)
        assert not is_isomorphism(b, Mor(y, Obj.of(0), 0))


# ---------------------------------------------------------------- shifts of maps


def test_shift_mor_is_functorial(backends):
    b = backends[(2, 3)]
    x = Obj.of(0, 2)
    assert b.shift_mor(b.identity(x), 1) == b.identity(b.shift_obj(x, 1))
    d = b.hom_dim(x, x)
    rng = random.Random(2)
    for _ in range(10):
        f = Mor(x, x, rng.getrandbits(d))
        g = Mor(x, x, rng.getrandbits(d))
        sf, sg = b.shift_mor(f, 1), b.shift_mor(g, 1)
        assert b.shift_mor(f.plus(g), 1) == sf.plus(sg)
        assert b.shift_mor(b.compose(f, g), 1) == b.compose(sf, sg)
        assert b.shift_mor(sf, -1) == f


# ---------------------------------------------------------------- cones


def test_cone_of_identity_vanishes(backends):
    for b in backends.values():
        for i in range(b.K):
            x = Obj.of(i)
            w = b.cone(b.identity(x))
            assert w.c.is_zero
            assert b.compose(w.f, w.g).is_zero
        assert b.cone(b.identity(Obj.of(0, min(1, b.K - 1)))).c.is_zero


def test_cone_of_zero_map_splits(backends):
    for b in backends.values():
        xs = [Obj.zero(), Obj.of(0), Obj.of(0, b.K - 1)]
        ys = [Obj.zero(), Obj.of(b.K - 1)]
        for x in xs:
            for y in ys:
                w = b.cone(Mor(x, y, 0))
                assert w.c == y.plus(b.shift_obj(x, 1))
                assert b.compose(w.g, w.h).is_zero


def test_cone_pinned_for_the_surjection():
    b = NakayamaBackend(1, 3)
    m1, m2 = Obj.of(b.id_of("M(0,1)")), Obj.of(b.id_of("M(0,2)"))
    assert b.cone(Mor(m2, m1, 1)).c == m2


def test_cone_rotation_consistency(backends):
    # cone of the second map recovers the shifted first object.
    b = backends[(2, 2)]
    rng = random.Random(3)
    seen = 0
    for i in range(b.K):
        for j in range(b.K):
            x, y = Obj.of(i), Obj.of(j)
            d = b.hom_dim(x, y)
            for _ in range(min(4, 1 << d)):
                f = Mor(x, y, rng.getrandbits(d))
                assert b.cone(b.cone(f).g).c == b.shift_obj(x, 1)
                seen += 1
    assert seen > 0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cone_object_lane_matches_the_witness_in_either_order(m, n):
    # Object first on one fresh backend, witness first on another, so
    # each route answers once from an empty cache and once after the
    # other.
    rng = random.Random(100 * m + n)
    probe = NakayamaBackend(m, n)
    maps = set()
    for _ in range(60):
        x = _random_obj(rng, probe, 3)
        y = _random_obj(rng, probe, 3)
        maps.add(_random_mor(rng, probe, x, y))
    obj_first, wit_first = NakayamaBackend(m, n), NakayamaBackend(m, n)
    for f in sorted(maps, key=lambda f: (f.src, f.dst, f.coords)):
        got = obj_first.cone_obj(f)
        assert got == obj_first.cone(f).c
        want = wit_first.cone(f).c
        assert wit_first.cone_obj(f) == want == got


def test_cone_rejects_a_split_that_the_rank_count_contradicts(monkeypatch):
    b = NakayamaBackend(2, 3)
    monkeypatch.setattr(b, "_cone_counts", one_more_m01(b._cone_counts))
    f = Mor(Obj.of(1), Obj.of(0), 0)
    with pytest.raises(InternalCheckError, match="rank count"):
        b.cone(f)


# Every Nakayama backend with at most 9 indecomposables (K = m(n-1)).
UP_TO_9 = [(m, n) for n in range(2, 11) for m in range(1, 10) if m * (n - 1) <= 9]


def _small_objects(k):
    """The zero object and every object of one or two summands."""
    return [Obj(c) for size in range(3) for c in multisets_over(range(k), size)]


@pytest.mark.parametrize("mn", UP_TO_9, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_masked_rank_count_matches_the_cone_module_count(mn):
    # On every pair of objects of at most two summands, the zero map and
    # the map with every coordinate set (40,849 maps over the backends):
    # the cone object read off the graph agrees with path ranks on the
    # cone module.
    b, oracle_b = NakayamaBackend(*mn), NakayamaBackend(*mn)
    objs = _small_objects(b.K)
    for x in objs:
        for y in objs:
            for coords in {0, (1 << b.hom_dim(x, y)) - 1}:
                f = Mor(x, y, coords)
                assert b.cone_obj(f) == module_cone_obj(oracle_b, f), f


def test_masked_rank_count_matches_on_a_sample_at_k16():
    b, oracle_b = NakayamaBackend(4, 5), NakayamaBackend(4, 5)
    rng = random.Random(16)
    objs = _small_objects(b.K)
    for _ in range(300):
        x, y = rng.choice(objs), rng.choice(objs)
        f = Mor(x, y, rng.getrandbits(b.hom_dim(x, y)))
        assert b.cone_obj(f) == module_cone_obj(oracle_b, f), f


# ---------------------------------------------------------------- decomposition


def _random_types(rng, m, n, count):
    return tuple(
        (rng.randrange(m), rng.randrange(1, n + 1)) for _ in range(count)
    )


def test_decompose_round_trip(backends):
    rng = random.Random(4)
    for (m, n), b in backends.items():
        for _ in range(100):
            types = _random_types(rng, m, n, 3)
            raw = _assemble(m, n, types).raw
            counts = decompose_counts(raw)
            want: dict = {}
            for t in types:
                want[t] = want.get(t, 0) + 1
            assert counts == want
            stable = decompose_module(b, raw)
            assert stable == Obj.from_iter(
                b.id_of(f"M({i},{l})") for (i, l) in types if l < n
            )


def test_decompose_degenerate_cases():
    b = NakayamaBackend(2, 3)
    zero = _assemble(2, 3, ()).raw
    assert decompose_module(b, zero) == Obj.zero()
    one = _assemble(2, 3, ((1, 2),)).raw
    assert decompose_module(b, one) == Obj.of(b.id_of("M(1,2)"))


def test_split_module_transport(backends):
    rng = random.Random(5)
    for (m, n), _ in backends.items():
        for _ in range(10):
            types = _random_types(rng, m, n, 3)
            raw = _assemble(m, n, types).raw
            got, to_canon, from_canon = split_module(raw)
            assert sorted(got) == sorted(types)
            for v in range(m):
                prod = to_canon[v].mul(from_canon[v])
                assert prod.bits == tuple(1 << i for i in range(prod.rows))


# ---------------------------------------------------------------- K = 9 properties


@pytest.fixture(scope="module")
def b34():
    return NakayamaBackend(3, 4)


def _random_obj(rng, b, most):
    return Obj.from_iter(rng.randrange(b.K) for _ in range(rng.randint(1, most)))


def _random_mor(rng, b, x, y):
    return Mor(x, y, rng.getrandbits(b.hom_dim(x, y)))


def test_shift_mor_round_trips_both_orders_at_k9(b34):
    # Omega first runs on arbitrary maps, not only on maps that are
    # already suspensions.
    rng = random.Random(34)
    nonzero = 0
    for _ in range(40):
        x, y = _random_obj(rng, b34, 3), _random_obj(rng, b34, 3)
        f = _random_mor(rng, b34, x, y)
        nonzero += not f.is_zero
        assert b34.shift_mor(b34.shift_mor(f, 1), -1) == f
        assert b34.shift_mor(b34.shift_mor(f, -1), 1) == f
        assert b34.shift_mor(f, -2) == b34.shift_mor(b34.shift_mor(f, -1), -1)
    assert nonzero > 20


def test_shift_mor_is_functorial_for_step_minus_one_at_k9(b34):
    rng = random.Random(35)
    for _ in range(25):
        x, y, z = (_random_obj(rng, b34, 2) for _ in range(3))
        assert b34.shift_mor(b34.identity(x), -1) == b34.identity(
            b34.shift_obj(x, -1)
        )
        f, f2 = _random_mor(rng, b34, x, y), _random_mor(rng, b34, x, y)
        g = _random_mor(rng, b34, y, z)
        sf, sg = b34.shift_mor(f, -1), b34.shift_mor(g, -1)
        assert b34.shift_mor(f.plus(f2), -1) == sf.plus(b34.shift_mor(f2, -1))
        assert b34.shift_mor(b34.compose(f, g), -1) == b34.compose(sf, sg)


def test_cover_lift_oracle_agrees_with_omega_at_k9(b34):
    # Omega on maps is solved from Sigma, which is an envelope lift; the
    # mirrored lift through projective covers is its independent oracle.
    rng = random.Random(39)
    nonzero = 0
    for _ in range(48):
        x, y = _random_obj(rng, b34, 3), _random_obj(rng, b34, 3)
        f = _random_mor(rng, b34, x, y)
        nonzero += not f.is_zero
        assert cover_omega(b34, f) == b34.shift_mor(f, -1)
    assert nonzero > 24


def test_rotations_are_mutually_inverse_at_k9(b34):
    rng = random.Random(40)
    for _ in range(20):
        x, y = _random_obj(rng, b34, 2), _random_obj(rng, b34, 2)
        t = b34.cone(_random_mor(rng, b34, x, y))
        assert b34.rotate_left(b34.rotate_right(t)) == t
        assert b34.rotate_right(b34.rotate_left(t)) == t


def test_omega_refuses_a_suspension_that_is_not_injective():
    class ZeroSuspension(NakayamaBackend):
        def suspend(self, f):
            return Mor(self.shift_obj(f.src, 1), self.shift_obj(f.dst, 1), 0)

    b = ZeroSuspension(2, 3)
    f = b.identity(Obj.of(0, 2))
    assert not f.is_zero
    with pytest.raises(InternalCheckError, match="not injective"):
        b.shift_mor(f, -1)


def _invertible(rng, d):
    while True:
        mat = F2Matrix.from_rows([rng.getrandbits(d) for _ in range(d)], d)
        if rank(mat) == d:
            return mat


def _inverse(mat):
    cols = [solve(mat, 1 << c) for c in range(mat.cols)]
    return F2Matrix.from_rows(cols, mat.rows).transpose()


def _twisted(rng, m, n, types):
    """The assembly of types, conjugated by random basis changes."""
    raw = _assemble(m, n, types).raw
    p = [_invertible(rng, d) for d in raw.dims]
    return RawModule(
        m,
        n,
        raw.dims,
        tuple(
            p[(v + 1) % m].mul(raw.mats[v]).mul(_inverse(p[v]))
            for v in range(m)
        ),
    )


@pytest.mark.parametrize("m,n", [(1, 7), (3, 4), (4, 5)])
def test_split_module_on_twisted_modules(m, n):
    # Twisted modules have no coordinate summands; the splitter must
    # still return the types that rank counting finds, non-projective
    # first and sorted, and a module isomorphism onto their assembly.
    rng = random.Random(36)
    for _ in range(30):
        types = _random_types(rng, m, n, rng.randint(1, 7))
        twisted = _twisted(rng, m, n, types)
        got, to_canon, from_canon = split_module(twisted)
        assert sorted(got) == sorted(types)
        assert dict(Counter(got)) == decompose_counts(twisted)
        assert list(got) == sorted(got, key=lambda t: (t[1] == n, t))
        canon = _assemble(m, n, got).raw
        for v in range(m):
            w = (v + 1) % m
            d = twisted.dims[v]
            assert to_canon[v].mul(from_canon[v]) == F2Matrix.identity(d)
            assert from_canon[v].mul(to_canon[v]) == F2Matrix.identity(d)
            assert to_canon[w].mul(twisted.mats[v]) == canon.mats[v].mul(
                to_canon[v]
            )


def _entrywise_rows(a, b):
    """Commuting-square rows built entry by entry, as the oracle."""
    base, off = [], 0
    for v in range(a.m):
        base.append(off)
        off += b.dims[v] * a.dims[v]
    rows = []
    for v in range(a.m):
        w = (v + 1) % a.m
        for r in range(b.dims[w]):
            for c in range(a.dims[v]):
                row = 0
                for k in range(b.dims[v]):
                    if b.mats[v].entry(r, k):
                        row ^= 1 << (base[v] + k * a.dims[v] + c)
                for k in range(a.dims[w]):
                    if a.mats[v].entry(k, c):
                        row ^= 1 << (base[w] + r * a.dims[w] + k)
                if row:
                    rows.append(row)
    return base, off, rows


def _twisted_pairs(seed):
    rng = random.Random(seed)
    for m, n in ((1, 4), (2, 3), (3, 4)):
        for _ in range(15):
            yield rng, tuple(
                _twisted(rng, m, n, _random_types(rng, m, n, rng.randint(0, 3)))
                for _ in range(2)
            )


def test_commutation_rows_match_the_entrywise_oracle():
    # m = 1 puts both ends of every arrow at one vertex, where the two
    # halves of a row can cancel.
    for _, (a, b) in _twisted_pairs(37):
        assert _commutation_rows(a, b) == _entrywise_rows(a, b)


def test_module_map_solver_meets_pins():
    # Pins that fix a map only modulo a kernel (selected pins) live in
    # the cover-lift oracle, which the Omega test above holds to account.
    for rng, (a, b) in _twisted_pairs(38):
        flat = 0
        for vec in _hom_basis_raw(a, b):
            flat ^= vec * rng.getrandbits(1)
        phi = _unflatten(a, b, flat)
        interp = []
        for v in range(a.m):
            if a.dims[v] and b.dims[v]:
                src = rng.getrandbits(a.dims[v])
                interp.append((v, src, phi[v].matvec(src)))
        got = _solve_module_map(a, b, interp)
        assert got is not None
        for v in range(a.m):
            w = (v + 1) % a.m
            assert b.mats[v].mul(got[v]) == got[w].mul(a.mats[v])
        for v, src, tgt in interp:
            assert got[v].matvec(src) == tgt


# ---------------------------------------------------------------- enumeration


def test_enumerate_finds_split_witness():
    b = NakayamaBackend(2, 3)
    xset, yset = [0, 1], [2, 3]
    c = Obj.of(0, b.shift_id(2, 1))
    tris = list(b.triangle_enumerate(xset, yset, c, cap=2))
    # a split triangle, the one kind whose connecting map is zero
    assert any(t.h.is_zero for t in tris)


def test_enumerate_with_zero_second_set():
    b = NakayamaBackend(2, 2)
    for ids in ([0], [0, 1]):
        inside = Obj.from_iter(ids)
        assert any(True for _ in b.triangle_enumerate([0, 1], [], inside, cap=2))
    outside = Obj.of(0)
    assert not list(b.triangle_enumerate([1], [], outside, cap=2))


def test_enumerate_triangles_are_exact(backends):
    b = backends[(2, 2)]
    count = 0
    for t in b.triangle_enumerate([0, 1], [0, 1], Obj.of(0, 1), cap=2):
        assert b.compose(t.f, t.g).is_zero
        assert b.compose(t.g, t.h).is_zero
        count += 1
    assert count > 0


def test_enumerate_budget_is_enforced():
    b = NakayamaBackend(2, 3)
    gen = b.triangle_enumerate([0, 1, 2, 3], [0, 1, 2, 3], Obj.of(0, 1), cap=4, budget=3)
    with pytest.raises(BudgetExceeded):
        for _ in gen:
            pass
