"""Acceptance gate: one test per promised property, run with -v for a
one-line verdict each.

Exact counts are re-derived here by brute-force enumerations that share
no pruning logic with the library: a free double loop over subset pairs
for cotorsion pairs, and from-scratch crossing combinatorics for the
polygon model.  Everything else checks the advertised identities over
every enumerated structure, with zero tolerated exceptions.
"""

import random
import time
from itertools import islice

import pytest

from cotor import cli
from cotor.core import Mor, Obj
from cotor.mutation import MutationEngine
from cotor.nakayama import NakayamaBackend
from cotor.pairs import (
    CotorsionPair,
    PairEngine,
    trivial_hovey_tcp,
)
from cotor.polygon import (
    PolygonBackend,
    enumerate_ptolemy,
    enumerate_rigid,
    triangulations_among,
    zz_mutate,
)
from cotor.quotient import ZIQuotient
from cotor.subcats import Subcat, left_perp, right_perp
from helpers import ext_closure

INSTANCES = [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


@pytest.fixture(scope="module")
def engines():
    return {mn: PairEngine(NakayamaBackend(*mn)) for mn in INSTANCES}


def concentric(eng):
    return [p for p in eng.enumerate_tcp() if eng.is_concentric(p)]


def all_tcps(eng):
    return eng.enumerate_tcp()


def extension_classes(eng, p):
    """Initial and final extension classes of any twin pair, with the
    second star argument extension-closed so the peel route is exact."""
    n_i, ok_i = eng.star.star_indecs(p.s, p.v.shifted(1))
    n_f, ok_f = eng.star.star_indecs(p.s.shifted(-1), p.v)
    assert ok_i and ok_f
    return n_i, n_f


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_backend_exactness(engines):
    for (m, n), eng in engines.items():
        b = eng.backend
        ids = range(b.K)
        for x in ids:
            obj = Obj.of(x)
            assert b.cone(b.identity(obj)).c.is_zero, (m, n, x)
        for x in ids:
            for y in ids:
                xo, yo = Obj.of(x), Obj.of(y)
                t = b.cone(Mor(xo, yo, 0))
                assert t.c == Obj.from_iter([y, b.shift_id(x, 1)])
                assert b.compose(t.f, t.g).is_zero
                assert b.compose(t.g, t.h).is_zero
                for k in range(b.hom_dim(xo, yo)):
                    w = b.cone(Mor(xo, yo, 1 << k))
                    assert b.compose(w.f, w.g).is_zero
                    assert b.compose(w.g, w.h).is_zero
        every = list(ids)
        for c in ids:
            for w in islice(
                b.triangle_enumerate(every, every, Obj.of(c), cap=3), 30
            ):
                assert b.compose(w.f, w.g).is_zero
                assert b.compose(w.g, w.h).is_zero
        if m == 1:
            for i in ids:
                for j in ids:
                    li, lj = i + 1, j + 1
                    assert b.hom_dim_pair(i, j) == min(li, lj, n - li, n - lj)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_cotorsion_duality(engines):
    for mn, eng in engines.items():
        for p in eng.enumerate_cotorsion().pairs:
            assert p.v == right_perp(p.u), (mn, p.as_labels())
            assert p.u == left_perp(p.v), (mn, p.as_labels())


# -- criterion 3 ---------------------------------------------------------------


def _brute_force_pairs(b, cap=3):
    k = b.K
    shift1 = [b.shift_id(i, 1) for i in range(k)]

    def orth(u, v):
        return all(b.hom_dim_pair(i, shift1[j]) == 0 for i in u for j in v)

    def covers(u, v):
        v1 = [shift1[j] for j in v]
        for c in range(k):
            if not any(
                True for _ in b.triangle_enumerate(u, v1, Obj.of(c), cap=cap)
            ):
                return False
        return True

    found = []
    for ub in range(1 << k):
        u = [i for i in range(k) if (ub >> i) & 1]
        for vb in range(1 << k):
            v = [i for i in range(k) if (vb >> i) & 1]
            if orth(u, v) and covers(u, v):
                found.append((ub, vb))
    return found


def _square_free_counts(n):
    arcs = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]

    def cross(a, c):
        return (a[0] < c[0] < a[1] < c[1]) or (c[0] < a[0] < c[1] < a[1])

    rigid = []
    for bits in range(1 << len(arcs)):
        chosen = [arcs[i] for i in range(len(arcs)) if (bits >> i) & 1]
        if all(
            not cross(chosen[i], chosen[j])
            for i in range(len(chosen))
            for j in range(i + 1, len(chosen))
        ):
            rigid.append(chosen)
    maximal = [
        s
        for s in rigid
        if all(
            a in s or any(cross(a, c) for c in s) for a in arcs
        )
    ]
    return len(rigid), len(maximal)


def test_criterion_03_exact_counts(engines):
    oracle13 = _brute_force_pairs(engines[(1, 3)].backend)
    assert len(oracle13) == 2
    assert len(engines[(1, 3)].enumerate_cotorsion().pairs) == 2

    oracle22 = _brute_force_pairs(engines[(2, 2)].backend)
    assert len(oracle22) == 4
    assert sum(1 for ub, vb in oracle22 if ub == vb and ub) == 2
    got22 = engines[(2, 2)].enumerate_cotorsion().pairs
    assert len(got22) == 4
    assert sum(1 for p in got22 if p.flags()["cluster_tilting"]) == 2

    rigid, tris = _square_free_counts(5)
    assert rigid == 11 and tris == 5
    b5 = PolygonBackend(5)
    assert len(enumerate_rigid(b5)) == 11
    assert len(triangulations_among(b5, enumerate_rigid(b5))) == 5


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04_tcp_identities(engines):
    rng = random.Random(20260816)
    population = []
    for mn, eng in engines.items():
        for p in all_tcps(eng):
            n_i, n_f = extension_classes(eng, p)
            assert p.u.intersect(n_i) == p.s, (mn, p.as_labels())
            assert p.t.intersect(n_f) == p.v, (mn, p.as_labels())
            if len(p.u) and len(p.t):
                population.append((eng, p, n_i))
    assert population
    for _ in range(100):
        eng, p, n_i = population[rng.randrange(len(population))]
        u = rng.choice(sorted(p.u.ids()))
        t = rng.choice(sorted(p.t.ids()))
        shifted = Obj.of(eng.backend.shift_id(t, 1))
        through = eng.factoring_subspace(Obj.of(u), n_i.bits, shifted)
        assert through == [], (p.as_labels(), u, t)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05_concentric_classification(engines):
    for mn, eng in engines.items():
        for p in concentric(eng):
            d = eng.derived_sets(p)
            both_t = (
                p.inner.flags()["t_structure"]
                and p.outer.flags()["t_structure"]
            )
            assert d.i.is_empty == both_t, (mn, p.as_labels())


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_adjunction(engines):
    for mn, eng in engines.items():
        for p in concentric(eng):
            q = ZIQuotient.for_pair(eng, p)
            reps = q.zi_objects()
            for x in reps:
                for y in reps:
                    lhs = q.hom_mod_I(q.shift(Obj.of(x), 1), Obj.of(y)).dim
                    rhs = q.hom_mod_I(Obj.of(x), q.shift(Obj.of(y), -1)).dim
                    assert lhs == rhs, (mn, p.as_labels(), x, y)
            if len(reps) >= 2:
                wide = Obj.from_iter(reps)
                lhs = q.hom_mod_I(q.shift(wide, 1), wide).dim
                rhs = q.hom_mod_I(wide, q.shift(wide, -1)).dim
                assert lhs == rhs


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_triangulation_round_trip(engines):
    checked = 0
    for mn, eng in engines.items():
        for p in concentric(eng):
            if not (
                eng.check_condition_I(p).is_yes
                and eng.check_condition_II(p).is_yes
            ):
                continue
            q = ZIQuotient.for_pair(eng, p)
            for r in q.zi_objects():
                z = Obj.of(r)
                assert q.class_of(q.shift(q.shift(z, -1), 1)) == q.class_of(z)
                assert q.class_of(q.shift(q.shift(z, 1), -1)) == q.class_of(z)
                checked += 1
    assert checked > 0


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_main_theorem_bijection(engines):
    for mn, eng in engines.items():
        targets = {}
        widest = trivial_hovey_tcp(eng)
        targets[widest.key()] = widest
        for cp in eng.enumerate_cotorsion().pairs:
            p = eng.make_tcp(cp, cp)
            targets[p.key()] = p
        for p in all_tcps(eng):
            if p.flags()["zz_setting"]:
                targets[p.key()] = p
        for p in targets.values():
            me = MutationEngine(eng, p)
            assert me.preconditions_met, (mn, p.as_labels())
            report = me.verify_bijection()
            assert report["ok"], (mn, p.as_labels(), report["failures"])


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_monomorphism_bound(engines):
    checked = 0
    for mn, eng in engines.items():
        b = eng.backend
        for p in concentric(eng):
            if not (
                eng.check_condition_I(p).is_yes
                and eng.check_condition_II(p).is_yes
            ):
                continue
            q = ZIQuotient.for_pair(eng, p)
            for u in p.u:
                su, _ = q.adjoint(Obj.of(u), 1)
                for t in p.t:
                    ot, _ = q.adjoint(Obj.of(t), -1)
                    ambient = b.hom_dim_pair(u, b.shift_id(t, 1))
                    quotient = q.ext1_zi(su, ot)
                    assert ambient <= quotient, (mn, p.as_labels(), u, t)
                    checked += 1
    assert checked > 0


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_hovey_suite(engines):
    for mn, eng in engines.items():
        everything = Subcat.everything(eng.backend)
        widest = trivial_hovey_tcp(eng).key()
        for p in concentric(eng):
            verdict, n = eng.is_hovey(p)
            if p.flags()["degenerate"]:
                assert verdict.is_yes and n == everything, (mn, p.as_labels())
            if p.key() == widest:
                assert verdict.is_yes and n is not None and n.is_empty
            if not verdict.is_yes:
                continue
            assert n.shifted(1) == n, (mn, p.as_labels())
            closed, complete = ext_closure(eng.star, n)
            assert complete and closed == n, (mn, p.as_labels())
            assert p.u == left_perp(p.v)
            assert p.t == right_perp(p.s)


# -- criterion 11 --------------------------------------------------------------


def test_criterion_11_condition_iii_implies_i_and_ii(engines):
    for mn, eng in engines.items():
        for p in concentric(eng):
            if eng.check_condition_III(p).is_yes:
                assert eng.check_condition_I(p).is_yes, (mn, p.as_labels())
                assert eng.check_condition_II(p).is_yes, (mn, p.as_labels())


# -- criterion 12 --------------------------------------------------------------


def test_criterion_12_zz_showcase_cross_model(engines):
    eng = engines[(2, 2)]
    b = eng.backend
    s0_id = b.id_of("M(0,1)")
    s1_id = b.id_of("M(1,1)")

    # Every concentric twin pair whose core holds the first simple is
    # the doubled cluster pair with a zero quotient, so the swap is
    # staged on the widest pair, where the suspension is the ambient
    # shift and the core is empty.
    with_core = [
        p for p in concentric(eng) if s0_id in eng.derived_sets(p).i
    ]
    assert len(with_core) == 1
    assert with_core[0].flags()["degenerate"]
    assert ZIQuotient.for_pair(eng, with_core[0]).zi_objects() == []

    stage = trivial_hovey_tcp(eng)
    q = ZIQuotient.for_pair(eng, stage)
    assert q.class_of(q.shift(Obj.of(s0_id), 1)) == (s1_id,)

    s0 = Subcat.of(b, [s0_id])
    s1 = Subcat.of(b, [s1_id])
    ct0 = CotorsionPair(s0, right_perp(s0))
    ct1 = CotorsionPair(s1, right_perp(s1))
    assert ct0.flags()["cluster_tilting"]
    me = MutationEngine(eng, stage)
    assert me.mutate(ct0, 1).key() == ct1.key()
    assert me.mutate(ct1, 1).key() == ct0.key()
    assert me.mutate(ct0, 2).key() == ct0.key()

    poly = PolygonBackend(4)
    word = cli.match_backends(b, poly)
    assert word is not None
    tri0 = Subcat.from_labels(poly, [word["M(0,1)"]])
    tri1 = Subcat.from_labels(poly, [word["M(1,1)"]])
    flipped = zz_mutate(poly, Subcat.empty(poly), tri0, 1)
    assert flipped == tri1
    assert zz_mutate(poly, Subcat.empty(poly), flipped, 1) == tri0

    for z in range(b.K):
        sig = q.class_of(q.shift(Obj.of(z), 1))
        assert sig == (b.shift_id(z, 1),)
        rotated = poly.shift_id(poly.id_of(word[b.label_of(z)]), 1)
        assert word[b.label_of(sig[0])] == poly.label_of(rotated)


# -- criterion 13 --------------------------------------------------------------


def test_criterion_13_mu_naturality_anchor(engines):
    checked = 0
    for mn, eng in engines.items():
        for p in concentric(eng):
            q = ZIQuotient.for_pair(eng, p)
            for x in p.t.union(p.u):
                v = q.mu_map(Obj.of(x))[1]
                assert v.is_yes, (mn, p.as_labels(), x, v.reason)
                checked += 1
    assert checked > 0


# -- criterion 14 --------------------------------------------------------------


def test_criterion_14_performance(tmp_path):
    t0 = time.monotonic()
    eng = PairEngine(NakayamaBackend(2, 2))
    pairs = eng.enumerate_cotorsion().pairs
    assert len(pairs) == 4
    for p in concentric(eng):
        ZIQuotient.for_pair(eng, p)
    me = MutationEngine(eng, trivial_hovey_tcp(eng))
    assert me.verify_bijection()["ok"]
    pipeline = time.monotonic() - t0
    assert pipeline < 5.0, f"pipeline took {pipeline:.2f}s"

    t0 = time.monotonic()
    b6 = PolygonBackend(6)
    assert len(enumerate_rigid(b6)) == 45
    assert len(triangulations_among(b6, enumerate_rigid(b6))) == 14
    assert len(enumerate_ptolemy(b6)) == 82
    polygon_time = time.monotonic() - t0
    assert polygon_time < 10.0, f"polygon took {polygon_time:.2f}s"

    t0 = time.monotonic()
    rc = cli.main(
        [
            "verify", "--suite", "all", "--backend", "nakayama:m=2,n=3",
            "--out", str(tmp_path / "full.json"),
        ]
    )
    full = time.monotonic() - t0
    assert rc == 0
    assert full < 600.0, f"full suite took {full:.2f}s"
