"""Bit-level enumeration routes against the slow routes they replace.

The first-class and second-class 2^K sweeps below are the exhaustive
routes that ``PairEngine.enumerate_cotorsion`` and
``cli.enumerate_by_second_class`` used before they walked closed sets,
and the 4^n sweep over quotient pairs (L, R) is the route
``MutationEngine.enumerate_zi_cp`` used before it did the same; they
survive here only as oracles.  The perpendicular and degree-one
bitmasks are checked against the definitional Hom-table loops, and
``closed_sets`` against a brute-force filter on random closure systems.
"""

import random

import pytest

from cotor import cli
from cotor.core import InternalCheckError
from cotor.mutation import MutationEngine, ZICotorsionPair
from cotor.nakayama import NakayamaBackend
from cotor.pairs import CotorsionPair, PairEngine, TwinCotorsionPair, trivial_hovey_tcp
from cotor.quotient import ZIQuotient
from cotor.subcats import Subcat, closed_sets, left_perp, right_perp

# Every Nakayama backend with at most 12 indecomposables (K = m(n-1)).
SMALL = [(m, n) for n in range(2, 14) for m in range(1, 13) if m * (n - 1) <= 12]


# ---------------------------------------------------------------- oracles


def sweep_first_classes(engine):
    b = engine.backend
    found = []
    for bits in range(1 << b.K):
        u = Subcat(b, bits)
        if not engine.star.is_ext_closed_pairwise(u):
            continue
        v = right_perp(u)
        if left_perp(v) != u:
            continue
        if engine.is_cotorsion_pair(u, v).is_yes:
            found.append(CotorsionPair(u, v))
    return found


def sweep_second_classes(engine):
    b = engine.backend
    out = []
    for bits in range(1 << b.K):
        v = Subcat(b, bits)
        if not engine.star.is_ext_closed_pairwise(v):
            continue
        u = left_perp(v)
        if right_perp(u) != v:
            continue
        if engine.is_cotorsion_pair(u, v).is_yes:
            out.append(CotorsionPair(u, v))
    return out


def sweep_zi_pairs(me):
    reps = me.q.zi_objects()
    n = len(reps)
    out = []
    for lbits in range(1 << n):
        l = tuple(reps[i] for i in range(n) if (lbits >> i) & 1)
        for rbits in range(1 << n):
            r = tuple(reps[i] for i in range(n) if (rbits >> i) & 1)
            if me.zi_is_cp(l, r):
                out.append(ZICotorsionPair.of(l, r))
    return out


def keys(pairs):
    return [p.key() for p in pairs]


def bijection_engines(engine):
    """Mutation engines on the bijection suite's designated twin pairs
    that meet both quotient conditions, in the suite's order."""
    targets = [trivial_hovey_tcp(engine)]
    targets += [engine.make_tcp(cp, cp) for cp in engine.enumerate_cotorsion().pairs]
    targets += [
        p for p in engine.enumerate_tcp() if engine.is_concentric(p) and p.flags()["zz_setting"]
    ]
    seen = set()
    out = []
    for p in targets:
        if p.key() not in seen:
            seen.add(p.key())
            me = MutationEngine(engine, p)
            if me.preconditions_met:
                out.append(me)
    return out


# ---------------------------------------------------------------- class routes


@pytest.mark.parametrize("mn", SMALL, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_closed_set_routes_match_the_sweeps(mn):
    eng = PairEngine(NakayamaBackend(*mn))
    assert keys(eng.enumerate_cotorsion().pairs) == keys(sweep_first_classes(eng))
    assert keys(cli.enumerate_by_second_class(eng)) == keys(sweep_second_classes(eng))


# (m, n) of the Nakayama backends whose quotient pairs are swept.
ZI_BACKENDS = [(1, 4), (2, 2), (2, 3), (3, 2), (4, 2)]


@pytest.mark.parametrize("m,n", ZI_BACKENDS)
def test_quotient_pair_walk_matches_the_sweep(m, n):
    mes = bijection_engines(PairEngine(NakayamaBackend(m, n)))
    assert mes
    for me in mes:
        assert me.enumerate_zi_cp() == sweep_zi_pairs(me), me.p.as_labels()


def test_quotient_pair_walk_tests_one_candidate_per_closed_set(monkeypatch):
    calls = {}
    honest = MutationEngine.zi_is_cp

    def counted(self, l, r):
        calls[self.p.key()] = calls.get(self.p.key(), 0) + 1
        return honest(self, l, r)

    monkeypatch.setattr(MutationEngine, "zi_is_cp", counted)
    for me in bijection_engines(PairEngine(NakayamaBackend(2, 4))):
        me.enumerate_zi_cp()
        assert calls.get(me.p.key(), 0) <= 1 << len(me.q.zi_objects())
    assert sum(calls.values()) == 32


def _implication_closure(rules):
    def closure(bits):
        grown = True
        while grown:
            grown = False
            for premise, conclusion in rules:
                if premise & ~bits == 0 and conclusion & ~bits:
                    bits |= conclusion
                    grown = True
        return bits

    return closure


def test_closed_sets_match_brute_force_on_random_systems():
    rng = random.Random(20261018)
    for _ in range(300):
        k = rng.randint(0, 10)
        rules = []
        for _ in range(rng.randint(0, 2 * k)):
            premise = sum(1 << i for i in range(k) if rng.random() < 0.25)
            conclusion = 1 << rng.randrange(k) if k else 0
            rules.append((premise, conclusion))
        closure = _implication_closure(rules)
        want = [s for s in range(1 << k) if closure(s) == s]
        assert list(closed_sets(k, closure)) == want, (k, rules)


# ---------------------------------------------------------------- masks


@pytest.fixture(scope="module")
def b45():
    return NakayamaBackend(4, 5)


def test_mask_perps_match_the_hom_table_at_k16(b45):
    rng = random.Random(16)
    k = b45.K
    for _ in range(60):
        x = Subcat(b45, rng.getrandbits(k) & rng.getrandbits(k))
        # Ext^1(s, c) = Hom(s[-1], c) and Ext^1(c, s) = Hom(c, s[1])
        down = [b45.shift_id(i, -1) for i in x]
        up = [b45.shift_id(i, 1) for i in x]
        rp = [c for c in range(k) if all(b45.hom_dim_pair(s, c) == 0 for s in down)]
        lp = [c for c in range(k) if all(b45.hom_dim_pair(c, s) == 0 for s in up)]
        assert right_perp(x).ids() == rp
        assert left_perp(x).ids() == lp


def test_ext1_witness_matches_the_hom_table_at_k16(b45):
    eng = PairEngine(b45)
    rng = random.Random(61)
    k = b45.K
    for _ in range(200):
        a = Subcat(b45, rng.getrandbits(k) & rng.getrandbits(k) & rng.getrandbits(k))
        c = Subcat(b45, rng.getrandbits(k) & rng.getrandbits(k))
        want = next(
            (
                (i, j)
                for i in a
                for j in c
                if b45.hom_dim_pair(i, b45.shift_id(j, 1)) > 0
            ),
            None,
        )
        assert eng.ext1_witness(a, c) == want


def test_enumerate_tcp_matches_is_tcp_per_pair():
    eng = PairEngine(NakayamaBackend(3, 4))
    cps = eng.enumerate_cotorsion().pairs
    want = [
        TwinCotorsionPair(inner, outer).key()
        for inner in cps
        for outer in cps
        if eng.is_tcp(inner, outer)
    ]
    got = eng.enumerate_tcp()
    assert [p.key() for p in got] == want
    # walked once per engine: a second call reads the same list
    assert eng.enumerate_tcp() is got


def test_engines_on_one_backend_share_its_masks():
    b = NakayamaBackend(2, 4)
    first, second = PairEngine(b), PairEngine(b)
    masks = b.ext1_masks()
    assert b.ext1_masks() is masks
    assert first._ext1 is second._ext1 is masks[0]


# ---------------------------------------------------------------- failure paths


def test_shift_breaking_the_galois_connection_is_caught(monkeypatch):
    b = NakayamaBackend(2, 3)
    honest = b.shift_id
    # Forward shifts do nothing, so Hom(s, c[1]) reads Hom(s, c).
    monkeypatch.setattr(
        b, "shift_id", lambda i, k=1: honest(i, k) if k < 0 else i
    )
    with pytest.raises(InternalCheckError, match="disagree on vanishing"):
        right_perp(Subcat.of(b, [0]))


def _no_ext1(monkeypatch):
    # Clearing the engine's degree-one masks leaves each verified pair
    # passing its own orthogonality check, so only the twin check can
    # notice.  The perpendiculars read the backend's masks, which stay.
    honest = PairEngine.__init__

    def corrupted(engine, *args, **kwargs):
        honest(engine, *args, **kwargs)
        engine._ext1 = [0] * len(engine._ext1)

    monkeypatch.setattr(PairEngine, "__init__", corrupted)


def test_corrupted_ext1_mask_is_caught_by_enumerate_tcp(monkeypatch):
    _no_ext1(monkeypatch)
    eng = PairEngine(NakayamaBackend(2, 2))
    with pytest.raises(InternalCheckError, match="criteria disagree"):
        eng.enumerate_tcp()


def test_corrupted_ext1_mask_exits_one_without_traceback(monkeypatch, capsys):
    _no_ext1(monkeypatch)
    rc = cli.main(["enumerate-tcp", "--backend", "nakayama:m=2,n=2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "property violation: equivalent twin-pair criteria disagree"
    )
    assert "Traceback" not in captured.err


def test_vanishing_quotient_ext1_exits_one_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(ZIQuotient, "ext1_zi", lambda self, x, y: 0)
    rc = cli.main(["verify", "--suite", "bijection", "--backend", "nakayama:m=2,n=3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("property violation:")
    assert "Traceback" not in captured.err
