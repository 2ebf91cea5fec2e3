"""Mutation machinery: descent, lift, mutable class, action, bijection.

The trivial twin pair has the whole ambient category as its quotient,
so every transported structure can be compared against plain shifts,
and the mutable class must be the full set of cotorsion pairs.  The
doubled pairs have zero quotients and a one-element mutable class.
"""

import pytest

from cotor import cli
from cotor.core import InputError, InternalCheckError
from cotor.nakayama import NakayamaBackend
from cotor.pairs import CotorsionPair, PairEngine, trivial_hovey_tcp
from cotor.mutation import MutationEngine, ZICotorsionPair
from cotor.subcats import Subcat

CP_COUNTS = {(1, 3): 2, (1, 4): 2, (2, 2): 4}


@pytest.fixture(scope="module")
def engines():
    return {mn: PairEngine(NakayamaBackend(*mn)) for mn in CP_COUNTS}


@pytest.fixture(scope="module")
def mut22(engines):
    eng = engines[(2, 2)]
    return MutationEngine(eng, trivial_hovey_tcp(eng))


@pytest.fixture(scope="module")
def mut_doubled(engines):
    eng = engines[(2, 2)]
    s0 = Subcat.from_labels(eng.backend, ["M(0,1)"])
    cp = CotorsionPair(s0, s0)
    return MutationEngine(eng, eng.make_tcp(cp, cp))


def pair_of(eng, labels_u):
    b = eng.backend
    u = Subcat.from_labels(b, labels_u)
    from cotor.subcats import right_perp

    cp = CotorsionPair(u, right_perp(u))
    assert eng.is_cotorsion_pair(cp.u, cp.v).is_yes
    return cp


# ---------------------------------------------------------------- descent


def test_descent_is_plain_identity_on_the_trivial_pair(mut22):
    eng = mut22.engine
    for cp in eng.enumerate_cotorsion().pairs:
        zp = mut22.R_map(cp)
        assert zp == ZICotorsionPair.of(cp.u.ids(), cp.v.ids())


def test_lift_inverts_descent(mut22):
    eng = mut22.engine
    for cp in eng.enumerate_cotorsion().pairs:
        back = mut22.I_map(mut22.R_map(cp))
        assert back.key() == cp.key()


def test_lift_adds_core_members(mut_doubled):
    lifted = mut_doubled.lift(())
    assert sorted(lifted.labels()) == ["M(0,1)"]


# ---------------------------------------------------------------- mutable class


def test_trivial_pair_has_all_pairs_mutable(engines):
    for mn, eng in engines.items():
        mut = MutationEngine(eng, trivial_hovey_tcp(eng))
        mp = mut.enumerate_MP()
        assert len(mp) == CP_COUNTS[mn], mn
        assert {cp.key() for cp in mp} == {
            cp.key() for cp in eng.enumerate_cotorsion().pairs
        }


def test_doubled_pair_has_singleton_mutable_class(mut_doubled):
    mp = mut_doubled.enumerate_MP()
    assert len(mp) == 1
    assert sorted(mp[0].u.labels()) == ["M(0,1)"]
    assert sorted(mp[0].v.labels()) == ["M(0,1)"]


def test_membership_needs_a_verified_pair(mut22):
    b = mut22.backend
    unverified = CotorsionPair(Subcat.of(b, [0]), Subcat.of(b, [1]))
    # The refusal is not stored as an answer: it comes back every time.
    for _ in range(2):
        with pytest.raises(InputError):
            mut22.in_MP(unverified)


# ---------------------------------------------------------------- quotient pairs


def test_native_quotient_pairs_match_descent_images(mut22):
    zcp = mut22.enumerate_zi_cp()
    want = {mut22.R_map(cp) for cp in mut22.enumerate_MP()}
    assert set(zcp) == want
    assert len(zcp) == 4


def test_shift_of_quotient_pairs_is_the_shift_permutation(mut22):
    zp = ZICotorsionPair.of([0], [0])
    swapped = ZICotorsionPair.of([1], [1])
    assert mut22.shift_zi_pair(zp, 1) == swapped
    assert mut22.shift_zi_pair(zp, -1) == swapped
    assert mut22.shift_zi_pair(zp, 2) == zp
    assert mut22.shift_zi_pair(zp, 0) == zp
    # a walk of |k| single steps would never return from these exponents
    assert mut22.shift_zi_pair(zp, 10**18 + 1) == swapped
    assert mut22.shift_zi_pair(zp, -(10**18)) == zp


def test_zi_pair_normalizes_input():
    zp = ZICotorsionPair.of([2, 0, 2], [1, 1])
    assert zp.l == (0, 2) and zp.r == (1,)


# ---------------------------------------------------------------- the action


def test_single_step_swaps_the_cluster_tilting_pairs(mut22):
    eng = mut22.engine
    b = eng.backend
    s0_pair = pair_of(eng, ["M(0,1)"])
    s1_pair = pair_of(eng, ["M(1,1)"])
    assert mut22.mutate(s0_pair, 1).key() == s1_pair.key()
    assert mut22.mutate(s1_pair, 1).key() == s0_pair.key()
    assert mut22.mutate(s0_pair, 2).key() == s0_pair.key()
    assert mut22.mutate(s0_pair, -1).key() == s1_pair.key()
    assert mut22.mutate(s0_pair, 10**18 + 1).key() == mut22.mutate(s0_pair, 1).key()


def test_trivial_pairs_are_fixed_points(mut22):
    eng = mut22.engine
    from cotor.pairs import trivial_pairs

    all_cp, zero_cp = trivial_pairs(eng)
    for cp in (all_cp, zero_cp):
        for k in (-2, -1, 0, 1, 2):
            assert mut22.mutate(cp, k).key() == cp.key()


def test_mutation_rejects_pairs_outside_the_class(mut_doubled):
    outside = pair_of(mut_doubled.engine, ["M(1,1)"])
    assert not mut_doubled.in_MP(outside)
    with pytest.raises(InputError):
        mut_doubled.mutate(outside, 1)


def test_mutate_keeps_answers_but_never_refusals(mut22, mut_doubled, monkeypatch):
    # A refusal raises on every call, since errors are never stored; an
    # answer is stored per (pair, k), so asking again skips the mutable
    # class test that the first call ran on the pair and on its image.
    asked = []
    honest = MutationEngine.in_MP
    monkeypatch.setattr(
        MutationEngine, "in_MP", lambda self, cp: asked.append(cp) or honest(self, cp)
    )
    outside = pair_of(mut_doubled.engine, ["M(1,1)"])
    for _ in range(2):
        with pytest.raises(InputError, match="outside the mutable class"):
            mut_doubled.mutate(outside, 1)
    assert len(asked) == 2
    fresh = MutationEngine(mut22.engine, mut22.p)
    cp = pair_of(mut22.engine, ["M(0,1)"])
    first = fresh.mutate(cp, 1)
    assert len(asked) == 4
    assert fresh.mutate(CotorsionPair(cp.u, cp.v), 1) is first
    assert len(asked) == 4
    assert fresh.mutate(cp, 2).key() == cp.key()
    assert len(asked) == 6


def test_mutation_needs_both_conditions():
    # Concentric pair on the three-block backend that fails the
    # downward condition; every action entry point must refuse.
    eng = PairEngine(NakayamaBackend(3, 2))
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
    mut = MutationEngine(eng, p)
    assert not mut.preconditions_met
    cp = eng.enumerate_cotorsion().pairs[0]
    with pytest.raises(InputError):
        mut.mutate(cp, 1)
    with pytest.raises(InputError):
        mut.verify_bijection()
    with pytest.raises(InputError):
        mut.orbit_graph()


# ---------------------------------------------------------------- verification


def test_bijection_report_on_trivial_pairs(engines):
    for mn, eng in engines.items():
        mut = MutationEngine(eng, trivial_hovey_tcp(eng))
        rep = mut.verify_bijection()
        assert rep["ok"], (mn, rep["failures"])
        assert rep["mutable_count"] == rep["quotient_count"] == CP_COUNTS[mn]


def test_bijection_report_on_doubled_pairs(engines):
    eng = engines[(2, 2)]
    for cp in eng.enumerate_cotorsion().pairs:
        mut = MutationEngine(eng, eng.make_tcp(cp, cp))
        rep = mut.verify_bijection()
        assert rep["ok"], rep["failures"]
        assert rep["mutable_count"] == rep["quotient_count"] == 1


def test_orbit_graph_structure(mut22):
    dot = mut22.orbit_graph()
    assert dot.startswith("digraph mutation {")
    assert dot.endswith("}")
    mp = mut22.enumerate_MP()
    edges = []
    for line in dot.splitlines():
        if "->" in line:
            src, dst = line.strip().rstrip(";").split(" -> ")
            edges.append((src, dst))
    assert len(edges) == len(mp) == 4
    # Self-loops on the two trivial pairs, a two-cycle through the
    # simples on the cluster-tilting pairs.
    loops = [e for e in edges if e[0] == e[1]]
    swaps = [e for e in edges if e[0] != e[1]]
    assert len(loops) == 2 and len(swaps) == 2
    assert swaps[0] == (swaps[1][1], swaps[1][0])


# ---------------------------------------------------------------- stored answers


def test_bijection_sweeps_once_per_distinct_input(monkeypatch, capsys):
    # verify_bijection asks I_map and in_MP the same questions many times
    # over; each distinct question runs its two star sweeps at most once.
    calls = {"I_map": 0, "in_MP": 0, "_star_members": 0}
    asked = {"I_map": set(), "in_MP": set()}
    inside = []
    honest = {
        name: getattr(MutationEngine, name)
        for name in ("I_map", "in_MP", "verify_bijection", "_star_members")
    }

    def record(name, key):
        def wrapper(self, arg):
            calls[name] += 1
            asked[name].add((self, key(arg)))
            return honest[name](self, arg)

        return wrapper

    def verify(self):
        inside.append(True)
        try:
            return honest["verify_bijection"](self)
        finally:
            inside.pop()

    def star_members(self, *args):
        calls["_star_members"] += bool(inside)
        return honest["_star_members"](self, *args)

    monkeypatch.setattr(MutationEngine, "I_map", record("I_map", lambda zp: zp))
    monkeypatch.setattr(MutationEngine, "in_MP", record("in_MP", lambda cp: cp.key()))
    monkeypatch.setattr(MutationEngine, "verify_bijection", verify)
    monkeypatch.setattr(MutationEngine, "_star_members", star_members)
    argv = ["verify", "--suite", "bijection", "--backend", "nakayama:m=2,n=4"]
    assert cli.main(argv) == 0
    distinct = len(asked["I_map"]) + len(asked["in_MP"])
    assert calls["I_map"] > len(asked["I_map"]) and calls["in_MP"] > len(asked["in_MP"])
    assert 0 < calls["_star_members"] <= 2 * distinct


def left_by_everything(monkeypatch):
    """Patch every left approximation to be taken by the whole category,
    whose cocones are all zero: the lift's star route and the membership
    test's star V' * V[1] then pass every member.  No other route that the
    tests below run reads a left one."""
    honest = PairEngine.approximation

    def perturbed(self, cls, c, step):
        if step == -1:
            cls = Subcat.everything(cls.backend)
        return honest(self, cls, c, step)

    monkeypatch.setattr(PairEngine, "approximation", perturbed)


def test_a_disagreeing_star_route_raises_on_every_call(mut22, monkeypatch):
    eng = mut22.engine
    cp = pair_of(eng, ["M(0,1)"])
    zp = mut22.R_map(cp)
    fresh = MutationEngine(eng, mut22.p)
    left_by_everything(monkeypatch)
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="lift routes disagree"):
            fresh.I_map(zp)
        with pytest.raises(InternalCheckError, match="characterizations disagree"):
            fresh.in_MP(cp)
    monkeypatch.undo()
    # Nothing was stored while the routes disagreed.
    assert fresh.I_map(zp).key() == cp.key()
    assert fresh.in_MP(cp)


def test_the_lift_needs_no_peel_budget(monkeypatch):
    # The lift's stars are decided by approximations, so an engine whose
    # peel has no budget at all lifts every quotient pair to the same pair
    # and still compares the two routes on every call.
    b = NakayamaBackend(2, 4)
    full, starved = PairEngine(b), PairEngine(b)
    starved.star.budget = 0
    lifted = 0
    for p in full.enumerate_tcp():
        if not full.is_concentric(p):
            continue
        mut, starving = MutationEngine(full, p), MutationEngine(starved, p)
        if not mut.preconditions_met or not mut.q.zi_objects():
            continue
        for zp in mut.enumerate_zi_cp():
            assert starving.I_map(zp) == mut.I_map(zp)
            with monkeypatch.context() as m:
                left_by_everything(m)
                with pytest.raises(InternalCheckError, match="lift routes disagree"):
                    MutationEngine(starved, p).I_map(zp)
            lifted += 1
    assert lifted


def test_the_mutable_class_needs_no_peel_budget(monkeypatch):
    # The fixed-point stars are decided by approximations too, so an engine
    # whose peel has no budget at all finds the same mutable classes and
    # still compares the two characterizations on every call.
    b = NakayamaBackend(2, 4)
    full, starved = PairEngine(b), PairEngine(b)
    starved.star.budget = 0
    raised = 0
    for p in full.concentric_tcps():
        mp = MutationEngine(full, p).enumerate_MP()
        assert MutationEngine(starved, p).enumerate_MP() == mp
        with monkeypatch.context() as m:
            left_by_everything(m)
            fresh = MutationEngine(starved, p)
            # V' * V[1] now holds all of T, so a mutable pair with V' short
            # of T fails the fixed-point route alone.
            for cp in mp:
                if cp.v != p.t:
                    with pytest.raises(
                        InternalCheckError, match="characterizations disagree"
                    ):
                        fresh.in_MP(cp)
                    raised += 1
    assert raised
