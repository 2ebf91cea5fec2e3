"""Table-driven and bit-parallel sweep kernels against the loops they replace.

The per-move peel search (in both directions), the per-pair twin check,
the Subcat-built concentricity test, building and filtering every twin
pair, the 2^K polygon sweeps, the full standard right triangle and the
capped sum search of quotient coverage (``helpers.capped_zi_star_member``)
are the routes the engines used before; they survive here only as
oracles for the peel-move tables and the lift's approximation route, the
bit-sliced twin check, the twin counts read off partner masks
(``PairEngine.twin_masks``), the polygon closure walks,
``ZIQuotient.standard_right_third`` and ``MutationEngine.zi_star_member``.  Likewise the Subcat-built closure
walks, the per-member ``shift_id`` loop and the whole-object coverage
route (``helpers.whole_object_in_star``) are the oracles of the int
closure walks, ``perp_bits`` and the per-summand cone masks of
``PairEngine.in_star``, and the peel (``StarEngine.star_indecs``) is the
oracle of the fixed-point stars of ``MutationEngine.in_MP``.
"""

import json
import random

import pytest

from cotor import cli, subcats
from cotor.core import BudgetExceeded, InternalCheckError, Mor, Obj
from cotor.mutation import MutationEngine
from cotor.nakayama import NakayamaBackend
from cotor.pairs import (
    CotorsionPair,
    PairEngine,
    TwinCotorsionPair,
    trivial_hovey_tcp,
)
from cotor.polygon import (
    PolygonBackend,
    enumerate_ptolemy,
    enumerate_rigid,
    is_ptolemy,
    is_rigid,
    triangulations_among,
)
from cotor.quotient import ZIQuotient
from cotor.subcats import (
    StarEngine,
    Subcat,
    closed_sets,
    enumerate_subcats,
    left_perp,
    perp_bits,
    perp_pairs,
    right_perp,
)
from helpers import capped_zi_star_member, whole_object_in_star

# Every Nakayama backend with at most 12 indecomposables (K = m(n-1)).
SMALL = [(m, n) for n in range(2, 14) for m in range(1, 13) if m * (n - 1) <= 12]


# ---------------------------------------------------------------- oracles


def per_move_peel(engine, x, y, c, depth, budget, closed):
    """The peel search charging and building one move at a time, over
    every summand of the closed side, Hom-zero ones included; returns the
    search's answer and the budget units it spent.  On the y side a move
    is a map obj -> y and its cocone, on the x side a map x -> obj and
    its cone."""
    b = engine.backend
    target, strip = (x, y) if closed == "y" else (y, x)
    spent = 0
    frontier = [(c, [])]
    best_seen = {c: depth}
    for remaining in range(depth, -1, -1):
        next_frontier = []
        for obj, chain in frontier:
            if target.contains_obj(obj):
                return (chain, obj), spent
            if remaining == 0:
                continue
            for sid in strip:
                single = Obj.of(sid)
                src, dst = (obj, single) if closed == "y" else (single, obj)
                for coords in range(1, 1 << b.hom_dim(src, dst)):
                    spent += 1
                    if spent > budget:
                        raise BudgetExceeded("peel search budget exhausted")
                    w = b.cone_obj(Mor(src, dst, coords))
                    if closed == "y":
                        w = b.shift_obj(w, -1)
                    prev = best_seen.get(w)
                    if prev is not None and prev >= remaining - 1:
                        continue
                    best_seen[w] = remaining - 1
                    next_frontier.append((w, chain + [(sid, coords)]))
        frontier = next_frontier
        if not frontier:
            break
    return None, spent


class PerMovePeel(StarEngine):
    def _peel_search(self, x, y, c, depth, budget):
        return per_move_peel(self, x, y, c, depth, budget, "y")[0] is not None


def per_pair_partners(engine, inner, outers):
    """The mask of the outers that form a twin pair with inner, one pair
    at a time, bit k for outer k."""
    s, t = inner.key()
    s_ext = 0
    for i in inner.u:
        s_ext |= engine._ext1[i]
    found = 0
    for k, (u, v) in enumerate(outers):
        orth = not s_ext & v
        if orth != (not s & ~u) or orth != (not v & ~t):
            raise InternalCheckError(
                f"equivalent twin-pair criteria disagree: orthogonality={orth}, "
                f"S-inclusion={not s & ~u}, V-inclusion={not v & ~t}"
            )
        if orth:
            found |= 1 << k
    return found


def bits(subcats):
    return [s.bits for s in subcats]


# ---------------------------------------------------------------- peel table


def peel_queries(run, monkeypatch):
    """The (x, y, c, depth) of every peel search that run() runs."""
    queries = []
    honest = StarEngine._peel_search

    def recorded(self, x, y, c, depth, budget):
        queries.append((x, y, c, depth))
        return honest(self, x, y, c, depth, budget)

    with monkeypatch.context() as m:
        m.setattr(StarEngine, "_peel_search", recorded)
        run()
    return queries


def raises_budget(search, budget):
    try:
        search(budget)
    except BudgetExceeded:
        return True
    return False


def check_against_per_move(b, queries):
    """Same verdicts and answers as the per-move search, and BudgetExceeded
    at exactly the budgets where charging one move at a time raises."""
    table, oracle = StarEngine(b), PerMovePeel(b)
    for x, y, c, depth in queries:
        assert table._peel_verdict(x, y, c) == oracle._peel_verdict(x, y, c)
        found, total = per_move_peel(oracle, x, y, c, depth, table.budget, "y")
        assert table._peel_search(x, y, c, depth, total) == (found is not None)
        for budget in range(total):
            assert raises_budget(
                lambda n: table._peel_search(x, y, c, depth, n), budget
            )
            assert raises_budget(
                lambda n: per_move_peel(oracle, x, y, c, depth, n, "y"), budget
            )


@pytest.mark.parametrize("mn", SMALL, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_peel_table_matches_the_per_move_search(mn, monkeypatch):
    b = NakayamaBackend(*mn)
    queries = peel_queries(PairEngine(b).enumerate_cotorsion, monkeypatch)
    check_against_per_move(b, queries)


def bijection_queries(mn, monkeypatch):
    """The peel searches of ``verify --suite bijection``."""
    argv = ["verify", "--suite", "bijection", "--backend", "nakayama:m=%d,n=%d" % mn]
    return peel_queries(lambda: cli.main(argv), monkeypatch)


def test_peel_moves_are_built_once_per_object_and_summand(monkeypatch):
    b = NakayamaBackend(2, 4)
    star = StarEngine(b)
    built = []
    honest = NakayamaBackend.cone_obj
    monkeypatch.setattr(
        NakayamaBackend, "cone_obj", lambda self, f: built.append(f) or honest(self, f)
    )
    moves = star._peel_moves(Obj.of(0, 1), 2)
    assert len(moves) == (1 << b.hom_dim(Obj.of(0, 1), Obj.of(2))) - 1 == len(built)
    # an equal object built afresh finds the stored moves
    assert star._peel_moves(Obj.of(1, 0), 2) is moves
    assert len(built) == len(moves)


def test_peel_tables_hold_only_real_moves(monkeypatch, capsys):
    # The searches ask only for summands with a nonzero Hom, so no stored
    # entry is empty.
    built = []

    def recorded(backend, cap):
        built.append(PairEngine(backend, cap=cap))
        return built[-1]

    monkeypatch.setattr("cotor.pairs.PairEngine", recorded)
    bijection_queries((3, 4), monkeypatch)
    [engine] = built
    b, star = engine.backend, engine.star
    table = star._stored["_peel_moves"]
    assert table
    for (summands, sid), moves in table.items():
        assert moves, (summands, sid)
        assert len(moves) == (1 << b.hom_dim(Obj(summands), Obj.of(sid))) - 1


# ---------------------------------------------------------------- lift stars


# The backends with at most 12 indecomposables, two vertices or more and
# relation length 3 or more; the others take longer for less: the bijection
# suite alone runs about 20 s on (12, 2), and the per-move oracle seconds on
# the one-vertex backends past n = 10.
LIFTS = [mn for mn in SMALL if mn[0] >= 2 and mn[1] >= 3]


def lift_stars(mn, monkeypatch):
    """Every membership of the lift's stars that ``verify --suite
    bijection`` decides, keyed by (x, y, c, step) for the star
    x * y = S[-1] * lift(L) (+1) or lift(R) * V[1] (-1), with the star
    engine and whether c landed in the lifted class."""
    asked = {}
    honest = MutationEngine._lift_class

    def recorded(self, reps, step):
        got = honest(self, reps, step)
        lift = self.lift(reps)
        x, y = (self.q.s_down, lift) if step == 1 else (lift, self.q.v_up)
        for i in self.p.u if step == 1 else self.p.t:
            asked[(x, y, Obj.of(i), step)] = (self.engine.star, i in got)
        return got

    monkeypatch.setattr(MutationEngine, "_lift_class", recorded)
    argv = ["verify", "--suite", "bijection", "--backend", "nakayama:m=%d,n=%d" % mn]
    assert cli.main(argv) == 0
    return asked


@pytest.mark.parametrize("mn", LIFTS, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_lift_stars_match_the_per_move_peel(mn, monkeypatch, capsys):
    # The lift decides its stars by left approximations; the per-move
    # search decides S[-1] * lift(L) by stripping S[-1]-summands through
    # cones (x side) and lift(R) * V[1] by stripping V[1]-summands through
    # cocones (y side), both stripped sides being extension-closed.
    asked = lift_stars(mn, monkeypatch)
    assert asked
    for (x, y, c, step), (star, member) in asked.items():
        side = "x" if step == 1 else "y"
        found, _ = per_move_peel(star, x, y, c, star.cap + 1, star.budget, side)
        assert member == (found is not None), (step, x.labels(), y.labels(), c)


# ---------------------------------------------------------------- fixed-point stars


# Every backend with at most 9 indecomposables, and two with 12.
FIXED_POINT = [mn for mn in SMALL if mn[0] * (mn[1] - 1) <= 9] + [(4, 4), (3, 5)]


def bijection_targets(eng):
    """The twin pairs ``verify --suite bijection`` builds a mutation
    engine for, once each."""
    targets = [trivial_hovey_tcp(eng)]
    targets += [eng.make_tcp(cp, cp) for cp in eng.enumerate_cotorsion().pairs]
    targets += [p for p in eng.concentric_tcps() if p.flags()["zz_setting"]]
    return list({p.key(): p for p in targets}.values())


@pytest.mark.parametrize("mn", FIXED_POINT, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_fixed_point_stars_match_the_peel(mn, monkeypatch):
    # in_MP decides the members of U in S[-1] * U' by right S[-1]- and
    # those of T in V' * V[1] by left V[1]-approximations; the peel decides
    # both stars by search, sharing no approximation with either.
    eng = PairEngine(NakayamaBackend(*mn))
    pairs = eng.enumerate_cotorsion().pairs
    asked = []
    honest = MutationEngine._star_members

    def recorded(self, *args):
        asked.append(honest(self, *args))
        return asked[-1]

    monkeypatch.setattr(MutationEngine, "_star_members", recorded)
    compared = 0
    for p in bijection_targets(eng):
        me = MutationEngine(eng, p)
        for cp in me._within_outer(pairs):
            asked.clear()
            me.in_MP(cp)
            want = []
            for side, x, y in ((p.u, me.q.s_down, cp.u), (p.t, cp.v, me.q.v_up)):
                found, complete = eng.star.star_indecs(x, y)
                assert complete
                want.append(found.intersect(side))
            assert asked == want, (p.as_labels(), cp.as_labels())
            compared += 1
    assert compared


# ---------------------------------------------------------------- twin pairs


# The per-pair oracle takes seconds on (11, 2) and (12, 2), so they sit out.
@pytest.mark.parametrize(
    "mn",
    [mn for mn in SMALL if mn not in ((11, 2), (12, 2))],
    ids=lambda mn: f"{mn[0]}-{mn[1]}",
)
def test_bit_sliced_twin_check_matches_the_per_pair_loop(mn):
    eng = PairEngine(NakayamaBackend(*mn))
    cps = eng.enumerate_cotorsion().pairs
    keys = [p.key() for p in cps]
    assert list(eng._twin_partners(cps, keys)) == [
        per_pair_partners(eng, inner, keys) for inner in cps
    ]
    for p in eng.enumerate_tcp():
        assert eng.is_concentric(p) == (p.s.intersect(p.t) == p.u.intersect(p.v))
    check_twin_counts(eng)


def check_twin_counts(eng):
    """The counts suite reads popcounts of the partner masks, and the
    concentric pairs are built from the masks cut down to one core; both
    must agree with building every twin pair and filtering it."""
    built = eng.enumerate_tcp()
    concentric = [p.key() for p in built if eng.is_concentric(p)]
    twins, centred = eng.twin_masks()
    assert sum(m.bit_count() for m in twins) == len(built)
    assert sum(m.bit_count() for m in centred) == len(concentric)
    assert [p.key() for p in eng.concentric_tcps()] == concentric


# The SMALL backends the per-pair loop leaves out, and K = 16.
@pytest.mark.parametrize(
    "mn", [(11, 2), (12, 2), (4, 5)], ids=lambda mn: f"{mn[0]}-{mn[1]}"
)
def test_twin_counts_from_masks_match_the_built_pairs(mn):
    check_twin_counts(PairEngine(NakayamaBackend(*mn)))


def test_the_counts_suite_builds_no_twin_pair(monkeypatch, capsys):
    built = []
    honest = TwinCotorsionPair.__post_init__

    def counted(self):
        built.append(self.key())
        honest(self)

    monkeypatch.setattr(TwinCotorsionPair, "__post_init__", counted)
    argv = ["verify", "--suite", "counts", "--backend", "nakayama:m=3,n=4"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["suites"]["counts"]["twin_pairs"] > 0
    assert built == []
    # the patch does see builds: enumerate-tcp prints every twin pair
    assert cli.main(["enumerate-tcp", "--backend", "nakayama:m=3,n=4"]) == 0
    printed = json.loads(capsys.readouterr().out)["report"]["count"]
    assert len(built) == printed > 0


def check_outcome(route):
    try:
        return route()
    except InternalCheckError as exc:
        return str(exc)


@pytest.mark.parametrize("mn", [(2, 3), (3, 3), (2, 4)])
def test_corrupted_ext1_bits_are_named_like_the_per_pair_loop(mn):
    eng = PairEngine(NakayamaBackend(*mn))
    cps = eng.enumerate_cotorsion().pairs
    keys = [p.key() for p in cps]
    honest = eng._ext1
    raised = 0
    for i in range(eng.backend.K):
        for j in range(eng.backend.K):
            eng._ext1 = list(honest)
            eng._ext1[i] ^= 1 << j
            got = check_outcome(lambda: list(eng._twin_partners(cps, keys)))
            want = check_outcome(
                lambda: [per_pair_partners(eng, inner, keys) for inner in cps]
            )
            assert got == want, (i, j)
            raised += isinstance(got, str)
    assert raised


# ---------------------------------------------------------------- polygon


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_polygon_walks_match_the_subset_sweeps(n):
    # One 2^K sweep tests both predicates on each subset.
    b = PolygonBackend(n)
    rigid, ptolemy = [], []

    def sort(s):
        if is_rigid(b, s):
            rigid.append(s.bits)
        if is_ptolemy(b, s):
            ptolemy.append(s.bits)
        return False

    enumerate_subcats(b, sort)
    assert bits(enumerate_rigid(b)) == rigid
    assert bits(enumerate_ptolemy(b)) == ptolemy


def test_polygon_nine_counts():
    b = PolygonBackend(9)
    assert len(enumerate_rigid(b)) == 4279
    assert len(enumerate_ptolemy(b)) == 12665


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_maximality_by_crossing_masks_matches_inclusion(n):
    b = PolygonBackend(n)
    rigid = enumerate_rigid(b)
    by_inclusion = {
        s.bits
        for s in rigid
        if not any(s.bits != t.bits and s.bits & t.bits == s.bits for t in rigid)
    }
    assert by_inclusion == {s.bits for s in triangulations_among(b, rigid)}
    status = cli._Status(f"polygon:N={n}", cli.DEFAULT_CAP)
    cli._suite_counts_polygon(b, status)
    claims = status.claims
    assert claims[0]["claim"] == "triangulations are exactly the maximal non-crossing sets"
    assert claims[0]["verdict"] == "yes"


# ---------------------------------------------------------------- quotient


# Backends of the quotient-coverage comparison: 1,012 decisions, 172 of
# them no, in about 3 s.
ZI_STARS = [(2, 4), (3, 3), (2, 6)]


@pytest.mark.parametrize("mn", ZI_STARS, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_quotient_coverage_matches_the_capped_search(mn):
    # On every concentric pair that meets (I) and (II) with one to eight
    # quotient classes, every set L of classes with R its right-perp
    # under the quotient Ext^1, and every class m: one minimal
    # approximation answers as the search over sums of up to four members.
    eng = PairEngine(NakayamaBackend(*mn))
    answers = []
    for p in eng.enumerate_tcp():
        if not eng.is_concentric(p):
            continue
        mut = MutationEngine(eng, p)
        reps = mut.q.zi_objects()
        if not mut.preconditions_met or not 1 <= len(reps) <= 8:
            continue
        for lbits in range(1 << len(reps)):
            l = [x for k, x in enumerate(reps) if lbits >> k & 1]
            r = [
                y for y in reps
                if not any(mut.q.ext1_zi(Obj.of(x), Obj.of(y)) for x in l)
            ]
            for m in reps:
                got = mut.zi_star_member(m, l, r)
                assert got == capped_zi_star_member(mut, m, l, r, 4), (p.key(), l, m)
                answers.append(got)
    assert answers and not all(answers)


def test_standard_right_third_matches_the_full_triangle(monkeypatch):
    seen = []
    honest = ZIQuotient.standard_right_third

    def recorded(self, f):
        seen.append((self, f))
        return honest(self, f)

    monkeypatch.setattr(ZIQuotient, "standard_right_third", recorded)
    rc = cli.main(
        ["verify", "--suite", "bijection", "--backend", "nakayama:m=2,n=4"]
    )
    assert rc == 0
    assert seen
    for q, f in seen:
        assert honest(q, f) == q.standard_right_triangle(f)[0]


# ---------------------------------------------------------------- perpendiculars


def recorded_walks(monkeypatch, run):
    """The closed sets of every ``closed_sets`` walk that run() makes,
    one list per walk."""
    walks = []

    def recorded(k, closure):
        walks.append([])
        for bits in closed_sets(k, closure):
            walks[-1].append(bits)
            yield bits

    with monkeypatch.context() as m:
        m.setattr(subcats, "closed_sets", recorded)
        got = run()
    return walks, got


@pytest.mark.parametrize(
    "mn", SMALL + [(4, 5)], ids=lambda mn: f"{mn[0]}-{mn[1]}"
)
def test_int_closure_walks_match_the_subcat_walks(mn, monkeypatch):
    b = NakayamaBackend(*mn)
    eng = PairEngine(b)
    first = list(
        closed_sets(b.K, lambda s: left_perp(right_perp(Subcat(b, s))).bits)
    )
    second = list(
        closed_sets(b.K, lambda s: right_perp(left_perp(Subcat(b, s))).bits)
    )
    walks, got = recorded_walks(monkeypatch, eng.enumerate_cotorsion)
    assert walks == [first]
    want = [CotorsionPair(u, right_perp(u)) for u in (Subcat(b, s) for s in first)]
    assert got.pairs == [p for p in want if eng.is_cotorsion_pair(p.u, p.v).is_yes]
    walks, by_v = recorded_walks(
        monkeypatch, lambda: cli.enumerate_by_second_class(eng)
    )
    assert walks == [second]
    assert sorted(p.key() for p in by_v) == sorted(p.key() for p in got.pairs)


# The K = 16 backends with two or more vertices and relation length 3 or more.
@pytest.mark.parametrize("mn", [(4, 5), (8, 3), (2, 9)], ids=str)
def test_perp_bits_match_a_per_member_shift_loop_at_k16(mn):
    # Ext^1(i, c) = Hom(i[-1], c) and Ext^1(c, i) = Hom(c, i[1]), read per
    # member off the Hom masks.
    b = NakayamaBackend(*mn)
    assert b.K == 16
    out, into = b.hom_masks()
    ext1, ext1_into = b.ext1_masks()
    rng = random.Random(b.K * mn[0])
    full = (1 << b.K) - 1
    classes = [0, full] + [rng.getrandbits(16) & rng.getrandbits(16) for _ in range(40)]
    for bits in classes:
        right = left = 0
        for i in range(b.K):
            if bits >> i & 1:
                right |= out[b.shift_id(i, -1)]
                left |= into[b.shift_id(i, 1)]
        assert perp_bits(bits, ext1) == full & ~right
        assert perp_bits(bits, ext1_into) == full & ~left
        x = Subcat(b, bits)
        assert right_perp(x).bits == full & ~right
        assert left_perp(x).bits == full & ~left


def test_a_corrupted_shift_is_caught_by_the_first_perpendicular(monkeypatch):
    # The Ext^1 masks are checked against the shifted Hom masks, so the
    # perpendiculars and the engine's walks read only checked masks, and a
    # failed build keeps nothing; the Hom masks read no shift and build.
    for first in (right_perp, left_perp, lambda x: PairEngine(x.backend)):
        b = NakayamaBackend(2, 3)
        honest = b.shift_id
        monkeypatch.setattr(
            b, "shift_id", lambda i, k=1, honest=honest: honest(i, k) if k < 0 else i
        )
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="disagree on vanishing"):
                first(Subcat.of(b, [0]))
        assert not b._stored.get("ext1_masks") and b._stored["hom_masks"]


# ---------------------------------------------------------------- coverage


@pytest.mark.parametrize("mn", [(4, 5), (2, 9)], ids=str)
def test_coverage_by_cone_masks_matches_the_whole_object_route(mn):
    # The coverage stars U * V[1] of every closed first class U, and
    # random Hom-orthogonal classes x and y inside the right perpendicular
    # of x, against objects of two to four summands, repeats allowed.
    b = NakayamaBackend(*mn)
    eng = PairEngine(b)
    rng = random.Random(b.K)
    stars = [
        (Subcat(b, u), Subcat(b, v).shifted(1))
        for u, v in perp_pairs(*b.ext1_masks())
    ]
    for _ in range(len(stars)):
        x = rng.getrandbits(b.K) & rng.getrandbits(b.K)
        y = perp_bits(x, b.hom_masks()[0]) & rng.getrandbits(b.K)
        stars.append((Subcat(b, x), Subcat(b, y)))
    answers = []
    for x, y in stars:
        for _ in range(2):
            c = Obj.from_iter(rng.randrange(b.K) for _ in range(rng.randint(2, 4)))
            got = eng.in_star(x, y, c, 1)
            assert got == whole_object_in_star(eng, x, y, c), (x.ids(), y.ids(), c)
            answers.append(got)
    assert any(answers) and not all(answers)
