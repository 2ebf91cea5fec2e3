"""Table-driven and bit-parallel sweep kernels against the loops they replace.

The per-move peel search, the per-pair twin check, the Subcat-built
concentricity test, the 2^K polygon sweeps and the full standard right
triangle are the routes the engines used before; they survive here only
as oracles for the peel-move table, the bit-sliced twin check, the
polygon closure walks and ``ZIQuotient.standard_right_third``.
"""

import pytest

from cotor import cli
from cotor.core import BudgetExceeded, InternalCheckError, Mor, Obj
from cotor.nakayama import NakayamaBackend
from cotor.pairs import PairEngine
from cotor.polygon import (
    PolygonBackend,
    enumerate_ptolemy,
    enumerate_rigid,
    is_ptolemy,
    is_rigid,
    triangulations_among,
)
from cotor.quotient import ZIQuotient
from cotor.subcats import StarEngine, enumerate_subcats

# Every Nakayama backend with at most 12 indecomposables (K = m(n-1)).
SMALL = [(m, n) for n in range(2, 14) for m in range(1, 13) if m * (n - 1) <= 12]


# ---------------------------------------------------------------- oracles


def per_move_peel(engine, x, y, c, depth, budget):
    """The peel search charging and building one move at a time; returns
    the search's answer and the budget units it spent."""
    b = engine.backend
    spent = 0
    frontier = [(c, [])]
    best_seen = {c: depth}
    for remaining in range(depth, -1, -1):
        next_frontier = []
        for obj, chain in frontier:
            if x.contains_obj(obj):
                return (chain, obj), spent
            if remaining == 0:
                continue
            for yid in y:
                ysingle = Obj.of(yid)
                d = b.hom_dim(obj, ysingle)
                for coords in range(1, 1 << d):
                    spent += 1
                    if spent > budget:
                        raise BudgetExceeded("peel search budget exhausted")
                    w = b.shift_obj(b.cone_obj(Mor(obj, ysingle, coords)), -1)
                    prev = best_seen.get(w)
                    if prev is not None and prev >= remaining - 1:
                        continue
                    best_seen[w] = remaining - 1
                    next_frontier.append((w, chain + [(yid, coords)]))
        frontier = next_frontier
        if not frontier:
            break
    return None, spent


class PerMovePeel(StarEngine):
    def _peel_search(self, x, y, c, depth, budget):
        return per_move_peel(self, x, y, c, depth, budget)[0]


def per_pair_partners(engine, inner, outers):
    s, t = inner.key()
    s_ext = 0
    for i in inner.u:
        s_ext |= engine._ext1[i]
    found = []
    for k, (u, v) in enumerate(outers):
        orth = not s_ext & v
        if orth != (not s & ~u) or orth != (not v & ~t):
            raise InternalCheckError(
                f"equivalent twin-pair criteria disagree: orthogonality={orth}, "
                f"S-inclusion={not s & ~u}, V-inclusion={not v & ~t}"
            )
        if orth:
            found.append(k)
    return found


def bits(subcats):
    return [s.bits for s in subcats]


# ---------------------------------------------------------------- peel table


def peel_queries(engine, monkeypatch):
    """The (x, y, c, depth) of every peel search that enumerate_cotorsion runs."""
    queries = []
    honest = StarEngine._peel_search

    def recorded(self, x, y, c, depth, budget):
        queries.append((x, y, c, depth))
        return honest(self, x, y, c, depth, budget)

    with monkeypatch.context() as m:
        m.setattr(StarEngine, "_peel_search", recorded)
        engine.enumerate_cotorsion()
    return queries


def raises_budget(search, budget):
    try:
        search(budget)
    except BudgetExceeded:
        return True
    return False


@pytest.mark.parametrize("mn", SMALL, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_peel_table_matches_the_per_move_search(mn, monkeypatch):
    b = NakayamaBackend(*mn)
    queries = peel_queries(PairEngine(b), monkeypatch)
    table, oracle = StarEngine(b), PerMovePeel(b)
    for x, y, c, depth in queries:
        assert table._peel_verdict(x, y, c) == oracle._peel_verdict(x, y, c)
        found, total = per_move_peel(oracle, x, y, c, depth, table.budget)
        assert table._peel_search(x, y, c, depth, total) == found
        for budget in range(total):
            assert raises_budget(
                lambda n: table._peel_search(x, y, c, depth, n), budget
            )
            assert raises_budget(
                lambda n: per_move_peel(oracle, x, y, c, depth, n), budget
            )


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
    for p in eng.enumerate_tcp()[0]:
        assert eng.is_concentric(p) == (p.s.intersect(p.t) == p.u.intersect(p.v))


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
    b = PolygonBackend(n)
    assert bits(enumerate_rigid(b)) == bits(
        enumerate_subcats(b, lambda s: is_rigid(b, s))
    )
    assert bits(enumerate_ptolemy(b)) == bits(
        enumerate_subcats(b, lambda s: is_ptolemy(b, s))
    )


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
    claims = []
    cli._suite_counts_polygon(b, claims, cli._Status())
    assert claims[0]["claim"] == "triangulations are exactly the maximal non-crossing sets"
    assert claims[0]["verdict"] == "yes"


# ---------------------------------------------------------------- quotient


def test_standard_right_third_matches_the_full_triangle(monkeypatch):
    seen = []
    honest = ZIQuotient.standard_right_third

    def recorded(self, f):
        seen.append((self, f))
        return honest(self, f)

    monkeypatch.setattr(cli, "_ENGINE_MEMO", {})
    monkeypatch.setattr(ZIQuotient, "standard_right_third", recorded)
    rc = cli.main(
        ["verify", "--suite", "bijection", "--backend", "nakayama:m=2,n=4"]
    )
    assert rc == 0
    assert seen
    for q, f in seen:
        assert honest(q, f) == q.standard_right_triangle(f)["third"]
