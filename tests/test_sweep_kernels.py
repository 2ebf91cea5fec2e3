"""Table-driven and bit-parallel sweep kernels against the loops they replace.

The per-move peel search (in both directions), the per-pair twin check,
the Subcat-built concentricity test, the 2^K polygon sweeps and the full
standard right triangle are the routes the engines used before; they
survive here only as oracles for the peel-move tables, the bit-sliced
twin check, the polygon closure walks and
``ZIQuotient.standard_right_third``.
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
# The backends with at most 9 indecomposables whose bijection suite runs
# co-peel (x side) searches; the others run none.
COPEEL = [(3, 3), (4, 3), (2, 4), (3, 4), (2, 5)]


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
    def _peel_search(self, x, y, c, depth, budget, closed):
        return per_move_peel(self, x, y, c, depth, budget, closed)[0]


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


def peel_queries(run, monkeypatch):
    """The (x, y, c, depth, closed) of every peel search that run() runs."""
    queries = []
    honest = StarEngine._peel_search

    def recorded(self, x, y, c, depth, budget, closed):
        queries.append((x, y, c, depth, closed))
        return honest(self, x, y, c, depth, budget, closed)

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
    for x, y, c, depth, closed in queries:
        assert table._peel_verdict(x, y, c, closed) == oracle._peel_verdict(
            x, y, c, closed
        )
        found, total = per_move_peel(oracle, x, y, c, depth, table.budget, closed)
        assert table._peel_search(x, y, c, depth, total, closed) == found
        for budget in range(total):
            assert raises_budget(
                lambda n: table._peel_search(x, y, c, depth, n, closed), budget
            )
            assert raises_budget(
                lambda n: per_move_peel(oracle, x, y, c, depth, n, closed), budget
            )


@pytest.mark.parametrize("mn", SMALL, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_peel_table_matches_the_per_move_search(mn, monkeypatch):
    b = NakayamaBackend(*mn)
    queries = peel_queries(PairEngine(b).enumerate_cotorsion, monkeypatch)
    check_against_per_move(b, queries)


def bijection_queries(mn, monkeypatch):
    """The peel searches of ``verify --suite bijection``, on a fresh engine."""
    monkeypatch.setattr(cli, "_ENGINE_MEMO", {})
    argv = ["verify", "--suite", "bijection", "--backend", "nakayama:m=%d,n=%d" % mn]
    return peel_queries(lambda: cli.main(argv), monkeypatch)


@pytest.mark.parametrize("mn", COPEEL, ids=lambda mn: f"{mn[0]}-{mn[1]}")
def test_copeel_table_matches_the_per_move_search(mn, monkeypatch, capsys):
    queries = [q for q in bijection_queries(mn, monkeypatch) if q[4] == "x"]
    assert queries
    check_against_per_move(cli._backend_of("nakayama:m=%d,n=%d" % mn), queries)


def test_peel_moves_are_built_once_per_object_and_summand(monkeypatch):
    b = NakayamaBackend(2, 4)
    star = StarEngine(b)
    built = []
    honest = NakayamaBackend.cone_obj
    monkeypatch.setattr(
        NakayamaBackend, "cone_obj", lambda self, f: built.append(f) or honest(self, f)
    )
    moves = star._peel_moves(Obj.of(0, 1), 2, "y")
    assert len(moves) == (1 << b.hom_dim(Obj.of(0, 1), Obj.of(2))) - 1 == len(built)
    # an equal object built afresh finds the stored moves
    assert star._peel_moves(Obj.of(1, 0), 2, "y") is moves
    assert len(built) == len(moves)
    # the other direction has its own table
    comoves = star._peel_moves(Obj.of(0, 2), 2, "x")
    assert len(comoves) == (1 << b.hom_dim(Obj.of(2), Obj.of(0, 2))) - 1 == 3
    assert star._peel_moves(Obj.of(2, 0), 2, "x") is comoves
    assert star._peel_moves(Obj.of(0, 2), 2, "y") is not comoves


def test_peel_tables_hold_only_real_moves(monkeypatch, capsys):
    # The searches ask only for summands with a nonzero Hom, so no stored
    # entry is empty, on either side.
    b = cli._backend_of("nakayama:m=3,n=4")
    bijection_queries((3, 4), monkeypatch)
    tables = cli._ENGINE_MEMO[("nakayama:m=3,n=4", cli.DEFAULT_CAP)].star._peel_tables
    assert tables["x"] and tables["y"]
    for closed, table in tables.items():
        for (summands, sid), moves in table.items():
            assert moves, (closed, summands, sid)
            single, obj = Obj.of(sid), Obj(summands)
            src, dst = (obj, single) if closed == "y" else (single, obj)
            assert len(moves) == (1 << b.hom_dim(src, dst)) - 1


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
