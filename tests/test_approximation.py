"""Approximation triangles against the escalating-cap search oracle.

``PairEngine.approximation`` builds the minimal right or left
approximation of an object from Hom bases modulo the radical; every
decomposition triangle that the pair engine and the subquotient read is
the cone of a right one (``PairEngine.decomposition``), and heart
vanishing also reads a left one as it is.
The tests hold it to the search it replaced (``helpers.witnesses``, the
capped triangle enumerator walked cap by cap): the cones land in the
other class of the pair, the minimal approximation is a summand of the
matching end of every witness the search yields, the heart-vanishing
verdict is the one every witness reads, and the subquotient's
comparison maps and shifts agree with the ones built on searched
triangles.  Star products with Hom-orthogonal sides, decided by one
minimal approximation (``PairEngine.in_star``), are held to the peel
search they replaced and, on the smallest backends, to the literal
triangle enumerator.
"""

import functools

import pytest

from cotor.core import InternalCheckError, Mor, Obj
from cotor.f2 import in_span
from cotor.nakayama import NakayamaBackend
from cotor.pairs import PairEngine
from cotor.quotient import ZIQuotient
from cotor.subcats import StarEngine, Subcat, closed_sets, left_perp, right_perp
from helpers import full_star_class, literal_contains, searched_decomposition, witnesses

# (m, n): the widest objects whose approximations are checked, and the
# widest that are also held to the search, which at two summands is
# too slow on the larger backends.
CASES = {(2, 3): (2, 2), (3, 3): (2, 2), (3, 4): (2, 1), (2, 6): (2, 1), (5, 3): (1, 1)}
# Every Nakayama backend with at most nine indecomposables.
SMALL = [(1, 4), (1, 7), (1, 10), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2),
         (3, 3), (3, 4), (4, 2), (4, 3)]
# Backends of the orthogonal-star comparison, K <= 12; on K <= 6 the
# literal enumerator is a third route.
STARS = [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (2, 6), (5, 3), (4, 4),
         (6, 3), (3, 5)]


@pytest.fixture(scope="module", params=list(CASES), ids=str)
def case(request):
    """A pair engine on the backend, and its two object widths."""
    return PairEngine(NakayamaBackend(*request.param)), *CASES[request.param]


def _objects(b, width):
    """The objects of at most ``width`` summands, indecomposables first."""
    objs = [Obj.of(i) for i in range(b.K)]
    if width == 2:
        objs += [Obj.of(i, j) for i in range(b.K) for j in range(i, b.K)]
    return objs


def _is_summand(small, big):
    have = big.counts()
    return all(have.get(i, 0) >= k for i, k in small.counts().items())


def test_approximation_cones_lie_in_the_other_class(case):
    eng, width, _ = case
    b = eng.backend
    for p in eng.enumerate_cotorsion().pairs:
        v1 = p.v.shifted(1)
        for x in _objects(b, width):
            right = eng.approximation(p.u, x, 1)
            left = eng.approximation(v1, x, -1)
            assert right.dst == x == left.src
            assert p.u.contains_obj(right.src) and v1.contains_obj(b.cone_obj(right))
            assert p.u.contains_obj(b.shift_obj(b.cone_obj(left), -1))
            assert v1.contains_obj(left.dst)
            # the stored triangle is the cone, and in_star reads the cocone
            tri = eng.decomposition(p.u, x, p.u, v1)
            assert (tri.f, tri.c) == (right, b.cone_obj(right))
            assert eng.in_star(p.u, v1, x, -1)


def test_approximations_are_minimal_and_every_witness_reads_their_verdict(case):
    eng, _, width = case
    for p in eng.enumerate_cotorsion().pairs:
        v1 = p.v.shifted(1)
        for x in _objects(eng.backend, width):
            right = eng.approximation(p.u, x, 1)
            left = eng.approximation(v1, x, -1)
            vanishes = eng.h_vanishes(x, p)
            assert not vanishes.is_inconclusive
            # the minimal triangle is a witness, so its cap has some
            top = max(2, len(right.src), len(eng.backend.cone_obj(right)))
            found = 0
            for w in witnesses(eng.star, p.u, v1, x, top):
                found += 1
                assert _is_summand(right.src, w.a) and _is_summand(left.dst, w.c)
                span = eng.factoring_subspace(x, p.v, w.c)
                assert in_span(w.g.coords, span) == vanishes.is_yes
            assert found


@pytest.mark.parametrize("mn", SMALL, ids=str)
def test_comparison_maps_and_shifts_match_the_search_route(mn):
    b = NakayamaBackend(*mn)
    eng, searched = PairEngine(b), PairEngine(b)
    searched.decomposition = functools.partial(searched_decomposition, searched)
    tcps = eng.enumerate_tcp()
    for p in (p for p in tcps if eng.is_concentric(p)):
        q, oracle = ZIQuotient(eng, p), ZIQuotient(searched, p)
        for x in eng.star.star_indecs(p.t, p.u)[0]:
            got = q.mu_map(Obj.of(x))[1]
            assert got.state == oracle.mu_map(Obj.of(x))[1].state
        for z in q.z_set:
            for step in (1, -1):
                got = q.class_of(q.shift(Obj.of(z), step))
                assert got == oracle.class_of(oracle.shift(Obj.of(z), step))


def test_an_approximation_out_of_its_class_raises(monkeypatch):
    # The zero map 0 -> x as a right approximation: its cone is x itself.
    # The pair is enumerated first, since coverage reads the honest route.
    def zero_approximation(self, cls, c, step):
        return Mor(Obj.zero(), c, 0) if step == 1 else Mor(c, Obj.zero(), 0)

    eng = PairEngine(NakayamaBackend(2, 2))
    b = eng.backend
    pair = next(p for p in eng.enumerate_cotorsion().pairs if p.u.bits == 1)
    x = next(Obj.of(i) for i in range(b.K) if i not in pair.v.shifted(1))
    monkeypatch.setattr(PairEngine, "approximation", zero_approximation)
    with pytest.raises(InternalCheckError, match="has an end outside"):
        eng.h_vanishes(x, pair)


def test_a_left_approximation_out_of_its_class_raises(monkeypatch):
    # The zero map x -> 0 as the left approximation: its cocone is x itself,
    # outside U, while the right approximation stays honest.
    honest = PairEngine.approximation

    def zero_left(self, cls, c, step):
        return honest(self, cls, c, step) if step == 1 else Mor(c, Obj.zero(), 0)

    eng = PairEngine(NakayamaBackend(2, 2))
    b = eng.backend
    pair = next(p for p in eng.enumerate_cotorsion().pairs if p.u.bits == 1)
    x = next(Obj.of(i) for i in range(b.K) if i not in pair.u)
    monkeypatch.setattr(PairEngine, "approximation", zero_left)
    with pytest.raises(InternalCheckError, match="left approximation .* end outside"):
        eng.h_vanishes(x, pair)


def test_every_endomorphism_called_invertible_trips_the_radical_check(monkeypatch):
    # M(0,2) over k[x]/x^4 has a two-dimensional stable End, so a radical
    # of codimension 1 is one-dimensional and must be non-invertible.
    eng = PairEngine(NakayamaBackend(1, 4))
    b = eng.backend
    u = b.id_of("M(0,2)")
    assert b.hom_dim_pair(u, u) == 2
    assert len(eng._end_radical(u)) == 1
    monkeypatch.setattr(PairEngine, "iso_mod", lambda self, core, f: True)
    fresh = PairEngine(b)
    for v in range(b.K):
        with pytest.raises(InternalCheckError, match="not of codimension 1"):
            fresh._end_radical(v)
    # an error is never stored, so the approximation and the tops under it
    # raise again on the next call
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="not of codimension 1"):
            fresh.approximation(Subcat.of(b, [u]), Obj.of(u), 1)
    assert not fresh._stored.get("_tops") and not fresh._stored.get("approximation")


def compare_orthogonal_stars(mn):
    """Hold ``in_star`` to the peel search on every closed first class U and
    every indecomposable c, for the coverage U * V[1], and the extension
    classes S * V[1] and S[-1] * V of every concentric twin pair to
    ``star_indecs``; on K <= 6 both also to the literal enumerator.
    Returns the numbers of coverage verdicts the peel decided and of
    concentric pairs compared."""
    b = NakayamaBackend(*mn)
    eng = PairEngine(b)
    star, literal = eng.star, b.K <= 6
    # caps 2 and 3 hold every minimal approximation triangle here
    short = StarEngine(b, cap=2)

    def by_literal(x, y):
        verdicts = [literal_contains(short, x, y, Obj.of(c)) for c in range(b.K)]
        assert not any(v.is_inconclusive for v in verdicts)
        return Subcat.of(b, [c for c, v in enumerate(verdicts) if v.is_yes])

    decided = 0
    for bits in closed_sets(
        b.K, lambda s: left_perp(right_perp(Subcat(b, s))).bits
    ):
        u = Subcat(b, bits)
        v1 = right_perp(u).shifted(1)
        got = eng.star_class(u, v1)
        for c in range(b.K):
            peel = star.star_contains(u, v1, Obj.of(c))
            if not peel.is_inconclusive:
                decided += 1
                assert (c in got) == peel.is_yes, (u.labels(), b.label_of(c))
        if literal:
            assert got == by_literal(u, v1), u.labels()
    pairs = 0
    for p in eng.enumerate_tcp():
        if not eng.is_concentric(p):
            continue
        pairs += 1
        d = eng.derived_sets(p)
        for got, x, y in ((d.n_i, p.s, p.v.shifted(1)), (d.n_f, p.s.shifted(-1), p.v)):
            want, complete = star.star_indecs(x, y)
            assert complete and got == want, p.as_labels()
            if literal:
                assert got == by_literal(x, y), p.as_labels()
    return decided, pairs


@pytest.mark.parametrize("mn", STARS, ids=str)
def test_orthogonal_stars_match_the_peel_and_the_literal_search(mn):
    decided, pairs = compare_orthogonal_stars(mn)
    assert decided and pairs


@pytest.mark.parametrize("mn", [(2, 4), (3, 4), (4, 4)], ids=str)
def test_star_classes_match_the_cone_of_every_indecomposable(mn):
    # The members of either side enter by their split triangles; the route
    # that reads a cone for them too, on an engine of its own, agrees.
    b = NakayamaBackend(*mn)
    eng, oracle = PairEngine(b), PairEngine(NakayamaBackend(*mn))
    stars = []
    for bits in closed_sets(
        b.K, lambda s: left_perp(right_perp(Subcat(b, s))).bits
    ):
        u = Subcat(b, bits)
        stars.append((u, right_perp(u).shifted(1)))
    concentric = eng.concentric_tcps()
    assert concentric
    for p in concentric:
        stars += [(p.s, p.v.shifted(1)), (p.s.shifted(-1), p.v)]
    ob = oracle.backend
    for x, y in stars:
        want = full_star_class(oracle, Subcat(ob, x.bits), Subcat(ob, y.bits))
        assert eng.star_class(x, y).bits == want.bits, (x.labels(), y.labels())
