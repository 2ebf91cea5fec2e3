"""Cotorsion pairs, twin pairs, derived classes, and their conditions.

A cotorsion pair is a pair of additive classes (U, V) with no
degree-one maps from U to V and with every object an extension of a
shifted V-object by a U-object.  The engine tests candidates by first
enforcing the perpendicularity identities V = (U[-1])-right-perp and
U = (V[1])-left-perp, which every genuine pair satisfies and which are
exact bitmask operations; coverage is then checked per indecomposable
with the star engine, whose YES lane is sound here because
perpendicular classes are closed under extensions.

Twin pairs ((S,T),(U,V)) add the vanishing of degree-one maps from S
to V; the engine cross-checks the three equivalent formulations
(vanishing, S inside U, V inside T) on bitmasks and refuses silently
inconsistent states.  Derived classes, the heart-vanishing predicate,
conditions on shifted-intersection equalities, and the thick-subcategory
detection all run tri-valued: an exhausted cap is inconclusive, never a
guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    Backend,
    BudgetExceeded,
    InputError,
    InternalCheckError,
    Mor,
    Obj,
    Verdict,
)
from .f2 import in_span
from .subcats import DEFAULT_CAP, StarEngine, Subcat, closed_sets
from .subcats import hom_masks, iter_bits, left_perp, right_perp


@dataclass(frozen=True)
class CotorsionPair:
    """Candidate or verified pair of additive classes."""

    u: Subcat
    v: Subcat

    def __post_init__(self) -> None:
        if self.u.backend is not self.v.backend:
            raise InputError("pair sides belong to different backends")

    @property
    def backend(self) -> Backend:
        return self.u.backend

    def flags(self) -> dict[str, bool]:
        u, v = self.u, self.v
        return {
            "t_structure": u.shifted(1).issubset(u),
            "co_t_structure": u.shifted(-1).issubset(u),
            "cluster_tilting": u == v,
        }

    def key(self) -> tuple[int, int]:
        return (self.u.bits, self.v.bits)

    def as_labels(self) -> dict[str, list[str]]:
        return {"U": self.u.labels(), "V": self.v.labels()}


@dataclass(frozen=True, slots=True)
class TwinCotorsionPair:
    """Ordered pair of cotorsion pairs with inner-to-outer orthogonality."""

    inner: CotorsionPair
    outer: CotorsionPair

    def __post_init__(self) -> None:
        if self.inner.backend is not self.outer.backend:
            raise InputError("twin halves belong to different backends")

    @property
    def backend(self) -> Backend:
        return self.inner.backend

    @property
    def s(self) -> Subcat:
        return self.inner.u

    @property
    def t(self) -> Subcat:
        return self.inner.v

    @property
    def u(self) -> Subcat:
        return self.outer.u

    @property
    def v(self) -> Subcat:
        return self.outer.v

    def flags(self) -> dict[str, bool]:
        inner_f = self.inner.flags()
        outer_f = self.outer.flags()
        return {
            "t_structure": inner_f["t_structure"] and outer_f["t_structure"],
            "co_t_structure": inner_f["co_t_structure"]
            and outer_f["co_t_structure"],
            "cluster_tilting": inner_f["cluster_tilting"]
            and outer_f["cluster_tilting"],
            "rigid_pair": self.s == self.v,
            "zz_setting": self.s == self.v and self.u == self.t,
            "degenerate": self.s == self.u,
        }

    def key(self) -> tuple[int, int, int, int]:
        return self.inner.key() + self.outer.key()

    def as_labels(self) -> dict[str, list[str]]:
        return {
            "S": self.s.labels(),
            "T": self.t.labels(),
            "U": self.u.labels(),
            "V": self.v.labels(),
        }


@dataclass
class DerivedSets:
    """Core, reduced class, and the two one-sided extension classes."""

    i: Subcat
    z: Subcat
    n_i: Subcat
    n_f: Subcat
    complete: bool


@dataclass
class CPEnumeration:
    pairs: list[CotorsionPair]
    inconclusive: list[CotorsionPair]


class PairEngine:
    """Pair-level queries over one backend with shared star caching."""

    def __init__(self, backend: Backend, cap: int = DEFAULT_CAP):
        backend._need("exact_triangles")
        self.backend = backend
        self.star = StarEngine(backend, cap=cap)
        self._cp_cache: dict[tuple[int, int], Verdict] = {}
        self._derived_cache: dict[tuple, DerivedSets] = {}
        self._cond_cache: dict[tuple[str, tuple], Verdict] = {}
        self._h_cache: dict[tuple[Obj, tuple[int, int]], Verdict] = {}
        self._zi_cache: dict[tuple, object] = {}
        self._cp_enum: Optional[CPEnumeration] = None
        self._tcp_enum: Optional[list[TwinCotorsionPair]] = None
        self._ext1 = hom_masks(backend)[2]

    # -- degree-one orthogonality ------------------------------------------

    def ext1_witness(self, a: Subcat, b: Subcat) -> Optional[tuple[int, int]]:
        """First (i, j) with degree-one maps from i to j, or None."""
        for i in a:
            hit = self._ext1[i] & b.bits
            if hit:
                return (i, (hit & -hit).bit_length() - 1)
        return None

    # -- cotorsion pair detection --------------------------------------------

    def is_cotorsion_pair(self, u: Subcat, v: Subcat) -> Verdict:
        key = (u.bits, v.bits)
        got = self._cp_cache.get(key)
        if got is None:
            got = self._is_cp_impl(u, v)
            self._cp_cache[key] = got
        return got

    def _is_cp_impl(self, u: Subcat, v: Subcat) -> Verdict:
        b = self.backend
        rp = right_perp(u, -1)
        if v != rp:
            return Verdict.no(
                reason="second class differs from the right perpendicular "
                f"of the first: {sorted(set(v.labels()) ^ set(rp.labels()))}"
            )
        lp = left_perp(v, 1)
        if u != lp:
            return Verdict.no(
                reason="first class differs from the left perpendicular "
                f"of the second: {sorted(set(u.labels()) ^ set(lp.labels()))}"
            )
        if self.ext1_witness(u, v) is not None:
            raise InternalCheckError(
                "perpendicularity held but a degree-one map survives"
            )
        states = []
        v1 = v.shifted(1)
        for c in range(len(b.indecs)):
            verdict = self.star.star_contains(u, v1, Obj.of(c), closed="y")
            if verdict.is_no:
                return Verdict.no(
                    reason=f"{b.label_of(c)} admits no decomposition triangle"
                )
            states.append(verdict)
        if any(s.is_inconclusive for s in states):
            return Verdict.inconclusive(reason="coverage search hit its cap")
        return Verdict.yes()

    def enumerate_cotorsion(self) -> CPEnumeration:
        """All cotorsion pairs from the closed sets of U -> left-perp of
        (U[-1])-right-perp, ascending: every first class is one, and forces
        the second.  Walked once per engine; every caller shares the result."""
        if self._cp_enum is not None:
            return self._cp_enum
        b = self.backend
        pairs: list[CotorsionPair] = []
        unresolved: list[CotorsionPair] = []
        for bits in closed_sets(
            len(b.indecs),
            lambda s: left_perp(right_perp(Subcat(b, s), -1), 1).bits,
        ):
            u = Subcat(b, bits)
            v = right_perp(u, -1)
            verdict = self.is_cotorsion_pair(u, v)
            if verdict.is_yes:
                pairs.append(CotorsionPair(u, v))
            elif verdict.is_inconclusive:
                unresolved.append(CotorsionPair(u, v))
        self._cp_enum = CPEnumeration(pairs, unresolved)
        return self._cp_enum

    # -- twin pairs ------------------------------------------------------------

    def _require_cp(self, p: CotorsionPair) -> None:
        verdict = self.is_cotorsion_pair(p.u, p.v)
        if not verdict.is_yes:
            raise InputError(
                f"constituent is not a verified cotorsion pair: "
                f"{p.as_labels()} ({verdict.state}: {verdict.reason})"
            )

    def is_tcp(self, inner: CotorsionPair, outer: CotorsionPair) -> bool:
        """Inner-to-outer orthogonality, cross-checked three ways."""
        self._require_cp(inner)
        self._require_cp(outer)
        return bool(next(self._twin_partners([inner], [outer.key()])))

    def _twin_partners(
        self, inners: list[CotorsionPair], outers: list[tuple[int, int]]
    ) -> Iterator[list[int]]:
        """Per inner (S, T), the indices of the outer (U, V) bitmask pairs
        that form a twin pair with it; Ext^1(S, V) = 0, S in U and V in T
        must all agree.  Each criterion is one bitmask over the outers,
        bit k for outer k, cut down by the outers' per-indecomposable
        membership slices."""
        n = len(self.backend.indecs)
        in_u, in_v = [0] * n, [0] * n
        for k, (u, v) in enumerate(outers):
            for i in iter_bits(u):
                in_u[i] |= 1 << k
            for i in iter_bits(v):
                in_v[i] |= 1 << k
        every = (1 << len(outers)) - 1
        for inner in inners:
            s, t = inner.key()
            s_ext = 0
            for i in inner.u:
                s_ext |= self._ext1[i]
            orth = s_sub = v_sub = every
            for i in range(n):
                if s_ext >> i & 1:
                    orth &= ~in_v[i]
                if s >> i & 1:
                    s_sub &= in_u[i]
                if not t >> i & 1:
                    v_sub &= ~in_v[i]
            if orth != s_sub or orth != v_sub:
                bad = (orth ^ s_sub) | (orth ^ v_sub)
                k = (bad & -bad).bit_length() - 1
                raise InternalCheckError(
                    "equivalent twin-pair criteria disagree: "
                    f"orthogonality={bool(orth >> k & 1)}, "
                    f"S-inclusion={bool(s_sub >> k & 1)}, "
                    f"V-inclusion={bool(v_sub >> k & 1)}"
                )
            yield list(iter_bits(orth))

    def make_tcp(
        self, inner: CotorsionPair, outer: CotorsionPair
    ) -> TwinCotorsionPair:
        if not self.is_tcp(inner, outer):
            raise InputError("classes do not form a twin cotorsion pair")
        return TwinCotorsionPair(inner, outer)

    def is_concentric(self, p: TwinCotorsionPair) -> bool:
        s, t, u, v = p.key()
        return s & t == u & v

    def enumerate_tcp(self) -> tuple[list[TwinCotorsionPair], list[CotorsionPair]]:
        """All twin pairs of enumerated (so verified) pairs, by the three-way
        check, with the unresolved pairs.  Walked once per engine, like
        ``enumerate_cotorsion``; callers filter with ``is_concentric``."""
        enum = self.enumerate_cotorsion()
        if self._tcp_enum is None:
            keys = [p.key() for p in enum.pairs]
            partners = zip(enum.pairs, self._twin_partners(enum.pairs, keys))
            self._tcp_enum = [
                TwinCotorsionPair(inner, enum.pairs[k])
                for inner, ks in partners
                for k in ks
            ]
        return self._tcp_enum, enum.inconclusive

    # -- derived classes -------------------------------------------------------

    def derived_sets(self, p: TwinCotorsionPair) -> DerivedSets:
        key = p.key()
        got = self._derived_cache.get(key)
        if got is None:
            got = self._derived_impl(p)
            self._derived_cache[key] = got
        return got

    def _derived_impl(self, p: TwinCotorsionPair) -> DerivedSets:
        if not self.is_concentric(p):
            raise InputError("derived classes need a concentric twin pair")
        core = p.s.intersect(p.t)
        z = p.t.intersect(p.u)
        n_i, ok_i = self.star.star_indecs(p.s, p.v.shifted(1), closed="y")
        n_f, ok_f = self.star.star_indecs(p.s.shifted(-1), p.v, closed="y")
        complete = ok_i and ok_f
        if complete:
            if p.u.intersect(n_i) != p.s:
                raise InternalCheckError(
                    "outer class meets the initial extension class away "
                    "from the inner class"
                )
            if p.t.intersect(n_f) != p.v:
                raise InternalCheckError(
                    "inner coclass meets the final extension class away "
                    "from the outer coclass"
                )
        return DerivedSets(core, z, n_i, n_f, complete)

    # -- factoring subspaces ------------------------------------------------

    def factoring_subspace(
        self, src: Obj, mids: Subcat, dst: Obj
    ) -> list[int]:
        """Spanning coordinates of maps src -> dst factoring through mids.

        Any factorization through a finite direct sum of members splits
        into single-member components, so products of basis elements
        through single indecomposables span the whole subspace.
        """
        b = self.backend
        vectors: list[int] = []
        for mid in mids:
            m_obj = Obj.of(mid)
            d1 = b.hom_dim(src, m_obj)
            d2 = b.hom_dim(m_obj, dst)
            for a_bit in range(d1):
                alpha = Mor(src, m_obj, 1 << a_bit)
                for b_bit in range(d2):
                    beta = Mor(m_obj, dst, 1 << b_bit)
                    coords = b.compose(alpha, beta).coords
                    if coords:
                        vectors.append(coords)
        return vectors

    def h_vanishes(self, x: Obj, pair: CotorsionPair) -> Verdict:
        """Does the middle map of a decomposition triangle factor through V?

        Builds a triangle with first end in add(U) and third end in
        add(V)[1], then tests by linear algebra whether the map out of
        x lies in the subspace of maps factoring through add(V).  The
        answer is triangle-independent, so a second witness of the same
        cap level is compared and any disagreement raises; when there is
        none, or the budget runs out first, the reason says so.  The
        verdict is stored per (x, pair).
        """
        key = (x, pair.key())
        got = self._h_cache.get(key)
        if got is None:
            got = self._h_cache[key] = self._h_vanishes_impl(x, pair)
        return got

    def _h_vanishes_impl(self, x: Obj, pair: CotorsionPair) -> Verdict:
        verdicts = []
        try:
            for w in self.star.witnesses(
                pair.u, pair.v.shifted(1), x, self.star.cap
            ):
                span = self.factoring_subspace(x, pair.v, w.tri.c)
                verdicts.append(in_span(w.tri.g.coords, span))
                if len(verdicts) == 2:
                    break
        except BudgetExceeded:
            if not verdicts:
                return Verdict.inconclusive(
                    reason="no decomposition triangle within budget"
                )
        if not verdicts:
            return Verdict.inconclusive(
                reason="no decomposition triangle found at the current cap"
            )
        if len(set(verdicts)) > 1:
            raise InternalCheckError(
                "heart vanishing depends on the witness triangle"
            )
        notes = [] if verdicts[0] else ["middle map does not factor through V"]
        if len(verdicts) == 1:
            notes.append("one witness only, so the cross-check did not run")
        reason = "; ".join(notes) or None
        return Verdict.yes(reason=reason) if verdicts[0] else Verdict.no(reason=reason)

    # -- conditions ----------------------------------------------------------

    def _cached_condition(
        self, name: str, p: TwinCotorsionPair, compute
    ) -> Verdict:
        key = (name, p.key())
        got = self._cond_cache.get(key)
        if got is None:
            got = compute(p)
            self._cond_cache[key] = got
        return got

    def check_condition_II(self, p: TwinCotorsionPair) -> Verdict:
        """Shifted-intersection equalities on both sides."""
        return self._cached_condition("II", p, self._condition_II_impl)

    def _condition_II_impl(self, p: TwinCotorsionPair) -> Verdict:
        d = self.derived_sets(p)
        bad = []
        if p.u.intersect(d.n_f) != p.s:
            if p.u.intersect(d.n_f).minus(p.s).bits or d.complete:
                bad.append("U-side")
        if p.t.intersect(d.n_i) != p.v:
            if p.t.intersect(d.n_i).minus(p.v).bits or d.complete:
                bad.append("T-side")
        if bad:
            return Verdict.no(reason=f"equalities fail on: {', '.join(bad)}")
        if not d.complete:
            return Verdict.inconclusive(reason="extension classes incomplete")
        return Verdict.yes()

    def check_condition_III(self, p: TwinCotorsionPair) -> Verdict:
        """Heart vanishing of the outer class against the inner pair
        and of the inner coclass against the outer pair, per
        indecomposable; additivity extends it to all objects."""
        return self._cached_condition("III", p, self._condition_III_impl)

    def _condition_III_impl(self, p: TwinCotorsionPair) -> Verdict:
        parts = []
        for uu in p.u:
            parts.append(self.h_vanishes(Obj.of(uu), p.inner))
        for tt in p.t:
            parts.append(self.h_vanishes(Obj.of(tt), p.outer))
        return Verdict.all_of(parts)

    def check_condition_I(self, p: TwinCotorsionPair) -> Verdict:
        """Comparison maps are isomorphisms after passing to the
        subquotient, tested on the indecomposables of the relevant
        star class; additivity reduces the general case to these."""
        return self._cached_condition("I", p, self._condition_I_impl)

    def _condition_I_impl(self, p: TwinCotorsionPair) -> Verdict:
        from .quotient import ZIQuotient

        d = self.derived_sets(p)
        tu, complete = self.star.star_indecs(p.t, p.u, closed="y")
        q = ZIQuotient.for_pair(self, p)
        parts = []
        for xx in tu:
            parts.append(q.mu_is_iso(Obj.of(xx)))
        if not complete:
            parts.append(
                Verdict.inconclusive(reason="star class possibly incomplete")
            )
        return Verdict.all_of(parts)

    def is_hovey(
        self, p: TwinCotorsionPair
    ) -> tuple[Verdict, Optional[Subcat]]:
        """Equality of the two extension classes, plus thickness checks."""
        d = self.derived_sets(p)
        if not d.complete:
            # both classes are lower bounds, so a membership difference
            # between them proves nothing until the searches finish
            return Verdict.inconclusive(reason="extension classes incomplete"), None
        if d.n_i != d.n_f:
            return Verdict.no(reason="the two extension classes differ"), None
        n = d.n_i
        if n.shifted(1) != n or n.shifted(-1) != n:
            raise InternalCheckError("matched extension class is not shift-stable")
        if not self.star.is_ext_closed_pairwise(n):
            raise InternalCheckError("matched extension class is not extension-closed")
        return Verdict.yes(), n


def trivial_pairs(engine: PairEngine) -> tuple[CotorsionPair, CotorsionPair]:
    """The (everything, zero) and (zero, everything) pairs, verified."""
    b = engine.backend
    all_cp = CotorsionPair(Subcat.everything(b), Subcat.empty(b))
    zero_cp = CotorsionPair(Subcat.empty(b), Subcat.everything(b))
    for p in (all_cp, zero_cp):
        v = engine.is_cotorsion_pair(p.u, p.v)
        if not v.is_yes:
            raise InternalCheckError(
                f"trivial pair rejected: {p.as_labels()} ({v.state})"
            )
    return all_cp, zero_cp


def trivial_hovey_tcp(engine: PairEngine) -> TwinCotorsionPair:
    """The twin pair ((zero, everything), (everything, zero))."""
    all_cp, zero_cp = trivial_pairs(engine)
    return engine.make_tcp(zero_cp, all_cp)
