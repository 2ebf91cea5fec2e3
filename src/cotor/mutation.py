"""Mutation of cotorsion pairs along a concentric twin pair.

The mutable class holds the cotorsion pairs sandwiched between the
twin pair's halves whose quotient extension group vanishes.  Two maps
move between that class and the cotorsion pairs of the subquotient:
the descent map sends a pair to its adjoint images, and the lift map
pulls a quotient pair back through star products over the lifted
classes.  Composing descent, a quotient suspension power, and lift
gives the integer-indexed mutation action.

Every transported pair is re-verified from scratch, the lift is
computed along two independent routes (star product versus adjoint
preimage) that must agree, and the verification report enumerates
both sides of the correspondence independently before matching them.
Both sides walk the closed sets of a perpendicular closure, over the
ambient or the quotient Ext^1, and certify each candidate.  The lift's
stars, the fixed-point stars of the membership test and the quotient
pairs' coverage L * <1>R are each decided by one minimal approximation
per member (``PairEngine.in_star``), with no cap and no search, so the
lift and the membership test make their cross-checks on every call.
Each mutation engine
stores the answers of descent, lift, membership and the action per
input (``core.stored``), so those cross-checks run once per distinct
input however often the action laws compose them; a raised error is
never stored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import InputError, InternalCheckError, Obj, _incidence_masks, stored
from .pairs import CotorsionPair, PairEngine, TwinCotorsionPair
from .quotient import ZIQuotient
from .subcats import Subcat, perp_pairs


@dataclass(frozen=True)
class ZICotorsionPair:
    """Cotorsion pair in the subquotient, over the ids of its
    indecomposables (``ZIQuotient.zi_objects``)."""

    l: tuple[int, ...]
    r: tuple[int, ...]

    @staticmethod
    def of(l, r) -> "ZICotorsionPair":
        return ZICotorsionPair(tuple(sorted(set(l))), tuple(sorted(set(r))))


class MutationEngine:
    """Mutation machinery bound to one concentric twin pair."""

    def __init__(self, engine: PairEngine, p: TwinCotorsionPair):
        self.engine = engine
        self.backend = engine.backend
        self.p = p
        self.q = ZIQuotient.for_pair(engine, p)
        self.cond_II = engine.check_condition_II(p)
        self.cond_I = engine.check_condition_I(p)

    @property
    def preconditions_met(self) -> bool:
        return self.cond_I.is_yes and self.cond_II.is_yes

    def _need_conditions(self) -> None:
        if not self.preconditions_met:
            raise InputError(
                "mutation needs both quotient conditions verified: "
                f"I={self.cond_I.state}, II={self.cond_II.state}"
            )

    # -- descent to the subquotient ------------------------------------------

    def _image_classes(self, i: int, step: int) -> set[int]:
        """Classes of the adjoint (+1) or coadjoint (-1) image of i."""
        img, _ = self.q.adjoint(Obj.of(i), step)
        return set(self.q.class_of(img))

    def adjoint_bar(self, a: Subcat, step: int) -> tuple[int, ...]:
        """Classes of the adjoint (+1) or coadjoint (-1) images of a."""
        out: set[int] = set()
        for i in a:
            out |= self._image_classes(i, step)
        return tuple(sorted(out))

    @stored(key=lambda cp: cp.key())
    def R_map(self, cp: CotorsionPair) -> ZICotorsionPair:
        return ZICotorsionPair.of(
            self.adjoint_bar(cp.u, 1), self.adjoint_bar(cp.v, -1)
        )

    # -- lift from the subquotient ------------------------------------------------

    def lift(self, reps) -> Subcat:
        """The middle-class indecomposables with classes in the set: the
        ids themselves, and the core members, whose zero class every set holds."""
        return Subcat.of(self.backend, reps).union(self.q.i_set)

    def _star_members(self, side: Subcat, x: Subcat, y: Subcat, step: int) -> Subcat:
        """The members of side in add(x) * add(y) by ``PairEngine.in_star``,
        whose hypothesis on the star the caller vouches for."""
        ok = self.engine.in_star
        return Subcat.of(self.backend, [i for i in side if ok(x, y, Obj.of(i), step)])

    def _lift_class(self, reps: tuple[int, ...], step: int) -> Subcat:
        """The first (+1) or second (-1) class of a lifted pair: the
        members of U (+1) or T (-1) whose adjoint (+1) or coadjoint (-1)
        images have classes in reps.  The star route must agree."""
        # The lift lies in Z, inside T and U, so Ext^1(S, T) = 0 = Ext^1(U, V)
        # make the stars x * y = S[-1] * lift (+1) and lift * V[1] (-1)
        # Hom-orthogonal.  The adjoints read right approximations only, so
        # the two routes never share a stored one.
        lift, q = self.lift(reps), self.q
        x, y = (q.s_down, lift) if step == 1 else (lift, q.v_up)
        side, want = (self.p.u if step == 1 else self.p.t), set(reps)
        by_star = self._star_members(side, x, y, -1)
        pre = Subcat.of(
            self.backend, [i for i in side if self._image_classes(i, step) <= want]
        )
        if by_star != pre:
            raise InternalCheckError(
                f"lift routes disagree on the {'first' if step == 1 else 'second'} "
                f"class: star {by_star.labels()} vs preimage {pre.labels()}"
            )
        return pre

    @stored()
    def I_map(self, zp: ZICotorsionPair) -> CotorsionPair:
        """Pull a quotient pair back to an ambient cotorsion pair.

        Star route and adjoint-preimage route are both computed and
        must agree; the result is verified as a cotorsion pair.
        """
        out = CotorsionPair(self._lift_class(zp.l, 1), self._lift_class(zp.r, -1))
        v = self.engine.is_cotorsion_pair(out.u, out.v)
        if not v.is_yes:
            raise InternalCheckError(
                f"lifted pair fails verification ({v.state}): {out.as_labels()}"
            )
        return out

    # -- membership in the mutable class ---------------------------------------

    @stored(key=lambda cp: cp.key())
    def in_MP(self, cp: CotorsionPair) -> bool:
        """Mutable-class membership, two characterizations cross-checked."""
        v = self.engine.is_cotorsion_pair(cp.u, cp.v)
        if not v.is_yes:
            raise InputError(
                f"membership test needs a verified cotorsion pair ({v.state})"
            )
        p, q = self.p, self.q
        if not self._within_outer([cp]):
            # Both routes are false on bits alone: the sandwich needs
            # U' in U and V' in T, and the fixed-point classes lie there.
            # Inside, the sandwich S in U' and V in V' holds too, since
            # each class of a cotorsion pair is the perpendicular of the
            # other: S in U' iff V' in T, and V in V' iff U' in U.
            return False
        by_def = all(
            q.ext1_zi(q.adjoint(Obj.of(a), 1)[0], q.adjoint(Obj.of(bb), -1)[0]) == 0
            for a in cp.u for bb in cp.v
        )
        # in_star's hypothesis holds with W = V' on S[-1] * U' and W = U' on
        # V' * V[1]: U' and V' are each other's Ext^1-perpendiculars, V' lies
        # in T, so Ext^1(S, V') = 0, and U' in U, so Ext^1(U', V) = 0.
        fa = self._star_members(p.u, q.s_down, cp.u, 1)
        fb = self._star_members(p.t, cp.v, q.v_up, -1)
        by_fixed_point = fa == cp.u and fb == cp.v
        if by_def != by_fixed_point:
            raise InternalCheckError(
                "mutable-class characterizations disagree on "
                f"{cp.as_labels()}: definitional {by_def}, "
                f"fixed-point {by_fixed_point}"
            )
        return by_def

    def _within_outer(self, pairs: list[CotorsionPair]) -> list[CotorsionPair]:
        """The pairs with U' in U and V' in T, as every mutable pair has."""
        out_u, out_t = ~self.p.u.bits, ~self.p.t.bits
        return [cp for cp in pairs if not (cp.u.bits & out_u or cp.v.bits & out_t)]

    def enumerate_MP(self) -> list[CotorsionPair]:
        """The ambient cotorsion pairs in the mutable class."""
        pairs = self.engine.enumerate_cotorsion().pairs
        return [cp for cp in self._within_outer(pairs) if self.in_MP(cp)]

    # -- native cotorsion pairs in the subquotient -----------------------------

    @stored()
    def _shift_permutation(self, step: int) -> dict[int, int]:
        """Class permutation of the suspension (+1) or desuspension (-1)."""
        perm = {}
        for rep in self.q.zi_objects():
            cls = self.q.class_of(self.q.shift(Obj.of(rep), step))
            if len(cls) != 1:
                raise InternalCheckError(
                    f"shift by {step} of an indecomposable class is not "
                    "indecomposable; the quotient shifts are not "
                    "equivalences here"
                )
            perm[rep] = cls[0]
        if step == 1:
            if sorted(perm.values()) != sorted(perm):
                raise InternalCheckError("suspension is not a permutation")
        else:
            sig = self._shift_permutation(1)
            if any(sig[img] != rep for rep, img in perm.items()):
                raise InternalCheckError(
                    "suspension and desuspension fail to invert "
                    "each other on classes"
                )
        return perm

    def shift_zi_pair(self, zp: ZICotorsionPair, k: int) -> ZICotorsionPair:
        perm = self._shift_permutation(1 if k >= 0 else -1)
        # the permutation's order is the lcm of its cycle lengths
        order = 1
        for start in perm:
            length, x = 1, perm[start]
            while x != start:
                length, x = length + 1, perm[x]
            order = math.lcm(order, length)
        l, r = set(zp.l), set(zp.r)
        for _ in range(abs(k) % order):
            l = {perm[x] for x in l}
            r = {perm[x] for x in r}
        return ZICotorsionPair.of(l, r)

    def zi_star_member(self, m: int, l, r) -> bool:
        """Is the class of m in L * <1>R?  Only for Ext^1_{Z/I}(L, R) = 0,
        which ``zi_is_cp`` checks first.

        ``PairEngine.in_star``'s argument in Z/I: the standard right third
        of the minimal right L-approximation of m has its classes in the
        suspension of R.  That is ``approximation(L + I, m, 1)``: its tops
        are taken modulo the maps through the core members, which factor
        through add(I), and through rad End(u), which holds those of End(u)
        as u is not in I, so they lift a basis of Hom_{Z/I}(u, m) modulo its
        radical; the core summands are zero in Z/I.  A no needs
        Hom_{Z/I}(l, -) exact at the middle of a standard right triangle,
        which holds when Z/I is triangulated.  ``verify_bijection`` alone
        runs this, after (I) and (II), and a wrong no there shows as a
        cardinality mismatch, never silently."""
        q = self.q
        cls = Subcat.of(self.backend, l).union(q.i_set)
        third = q.standard_right_third(self.engine.approximation(cls, Obj.of(m), 1))
        sig_classes = {self._shift_permutation(1)[x] for x in r}
        return set(q.class_of(third)) <= sig_classes

    def zi_is_cp(self, l, r) -> bool:
        """Native cotorsion-pair test inside the subquotient."""
        for a in l:
            for bb in r:
                if self.q.ext1_zi(Obj.of(a), Obj.of(bb)) != 0:
                    return False
        for m in self.q.zi_objects():
            if not self.zi_star_member(m, l, r):
                return False
        return True

    def enumerate_zi_cp(self) -> list[ZICotorsionPair]:
        """Quotient cotorsion pairs (L, R), L walking the closed sets of
        L -> left-perp of right-perp under the quotient Ext^1 in ascending
        order, R the right-perp of L, each certified by ``zi_is_cp``.

        The 4^n sweep over all (L, R) finds the same list.  No more: the
        right-perp is the largest R orthogonal to L, and ``zi_star_member``
        only gets easier as R grows.  No less: a cotorsion pair is fixed by
        either class, so R is the right-perp of L, and L is closed.
        """
        reps = self.q.zi_objects()
        n = len(reps)
        out, into = _incidence_masks(
            n, lambda i, j: self.q.ext1_zi(Obj.of(reps[i]), Obj.of(reps[j]))
        )

        def pick(bits: int) -> tuple[int, ...]:
            return tuple(reps[k] for k in range(n) if bits >> k & 1)

        found = []
        for lbits, rbits in perp_pairs(out, into):
            l, r = pick(lbits), pick(rbits)
            if self.zi_is_cp(l, r):
                found.append(ZICotorsionPair.of(l, r))
        return found

    # -- the action -----------------------------------------------------------

    @stored(key=lambda cp, k: (cp.key(), k))
    def mutate(self, cp: CotorsionPair, k: int) -> CotorsionPair:
        self._need_conditions()
        if not self.in_MP(cp):
            raise InputError(
                f"pair is outside the mutable class: {cp.as_labels()}"
            )
        out = self.I_map(self.shift_zi_pair(self.R_map(cp), k))
        if not self.in_MP(out):
            raise InternalCheckError(
                f"mutation left the mutable class: {out.as_labels()}"
            )
        return out

    def verify_bijection(self) -> dict:
        """Independent enumeration of both sides, matching, and action laws."""
        self._need_conditions()
        failures: list[dict] = []
        mp = self.enumerate_MP()
        zcp = self.enumerate_zi_cp()
        if not mp and self.q.zi_objects():
            failures.append(
                {
                    "kind": "empty-mutable-class",
                    "detail": "nonzero subquotient with no mutable pairs",
                }
            )
        images = []
        for cp in mp:
            zp = self.R_map(cp)
            images.append(zp)
            if zp not in zcp:
                failures.append(
                    {
                        "kind": "descent-missed-target",
                        "pair": cp.as_labels(),
                        "image": {"L": list(zp.l), "R": list(zp.r)},
                    }
                )
            back = self.I_map(zp)
            if back.key() != cp.key():
                failures.append(
                    {
                        "kind": "roundtrip-ambient",
                        "pair": cp.as_labels(),
                        "back": back.as_labels(),
                    }
                )
        if len(set(images)) != len(images):
            failures.append({"kind": "descent-not-injective"})
        if len(mp) != len(zcp):
            failures.append(
                {
                    "kind": "cardinality-mismatch",
                    "mutable": len(mp),
                    "quotient": len(zcp),
                }
            )
        for zp in zcp:
            cp = self.I_map(zp)
            if not self.in_MP(cp):
                failures.append(
                    {
                        "kind": "lift-left-mutable-class",
                        "image": {"L": list(zp.l), "R": list(zp.r)},
                    }
                )
            again = self.R_map(cp)
            if again != zp:
                failures.append(
                    {
                        "kind": "roundtrip-quotient",
                        "pair": {"L": list(zp.l), "R": list(zp.r)},
                        "back": {"L": list(again.l), "R": list(again.r)},
                    }
                )
        for cp in mp:
            if self.mutate(cp, 0).key() != cp.key():
                failures.append(
                    {"kind": "zero-power-not-identity", "pair": cp.as_labels()}
                )
            for a in (-1, 0, 1, 2):
                for bb in (-1, 0, 1, 2):
                    lhs = self.mutate(self.mutate(cp, bb), a)
                    rhs = self.mutate(cp, a + bb)
                    if lhs.key() != rhs.key():
                        failures.append(
                            {
                                "kind": "action-law",
                                "pair": cp.as_labels(),
                                "powers": [a, bb],
                            }
                        )
        return {
            "ok": not failures,
            "mutable_count": len(mp),
            "quotient_count": len(zcp),
            "failures": failures,
        }

    def orbit_graph(self) -> str:
        """DOT digraph of the single-step mutation on the mutable class."""
        self._need_conditions()
        mp = self.enumerate_MP()
        index = {cp.key(): i for i, cp in enumerate(mp)}
        lines = ["digraph mutation {"]
        for i, cp in enumerate(mp):
            label = json.dumps(cp.as_labels(), separators=(",", ":"))
            lines.append(f'  n{i} [label={json.dumps(label)}];')
        for i, cp in enumerate(mp):
            nxt = self.mutate(cp, 1)
            j = index.get(nxt.key())
            if j is None:
                raise InternalCheckError("mutation left the enumerated class")
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)
