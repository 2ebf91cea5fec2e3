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
ambient or the quotient Ext^1, and certify each candidate.  The star
routes run on the peel engine, each in the direction of its
extension-closed side.  The engine stores the answers of descent, lift
and membership per input, so those cross-checks run once per distinct
input however often the action laws compose them; a raised error is
never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .core import InputError, InternalCheckError, Mor, Obj, multisets_over
from .pairs import CotorsionPair, PairEngine, TwinCotorsionPair
from .quotient import ZIQuotient
from .subcats import Subcat, closed_sets


@dataclass(frozen=True)
class ZICotorsionPair:
    """Cotorsion pair in the subquotient, over class representatives."""

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
        self._srt_classes: dict[tuple, tuple] = {}
        self._perms: dict[int, dict[int, int]] = {}
        self._descents: dict[tuple[int, int], ZICotorsionPair] = {}
        self._lifts: dict[ZICotorsionPair, CotorsionPair] = {}
        self._members: dict[tuple[int, int], bool] = {}

    @staticmethod
    def _stored(table: dict, key, compute: Callable, arg):
        """compute(arg), stored in table under key once it returns."""
        got = table.get(key)
        if got is None:
            got = table[key] = compute(arg)
        return got

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

    def R_map(self, cp: CotorsionPair) -> ZICotorsionPair:
        return self._stored(self._descents, cp.key(), self._descend, cp)

    def _descend(self, cp: CotorsionPair) -> ZICotorsionPair:
        return ZICotorsionPair.of(
            self.adjoint_bar(cp.u, 1), self.adjoint_bar(cp.v, -1)
        )

    # -- lift from the subquotient ------------------------------------------------

    def lift(self, reps) -> Subcat:
        """Ambient middle-class indecomposables with classes in the set.

        Core members lift too: their class is zero, which every
        additive class contains.
        """
        want = set(reps)
        ids = set(self.q.i_set.ids())
        for z in self.q.z_set:
            rep = self.q.class_rep(z)
            if rep is not None and rep in want:
                ids.add(z)
        return Subcat.of(self.backend, ids)

    def I_map(self, zp: ZICotorsionPair) -> CotorsionPair:
        """Pull a quotient pair back to an ambient cotorsion pair.

        Star route and adjoint-preimage route are both computed and
        must agree; the result is verified as a cotorsion pair.
        """
        return self._stored(self._lifts, zp, self._pull_back, zp)

    def _pull_back(self, zp: ZICotorsionPair) -> CotorsionPair:
        # Candidates outside U and T are discarded by the intersection,
        # so the sweeps never need to decide them.  S[-1] and V[1] are
        # shifted cotorsion-pair sides, hence extension-closed.
        p, star = self.p, self.engine.star
        a_star_raw, ok_a = star.star_indecs(
            p.s.shifted(-1), self.lift(zp.l), closed="x", within=p.u
        )
        b_star_raw, ok_b = star.star_indecs(
            self.lift(zp.r), p.v.shifted(1), closed="y", within=p.t
        )
        a_star = p.u.intersect(a_star_raw)
        b_star = p.t.intersect(b_star_raw)

        want_l, want_r = set(zp.l), set(zp.r)
        a_pre = Subcat.of(
            self.backend, [i for i in p.u if self._image_classes(i, 1) <= want_l]
        )
        b_pre = Subcat.of(
            self.backend, [i for i in p.t if self._image_classes(i, -1) <= want_r]
        )
        if ok_a and a_star != a_pre:
            raise InternalCheckError(
                "lift routes disagree on the first class: star "
                f"{a_star.labels()} vs preimage {a_pre.labels()}"
            )
        if ok_b and b_star != b_pre:
            raise InternalCheckError(
                "lift routes disagree on the second class: star "
                f"{b_star.labels()} vs preimage {b_pre.labels()}"
            )
        out = CotorsionPair(a_pre, b_pre)
        v = self.engine.is_cotorsion_pair(out.u, out.v)
        if not v.is_yes:
            raise InternalCheckError(
                f"lifted pair fails verification ({v.state}): {out.as_labels()}"
            )
        return out

    # -- membership in the mutable class ---------------------------------------

    def in_MP(self, cp: CotorsionPair) -> bool:
        """Mutable-class membership, two characterizations cross-checked."""
        return self._stored(self._members, cp.key(), self._member, cp)

    def _member(self, cp: CotorsionPair) -> bool:
        v = self.engine.is_cotorsion_pair(cp.u, cp.v)
        if not v.is_yes:
            raise InputError(
                f"membership test needs a verified cotorsion pair ({v.state})"
            )
        p = self.p
        if not (cp.u.issubset(p.u) and cp.v.issubset(p.t)):
            # Both routes are false on bits alone: the sandwich needs
            # U' in U and V' in T, and the fixed-point classes lie there.
            return False
        sandwich = p.s.issubset(cp.u) and p.v.issubset(cp.v)
        by_def = sandwich
        if sandwich:
            for a in cp.u:
                sa, _ = self.q.adjoint(Obj.of(a), 1)
                for bb in cp.v:
                    ob, _ = self.q.adjoint(Obj.of(bb), -1)
                    if self.q.ext1_zi(sa, ob) != 0:
                        by_def = False
                        break
                if not by_def:
                    break

        # The second star arguments are classes of verified pairs, hence
        # extension-closed, which the peel engine's yes side requires.
        star = self.engine.star
        fa_raw, ok_a = star.star_indecs(p.s.shifted(-1), cp.u, closed="y", within=p.u)
        fb_raw, ok_b = star.star_indecs(cp.v, p.v.shifted(1), closed="y", within=p.t)
        if ok_a and ok_b:
            by_fixed_point = (
                p.u.intersect(fa_raw) == cp.u and p.t.intersect(fb_raw) == cp.v
            )
            if by_def != by_fixed_point:
                raise InternalCheckError(
                    "mutable-class characterizations disagree on "
                    f"{cp.as_labels()}: definitional {by_def}, "
                    f"fixed-point {by_fixed_point}"
                )
        return by_def

    def enumerate_MP(self) -> list[CotorsionPair]:
        enum = self.engine.enumerate_cotorsion()
        if enum.inconclusive:
            raise InternalCheckError(
                "ambient enumeration left inconclusive candidates; the "
                "mutable class cannot be certified"
            )
        return [cp for cp in enum.pairs if self.in_MP(cp)]

    # -- native cotorsion pairs in the subquotient -----------------------------

    def _shift_permutation(self, step: int) -> dict[int, int]:
        """Class permutation of the suspension (+1) or desuspension (-1)."""
        perm = self._perms.get(step)
        if perm is None:
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
            self._perms[step] = perm
        return perm

    def shift_zi_pair(self, zp: ZICotorsionPair, k: int) -> ZICotorsionPair:
        perm = self._shift_permutation(1 if k >= 0 else -1)
        l, r = set(zp.l), set(zp.r)
        for _ in range(abs(k)):
            l = {perm[x] for x in l}
            r = {perm[x] for x in r}
        return ZICotorsionPair.of(l, r)

    def zi_star_member(self, m: int, l, r) -> bool:
        """Does the class of m extend a lift-side object by a suspended
        right-side object, via standard right triangles?"""
        target = Obj.of(m)
        sig_classes = {self._shift_permutation(1)[x] for x in r}
        cap = self.engine.star.cap
        for size in range(0, cap + 1):
            pools = [()] if size == 0 else multisets_over(tuple(l), size)
            for pool in pools:
                src = Obj.from_iter(pool)
                qs = self.q.hom_mod_I(src, target)
                for coords in qs.classes():
                    key = (src.summands, coords, m)
                    got = self._srt_classes.get(key)
                    if got is None:
                        got = self.q.class_of(
                            self.q.standard_right_third(Mor(src, target, coords))
                        )
                        self._srt_classes[key] = got
                    if all(c in sig_classes for c in got):
                        return True
        return False

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
        out, into = [0] * n, [0] * n
        for i, x in enumerate(reps):
            for j, y in enumerate(reps):
                if self.q.ext1_zi(Obj.of(x), Obj.of(y)):
                    out[i] |= 1 << j
                    into[j] |= 1 << i

        def perp(bits: int, masks: list[int]) -> int:
            return sum(1 << k for k in range(n) if not masks[k] & bits)

        def pick(bits: int) -> tuple[int, ...]:
            return tuple(reps[k] for k in range(n) if bits >> k & 1)

        found = []
        for lbits in closed_sets(n, lambda s: perp(perp(s, into), out)):
            l, r = pick(lbits), pick(perp(lbits, into))
            if self.zi_is_cp(l, r):
                found.append(ZICotorsionPair.of(l, r))
        return found

    # -- the action -----------------------------------------------------------

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
            "mutable": [cp.as_labels() for cp in mp],
            "quotient": [{"L": list(z.l), "R": list(z.r)} for z in zcp],
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
