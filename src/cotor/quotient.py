"""Subquotient of the middle class by the core, with its shifts.

Fix a concentric twin pair with core I and middle class Z.  The
subquotient keeps the objects of Z and divides each Hom space by maps
factoring through add(I).  Everything here is concrete linear algebra:
each quotient Hom space is an ``f2.QuotientSpace`` of the ambient Hom
space by the span of the factoring maps, and morphism-level values are
solutions of GF(2) systems stacked from the backend's composition
operators and those spans.

The object maps come in mirrored pairs, and each pair is one method
taking a direction: ``bracket(z, step)`` is a step through the core,
``adjoint(x, step)`` pulls an object of the outer class (+1) or of the
inner coclass (-1) back into Z, and ``shift(z, step)`` is the
suspension (+1) or desuspension (-1), the adjoint image of the bracket
step the same way.  Every witness triangle is the first one of the
star engine's escalating-cap search, which the engine stores per search
(``StarEngine.first_witness``).

Witness triangles are unique only up to isomorphism, so object-level
identities are asserted as quotient isomorphisms, never as equalities
of ambient objects.  Isomorphism testing itself runs two routes, a
cone-membership test and a direct two-sided-inverse solve, and refuses
to answer if the conclusive routes disagree.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    DecompositionMissing,
    InputError,
    InternalCheckError,
    Mor,
    Obj,
    Tri,
    Verdict,
    _merge_objs,
    scatter_blocks,
)
from .f2 import F2Matrix, QuotientSpace, solve
from .pairs import PairEngine, TwinCotorsionPair
from .subcats import Subcat


def _check_step(step: int) -> None:
    if step not in (1, -1):
        raise InputError("shift step must be +1 or -1")


class ZIQuotient:
    """Quotient category data for one concentric twin pair."""

    def __init__(self, engine: PairEngine, p: TwinCotorsionPair):
        self.engine = engine
        self.backend = engine.backend
        self.p = p
        d = engine.derived_sets(p)
        self.i_set: Subcat = d.i
        self.z_set: Subcat = d.z
        self._qcache: dict[tuple, QuotientSpace] = {}
        self._bracket_cache: dict[tuple, tuple[Obj, Tri]] = {}
        self._adjoint_cache: dict[tuple, tuple[Obj, Tri]] = {}
        self._class_rep: Optional[dict[int, Optional[int]]] = None

    @classmethod
    def for_pair(
        cls, engine: PairEngine, p: TwinCotorsionPair
    ) -> "ZIQuotient":
        """Shared instance per pair; entry caches are expensive to refill."""
        got = engine._zi_cache.get(p.key())
        if got is None:
            got = cls(engine, p)
            engine._zi_cache[p.key()] = got
        return got

    # -- quotient Hom spaces -------------------------------------------------

    def hom_mod_I(self, x: Obj, y: Obj) -> QuotientSpace:
        if not (self.z_set.contains_obj(x) and self.z_set.contains_obj(y)):
            raise InputError("quotient Hom needs objects from the middle class")
        key = (x.summands, y.summands)
        got = self._qcache.get(key)
        if got is None:
            got = QuotientSpace(
                self.backend.hom_dim(x, y),
                self.engine.factoring_subspace(x, self.i_set, y),
            )
            self._qcache[key] = got
        return got

    def same_class(self, f: Mor, g: Mor) -> bool:
        q = self.hom_mod_I(f.src, f.dst)
        return q.reduce(f.coords) == q.reduce(g.coords)

    def is_zero_class(self, f: Mor) -> bool:
        return self.hom_mod_I(f.src, f.dst).reduce(f.coords) == 0

    # -- witness triangles -----------------------------------------------------

    def _witness(self, x: Subcat, y: Subcat, c: Obj, what: str) -> Tri:
        # wide objects need at least their own width of split room
        star = self.engine.star
        w = star.first_witness(x, y, c, len(c) + star.cap)
        if w is None:
            raise DecompositionMissing(
                f"no {what} triangle for {c.summands} at the current cap"
            )
        return w.tri

    def adjoint(self, x: Obj, step: int) -> tuple[Obj, Tri]:
        """Adjoint (+1) or coadjoint (-1) image in the middle class.

        +1 takes an object u of the outer class through a witness
        (inner class member)[-1] -> u -> image; -1 takes an object t of
        the inner coclass through image -> t -> (outer coclass
        member)[1].
        """
        _check_step(step)
        if not (self.p.u if step == 1 else self.p.t).contains_obj(x):
            raise InputError(
                "adjoint image needs an object of the "
                + ("outer class" if step == 1 else "inner coclass")
            )
        key = (x.summands, step)
        got = self._adjoint_cache.get(key)
        if got is None:
            if step == 1:
                tri = self._witness(self.p.s.shifted(-1), self.z_set, x, "adjoint")
                got = (tri.c, tri)
            else:
                tri = self._witness(self.z_set, self.p.v.shifted(1), x, "coadjoint")
                got = (tri.a, tri)
            self._adjoint_cache[key] = got
        return got

    def bracket(self, z: Obj, step: int) -> tuple[Obj, Tri]:
        """One bracket step through the core, up (+1) or down (-1)."""
        if not self.z_set.contains_obj(z):
            raise InputError("bracket shift needs an object of the middle class")
        _check_step(step)
        key = (z.summands, step)
        got = self._bracket_cache.get(key)
        if got is None:
            b = self.backend
            if step == 1:
                tri = self._witness(
                    self.p.u.shifted(-1), self.i_set, z, "upward bracket"
                )
                out = b.shift_obj(tri.a, 1)
                if not self.p.u.contains_obj(out):
                    raise InternalCheckError("upward bracket left the outer class")
            else:
                tri = self._witness(
                    self.i_set, self.p.t.shifted(1), z, "downward bracket"
                )
                out = b.shift_obj(tri.c, -1)
                if not self.p.t.contains_obj(out):
                    raise InternalCheckError(
                        "downward bracket left the inner coclass"
                    )
            got = (out, tri)
            self._bracket_cache[key] = got
        return got

    def shift(self, z: Obj, step: int) -> Obj:
        """Suspension (+1) or desuspension (-1): the adjoint image of the
        bracket step the same way, summand by summand."""
        _check_step(step)
        return _merge_objs(
            [
                self.adjoint(self.bracket(Obj.of(i), step)[0], step)[0]
                for i in z.summands
            ]
        )

    def ext1_zi(self, x: Obj, y: Obj) -> int:
        return self.hom_mod_I(x, self.shift(y, 1)).dim

    # -- linear operators over morphism coordinates ------------------------------

    def _shift_op(self, x: Obj, y: Obj) -> F2Matrix:
        b = self.backend
        din = b.hom_dim(x, y)
        x1 = b.shift_obj(x, 1)
        y1 = b.shift_obj(y, 1)
        dout = b.hom_dim(x1, y1)
        cols = [b.shift_mor(Mor(x, y, 1 << k), 1).coords for k in range(din)]
        return F2Matrix.from_rows(cols, dout).transpose()

    def complete_triangle_map(
        self, t1: Tri, t2: Tri, given: dict[int, Mor]
    ) -> tuple[Mor, Mor, Mor]:
        """Fill a morphism of triangles from one or two known vertices.

        Vertices are numbered 0, 1, 2 along the triangles; the three
        commuting squares become one linear system over the unknown
        coordinates.  Existence is an axiom of the ambient category, so
        an inconsistent system raises.
        """
        b = self.backend
        if not t1.morphism_data or not t2.morphism_data:
            raise InputError("triangle completion needs morphism data")
        srcs = (t1.a, t1.b, t1.c)
        dsts = (t2.a, t2.b, t2.c)
        unknown = [k for k in range(3) if k not in given]
        widths = [b.hom_dim(srcs[k], dsts[k]) for k in unknown]
        a1 = b.shift_obj(t2.a, 1)
        # Square k reads t2's k-th map after vertex k against vertex k+1
        # after t1's k-th map; the last square shifts vertex 0 first.
        squares = (
            (b.left_op(t2.f, t1.a), b.right_op(t1.f, t2.b)),
            (b.left_op(t2.g, t1.b), b.right_op(t1.g, t2.c)),
            (
                b.left_op(t2.h, t1.c),
                b.right_op(t1.h, a1).mul(self._shift_op(t1.a, t2.a)),
            ),
        )
        system = F2Matrix.zero(0, sum(widths))
        rhs = 0
        for idx, (mat_lo, mat_hi) in enumerate(squares):
            ops = {idx: mat_lo, (idx + 1) % 3: mat_hi}
            block = F2Matrix.zero(mat_lo.rows, 0)
            for k, d in zip(unknown, widths):
                block = block.hstack(ops.get(k, F2Matrix.zero(mat_lo.rows, d)))
            for k, m in given.items():
                if k in ops:
                    rhs ^= ops[k].matvec(m.coords) << system.rows
            system = system.vstack(block)
        sol = solve(system, rhs)
        if sol is None:
            raise InternalCheckError(
                "triangle morphism completion is inconsistent"
            )
        out: dict[int, Mor] = dict(given)
        for k, d in zip(unknown, widths):
            out[k] = Mor(srcs[k], dsts[k], sol & ((1 << d) - 1))
            sol >>= d
        return out[0], out[1], out[2]

    # -- morphism-level functors ---------------------------------------------

    def sigma_mor(self, g: Mor) -> Mor:
        """Image of a map of outer-class objects under the adjoint."""
        _, t1 = self.adjoint(g.src, 1)
        _, t2 = self.adjoint(g.dst, 1)
        _, _, m2 = self.complete_triangle_map(t1, t2, {1: g})
        return m2

    def bracket_mor(self, f: Mor) -> Mor:
        """Image of a map of middle-class objects under the upward bracket."""
        _, t1 = self.bracket(f.src, 1)
        _, t2 = self.bracket(f.dst, 1)
        m0, _, _ = self.complete_triangle_map(t1, t2, {1: f})
        return self.backend.shift_mor(m0, 1)

    def Sigma_mor(self, f: Mor) -> Mor:
        """Suspension of a morphism class, one representative."""
        return self.sigma_mor(self.bracket_mor(f))

    # -- isomorphism testing -------------------------------------------------------

    def _iso_by_inverse(self, f: Mor) -> bool:
        """Two-sided invertibility modulo the core, by linear solve.

        Unknowns are a candidate inverse plus coefficients over the two
        factoring subspaces, so the conditions are equalities of
        classes, not of representatives.
        """
        b = self.backend
        x, y = f.src, f.dst
        fx = self.engine.factoring_subspace(x, self.i_set, x)
        fy = self.engine.factoring_subspace(y, self.i_set, y)
        dxx = b.hom_dim(x, x)
        dyy = b.hom_dim(y, y)
        # g after f plus a factoring correction equals the identity on x,
        # f after g plus a factoring correction equals the identity on y
        system = (
            b.right_op(f, x)
            .hstack(F2Matrix.from_rows(fx, dxx).transpose())
            .hstack(F2Matrix.zero(dxx, len(fy)))
            .vstack(
                b.left_op(f, y)
                .hstack(F2Matrix.zero(dyy, len(fx)))
                .hstack(F2Matrix.from_rows(fy, dyy).transpose())
            )
        )
        rhs = b.identity(x).coords | (b.identity(y).coords << dxx)
        return solve(system, rhs) is not None

    def iso_in_quotient(self, f: Mor) -> bool:
        """Quotient isomorphism test, two routes cross-checked.

        The inverse solve is always decisive; the cone route (third
        term inside core-star-shifted-core) is compared when its star
        search is conclusive.
        """
        direct = self._iso_by_inverse(f)
        cobj = self.backend.cone_obj(f)
        v = self.engine.star.star_contains(
            self.i_set, self.i_set.shifted(1), cobj, closed="y"
        )
        if not v.is_inconclusive and v.is_yes != direct:
            raise InternalCheckError(
                "isomorphism routes disagree: inverse solve "
                f"{direct}, cone membership {v.state}"
            )
        return direct

    # -- objects up to quotient isomorphism ----------------------------------

    def _build_classes(self) -> dict[int, Optional[int]]:
        """Representative id per middle-class indecomposable, None for core.

        Endomorphism rings stay local or vanish in the quotient, so
        unique decomposition survives and pairwise tests suffice.
        """
        b = self.backend
        rep_of: dict[int, Optional[int]] = {}
        reps: list[int] = []
        for zid in sorted(self.z_set.ids()):
            if zid in self.i_set:
                rep_of[zid] = None
                continue
            placed = False
            for r in reps:
                if self._indec_iso(r, zid):
                    rep_of[zid] = r
                    placed = True
                    break
            if not placed:
                rep_of[zid] = zid
                reps.append(zid)
        return rep_of

    def _indec_iso(self, a: int, bb: int) -> bool:
        if a == bb:
            return True
        b = self.backend
        x, y = Obj.of(a), Obj.of(bb)
        for f in b.hom_elements(x, y):
            if f.is_zero:
                continue
            if self._iso_by_inverse(f):
                return True
        return False

    def class_rep(self, zid: int) -> Optional[int]:
        if self._class_rep is None:
            self._class_rep = self._build_classes()
        return self._class_rep[zid]

    def zi_objects(self) -> list[int]:
        """Representative ids of the nonzero quotient objects."""
        if self._class_rep is None:
            self._class_rep = self._build_classes()
        out = sorted({r for r in self._class_rep.values() if r is not None})
        return out

    def class_of(self, obj: Obj) -> tuple[int, ...]:
        """Multiset of nonzero class representatives of the summands."""
        out = []
        for i in obj.summands:
            r = self.class_rep(i)
            if r is not None:
                out.append(r)
        return tuple(sorted(out))

    def iso_obj_in_quotient(self, x: Obj, y: Obj) -> bool:
        return self.class_of(x) == self.class_of(y)

    # -- standard triangles -----------------------------------------------------

    def standard_right_triangle(self, f: Mor) -> dict:
        """Right triangle on a map of middle-class objects.

        Builds the cone of the map paired with the core approximation
        of the source, checks it lands in the outer class, and pushes
        it back into the middle class with the adjoint.
        """
        b = self.backend
        x, y = f.src, f.dst
        paired, up_tri = self._paired_with_core(f)
        cobj, wit = b.cone(paired)
        third, sigma_tri = self._outer_adjoint(cobj)
        inj_y = _injection(b, [y, up_tri.g.dst], 0)
        if wit.tri.g.src != paired.dst:
            raise InternalCheckError("cone witness has unexpected shape")
        into_cone = b.compose(inj_y, wit.tri.g)
        second = b.compose(into_cone, sigma_tri.g)
        return {
            "src": x,
            "dst": y,
            "f": f,
            "cone": cobj,
            "third": third,
            "second": second,
            "cone_tri": wit.tri,
            "sigma_tri": sigma_tri,
            "up_tri": up_tri,
        }

    def standard_right_third(self, f: Mor) -> Obj:
        """The third object of ``standard_right_triangle(f)``, read from
        the object of the standard cone alone: no cone maps and no second
        map are built."""
        paired, _ = self._paired_with_core(f)
        return self._outer_adjoint(self.backend.cone_obj(paired))[0]

    def _paired_with_core(self, f: Mor) -> tuple[Mor, Tri]:
        """The map [f; iota] out of f's source, iota its upward bracket
        into the core, with the bracket's witness triangle."""
        up_tri = self.bracket(f.src, 1)[1]
        iota = up_tri.g
        if iota.src != f.src:
            raise InternalCheckError("bracket witness has unexpected shape")
        return _tuple_mor(self.backend, [f, iota]), up_tri

    def _outer_adjoint(self, cobj: Obj) -> tuple[Obj, Tri]:
        """The adjoint image of a standard cone, which must lie in the
        outer class."""
        if not self.p.u.contains_obj(cobj):
            raise InternalCheckError(
                "standard cone left the outer class, which the ambient "
                "axioms forbid"
            )
        return self.adjoint(cobj, 1)

    def standard_left_triangle(self, f: Mor) -> dict:
        """Dual construction through the downward bracket and coadjoint."""
        b = self.backend
        x, y = f.src, f.dst
        down_y, down_tri = self.bracket(y, -1)
        pi = down_tri.f
        if pi.dst != y:
            raise InternalCheckError("bracket witness has unexpected shape")
        i_y = pi.src
        # cocone of [f, pi]: x + core-part -> y, shifted back one step
        glued = _cotuple_mor(b, [f, pi])
        cobj, wit = b.cone(glued)
        dobj = b.shift_obj(cobj, -1)
        if not self.p.t.contains_obj(dobj):
            raise InternalCheckError(
                "standard cocone left the inner coclass, which the "
                "ambient axioms forbid"
            )
        first, omega_tri = self.adjoint(dobj, -1)
        return {
            "src": x,
            "dst": y,
            "f": f,
            "cocone": dobj,
            "first": first,
            "cocone_tri": wit.tri,
            "omega_tri": omega_tri,
            "down_tri": down_tri,
        }

    # -- the comparison map ------------------------------------------------------

    def mu_map(self, x: Obj) -> tuple[Optional[Mor], Verdict]:
        """Comparison between the two adjoint images of an object.

        Four witness triangles pin down the data: the outer-pair
        decomposition of x, the shifted inner-pair decomposition of x,
        the adjoint witness of the first's end, and the coadjoint
        witness of the second's end.  The map is any solution of the
        commuting condition; its isomorphism verdict is
        witness-independent.
        """
        star = self.engine.star
        top = len(x) + star.cap
        w1 = star.first_witness(self.p.u, self.p.v.shifted(1), x, top)
        w2 = star.first_witness(self.p.s.shifted(-1), self.p.t, x, top)
        if w1 is None or w2 is None:
            return None, Verdict.inconclusive(
                reason="decomposition triangles not found at the current cap"
            )
        u_x = w1.tri.a
        t_x = w2.tri.c
        z_u, sig_tri = self.adjoint(u_x, 1)
        z_t, omg_tri = self.adjoint(t_x, -1)
        b = self.backend
        rhs = b.compose(w1.tri.f, w2.tri.g)
        # unknown z: z_u -> z_t, condition (u_x -> z_u) then z then (z_t -> t_x)
        system = b.left_op(omg_tri.f, u_x).mul(b.right_op(sig_tri.g, z_t))
        sol = solve(system, rhs.coords)
        if sol is None:
            raise InternalCheckError(
                "comparison-map condition is unsolvable, which the "
                "concentric axioms forbid"
            )
        z = Mor(z_u, z_t, sol)
        if self.iso_in_quotient(z):
            return z, Verdict.yes()
        return z, Verdict.no(
            reason="comparison map is not invertible modulo the core"
        )

    def mu_is_iso(self, x: Obj) -> Verdict:
        return self.mu_map(x)[1]

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        b = self.backend
        reps = self.zi_objects()
        table = {}
        def _labels(obj: Obj) -> list[str]:
            return [b.label_of(i) for i in obj.summands]

        for zid in sorted(self.z_set.ids()):
            z = Obj.of(zid)
            table[b.label_of(zid)] = {
                "bracket_up": _labels(self.bracket(z, 1)[0]),
                "bracket_down": _labels(self.bracket(z, -1)[0]),
                "suspension": _labels(self.shift(z, 1)),
                "desuspension": _labels(self.shift(z, -1)),
            }
        dims = {}
        for a in reps:
            for bb in reps:
                q = self.hom_mod_I(Obj.of(a), Obj.of(bb))
                dims[f"{b.label_of(a)} -> {b.label_of(bb)}"] = q.dim
        return {
            "core": self.i_set.labels(),
            "middle": self.z_set.labels(),
            "objects": [b.label_of(r) for r in reps],
            "shift_table": table,
            "quotient_hom_dims": dims,
        }


def _tuple_mor(b, comps: list[Mor]) -> Mor:
    """Column tuple: shared source into the merged targets."""
    src = comps[0].src
    if any(m.src != src for m in comps):
        raise InputError("tuple components need a common source")
    return scatter_blocks(
        b, [src], [m.dst for m in comps], [(0, k, m) for k, m in enumerate(comps)]
    )


def _cotuple_mor(b, comps: list[Mor]) -> Mor:
    """Row tuple: merged sources into a shared target."""
    dst = comps[0].dst
    if any(m.dst != dst for m in comps):
        raise InputError("cotuple components need a common target")
    return scatter_blocks(
        b, [m.src for m in comps], [dst], [(k, 0, m) for k, m in enumerate(comps)]
    )


def _injection(b, parts: list[Obj], k: int) -> Mor:
    """Inclusion of the k-th part into the merged direct sum."""
    return scatter_blocks(b, [parts[k]], parts, [(0, k, b.identity(parts[k]))])
