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
step the same way.  The right (+1) and left (-1) standard triangles
share one route too: glue the map to its bracket link, take the cone,
and pull its end back with the adjoint the same way.  Every witness
triangle is the triangle of a minimal right approximation, built from
Hom bases (``PairEngine.approximation``), with both ends checked against
the classes the pair axioms put them in.
Each subquotient stores its answers per input (``core.stored``), and
the pair engine stores one subquotient per twin pair (``for_pair``).

Witness triangles are unique only up to isomorphism, so object-level
identities are asserted as quotient isomorphisms, never as equalities
of ambient objects.  Isomorphism testing itself runs two routes, a
cone-membership test and a direct two-sided-inverse solve, both always
decided, and refuses to answer if they disagree; the answer is stored
per core and map on the pair engine (``PairEngine.iso_mod``), so twin
pairs with the same core share it.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    InputError,
    InternalCheckError,
    Mor,
    Obj,
    Tri,
    Verdict,
    _merge_objs,
    scatter_blocks,
    stored,
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
        # S[-1], V[1], U[-1] and T[1], which the witness triangles read
        self.s_down, self.v_up = p.s.shifted(-1), p.v.shifted(1)
        self.u_down, self.t_up = p.u.shifted(-1), p.t.shifted(1)

    @classmethod
    def for_pair(
        cls, engine: PairEngine, p: TwinCotorsionPair
    ) -> "ZIQuotient":
        """Shared instance per pair, kept in the engine's stored table."""
        return _for_pair(engine, p)

    # -- quotient Hom spaces -------------------------------------------------

    @stored(key=lambda x, y: (x.summands, y.summands))
    def hom_mod_I(self, x: Obj, y: Obj) -> QuotientSpace:
        if not (self.z_set.contains_obj(x) and self.z_set.contains_obj(y)):
            raise InputError("quotient Hom needs objects from the middle class")
        span = self.engine.factoring_subspace(x, self.i_set, y)
        return QuotientSpace(self.backend.hom_dim(x, y), span)

    # -- witness triangles -----------------------------------------------------

    @stored(key=lambda x, step: (x.summands, step))
    def adjoint(self, x: Obj, step: int) -> tuple[Obj, Tri]:
        """Adjoint (+1) or coadjoint (-1) image in the middle class.

        +1 takes an object u of the outer class through the triangle
        (inner class member)[-1] -> u -> image of its minimal right
        S[-1]-approximation; -1 takes an object t of the inner coclass
        through the triangle image -> t -> (outer coclass member)[1] of
        its minimal right U-approximation.
        """
        _check_step(step)
        if not (self.p.u if step == 1 else self.p.t).contains_obj(x):
            raise InputError(
                "adjoint image needs an object of the "
                + ("outer class" if step == 1 else "inner coclass")
            )
        dec = self.engine.decomposition
        if step == 1:
            tri = dec(self.s_down, x, 1, self.s_down, self.z_set)
            return tri.c, tri
        tri = dec(self.p.u, x, 1, self.z_set, self.v_up)
        return tri.a, tri

    @stored(key=lambda z, step: (z.summands, step))
    def bracket(self, z: Obj, step: int) -> tuple[Obj, Tri]:
        """One bracket step through the core, up (+1) or down (-1)."""
        if not self.z_set.contains_obj(z):
            raise InputError("bracket shift needs an object of the middle class")
        _check_step(step)
        dec, b = self.engine.decomposition, self.backend
        if step == 1:
            tri = dec(self.u_down, z, 1, self.u_down, self.i_set)
            return b.shift_obj(tri.a, 1), tri
        tri = dec(self.p.s, z, 1, self.i_set, self.t_up)
        return b.shift_obj(tri.c, -1), tri

    @stored(key=lambda z, step: (z.summands, step))
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
                b.right_op(t1.h, a1).mul(b.shift_op(t1.a, t2.a)),
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

    def Sigma_mor(self, f: Mor) -> Mor:
        """Suspension of a morphism class, one representative: the
        upward bracket image of f, shifted, then its adjoint image."""
        b = self.backend
        t1, t2 = self.bracket(f.src, 1)[1], self.bracket(f.dst, 1)[1]
        g = b.shift_mor(self.complete_triangle_map(t1, t2, {1: f})[0], 1)
        s1, s2 = self.adjoint(g.src, 1)[1], self.adjoint(g.dst, 1)[1]
        return self.complete_triangle_map(s1, s2, {1: g})[2]

    # -- isomorphism testing -------------------------------------------------------

    def iso_in_quotient(self, f: Mor) -> bool:
        """Quotient isomorphism test, two routes cross-checked
        (``PairEngine.iso_mod``, stored per core and map)."""
        return self.engine.iso_mod(self.i_set, f)

    # -- objects up to quotient isomorphism ----------------------------------

    @stored()
    def _classes(self) -> dict[int, Optional[int]]:
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
            for r in reps:
                if self._indec_iso(r, zid):
                    rep_of[zid] = r
                    break
            else:
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
            if self.iso_in_quotient(f):
                return True
        return False

    def class_rep(self, zid: int) -> Optional[int]:
        return self._classes()[zid]

    def zi_objects(self) -> list[int]:
        """Representative ids of the nonzero quotient objects."""
        return sorted({r for r in self._classes().values() if r is not None})

    def class_of(self, obj: Obj) -> tuple[int, ...]:
        """Multiset of nonzero class representatives of the summands."""
        reps = map(self._classes().__getitem__, obj.summands)
        return tuple(sorted(r for r in reps if r is not None))

    # -- standard triangles -----------------------------------------------------

    def _glue_link(self, f: Mor, step: int) -> Mor:
        """The map f glued to its bracket link: the column [f; iota] out
        of f's source (+1), iota the upward bracket into the core, or the
        row [f, pi] into f's target (-1), pi the downward bracket out of
        the core."""
        if step == 1:
            link = self.bracket(f.src, 1)[1].g
            ok = link.src == f.src
            shape = ([f.src], [f.dst, link.dst], [(0, 0, f), (0, 1, link)])
        else:
            link = self.bracket(f.dst, -1)[1].f
            ok = link.dst == f.dst
            shape = ([f.src, link.src], [f.dst], [(0, 0, f), (1, 0, link)])
        if not ok:
            raise InternalCheckError("bracket witness has unexpected shape")
        return scatter_blocks(self.backend, *shape)

    def _standard_end(self, cobj: Obj, step: int) -> tuple[Obj, Tri]:
        """The adjoint image of a standard cone (+1), which must lie in the
        outer class, or the coadjoint image of a standard cone shifted back
        one step (-1), which must lie in the inner coclass."""
        if step == -1:
            cobj = self.backend.shift_obj(cobj, -1)
        if not (self.p.u if step == 1 else self.p.t).contains_obj(cobj):
            raise InternalCheckError(
                ("standard cone left the outer class" if step == 1
                 else "standard cocone left the inner coclass")
                + ", which the ambient axioms forbid"
            )
        return self.adjoint(cobj, step)

    def standard_right_triangle(self, f: Mor) -> tuple[Obj, Mor]:
        """Right triangle on a map of middle-class objects: its third
        object and its second map.

        Builds the cone of the map paired with the core approximation
        of the source, checks it lands in the outer class, and pushes
        it back into the middle class with the adjoint.
        """
        b = self.backend
        cone_tri = b.cone(self._glue_link(f, 1))
        third, sigma_tri = self._standard_end(cone_tri.c, 1)
        core = self.bracket(f.src, 1)[1].c
        inj = scatter_blocks(b, [f.dst], [f.dst, core], [(0, 0, b.identity(f.dst))])
        return third, b.compose(b.compose(inj, cone_tri.g), sigma_tri.g)

    def standard_right_third(self, f: Mor) -> Obj:
        """The third object of ``standard_right_triangle(f)``, read from
        the object of the standard cone alone: no cone maps and no second
        map are built."""
        return self._standard_end(self.backend.cone_obj(self._glue_link(f, 1)), 1)[0]

    def standard_left_triangle(self, f: Mor) -> Obj:
        """First object of the dual triangle, through the downward
        bracket and the coadjoint."""
        return self._standard_end(self.backend.cone_obj(self._glue_link(f, -1)), -1)[0]

    # -- the comparison map ------------------------------------------------------

    def mu_map(self, x: Obj) -> tuple[Mor, Verdict]:
        """Comparison between the two adjoint images of an object.

        Four approximation triangles pin down the data: the outer-pair
        decomposition of x (right U-approximation), the shifted
        inner-pair decomposition of x (right S[-1]-approximation), the
        adjoint witness of the first's end, and the coadjoint witness of
        the second's end.  The map is any solution of the commuting
        condition; its isomorphism verdict is witness-independent.
        """
        dec = self.engine.decomposition
        w1 = dec(self.p.u, x, 1, self.p.u, self.v_up)
        w2 = dec(self.s_down, x, 1, self.s_down, self.p.t)
        u_x = w1.a
        t_x = w2.c
        z_u, sig_tri = self.adjoint(u_x, 1)
        z_t, omg_tri = self.adjoint(t_x, -1)
        b = self.backend
        rhs = b.compose(w1.f, w2.g)
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

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        b = self.backend
        reps = self.zi_objects()
        table = {}
        for zid in sorted(self.z_set.ids()):
            z = Obj.of(zid)
            table[b.label_of(zid)] = {
                "bracket_up": b.obj_labels(self.bracket(z, 1)[0]),
                "bracket_down": b.obj_labels(self.bracket(z, -1)[0]),
                "suspension": b.obj_labels(self.shift(z, 1)),
                "desuspension": b.obj_labels(self.shift(z, -1)),
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


@stored(key=lambda p: p.key())
def _for_pair(engine: PairEngine, p: TwinCotorsionPair) -> ZIQuotient:
    """``ZIQuotient.for_pair``, kept in the engine's stored table."""
    return ZIQuotient(engine, p)
