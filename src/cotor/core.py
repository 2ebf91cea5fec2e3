"""Shared object and morphism model for the concrete triangulated backends.

Objects are finite multisets of indecomposables identified by small
integer ids; morphisms are coordinate vectors over a fixed block basis
of the Hom spaces.  A backend provides the actual calculus (Hom
dimensions, composition, cones, Sigma on maps); this module fixes the
data types, the capability flag, Omega on maps (solved from Sigma), the
error taxonomy, the three-valued verdicts that search routines return,
and the one rule by which engines keep their answers (``stored``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .f2 import F2Matrix, rank, solve

# Size caps, in indecomposables, of the exhaustive routes: the 2^K class
# sweeps, the construction of a Nakayama or polygon backend's tables,
# and exact backend matching.
MAX_ENUM_INDECS = 27
MAX_NAKAYAMA_INDECS = 24
MAX_POLYGON_INDECS = 1000
MAX_MATCH_INDECS = 24


class CotorError(Exception):
    """Base class for package errors."""


class InputError(CotorError):
    """Invalid user-supplied data: bad labels, shapes, or parameters."""


class CapabilityError(InputError):
    """The backend does not support the requested operation."""


class BudgetExceeded(CotorError):
    """A bounded search ran out of its work budget."""


class InternalCheckError(CotorError):
    """An invariant that should hold by construction failed."""


_MISSING = object()


def stored(key: Optional[Callable] = None) -> Callable[[Callable], Callable]:
    """Method decorator that keeps each answer per instance and key.

    An answer, ``None`` and ``False`` included, is kept once the call
    returns; an error is never kept, so the next call raises it again.
    The key is the tuple of the positional arguments, or ``key`` applied
    to them.  A ``key`` may only re-encode each argument in a form that
    hashes faster (``.bits``, ``.summands``, ``.key()``), never drop part
    of one: an answer that reads less than its arguments is reached by
    narrowing them at the call site, so two calls share an answer only
    when they pass equal arguments.  Method ``m`` keeps its table in
    ``obj._stored["m"]``.  The result is a plain function.
    """

    def decorate(fn: Callable) -> Callable:
        name = fn.__name__

        @functools.wraps(fn)
        def method(self, *args):
            try:
                table = self._stored[name]
            except AttributeError:
                table = {}
                self._stored = {name: table}
            except KeyError:
                table = self._stored[name] = {}
            k = args if key is None else key(*args)
            got = table.get(k, _MISSING)
            if got is _MISSING:
                got = table[k] = fn(self, *args)
            return got

        return method

    return decorate


YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Three-valued search result.

    ``state`` is one of yes / no / inconclusive.  Search caps turn a
    failed hunt into "no" only when the no is stable under growing the
    cap; otherwise the inconclusive state propagates to callers and is
    never silently coerced.
    """

    state: str
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.state not in (YES, NO, INCONCLUSIVE):
            raise InputError(f"bad verdict state {self.state!r}")

    @property
    def is_yes(self) -> bool:
        return self.state == YES

    @property
    def is_no(self) -> bool:
        return self.state == NO

    @property
    def is_inconclusive(self) -> bool:
        return self.state == INCONCLUSIVE

    @staticmethod
    def yes(reason: Optional[str] = None) -> "Verdict":
        return Verdict(YES, reason)

    @staticmethod
    def no(reason: Optional[str] = None) -> "Verdict":
        return Verdict(NO, reason)

    @staticmethod
    def inconclusive(reason: Optional[str] = None) -> "Verdict":
        return Verdict(INCONCLUSIVE, reason)

    @staticmethod
    def all_of(verdicts: Iterable["Verdict"]) -> "Verdict":
        """Conjunction: no dominates, then inconclusive, then yes."""
        pending = None
        for v in verdicts:
            if v.is_no:
                return v
            if v.is_inconclusive:
                pending = v
        return Verdict.yes() if pending is None else pending


@dataclass(frozen=True, slots=True)
class Indec:
    """One indecomposable object: a stable id and a unique label."""

    id: int
    label: str


@dataclass(frozen=True, order=True, slots=True)
class Obj:
    """Finite multiset of indecomposable ids, canonically sorted.

    The empty tuple is the zero object.  Equality is multiset equality,
    which is isomorphism by the Krull-Schmidt property of the backends.
    """

    summands: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if tuple(sorted(self.summands)) != self.summands:
            raise InputError("Obj summands must be sorted")

    @staticmethod
    def of(*ids: int) -> "Obj":
        return Obj(tuple(sorted(ids)))

    @staticmethod
    def from_iter(ids: Iterable[int]) -> "Obj":
        return Obj(tuple(sorted(ids)))

    @staticmethod
    def zero() -> "Obj":
        return Obj(())

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def __len__(self) -> int:
        return len(self.summands)

    def plus(self, other: "Obj") -> "Obj":
        return Obj(tuple(sorted(self.summands + other.summands)))

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i in self.summands:
            out[i] = out.get(i, 0) + 1
        return out


@dataclass(frozen=True, slots=True)
class Mor:
    """Morphism as a coordinate bit vector over the block Hom basis.

    The basis is fixed per backend: blocks run over (source position,
    target position) pairs in row-major order, each block using that
    backend's frozen basis of Hom(source summand, target summand).
    """

    src: Obj
    dst: Obj
    coords: int = 0

    def plus(self, other: "Mor") -> "Mor":
        if (self.src, self.dst) != (other.src, other.dst):
            raise InputError("morphism sum needs matching endpoints")
        return Mor(self.src, self.dst, self.coords ^ other.coords)

    @property
    def is_zero(self) -> bool:
        return self.coords == 0

    def key(self) -> tuple:
        """The map as a plain tuple of its endpoints' summands and its
        coordinates, which hashes faster than the dataclass."""
        return (self.src.summands, self.dst.summands, self.coords)


@dataclass(frozen=True, slots=True)
class Tri:
    """Triangle A -> B -> C -> A[1], given by its maps f, g, h.

    The objects are read off the maps, which must chain; the consecutive
    composites must vanish, which backends check on construction.
    """

    f: Mor
    g: Mor
    h: Mor

    def __post_init__(self) -> None:
        if self.f.dst != self.g.src or self.g.dst != self.h.src:
            raise InputError("triangle maps do not chain")

    @property
    def a(self) -> Obj:
        return self.f.src

    @property
    def b(self) -> Obj:
        return self.g.src

    @property
    def c(self) -> Obj:
        return self.h.src


class Backend:
    """Common interface of the concrete category models.

    Subclasses must provide the object layer (indecomposables, shift,
    extension incidence).  The morphism layer and the triangle layer
    raise CapabilityError unless ``exact_triangles`` is set and the
    subclass overrides them.  Of the shift on maps a backend supplies
    only the suspension ``suspend``; ``shift_mor`` solves for Omega.
    """

    spec_string: str = ""
    exact_triangles: bool = False

    # --- object layer -------------------------------------------------

    @property
    def indecs(self) -> tuple[Indec, ...]:
        raise NotImplementedError

    @property
    def K(self) -> int:
        return len(self.indecs)

    def label_of(self, i: int) -> str:
        return self.indecs[i].label

    def id_of(self, label: str) -> int:
        for ind in self.indecs:
            if ind.label == label:
                return ind.id
        raise InputError(f"unknown indecomposable label {label!r}")

    def shift_id(self, i: int, k: int = 1) -> int:
        raise NotImplementedError

    def shift_obj(self, x: Obj, k: int = 1) -> Obj:
        return Obj.from_iter(self.shift_id(i, k) for i in x.summands)

    def ext_incidence(self, i: int, j: int) -> bool:
        """Whether degree-one maps from indec i to indec j exist."""
        raise NotImplementedError

    def obj_labels(self, x: Obj) -> list[str]:
        return [self.label_of(i) for i in x.summands]

    @stored()
    def ext1_masks(self) -> tuple[list[int], list[int]]:
        """Per indecomposable i, the bitmasks of the c with Ext^1(i, c) and
        Ext^1(c, i) nonzero, read off ``ext_incidence`` once per backend
        unless the backend builds them itself.
        With exact triangles the build also checks that Hom(i[-1], c) = 0
        exactly when Ext^1(i, c) = Hom(i, c[1]) = 0."""
        out, into = _incidence_masks(len(self.indecs), self.ext_incidence)
        if self.exact_triangles:
            hom = self.hom_masks()[0]
            for i in range(len(out)):
                if out[i] != hom[self.shift_id(i, -1)]:
                    raise InternalCheckError(
                        "Hom(X[-1], -) and Hom(X, -[1]) disagree on vanishing, "
                        f"X = {self.label_of(i)}"
                    )
        return out, into

    @stored()
    def hom_masks(self) -> tuple[list[int], list[int]]:
        """Per indecomposable i, the bitmasks of the c with Hom(i, c) and
        Hom(c, i) nonzero, built once per backend."""
        self._need()
        return _incidence_masks(len(self.indecs), self.hom_dim_pair)

    # --- morphism layer -----------------------------------------------

    def _need(self) -> None:
        if not self.exact_triangles:
            raise CapabilityError(
                f"backend {self.spec_string!r} lacks capability exact_triangles"
            )

    def hom_dim_pair(self, i: int, j: int) -> int:
        self._need()
        raise NotImplementedError

    def hom_dim(self, x: Obj, y: Obj) -> int:
        return sum(
            self.hom_dim_pair(i, j) for i in x.summands for j in y.summands
        )

    def block_layout(self, x: Obj, y: Obj) -> list[tuple[int, int, int, int]]:
        """Blocks (src position, dst position, offset, length)."""
        out = []
        off = 0
        for p, i in enumerate(x.summands):
            for q, j in enumerate(y.summands):
                d = self.hom_dim_pair(i, j)
                out.append((p, q, off, d))
                off += d
        return out

    def identity(self, x: Obj) -> Mor:
        self._need()
        raise NotImplementedError

    def compose(self, f: Mor, g: Mor) -> Mor:
        """g after f; endpoints must chain as f: X->Y, g: Y->Z."""
        self._need()
        raise NotImplementedError

    def hom_elements(self, x: Obj, y: Obj):
        """All morphisms x -> y, zero first, deterministic order."""
        d = self.hom_dim(x, y)
        for c in range(1 << d):
            yield Mor(x, y, c)

    @stored(key=lambda h, src: (h.src, h.dst, h.coords, src))
    def left_op(self, h: Mor, src: Obj) -> F2Matrix:
        """Matrix of g -> (h after g) for g: src -> h.src, stored per input."""
        cols = [
            self.compose(Mor(src, h.src, 1 << k), h).coords
            for k in range(self.hom_dim(src, h.src))
        ]
        return F2Matrix.from_rows(cols, self.hom_dim(src, h.dst)).transpose()

    @stored(key=lambda h, dst: (h.src, h.dst, h.coords, dst))
    def right_op(self, h: Mor, dst: Obj) -> F2Matrix:
        """Matrix of g -> (g after h) for g: h.dst -> dst, stored per input."""
        cols = [
            self.compose(h, Mor(h.dst, dst, 1 << k)).coords
            for k in range(self.hom_dim(h.dst, dst))
        ]
        return F2Matrix.from_rows(cols, self.hom_dim(h.src, dst)).transpose()

    def suspend(self, f: Mor) -> Mor:
        """Sigma on one map: f[1] from f.src[1] to f.dst[1]."""
        self._need()
        raise NotImplementedError

    def shift_op(self, x: Obj, y: Obj) -> F2Matrix:
        """Matrix of Sigma from Hom(x, y) to Hom(x[1], y[1])."""
        cols = [self.suspend(Mor(x, y, 1 << k)).coords
                for k in range(self.hom_dim(x, y))]
        dout = self.hom_dim(self.shift_obj(x, 1), self.shift_obj(y, 1))
        return F2Matrix.from_rows(cols, dout).transpose()

    def shift_mor(self, f: Mor, k: int = 1) -> Mor:
        """Sigma^k on a map.  Each Omega step solves Sigma g = f over
        Hom(x[-1], y[-1]) and raises unless Sigma is injective there and
        f lies in its image, so the answer is certified."""
        for _ in range(k):
            f = self.suspend(f)
        for _ in range(-k):
            x, y = self.shift_obj(f.src, -1), self.shift_obj(f.dst, -1)
            op = self.shift_op(x, y)
            if rank(op) < op.cols:
                raise InternalCheckError("suspension is not injective on maps")
            g = solve(op, f.coords)
            if g is None:
                raise InternalCheckError("map is not a suspension")
            f = Mor(x, y, g)
        return f

    # --- triangle layer -----------------------------------------------

    def cone(self, f: Mor) -> Tri:
        """Completed triangle on f."""
        self._need()
        raise NotImplementedError

    # --- triangle helpers ---------------------------------------------

    def rotate_left(self, t: Tri) -> Tri:
        """A->B->C->A[1] becomes B->C->A[1]->B[1]."""
        return Tri(t.g, t.h, self.shift_mor(t.f, 1))

    def rotate_right(self, t: Tri) -> Tri:
        """A->B->C->A[1] becomes C[-1]->A->B->C."""
        return Tri(self.shift_mor(t.h, -1), t.f, t.g)

    def direct_sum_tri(self, parts: Sequence[Tri]) -> Tri:
        """Summand-wise direct sum of triangles."""
        if not parts:
            zero = Mor(Obj.zero(), Obj.zero())
            return Tri(zero, zero, zero)
        return Tri(
            self._assemble_sum([t.f for t in parts]),
            self._assemble_sum([t.g for t in parts]),
            self._assemble_sum([t.h for t in parts]),
        )

    def _assemble_sum(self, comps: Sequence[Mor]) -> Mor:
        """Block-diagonal morphism from per-part components."""
        return scatter_blocks(
            self,
            [m.src for m in comps],
            [m.dst for m in comps],
            [(k, k, m) for k, m in enumerate(comps)],
        )


def _incidence_masks(
    k: int, pred: Callable[[int, int], int]
) -> tuple[list[int], list[int]]:
    """Per i < k, the bitmasks of the c with pred(i, c) and pred(c, i)."""
    out, into = [0] * k, [0] * k
    for i in range(k):
        for c in range(k):
            if pred(i, c):
                out[i] |= 1 << c
                into[c] |= 1 << i
    return out, into


def _merge_objs(objs: Sequence[Obj]) -> Obj:
    if len(objs) == 1:
        return objs[0]  # objects are immutable; sharing saves a copy
    ids: list[int] = []
    for o in objs:
        ids.extend(o.summands)
    return Obj.from_iter(ids)


def _slot_assignment(total: Obj, parts: Sequence[Obj]) -> list[list[int]]:
    """For each part, positions of its summands inside the sorted total."""
    free: dict[int, list[int]] = {}
    for pos, i in enumerate(total.summands):
        free.setdefault(i, []).append(pos)
    taken = {k: 0 for k in free}
    out: list[list[int]] = []
    for part in parts:
        slots = []
        for i in part.summands:
            idx = taken[i]
            taken[i] += 1
            slots.append(free[i][idx])
        out.append(slots)
    total_used = sum(len(p) for p in out)
    if total_used != len(total):
        raise InternalCheckError("slot assignment did not cover the sum")
    return out


def scatter_blocks(
    backend: Backend,
    src_parts: Sequence[Obj],
    dst_parts: Sequence[Obj],
    comps: Iterable[tuple[int, int, Mor]],
) -> Mor:
    """Map between direct sums, assembled from maps between their parts.

    The source is the sum of ``src_parts`` and the target the sum of
    ``dst_parts``.  Each (i, j, mor) in ``comps`` places mor, a map from
    src_parts[i] to dst_parts[j], at the positions those parts take in
    the sorted sums.  Parts claim positions greedily by id; permuting
    equal summands is an isomorphism, so any consistent assignment
    represents the same map.
    """
    src = _merge_objs(src_parts)
    dst = _merge_objs(dst_parts)
    src_slots = _slot_assignment(src, src_parts)
    dst_slots = _slot_assignment(dst, dst_parts)
    layout = {(p, q): (off, d) for p, q, off, d in backend.block_layout(src, dst)}
    coords = 0
    for i, j, mor in comps:
        for pp, qq, off, d in backend.block_layout(mor.src, mor.dst):
            block = (mor.coords >> off) & ((1 << d) - 1)
            if block:
                goff, gd = layout[(src_slots[i][pp], dst_slots[j][qq])]
                if gd != d:
                    raise InternalCheckError("block size mismatch in direct sum")
                coords |= block << goff
    return Mor(src, dst, coords)


def multisets_over(ids: Sequence[int], size: int):
    """All multisets of the given size over ids, deterministic order."""
    return itertools.combinations_with_replacement(sorted(ids), size)
