"""Bitset algebra of additive subcategories and star-product search.

A Subcat is a set of indecomposable ids standing for the full additive
subcategory of finite direct sums of those indecomposables; it is
summand-closed by construction.  Perpendiculars are bitmask operations
on per-backend Hom-nonzero masks, and ``closed_sets`` walks the closed
sets of a closure on bitmasks.  Star membership C in add(X) * add(Y)
runs on the peel engine, in the direction of the side the caller vouches
closed under extensions:

* Y side: repeatedly strip one Y-summand by enumerating maps C -> y and
  passing to the cocone, accepting when some chain lands in add(X);
  if the cocone lies in X * Y, then C lies in X * Y * y, inside X * Y.
* X side (co-peel): repeatedly strip one X-summand by enumerating maps
  x -> C and passing to the cone, accepting when some chain lands in
  add(Y); if the cone lies in X * Y, then C lies in x * X * Y, inside
  X * Y.

Both directions are complete for capped stripped sides (every genuine
triangle induces a chain of the same length); acceptance of YES needs
the stripped side closed under extensions, which callers vouch for.
That holds for every use here: perpendicular classes, verified
cotorsion-pair sides and their shifts are extension-closed.  The
backend's capped dense-connecting-map enumerator (``_literal_verdict``)
is the independent oracle the tests hold both directions to.

Verdicts are three-valued; a NO is only reported when the search space
for caps c and c+1 is exhausted, and budget exhaustion degrades to
inconclusive, never to a boolean.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    Backend,
    BudgetExceeded,
    InputError,
    InternalCheckError,
    MAX_ENUM_INDECS,
    Mor,
    Obj,
    Verdict,
)

DEFAULT_CAP = 4
DEFAULT_BUDGET = 500_000


def iter_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    while bits:
        i = (bits & -bits).bit_length() - 1
        yield i
        bits &= bits - 1


class Subcat:
    """Immutable set of indecomposable ids bound to one backend."""

    __slots__ = ("backend", "bits")

    def __init__(self, backend: Backend, bits: int):
        if bits < 0 or bits >> len(backend.indecs):
            raise InputError("subcat bits out of range for backend")
        self.backend = backend
        self.bits = bits

    # -- constructors ---------------------------------------------------

    @staticmethod
    def empty(backend: Backend) -> "Subcat":
        return Subcat(backend, 0)

    @staticmethod
    def everything(backend: Backend) -> "Subcat":
        return Subcat(backend, (1 << len(backend.indecs)) - 1)

    @staticmethod
    def of(backend: Backend, ids: Iterable[int]) -> "Subcat":
        bits = 0
        for i in ids:
            if not (0 <= i < len(backend.indecs)):
                raise InputError(f"no indecomposable with id {i}")
            bits |= 1 << i
        return Subcat(backend, bits)

    @staticmethod
    def from_labels(backend: Backend, labels: Iterable[str]) -> "Subcat":
        return Subcat.of(backend, (backend.id_of(l) for l in labels))

    # -- set algebra ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subcat)
            and other.backend is self.backend
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.backend), self.bits))

    def __contains__(self, ind_id: int) -> bool:
        return bool((self.bits >> ind_id) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def ids(self) -> list[int]:
        return list(self)

    def labels(self) -> list[str]:
        return [self.backend.label_of(i) for i in self]

    def union(self, other: "Subcat") -> "Subcat":
        self._same(other)
        return Subcat(self.backend, self.bits | other.bits)

    def intersect(self, other: "Subcat") -> "Subcat":
        self._same(other)
        return Subcat(self.backend, self.bits & other.bits)

    def minus(self, other: "Subcat") -> "Subcat":
        self._same(other)
        return Subcat(self.backend, self.bits & ~other.bits)

    def issubset(self, other: "Subcat") -> bool:
        self._same(other)
        return not (self.bits & ~other.bits)

    def shifted(self, k: int) -> "Subcat":
        return Subcat.of(self.backend, (self.backend.shift_id(i, k) for i in self))

    def contains_obj(self, x: Obj) -> bool:
        return all(i in self for i in x.summands)

    def _same(self, other: "Subcat") -> None:
        if other.backend is not self.backend:
            raise InputError("subcats belong to different backends")

    def __repr__(self) -> str:
        return f"Subcat({self.labels()})"


_HOM_MASKS: "weakref.WeakKeyDictionary[Backend, tuple]" = weakref.WeakKeyDictionary()


def hom_masks(b: Backend) -> tuple[list[int], list[int], list[int]]:
    """Per indecomposable i, the bitmasks of the c with Hom(i, c), Hom(c, i)
    and Ext^1(i, c) = Hom(i, c[1]) nonzero, built once per backend.  The
    build checks that Hom(i[-1], c) = 0 exactly when Hom(i, c[1]) = 0, so
    ``right_perp(-, -1)`` and ``left_perp(-, 1)`` form a Galois connection."""
    got = _HOM_MASKS.get(b)
    if got is None:
        b._need("morphism_calculus")
        k = len(b.indecs)
        out, into = [0] * k, [0] * k
        for i in range(k):
            for c in range(k):
                if b.hom_dim_pair(i, c):
                    out[i] |= 1 << c
                    into[c] |= 1 << i
        up = [b.shift_id(c, 1) for c in range(k)]
        ext1 = [sum(1 << c for c in range(k) if out[i] >> up[c] & 1) for i in range(k)]
        for i in range(k):
            if ext1[i] != out[b.shift_id(i, -1)]:
                raise InternalCheckError(
                    "Hom(X[-1], -) and Hom(X, -[1]) disagree on vanishing, "
                    f"X = {b.label_of(i)}"
                )
        got = _HOM_MASKS[b] = (out, into, ext1)
    return got


def _perp(x: Subcat, shift: int, masks: list[int]) -> Subcat:
    b = x.backend
    hit = 0
    for i in x:
        hit |= masks[b.shift_id(i, shift)]
    return Subcat(b, ~hit & ((1 << len(b.indecs)) - 1))


def right_perp(x: Subcat, shift: int) -> Subcat:
    """Indecomposables c with Hom(member[shift], c) = 0 for all members."""
    return _perp(x, shift, hom_masks(x.backend)[0])


def left_perp(x: Subcat, shift: int) -> Subcat:
    """Indecomposables c with Hom(c, member[shift]) = 0 for all members."""
    return _perp(x, shift, hom_masks(x.backend)[1])


def closed_sets(k: int, closure: Callable[[int], int]) -> Iterator[int]:
    """Closed sets of a closure on k bits, ascending as ints (Ganter's
    NextClosure): a closed set's successor closes its bits above i plus bit
    i, for the least i outside it whose closure adds no bit above i."""
    a = closure(0)
    while True:
        yield a
        for i in range(k):
            if not a >> i & 1:
                nxt = closure(a >> i + 1 << i + 1 | 1 << i)
                # Bit i must come back too, so a grows even under a non-closure.
                if nxt >> i == (a >> i) | 1:
                    a = nxt
                    break
        else:
            return


class StarEngine:
    """Star-product membership and closure queries over one backend."""

    def __init__(
        self,
        backend: Backend,
        cap: int = DEFAULT_CAP,
        budget: int = DEFAULT_BUDGET,
    ):
        backend._need("exact_triangles")
        self.backend = backend
        self.cap = cap
        self.budget = budget
        self._pair_ext_cache: dict[tuple[int, int], list[Obj]] = {}
        self._peel_tables: dict[str, dict[tuple, tuple]] = {"x": {}, "y": {}}
        self._first_witness: dict[tuple[int, int, Obj, int], object] = {}

    # -- membership -------------------------------------------------------

    def star_contains(self, x: Subcat, y: Subcat, c: Obj, *, closed: str) -> Verdict:
        """Is there a triangle X' -> c -> Y' -> X'[1] with capped ends?

        ``closed`` names the side, "x" or "y", that the caller vouches is
        closed under extensions: the peel engine strips summands of that
        side, which is what lets it report YES directly.  Perpendicular
        classes, verified cotorsion-pair sides and their shifts qualify.
        """
        if closed not in ("x", "y"):
            raise InputError(f"closed side must be 'x' or 'y', not {closed!r}")
        if c.is_zero:
            return Verdict.yes(witness={"construction": "zero"})
        if y.is_empty:
            if x.contains_obj(c):
                return Verdict.yes(witness={"construction": "x-only"})
            return Verdict.no(reason="Y side is zero and C is not in add(X)")
        if x.is_empty:
            if y.contains_obj(c):
                return Verdict.yes(witness={"construction": "y-only"})
            return Verdict.no(reason="X side is zero and C is not in add(Y)")
        if x.contains_obj(c) or y.contains_obj(c):
            return Verdict.yes(witness={"construction": "one-sided"})
        return self._peel_verdict(x, y, c, closed)

    def _peel_verdict(self, x: Subcat, y: Subcat, c: Obj, closed: str) -> Verdict:
        kind = "peel" if closed == "y" else "co-peel"
        try:
            chain = self._peel_search(x, y, c, self.cap + 1, self.budget, closed)
        except BudgetExceeded:
            return Verdict.inconclusive(reason=f"{kind} budget exhausted")
        if chain is not None:
            return Verdict.yes(
                witness={
                    "construction": f"{kind}-chain",
                    "chain": [
                        {"peeled": self.backend.label_of(sid), "map": coords}
                        for sid, coords in chain[0]
                    ],
                    "base": self.backend.obj_labels(chain[1]),
                }
            )
        return Verdict.no(
            reason=f"no {kind} chain up to depth {self.cap + 1} (caps "
            f"{self.cap} and {self.cap + 1} agree)"
        )

    def _peel_moves(
        self, obj: Obj, sid: int, closed: str
    ) -> tuple[tuple[int, Obj], ...]:
        """Every nonzero peel of the indecomposable sid out of obj, as
        (coords, next object): on the y side each map obj -> sid and its
        cocone cone(map)[-1], on the x side each map sid -> obj and its
        cone.  Built on first use and stored per (obj.summands, sid); the
        search asks only for summands with a nonzero Hom, so every stored
        entry holds moves."""
        table = self._peel_tables[closed]
        key = (obj.summands, sid)
        got = table.get(key)
        if got is None:
            b = self.backend
            s = Obj.of(sid)
            if closed == "y":
                got = tuple(
                    (coords, b.shift_obj(b.cone_obj(Mor(obj, s, coords)), -1))
                    for coords in range(1, 1 << b.hom_dim(obj, s))
                )
            else:
                got = tuple(
                    (coords, b.cone_obj(Mor(s, obj, coords)))
                    for coords in range(1, 1 << b.hom_dim(s, obj))
                )
            table[key] = got
        return got

    def _peel_search(
        self, x: Subcat, y: Subcat, c: Obj, depth: int, budget: int, closed: str
    ) -> Optional[tuple[list, Obj]]:
        """Shortest chain of peels of the closed side's summands from c
        into add of the other side.

        Zero peel maps are skipped: in a genuine triangle whose map into
        (out of) the stripped side has zero component on every summand,
        that map is zero outright, which splits the triangle and puts the
        middle term in add of the other side already; the membership
        check at state entry covers that branch.  Summands with no
        nonzero map are skipped by the per-backend Hom masks, as they
        have no peels.  Every peel costs one budget unit; a state's peels
        of one summand are charged together, which raises at the same
        point as charging them one by one, since the search only stops
        at state entry.
        """
        target, strip = (x, y) if closed == "y" else (y, x)
        reach = hom_masks(self.backend)[0 if closed == "y" else 1]
        frontier: list[tuple[Obj, list]] = [(c, [])]
        best_seen: dict[Obj, int] = {c: depth}
        for remaining in range(depth, -1, -1):
            next_frontier: list[tuple[Obj, list]] = []
            for obj, chain in frontier:
                if target.contains_obj(obj):
                    return chain, obj
                if remaining == 0:
                    continue
                hit = 0
                for i in obj.summands:
                    hit |= reach[i]
                for sid in iter_bits(strip.bits & hit):
                    moves = self._peel_moves(obj, sid, closed)
                    budget -= len(moves)
                    if budget < 0:
                        raise BudgetExceeded("peel search budget exhausted")
                    for coords, w in moves:
                        prev = best_seen.get(w)
                        if prev is not None and prev >= remaining - 1:
                            continue
                        best_seen[w] = remaining - 1
                        next_frontier.append((w, chain + [(sid, coords)]))
            frontier = next_frontier
            if not frontier:
                break
        return None

    def _literal_verdict(self, x: Subcat, y: Subcat, c: Obj) -> Verdict:
        """Star membership by the backend's capped triangle enumerator.

        No path in the package calls it: the tests use it as the oracle
        for both peel directions, and it stays on the engine because the
        benchmark's layer tracer binds it by name.
        """
        b = self.backend
        try:
            for w in b.triangle_enumerate(
                x.ids(), y.ids(), c, cap=self.cap + 1, budget=self.budget
            ):
                return Verdict.yes(witness=w)
        except BudgetExceeded:
            return Verdict.inconclusive(reason="literal enumeration budget exhausted")
        return Verdict.no(
            reason=f"capped enumeration exhausted at caps {self.cap} "
            f"and {self.cap + 1}"
        )

    def witnesses(self, x: Subcat, y: Subcat, c: Obj, top: int) -> Iterator:
        """Morphism-level triangle witnesses of the least cap in 2..top
        that has any, in enumeration order; raises BudgetExceeded.

        Witness triangles are almost always narrow, so the small caps
        hit first and the wide sweeps only run when a witness truly
        needs the room; objects wider than the engine cap need a
        ``top`` above it for the split part of the triangle.
        """
        for cap in range(2, top + 1):
            found = False
            for w in self.backend.triangle_enumerate(
                x.ids(), y.ids(), c, cap=cap, budget=self.budget
            ):
                found = True
                yield w
            if found:
                return

    def first_witness(self, x: Subcat, y: Subcat, c: Obj, top: int):
        """The first of ``witnesses(x, y, c, top)``, or None, stored per
        key.  Only that one witness is kept, never the search; a
        BudgetExceeded propagates on every call and is not stored."""
        key = (x.bits, y.bits, c, top)
        if key not in self._first_witness:
            self._first_witness[key] = next(self.witnesses(x, y, c, top), None)
        return self._first_witness[key]

    # -- star sets ----------------------------------------------------------

    def star_indecs(
        self,
        x: Subcat,
        y: Subcat,
        *,
        closed: str,
        within: Optional[Subcat] = None,
    ) -> tuple[Subcat, bool]:
        """Indecomposables inside the star, plus a completeness flag.

        The flag is False when any membership came back inconclusive;
        such members are excluded from the set, never guessed.
        ``within`` restricts the candidates, for callers that go on to
        intersect the result with a known class anyway.  ``closed`` is
        passed on to ``star_contains``.
        """
        b = self.backend
        bits = 0
        complete = True
        candidates = range(len(b.indecs)) if within is None else within.ids()
        for i in candidates:
            v = self.star_contains(x, y, Obj.of(i), closed=closed)
            if v.is_yes:
                bits |= 1 << i
            elif v.is_inconclusive:
                complete = False
        return Subcat(b, bits), complete

    # -- extension closure -----------------------------------------------

    def pair_extensions(self, a_id: int, b_id: int) -> list[Obj]:
        """All middle terms of triangles a -> E -> b, exactly.

        Single-indecomposable ends need no cap: every such triangle is
        the cone of one connecting map b[-1] -> a.
        """
        key = (a_id, b_id)
        got = self._pair_ext_cache.get(key)
        if got is not None:
            return got
        b = self.backend
        asingle = Obj.of(a_id)
        bm = Obj.of(b.shift_id(b_id, -1))
        d = b.hom_dim(bm, asingle)
        out = []
        seen = set()
        for coords in range(1 << d):
            cobj = b.cone_obj(Mor(bm, asingle, coords))
            if cobj not in seen:
                seen.add(cobj)
                out.append(cobj)
        self._pair_ext_cache[key] = out
        return out

    def is_ext_closed_pairwise(self, x: Subcat) -> bool:
        """Whether every extension of two members has its summands inside.

        This is a necessary condition for closure under extensions; it
        is exact (no caps) because the ends are single indecomposables.
        """
        for a in x:
            for bb in x:
                for mid in self.pair_extensions(a, bb):
                    if not x.contains_obj(mid):
                        return False
        return True


def require_enumerable(backend: Backend) -> int:
    """The number of indecomposables, if classes of them may be listed."""
    k = len(backend.indecs)
    if k > MAX_ENUM_INDECS:
        raise InputError(
            f"subcategory enumeration needs at most {MAX_ENUM_INDECS} "
            f"indecomposables, backend has {k}"
        )
    return k


def enumerate_subcats(
    backend: Backend, pred: Callable[[Subcat], bool]
) -> list[Subcat]:
    """All subcats satisfying pred, in canonical bit order, by testing
    every one of the 2^K subsets."""
    k = require_enumerable(backend)
    out = []
    for bits in range(1 << k):
        s = Subcat(backend, bits)
        if pred(s):
            out.append(s)
    return out
