"""Bitset algebra of additive subcategories and star-product search.

A Subcat is a set of indecomposable ids standing for the full additive
subcategory of finite direct sums of those indecomposables; it is
summand-closed by construction.  Ext^1-perpendiculars are unions of the
backend's Ext^1 masks (``Backend.ext1_masks``), an object-layer table
that the polygon has too: ``perp_bits`` is the one kernel on plain ints,
``closed_sets`` walks the closed sets of a closure on bitmasks, and
``perp_pairs`` walks the closed classes of two perpendiculars with the
perpendicular of each, so the pair enumerations and the quotient's build
no Subcat.  Star membership C in add(X) * add(Y) runs on the peel
engine, for a Y that the caller vouches closed under extensions: it
repeatedly strips one Y-summand by enumerating maps C -> y and passing
to the cocone, and accepts when some chain lands in add(X); if the
cocone lies in X * Y, then C lies in X * Y * y, inside X * Y.

The search is complete for capped Y sides (every genuine triangle
induces a chain of the same length); acceptance of YES needs Y closed
under extensions.  The peel serves one star only: T * U in condition
(I), whose Y side U is a verified cotorsion-pair side.  Every other
star, the fixed-point stars S[-1] * U' and V' * V[1] of the
mutable-class test included, is decided by one minimal approximation
(``PairEngine.in_star``).  The tests hold the peel to the backend's
capped dense-connecting-map enumerator (``_literal_verdict``), and
those approximation routes to the peel.

Verdicts are three-valued; a NO is only reported when the search space
for caps c and c+1 is exhausted, and budget exhaustion degrades to
inconclusive, never to a boolean.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Backend,
    BudgetExceeded,
    InputError,
    MAX_ENUM_INDECS,
    Mor,
    Obj,
    Verdict,
    stored,
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
        """The class of the k-fold shifts of the members, built once per
        backend and (bits, k)."""
        return _shifted(self.backend, self.bits, k)

    def contains_obj(self, x: Obj) -> bool:
        bits = self.bits
        for i in x.summands:
            if not bits >> i & 1:
                return False
        return True

    def _same(self, other: "Subcat") -> None:
        if other.backend is not self.backend:
            raise InputError("subcats belong to different backends")

    def __repr__(self) -> str:
        return f"Subcat({self.labels()})"


@stored()
def _shifted(backend: Backend, bits: int, k: int) -> Subcat:
    """``Subcat.shifted``, kept in the backend's stored table."""
    return Subcat.of(backend, (backend.shift_id(i, k) for i in iter_bits(bits)))


def perp_bits(bits: int, masks: Sequence[int]) -> int:
    """The mask of the c outside ``masks[i]`` for every member i of
    ``bits``: with the Ext^1 masks out of (into) each indecomposable, the
    right (left) Ext^1-perpendicular of the class."""
    hit = 0
    while bits:
        low = bits & -bits
        hit |= masks[low.bit_length() - 1]
        bits ^= low
    return ~hit & ((1 << len(masks)) - 1)


def right_perp(x: Subcat) -> Subcat:
    """Indecomposables c with Ext^1(member, c) = 0 for all members."""
    return Subcat(x.backend, perp_bits(x.bits, x.backend.ext1_masks()[0]))


def left_perp(x: Subcat) -> Subcat:
    """Indecomposables c with Ext^1(c, member) = 0 for all members."""
    return Subcat(x.backend, perp_bits(x.bits, x.backend.ext1_masks()[1]))


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


def perp_pairs(out: Sequence[int], into: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The closed sets x of x -> perp_bits(perp_bits(x, out), into),
    ascending, each with perp_bits(x, out).  With the Ext^1 masks out of
    and into each object, these are the first classes of the cotorsion
    pairs with their second classes; with the tables swapped, the second
    classes with their first."""
    for bits in closed_sets(len(out), lambda s: perp_bits(perp_bits(s, out), into)):
        yield bits, perp_bits(bits, out)


class StarEngine:
    """Star-product membership and closure queries over one backend;
    peel moves and pair extensions are stored."""

    def __init__(
        self,
        backend: Backend,
        cap: int = DEFAULT_CAP,
        budget: int = DEFAULT_BUDGET,
    ):
        backend._need()
        self.backend = backend
        self.cap = cap
        self.budget = budget

    # -- membership -------------------------------------------------------

    def star_contains(self, x: Subcat, y: Subcat, c: Obj) -> Verdict:
        """Is there a triangle X' -> c -> Y' -> X'[1] with capped ends?

        Y must be closed under extensions, which the caller vouches for:
        the peel engine strips Y-summands, which is what lets it report
        YES directly.  Perpendicular classes, verified cotorsion-pair
        sides and their shifts qualify.  The one caller in the package is
        condition (I)'s T * U (``star_indecs``); the tests also hold the
        approximation routes of ``PairEngine.in_star`` to it.
        """
        if c.is_zero or x.contains_obj(c) or y.contains_obj(c):
            return Verdict.yes()
        if y.is_empty:
            return Verdict.no(reason="Y side is zero and C is not in add(X)")
        if x.is_empty:
            return Verdict.no(reason="X side is zero and C is not in add(Y)")
        return self._peel_verdict(x, y, c)

    def _peel_verdict(self, x: Subcat, y: Subcat, c: Obj) -> Verdict:
        try:
            found = self._peel_search(x, y, c, self.cap + 1, self.budget)
        except BudgetExceeded:
            return Verdict.inconclusive(reason="peel budget exhausted")
        if found:
            return Verdict.yes()
        return Verdict.no(
            reason=f"no peel chain up to depth {self.cap + 1} (caps "
            f"{self.cap} and {self.cap + 1} agree)"
        )

    @stored(key=lambda obj, sid: (obj.summands, sid))
    def _peel_moves(self, obj: Obj, sid: int) -> tuple[Obj, ...]:
        """The cocone cone(map)[-1] of every nonzero map obj -> sid, by
        ascending map coordinates.  Built on first use and stored per
        (obj.summands, sid); the search asks only for summands with a
        nonzero Hom, so every stored entry holds moves."""
        b = self.backend
        s = Obj.of(sid)
        return tuple(
            b.shift_obj(b.cone_obj(Mor(obj, s, coords)), -1)
            for coords in range(1, 1 << b.hom_dim(obj, s))
        )

    def _peel_search(
        self, x: Subcat, y: Subcat, c: Obj, depth: int, budget: int
    ) -> bool:
        """Whether some chain of at most ``depth`` peels of Y-summands
        takes c into add(X).

        Zero peel maps are skipped: in a genuine triangle whose map into
        Y has zero component on every summand, that map is zero outright,
        which splits the triangle and puts the middle term in add(X)
        already; the membership check at state entry covers that branch.
        Summands with no nonzero map are skipped by the per-backend Hom
        masks, as they have no peels.  Every peel costs one budget unit;
        a state's peels of one summand are charged together, which raises
        at the same point as charging them one by one, since the search
        only stops at state entry.
        """
        reach = self.backend.hom_masks()[0]
        frontier = [c]
        best_seen: dict[Obj, int] = {c: depth}
        for remaining in range(depth, -1, -1):
            next_frontier: list[Obj] = []
            for obj in frontier:
                if x.contains_obj(obj):
                    return True
                if remaining == 0:
                    continue
                hit = 0
                for i in obj.summands:
                    hit |= reach[i]
                for sid in iter_bits(y.bits & hit):
                    moves = self._peel_moves(obj, sid)
                    budget -= len(moves)
                    if budget < 0:
                        raise BudgetExceeded("peel search budget exhausted")
                    for w in moves:
                        prev = best_seen.get(w)
                        if prev is not None and prev >= remaining - 1:
                            continue
                        best_seen[w] = remaining - 1
                        next_frontier.append(w)
            frontier = next_frontier
            if not frontier:
                break
        return False

    def _literal_verdict(self, x: Subcat, y: Subcat, c: Obj) -> Verdict:
        """Star membership by the backend's capped triangle enumerator.

        No path in the package calls it: the tests use it as the oracle
        of the peel, and it stays on the engine because the
        benchmark's layer tracer binds it by name.
        """
        b = self.backend
        try:
            for _ in b.triangle_enumerate(
                x.ids(), y.ids(), c, cap=self.cap + 1, budget=self.budget
            ):
                return Verdict.yes()
        except BudgetExceeded:
            return Verdict.inconclusive(reason="literal enumeration budget exhausted")
        return Verdict.no(
            reason=f"capped enumeration exhausted at caps {self.cap} "
            f"and {self.cap + 1}"
        )

    # -- star sets ----------------------------------------------------------

    def star_indecs(self, x: Subcat, y: Subcat) -> tuple[Subcat, bool]:
        """Indecomposables inside the star, plus a completeness flag.

        The flag is False when any membership came back inconclusive;
        such members are excluded from the set, never guessed.
        """
        b = self.backend
        bits = 0
        complete = True
        for i in range(len(b.indecs)):
            v = self.star_contains(x, y, Obj.of(i))
            if v.is_yes:
                bits |= 1 << i
            elif v.is_inconclusive:
                complete = False
        return Subcat(b, bits), complete

    # -- extension closure -----------------------------------------------

    @stored()
    def pair_extensions(self, a_id: int, b_id: int) -> list[Obj]:
        """All middle terms of triangles a -> E -> b, exactly.

        Single-indecomposable ends need no cap: every such triangle is
        the cone of one connecting map b[-1] -> a.
        """
        b = self.backend
        asingle = Obj.of(a_id)
        bm = Obj.of(b.shift_id(b_id, -1))
        maps = range(1 << b.hom_dim(bm, asingle))
        return list(dict.fromkeys(b.cone_obj(Mor(bm, asingle, c)) for c in maps))

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
