"""Combinatorial polygon model: arcs, crossings, rotation, cut reduction.

Indecomposables are the diagonals of a convex N-gon, degree-one
incidence is strict crossing, and the shift rotates every arc one
vertex backwards.  This backend publishes no morphism calculus and no
exact triangles: it serves fast enumeration (rigid sets, crossing-closed
sets, triangulations), the cut reduction of a polygon along a rigid arc
set, and the arc-set mutation that rotates inside the cut pieces.  Every
crossing test reads the backend's Ext^1 masks (``Backend.ext1_masks``)
and the shared perpendicular kernel: a rigid set lies inside its right
perpendicular, and the reduced class of a cut is that perpendicular.  Its
conventions are validated empirically against the module-theoretic
backend where the category sizes coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import MAX_POLYGON_INDECS, Backend, Indec, InputError, stored
from .subcats import Subcat, closed_sets, iter_bits, require_enumerable
from .subcats import right_perp


@dataclass(frozen=True)
class Arc:
    """Chord between two non-adjacent vertices, stored with i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i >= self.j:
            raise InputError("arc endpoints must be ordered")

    def label(self) -> str:
        return f"arc({self.i},{self.j})"


def _valid_arc(n: int, i: int, j: int) -> bool:
    if not (0 <= i < j <= n - 1):
        return False
    return j - i >= 2 and (i, j) != (0, n - 1)


def _crossing(a: Arc, b: Arc) -> bool:
    """Strict interleaving of endpoints around the cycle."""
    return (a.i < b.i < a.j < b.j) or (b.i < a.i < b.j < a.j)


class PolygonBackend(Backend):
    """Arc category of the convex N-gon; enumeration-only capabilities."""

    def __init__(self, n: int):
        if n < 4:
            raise InputError("polygon needs at least 4 vertices")
        expected = n * (n - 3) // 2
        if expected > MAX_POLYGON_INDECS:
            raise InputError(
                f"polygon:N={n} has {expected} arcs, "
                f"above the cap {MAX_POLYGON_INDECS}"
            )
        self.n = n
        self.spec_string = f"polygon:N={n}"
        arcs = []
        for i in range(n):
            for j in range(i + 2, n):
                if _valid_arc(n, i, j):
                    arcs.append(Arc(i, j))
        arcs.sort(key=lambda a: (a.i, a.j))
        self._arcs = tuple(arcs)
        if len(arcs) != expected:
            raise InputError("arc count mismatch")
        self._by_arc = {a: idx for idx, a in enumerate(arcs)}
        self._indecs = tuple(
            Indec(idx, a.label()) for idx, a in enumerate(arcs)
        )

    @property
    def indecs(self) -> tuple[Indec, ...]:
        return self._indecs

    def arc(self, i: int, j: int) -> Arc:
        lo, hi = min(i, j), max(i, j)
        if not _valid_arc(self.n, lo, hi):
            raise InputError(f"({i},{j}) is not an arc of the {self.n}-gon")
        return Arc(lo, hi)

    def arc_of_id(self, ind_id: int) -> Arc:
        return self._arcs[ind_id]

    def id_of_arc(self, a: Arc) -> int:
        got = self._by_arc.get(a)
        if got is None:
            raise InputError(f"{a.label()} is not an arc of the {self.n}-gon")
        return got

    def rotate(self, a: Arc, k: int = 1) -> Arc:
        i = (a.i - k) % self.n
        j = (a.j - k) % self.n
        return self.arc(min(i, j), max(i, j))

    def shift_id(self, i: int, k: int = 1) -> int:
        return self.id_of_arc(self.rotate(self._arcs[i], k))

    def ext_incidence(self, i: int, j: int) -> bool:
        return _crossing(self._arcs[i], self._arcs[j])

    @stored()
    def ext1_masks(self) -> tuple[list[int], list[int]]:
        """The crossing masks, in O(K * N) rather than K^2 crossing tests:
        arc (i, j) crosses exactly the arcs that touch a vertex strictly
        inside (i, j) and one strictly outside [i, j].  Crossing is
        symmetric, so both lists hold the same rows."""
        touching = [0] * self.n
        for idx, a in enumerate(self._arcs):
            touching[a.i] |= 1 << idx
            touching[a.j] |= 1 << idx
        rows = []
        for a in self._arcs:
            inside = outside = 0
            for v in range(a.i + 1, a.j):
                inside |= touching[v]
            for v in (*range(a.i), *range(a.j + 1, self.n)):
                outside |= touching[v]
            rows.append(inside & outside)
        return rows, list(rows)

    @cached_property
    def connecting_masks(self) -> tuple[dict[int, int], ...]:
        """Per arc id a, for each arc b crossing it, the bitmask of the
        arcs joining an endpoint of a to one of b."""
        cross = self.ext1_masks()[0]
        out: tuple[dict[int, int], ...] = tuple({} for _ in self._arcs)
        for a, arc in enumerate(self._arcs):
            for b in iter_bits(cross[a]):
                other = self._arcs[b]
                out[a][b] = sum(
                    1 << self._by_arc[Arc(min(p, q), max(p, q))]
                    for p in (arc.i, arc.j)
                    for q in (other.i, other.j)
                    if _valid_arc(self.n, min(p, q), max(p, q))
                )
        return out


def parse_spec(spec: str) -> PolygonBackend:
    """Build a backend from a string like ``polygon:N=5``."""
    prefix = "polygon:"
    if not spec.startswith(prefix):
        raise InputError(f"not a polygon spec: {spec!r}")
    body = spec[len(prefix):]
    if not body.startswith("N="):
        raise InputError("polygon spec needs N=<count>")
    try:
        n = int(body[2:])
    except ValueError as exc:
        raise InputError(f"bad polygon vertex count {body[2:]!r}") from exc
    return PolygonBackend(n)


# ----------------------------------------------------------------------
# Enumeration


def is_rigid(backend: PolygonBackend, s: Subcat) -> bool:
    """Pairwise non-crossing: inside its own Ext^1-perpendicular."""
    return s.issubset(right_perp(s))


def enumerate_rigid(backend: PolygonBackend) -> list[Subcat]:
    """All pairwise non-crossing arc sets, the empty one included, in
    ascending bit order: the sets on arcs 0..i are those on arcs 0..i-1,
    then the ones among them that cross no arc i, with arc i added."""
    k = require_enumerable(backend)
    cross = backend.ext1_masks()[0]
    found = [0]
    for i in range(k):
        found += [s | 1 << i for s in found if not s & cross[i]]
    return [Subcat(backend, s) for s in found]


def triangulations_among(backend: PolygonBackend, rigid: list[Subcat]) -> list[Subcat]:
    """The triangulations in a list of rigid sets: those with N-3 arcs."""
    return [s for s in rigid if len(s) == backend.n - 3]


def is_ptolemy(backend: PolygonBackend, s: Subcat) -> bool:
    """Crossing-closed: crossing members force all connecting arcs in."""
    cross, conn, bits = backend.ext1_masks()[0], backend.connecting_masks, s.bits
    # each crossing pair of members once, from its lower arc a
    return not any(
        conn[a][b] & ~bits for a in s for b in iter_bits(cross[a] & bits >> a << a)
    )


def enumerate_ptolemy(backend: PolygonBackend) -> list[Subcat]:
    """All crossing-closed arc sets, in ascending bit order: the closed
    sets of adding the connecting arcs of crossing members until none is
    missing, which is a closure because crossing-closed sets are closed
    under intersection."""
    k = require_enumerable(backend)
    cross = backend.ext1_masks()[0]
    conn = backend.connecting_masks

    def closure(bits: int) -> int:
        todo = bits
        while todo:
            a = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            for b in iter_bits(cross[a] & bits):
                new = conn[a][b] & ~bits
                bits |= new
                todo |= new
        return bits

    return [Subcat(backend, bits) for bits in closed_sets(k, closure)]


# ----------------------------------------------------------------------
# Cut reduction


@dataclass(frozen=True)
class CutReduction:
    """Polygon cut along a rigid arc set, with the transport dictionary.

    ``pieces`` are the faces as tuples of original vertices in cyclic
    order; ``forward`` maps each non-cut arc of the reduced class to
    (piece index, position pair inside the piece); ``backward`` inverts
    it.  Arcs of the rigid set itself appear in no piece.
    """

    backend: PolygonBackend
    rigid: Subcat
    z: Subcat
    pieces: tuple[tuple[int, ...], ...]
    forward: dict[int, tuple[int, tuple[int, int]]]
    backward: dict[tuple[int, tuple[int, int]], int]

    def reduced_shift(self, ind_id: int, k: int = 1) -> int:
        """Rotate an arc of z minus rigid inside its piece, k steps."""
        piece_idx, (p, q) = self.forward[ind_id]
        size = len(self.pieces[piece_idx])
        p2, q2 = (p - k) % size, (q - k) % size
        key = (piece_idx, (min(p2, q2), max(p2, q2)))
        return self.backward[key]


def cut_reduction(backend: PolygonBackend, rigid: Subcat) -> CutReduction:
    if rigid.backend is not backend:
        raise InputError("rigid set belongs to a different backend")
    if not is_rigid(backend, rigid):
        raise InputError("cut set must be pairwise non-crossing")
    n = backend.n
    rigid_arcs = [backend.arc_of_id(i) for i in rigid]
    z = right_perp(rigid)

    pieces: list[list[int]] = [list(range(n))]
    for r in sorted(rigid_arcs, key=lambda a: (a.i, a.j)):
        for pi, piece in enumerate(pieces):
            if r.i in piece and r.j in piece:
                ai, aj = piece.index(r.i), piece.index(r.j)
                lo, hi = min(ai, aj), max(ai, aj)
                first = piece[lo : hi + 1]
                second = piece[hi:] + piece[: lo + 1]
                pieces[pi] = first
                pieces.append(second)
                break
        else:
            raise InputError("cut arc endpoints not in one piece")

    forward: dict[int, tuple[int, tuple[int, int]]] = {}
    backward: dict[tuple[int, tuple[int, int]], int] = {}
    for pi, piece in enumerate(pieces):
        size = len(piece)
        for p in range(size):
            for q in range(p + 1, size):
                if q - p < 2 or (p, q) == (0, size - 1):
                    continue
                a = Arc(min(piece[p], piece[q]), max(piece[p], piece[q]))
                idx = backend.id_of_arc(a)
                if idx not in z or idx in rigid:
                    raise InputError("piece arc escapes the reduced class")
                forward[idx] = (pi, (p, q))
                backward[(pi, (p, q))] = idx
    expected = set(z.ids()) - set(rigid.ids())
    if set(forward) != expected:
        raise InputError("cut dictionary is not a bijection")
    return CutReduction(
        backend,
        rigid,
        z,
        tuple(tuple(p) for p in pieces),
        forward,
        backward,
    )


def zz_mutate(
    backend: PolygonBackend, rigid: Subcat, a: Subcat, k: int
) -> Subcat:
    """Rotate a's non-cut arcs inside the cut pieces, keeping the cut set."""
    red = cut_reduction(backend, rigid)
    if not rigid.issubset(a) or not a.issubset(red.z):
        raise InputError(
            "mutable set must contain the cut set and avoid crossings with it"
        )
    moved = [red.reduced_shift(i, k) for i in a.minus(rigid)]
    return Subcat.of(backend, moved).union(rigid)
