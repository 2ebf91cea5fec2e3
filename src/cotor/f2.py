"""Bit-packed dense linear algebra over the two-element field.

A vector is a Python int whose bit ``c`` is coordinate ``c``; a matrix
stores one such int per row.  Row operations are single XORs, so the
word-level parallelism of big ints does the work that numpy would
otherwise do.  Everything here is pure: inputs are never mutated and
equal inputs give identical outputs.

There is one row reduction, ``Echelon``, which keeps rows only;
``solve``, ``kernel_basis``, ``rank`` and ``in_span`` are thin readings
of it.  Its subclass ``ExpressSolver`` reduces augmented rows that also
record the listed vectors they combine, so it writes vectors over that
list.  There is one space modulo a span, ``QuotientSpace``, with
coordinates on the non-pivot positions: the subquotient's Hom spaces
and the Nakayama backend's cone modules are both built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "F2Matrix",
    "rank",
    "solve",
    "kernel_basis",
    "in_span",
    "Echelon",
    "ExpressSolver",
    "QuotientSpace",
]


@dataclass(frozen=True, slots=True)
class F2Matrix:
    """Dense GF(2) matrix with row-major bit storage.

    ``bits[r]`` holds row ``r``; bit ``c`` of that int is the entry in
    column ``c``.  Rows wider than ``cols`` are rejected so equality of
    dataclasses is equality of matrices.
    """

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.bits) != self.rows:
            raise ValueError("bits length does not match row count")
        mask = (1 << self.cols) - 1
        for row in self.bits:
            if row < 0 or row & ~mask:
                raise ValueError("row value exceeds column count")

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[int], cols: int) -> "F2Matrix":
        rows = tuple(rows)
        return F2Matrix(len(rows), cols, rows)

    def entry(self, r: int, c: int) -> int:
        return (self.bits[r] >> c) & 1

    def column(self, c: int) -> int:
        """Column ``c`` as a bit vector over rows."""
        v = 0
        for r, row in enumerate(self.bits):
            v |= ((row >> c) & 1) << r
        return v

    def matvec(self, x: int) -> int:
        """y = M x with x over columns and y over rows."""
        y = 0
        for r, row in enumerate(self.bits):
            y |= ((row & x).bit_count() & 1) << r
        return y

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for row in self.bits:
            acc = 0
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                acc ^= other.bits[j]
                rest &= rest - 1
            out.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(out))

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.cols
        for r, row in enumerate(self.bits):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << r
                row ^= low
        return F2Matrix(self.cols, self.rows, tuple(cols))

    def hstack(self, other: "F2Matrix") -> "F2Matrix":
        """Columns of self followed by columns of other."""
        if self.rows != other.rows:
            raise ValueError("row counts do not match")
        bits = tuple(a | (b << self.cols) for a, b in zip(self.bits, other.bits))
        return F2Matrix(self.rows, self.cols + other.cols, bits)

    def vstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise ValueError("column counts do not match")
        return F2Matrix(self.rows + other.rows, self.cols, self.bits + other.bits)


def rank(matrix: F2Matrix) -> int:
    return len(Echelon(matrix.bits))


def solve(matrix: F2Matrix, rhs: int) -> Optional[int]:
    """One solution x of M x = rhs, or None if the system is inconsistent.

    ``rhs`` is a bit vector over rows, the result a bit vector over
    columns.  The returned solution is the deterministic one with zero
    free coordinates.
    """
    if rhs < 0 or rhs >> matrix.rows:
        raise ValueError("right-hand side exceeds row count")
    # Augmented rows carry the rhs bit at bit 0, so column c sits at c + 1
    # and a row reduced to bit 0 alone reads 0 = 1.
    ech = Echelon((row << 1) | ((rhs >> r) & 1) for r, row in enumerate(matrix.bits))
    x = 0
    # Ascending pivots: each row only references columns below its
    # pivot, which are already assigned.
    for row in ech.basis():
        if row == 1:
            return None
        if (row & 1) ^ ((row >> 1) & x).bit_count() & 1:
            x |= 1 << (row.bit_length() - 2)
    return x


def kernel_basis(matrix: F2Matrix) -> list[int]:
    """Basis of {x : M x = 0}, one vector per free column, ascending."""
    ech = Echelon(matrix.bits)
    rows = ech._rows  # read in place: no copy, and any order will do
    basis = {c: 1 << c for c in range(matrix.cols) if c not in rows}
    # Reduced row echelon form: pivot row p, less its pivot bit, lies on
    # free columns only, and each of them owes pivot coordinate p.
    for p, row in rows.items():
        rest = ech.reduce_full(row ^ (1 << p))
        while rest:
            low = rest & -rest
            basis[low.bit_length() - 1] |= 1 << p
            rest ^= low
    return list(basis.values())


def in_span(vector: int, basis: Iterable[int]) -> bool:
    return Echelon(basis).contains(vector)


class Echelon:
    """Incremental row span with pivot bookkeeping; the one row reduction.

    Each stored row is keyed by its pivot (leading bit); dependent
    inserts reduce to zero and are not stored.
    """

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self._rows: dict[int, int] = {}  # pivot -> row
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vector: int) -> int:
        """Clear leading bits while a stored row has them as pivot."""
        rows = self._rows
        while vector:
            row = rows.get(vector.bit_length() - 1)
            if row is None:
                break
            vector ^= row
        return vector

    def add(self, vector: int) -> bool:
        """Insert; True if the span grew."""
        v = self._reduce(vector)
        if v == 0:
            return False
        self._rows[v.bit_length() - 1] = v
        return True

    def contains(self, vector: int) -> bool:
        return self._reduce(vector) == 0

    def reduce_full(self, vector: int) -> int:
        """Unique coset representative supported off the pivot positions.

        Unlike the walk behind ``add`` and ``contains``, which stops at
        the first non-pivot leading bit, this clears every pivot bit, so
        the result is linear in the input and projects onto the
        non-pivot coordinates.
        """
        v = vector
        bound = v.bit_length()
        while bound:
            scan = v & ((1 << bound) - 1)
            if not scan:
                break
            p = scan.bit_length() - 1
            row = self._rows.get(p)
            if row is not None:
                v ^= row
            bound = p
        return v

    def pivots(self) -> set[int]:
        return set(self._rows)

    def basis(self) -> list[int]:
        """Stored rows in ascending pivot order."""
        return [self._rows[p] for p in sorted(self._rows)]


class ExpressSolver(Echelon):
    """Writes vectors of the span of a fixed list over that list.

    The i-th of the n vectors v goes in as the augmented row
    ``v << n | 1 << i``, whose low n bits record the vectors it combines;
    rows are kept only with a nonzero high part.  It answers ``express``
    and ``len``; other readings would see the augmented rows.
    """

    def __init__(self, vectors: Iterable[int]) -> None:
        super().__init__()
        vectors = tuple(vectors)
        self._n = n = len(vectors)
        for i, v in enumerate(vectors):
            row = self._reduce(v << n | 1 << i)
            if row >> n:
                self._rows[row.bit_length() - 1] = row

    def express(self, vector: int) -> Optional[int]:
        """Combination of the listed vectors (bit i for the i-th) summing
        to ``vector``, or None when it lies outside their span."""
        row = self._reduce(vector << self._n)
        return None if row >> self._n else row


class QuotientSpace:
    """GF(2)^width modulo the span of some vectors.

    A class has one canonical representative, supported off the pivot
    positions (``reduce``), and coordinates on the ascending non-pivot
    positions (``coords``, inverted by ``lift``).
    """

    def __init__(self, width: int, vectors: Iterable[int]) -> None:
        self.full_dim = width
        self.ech = Echelon(vectors)
        piv = self.ech.pivots()
        self.free = [q for q in range(width) if q not in piv]
        self.dim = len(self.free)

    def reduce(self, vector: int) -> int:
        return self.ech.reduce_full(vector)

    def coords(self, vector: int) -> int:
        red = self.ech.reduce_full(vector)
        return sum(1 << k for k, q in enumerate(self.free) if (red >> q) & 1)

    def lift(self, coords: int) -> int:
        out = 0
        while coords:
            low = coords & -coords
            out |= 1 << self.free[low.bit_length() - 1]
            coords ^= low
        return out
