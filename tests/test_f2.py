"""GF(2) linear algebra against exhaustive small-space oracles.

The oracles enumerate whole spans and solution sets directly, so they
are exponential and only run at tiny sizes; the implementations must
agree with them bit for bit.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotor.f2 import (
    Echelon,
    ExpressSolver,
    F2Matrix,
    QuotientSpace,
    in_span,
    kernel_basis,
    rank,
    solve,
)
from helpers import from_entries

# ---------------------------------------------------------------- oracles


def span_closure(vectors):
    """Every GF(2) combination of ``vectors``, by direct closure."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def entrywise_matvec(m: F2Matrix, x: int) -> int:
    """M x computed entry by entry, independent of the bit tricks."""
    y = 0
    for r in range(m.rows):
        s = 0
        for c in range(m.cols):
            s ^= m.entry(r, c) & ((x >> c) & 1)
        y |= s << r
    return y


def all_solutions(m: F2Matrix, rhs: int) -> list[int]:
    return [x for x in range(1 << m.cols) if entrywise_matvec(m, x) == rhs]


# Independent eliminations with the outputs of record.  ``solve``,
# ``kernel_basis`` and ``ExpressSolver.express`` must match them bit for bit,
# not just up to the row space, so reports built on them cannot move.


def pivot_dict_solve(matrix: F2Matrix, rhs: int):
    """Solve by eliminating (row, rhs bit) pairs into a pivot dict."""
    pivots: dict[int, tuple[int, int]] = {}
    for r in range(matrix.rows):
        row, b = matrix.bits[r], (rhs >> r) & 1
        while row:
            p = row.bit_length() - 1
            if p not in pivots:
                pivots[p] = (row, b)
                break
            prow, pb = pivots[p]
            row ^= prow
            b ^= pb
        else:
            if b:
                return None
    x = 0
    for p in sorted(pivots):
        row, b = pivots[p]
        if b ^ ((row & x).bit_count() & 1) ^ ((x >> p) & 1):
            x |= 1 << p
    return x


def sorted_list_kernel(matrix: F2Matrix) -> list[int]:
    """Kernel basis from a sorted echelon list, fully reduced pairwise."""
    ech: list[int] = []
    for row in (r for r in matrix.bits if r):
        for e in ech:
            if row & (1 << (e.bit_length() - 1)):
                row ^= e
        if row:
            ech.append(row)
            ech.sort(key=lambda v: -v.bit_length())
    for i in range(len(ech)):
        for j in range(len(ech)):
            if i != j and ech[i] & (1 << (ech[j].bit_length() - 1)):
                ech[i] ^= ech[j]
    pivot_of = {e.bit_length() - 1: e for e in ech}
    basis = []
    for c in range(matrix.cols):
        if c not in pivot_of:
            v = 1 << c
            for p, e in pivot_of.items():
                if (e >> c) & 1:
                    v |= 1 << p
            basis.append(v)
    return basis


def per_column_transpose(matrix: F2Matrix) -> F2Matrix:
    """Transpose built one ``column()`` at a time, over every row."""
    return F2Matrix(
        matrix.cols, matrix.rows, tuple(matrix.column(c) for c in range(matrix.cols))
    )


def pivot_dict_express(generators: list[int], vector: int):
    """Combination over generator indices, tracked beside each pivot row."""
    rows: dict[int, tuple[int, int]] = {}

    def reduce(v, combo):
        while v and (v.bit_length() - 1) in rows:
            got = rows[v.bit_length() - 1]
            v ^= got[0]
            combo ^= got[1]
        return v, combo

    for i, g in enumerate(generators):
        v, combo = reduce(g, 1 << i)
        if v:
            rows[v.bit_length() - 1] = (v, combo)
    v, combo = reduce(vector, 0)
    return None if v else combo


# ---------------------------------------------------------------- strategies


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    bits = tuple(
        draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)
    )
    return F2Matrix(rows, cols, bits)


@st.composite
def wide_matrices(draw, max_rows=10, max_cols=100):
    """Matrices up to 100 columns whose rows are mostly sums of a few
    base rows, so dependent and repeated rows are common."""
    cols = draw(st.integers(0, max_cols))
    top = (1 << cols) - 1
    bases = draw(st.lists(st.integers(0, top), max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if not bases or draw(st.booleans()) and draw(st.booleans()):
            rows.append(draw(st.integers(0, top)))
        else:
            mask = draw(st.integers(0, (1 << len(bases)) - 1))
            rows.append(sum_of(b for k, b in enumerate(bases) if (mask >> k) & 1))
    return F2Matrix.from_rows(rows, cols)


def sum_of(vectors) -> int:
    acc = 0
    for v in vectors:
        acc ^= v
    return acc


@st.composite
def matrix_with_rhs(draw):
    m = draw(matrices())
    rhs = draw(st.integers(0, max(0, (1 << m.rows) - 1)))
    return m, rhs


# ---------------------------------------------------------------- construction


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        F2Matrix(-1, 2, ())
    with pytest.raises(ValueError):
        F2Matrix(2, 2, (0,))
    with pytest.raises(ValueError):
        F2Matrix(1, 2, (4,))  # bit 2 is outside a 2-column row
    with pytest.raises(ValueError):
        F2Matrix(1, 2, (-1,))


def test_from_entries_packs_row_major():
    m = from_entries([[1, 0, 1], [0, 1, 0]], 2, 3)
    assert m.bits == (0b101, 0b010)
    assert m.entry(0, 2) == 1 and m.entry(1, 2) == 0
    with pytest.raises(ValueError):
        from_entries([[1]], 2, 1)


def test_stack():
    a = F2Matrix.from_rows([0b01, 0b10], 2)
    b = F2Matrix.from_rows([0b11, 0b00], 2)
    assert a.hstack(b).bits == (0b1101, 0b0010)
    assert a.vstack(b).bits == (0b01, 0b10, 0b11, 0b00)
    with pytest.raises(ValueError):
        a.hstack(F2Matrix.zero(3, 2))
    with pytest.raises(ValueError):
        a.vstack(F2Matrix.zero(2, 3))


# ---------------------------------------------------------------- products


@given(matrices(max_rows=5, max_cols=5), st.integers(0, 31))
def test_matvec_matches_entrywise(m, x):
    x &= (1 << m.cols) - 1
    assert m.matvec(x) == entrywise_matvec(m, x)


@given(st.data())
def test_mul_matches_entrywise(data):
    a = data.draw(matrices(max_rows=4, max_cols=4))
    k = a.cols
    rows_b = tuple(
        data.draw(st.integers(0, 7)) for _ in range(k)
    )
    b = F2Matrix(k, 3, rows_b)
    p = a.mul(b)
    for i in range(a.rows):
        for j in range(3):
            want = 0
            for t in range(k):
                want ^= a.entry(i, t) & b.entry(t, j)
            assert p.entry(i, j) == want


@given(matrices(max_rows=4, max_cols=4))
def test_mul_identity_and_transpose(m):
    assert m.mul(F2Matrix.identity(m.cols)) == m
    assert F2Matrix.identity(m.rows).mul(m) == m
    assert m.transpose().transpose() == m


@given(st.one_of(matrices(), wide_matrices()))
def test_transpose_matches_the_per_column_oracle(m):
    assert m.transpose() == per_column_transpose(m)


@given(st.data())
def test_transpose_antidistributes_over_mul(data):
    a = data.draw(matrices(max_rows=4, max_cols=4))
    b_rows = tuple(data.draw(st.integers(0, 15)) for _ in range(a.cols))
    b = F2Matrix(a.cols, 4, b_rows)
    assert a.mul(b).transpose() == b.transpose().mul(a.transpose())


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        F2Matrix.zero(2, 3).mul(F2Matrix.zero(2, 3))


# ---------------------------------------------------------------- rank


def test_rank_pinned_values():
    assert rank(F2Matrix.zero(3, 3)) == 0
    assert rank(F2Matrix.identity(4)) == 4
    assert rank(from_entries([[1, 1], [1, 1]], 2, 2)) == 1


@given(matrices())
def test_rank_is_log_of_row_span(m):
    span = span_closure(m.bits)
    assert len(span) == 1 << rank(m)


@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


def test_rank_transpose_at_width_64():
    rng = random.Random(0)
    m = F2Matrix.from_rows(
        [rng.getrandbits(64) for _ in range(64)], 64
    )
    assert rank(m) == rank(m.transpose())


# ---------------------------------------------------------------- solve


def test_solve_pinned_values():
    eye = F2Matrix.identity(4)
    for b in (0, 0b1010, 0b1111):
        assert solve(eye, b) == b
    zero = F2Matrix.zero(3, 2)
    assert solve(zero, 0) == 0
    assert solve(zero, 0b100) is None
    with pytest.raises(ValueError):
        solve(zero, 0b1000)  # four bits against three rows


@given(matrix_with_rhs())
def test_solve_agrees_with_exhaustive_search(mb):
    m, rhs = mb
    sols = all_solutions(m, rhs)
    x = solve(m, rhs)
    if sols:
        assert x is not None and entrywise_matvec(m, x) == rhs
    else:
        assert x is None


@given(matrix_with_rhs())
def test_solve_iff_rhs_in_column_span(mb):
    m, rhs = mb
    solvable = solve(m, rhs) is not None
    assert solvable == (rhs in span_closure([m.column(c) for c in range(m.cols)]))


# ---------------------------------------------------------------- kernel


def test_kernel_pinned_values():
    assert kernel_basis(F2Matrix.identity(3)) == []
    assert kernel_basis(F2Matrix.zero(4, 4)) == [1, 2, 4, 8]
    assert kernel_basis(F2Matrix.from_rows([0b11], 2)) == [0b11]


@given(matrices())
def test_kernel_spans_exactly_the_null_space(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    assert span_closure(basis) == set(all_solutions(m, 0))


# ---------------------------------------------------------------- span test


def test_in_span_pinned_values():
    assert in_span(0, [])
    assert in_span(1, [1])
    assert not in_span(1, [2])


@given(st.lists(st.integers(0, 63), max_size=6), st.integers(0, 63))
def test_in_span_matches_closure(basis, v):
    assert in_span(v, basis) == (v in span_closure(basis))


# ---------------------------------------------------------------- echelon


@given(st.lists(st.integers(0, 255), max_size=8))
def test_echelon_tracks_span(vectors):
    ech = Echelon()
    seen: list[int] = []
    for v in vectors:
        grew = ech.add(v)
        # The span grows exactly when v was outside it.
        assert grew == (v not in span_closure(seen))
        seen.append(v)
    span = span_closure(vectors)
    assert len(span) == 1 << len(ech)
    for v in range(256):
        assert ech.contains(v) == (v in span)
    assert span_closure(ech.basis()) == span


@given(st.lists(st.integers(0, 255), max_size=6))
def test_echelon_reinsertion_never_grows(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    n = len(ech)
    for v in vectors:
        assert not ech.add(v)
    assert len(ech) == n


@given(
    st.lists(st.integers(0, 255), max_size=6),
    st.integers(0, 255),
    st.integers(0, 255),
)
def test_reduce_full_is_linear_and_avoids_pivots(vectors, a, b):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    ra, rb = ech.reduce_full(a), ech.reduce_full(b)
    assert ech.reduce_full(a ^ b) == ra ^ rb
    for p in ech.pivots():
        assert not (ra >> p) & 1
    # Representatives differ from inputs by span members only.
    assert ech.contains(a ^ ra)
    assert ech.reduce_full(ra) == ra


# ---------------------------------------------------------------- expression


@given(st.lists(st.integers(0, 63), max_size=6), st.integers(0, 63))
def test_express_solver_recombines(gens, v):
    combo = ExpressSolver(gens).express(v)
    if v in span_closure(gens):
        assert combo is not None
        acc = 0
        for i, g in enumerate(gens):
            if (combo >> i) & 1:
                acc ^= g
        assert acc == v
    else:
        assert combo is None


def test_express_solver_tolerates_dependent_generators():
    combo = ExpressSolver([0b01, 0b01, 0b10]).express(0b11)
    assert combo is not None
    picked = [g for i, g in enumerate([0b01, 0b01, 0b10]) if (combo >> i) & 1]
    acc = 0
    for g in picked:
        acc ^= g
    assert acc == 0b11


# ---------------------------------------------------------------- oracles of record


@given(wide_matrices(), st.data())
def test_solve_matches_the_pivot_dict_elimination(m, data):
    x = data.draw(st.integers(0, (1 << m.cols) - 1))
    flip = data.draw(st.integers(0, (1 << m.rows) - 1))
    # consistent systems by construction, and perturbed ones
    for rhs in (m.matvec(x), m.matvec(x) ^ flip):
        assert solve(m, rhs) == pivot_dict_solve(m, rhs)


@given(wide_matrices())
def test_kernel_basis_matches_the_sorted_list_elimination(m):
    assert kernel_basis(m) == sorted_list_kernel(m)


@given(wide_matrices(), st.data())
def test_express_matches_the_pivot_dict_combinations(m, data):
    gens = list(m.bits)
    inside = sum_of(
        g for g in gens if data.draw(st.booleans())
    )
    outside = data.draw(st.integers(0, (1 << m.cols) - 1))
    ech = ExpressSolver(gens)
    for v in (inside, outside):
        assert ech.express(v) == pivot_dict_express(gens, v)
    assert ech.express(inside) is not None


# ---------------------------------------------------------------- quotient spaces


@given(wide_matrices(max_cols=80), st.data())
def test_quotient_space_coordinates(m, data):
    q = QuotientSpace(m.cols, m.bits)
    assert q.full_dim == m.cols
    assert q.dim == m.cols - rank(m)
    c = data.draw(st.integers(0, (1 << q.dim) - 1))
    assert q.coords(q.lift(c)) == c
    v = data.draw(st.integers(0, (1 << m.cols) - 1))
    # a vector and its canonical representative share coordinates
    assert q.lift(q.coords(v)) == q.reduce(v)


@given(wide_matrices(max_cols=80), st.data())
def test_quotient_space_reduce_is_linear_and_pivot_free(m, data):
    q = QuotientSpace(m.cols, m.bits)
    a = data.draw(st.integers(0, (1 << m.cols) - 1))
    b = data.draw(st.integers(0, (1 << m.cols) - 1))
    ra, rb = q.reduce(a), q.reduce(b)
    assert q.reduce(a ^ b) == ra ^ rb
    assert not any((ra >> p) & 1 for p in q.ech.pivots())
    assert in_span(a ^ ra, m.bits)
    assert q.reduce(sum_of(m.bits)) == 0
