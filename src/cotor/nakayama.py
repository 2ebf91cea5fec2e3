"""Stable module category backend over truncated cyclic quiver algebras.

The algebra with parameters (m, n) is the path algebra of the cyclic
quiver on m vertices over GF(2), modulo all paths of length n.  Its
finite-dimensional modules are direct sums of uniserials M(i, l) with
top vertex i and length 1 <= l <= n; the l = n ones are projective and
injective, and the stable category obtained by killing them is
triangulated with the cosyzygy functor as shift.

Nothing in this backend trusts a closed formula.  Hom spaces are
computed as spaces of raw module maps and then reduced modulo the
subspace of maps factoring through projectives; cones are computed by
pushing out along injective envelopes (per vertex an
``f2.QuotientSpace`` of the target plus the envelope by the graph of
the map) and deleting projective summands.  A module splits into
uniserials along one basis of Jordan chains of its arrow action
(``split_module``).  ``cone_obj`` reads only the cone's object, with no
cone module, by the masked-rank count (``_cone_counts``): the path
ranks of the cone, read off the graph of the map with the slots each
path reaches cleared, then inclusion-exclusion.  ``cone`` builds the
full triangle and checks its split against that count.  The
shift Sigma, on objects and on maps, is read off one way
(``_envelope``): the layers of the envelope that the module does not
occupy form the cosyzygy.  Omega on maps is solved from Sigma by the
backend base.
Closed-form expectations (such as the min-formula for one-vertex Hom
dimensions) live in the test suite as oracles, not here.

Determinism: all bases are built in a fixed order at construction
time, so equal parameters give identical coordinates, tables, and
enumeration orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    Backend,
    BudgetExceeded,
    Indec,
    InputError,
    InternalCheckError,
    MAX_NAKAYAMA_INDECS,
    Mor,
    Obj,
    Tri,
    _slot_assignment,
    multisets_over,
    stored,
)
from .f2 import (
    Echelon, ExpressSolver, F2Matrix, QuotientSpace, kernel_basis, solve
)


@dataclass(frozen=True, slots=True)
class RawModule:
    """Quiver representation: per-vertex dimensions plus arrow matrices.

    ``mats[v]`` maps vertex v to vertex (v+1) mod m and has shape
    (dims[v+1], dims[v]) in the column-vector convention.  Composites
    of n consecutive arrows must vanish; the backend checks this where
    modules are constructed.
    """

    m: int
    n: int
    dims: tuple[int, ...]
    mats: tuple[F2Matrix, ...]

    def total_dim(self) -> int:
        return sum(self.dims)


@dataclass
class _Assembled:
    """Direct sum of uniserials with slot bookkeeping.

    ``types`` lists (top vertex, length) per summand, ``pos[s][t]`` is
    the (vertex, slot) of layer t of summand s, and ``raw`` is the
    resulting representation.  Slots at each vertex are assigned in
    summand order, then layer order, so summand s holds the consecutive
    slots from ``start[s][v]`` at vertex v, in the order of its own
    assembly.
    """

    types: tuple[tuple[int, int], ...]
    raw: RawModule
    pos: list[list[tuple[int, int]]]
    start: list[tuple[int, ...]]


def _assemble(m: int, n: int, types: Sequence[tuple[int, int]]) -> _Assembled:
    dims = [0] * m
    pos: list[list[tuple[int, int]]] = []
    start: list[tuple[int, ...]] = []
    for (i, l) in types:
        start.append(tuple(dims))
        p = []
        for t in range(l):
            v = (i + t) % m
            p.append((v, dims[v]))
            dims[v] += 1
        pos.append(p)
    mats = []
    for v in range(m):
        entries = [0] * dims[(v + 1) % m]
        mats.append(entries)
    for s, (i, l) in enumerate(types):
        for t in range(l - 1):
            v, c = pos[s][t]
            v2, r = pos[s][t + 1]
            if v2 != (v + 1) % m:
                raise InternalCheckError("layer vertices out of order")
            mats[v][r] |= 1 << c
    packed = tuple(
        F2Matrix(dims[(v + 1) % m], dims[v], tuple(mats[v])) for v in range(m)
    )
    return _Assembled(tuple(types), RawModule(m, n, tuple(dims), packed), pos, start)


# ----------------------------------------------------------------------
# Raw Hom spaces


def _hom_flat_layout(a: RawModule, b: RawModule) -> tuple[list[int], int]:
    base = []
    off = 0
    for v in range(a.m):
        base.append(off)
        off += b.dims[v] * a.dims[v]
    return base, off


def _commutation_rows(
    a: RawModule, b: RawModule
) -> tuple[list[int], int, list[int]]:
    """Commuting-square system of module maps a -> b.

    Returns the flat layout (vertex bases, total width) and the nonzero
    rows of b.mats[v] @ phi_v + phi_w @ a.mats[v] = 0, by vertex v,
    then row r of the w block, then column c of the v block.  Flat
    layout: vertex-major, then row-major entries of the per-vertex
    matrix (shape (b.dims[v], a.dims[v])).
    """
    base, total = _hom_flat_layout(a, b)
    m = a.m
    rows: list[int] = []
    for v in range(m):
        w = (v + 1) % m
        stride = a.dims[v]
        if not (stride and b.dims[w]):
            continue
        # Row r of b.mats[v] touches the entries (k, c) of phi_v for its
        # set bits k; spread it once so that column c is one shift.
        spread = []
        for bmask in b.mats[v].bits:
            acc = 0
            while bmask:
                low = bmask & -bmask
                acc |= 1 << ((low.bit_length() - 1) * stride)
                bmask ^= low
            spread.append(acc)
        acols = [0] * stride
        for k, amask in enumerate(a.mats[v].bits):
            while amask:
                low = amask & -amask
                acols[low.bit_length() - 1] |= 1 << k
                amask ^= low
        for r in range(b.dims[w]):
            # entry (r, c) of b.mats[v] @ phi_v + phi_w @ a.mats[v]
            lhs = spread[r] << base[v]
            rhs_at = base[w] + r * a.dims[w]
            for c in range(stride):
                row = (lhs << c) ^ (acols[c] << rhs_at)
                if row:
                    rows.append(row)
    return base, total, rows


def _hom_basis_raw(a: RawModule, b: RawModule) -> list[int]:
    """Flat basis of module maps a -> b."""
    _, total, rows = _commutation_rows(a, b)
    return kernel_basis(F2Matrix.from_rows(rows, total)) if total else []


def _solve_module_map(
    a: RawModule, b: RawModule, interp
) -> Optional[tuple[F2Matrix, ...]]:
    """Module map a -> b with prescribed values, or None.

    Each ``interp`` entry (vertex v, source vector x, target vector y)
    pins phi_v(x) = y, with x over a.dims[v] and y over b.dims[v].
    """
    base, total, rows = _commutation_rows(a, b)
    rhs = 0
    for v, src, tgt in interp:
        at, stride = base[v], a.dims[v]
        for r in range(b.dims[v]):
            rhs |= ((tgt >> r) & 1) << len(rows)
            rows.append(src << (at + r * stride))
    flat = solve(F2Matrix.from_rows(rows, total), rhs)
    if flat is None:
        return None
    return _unflatten(a, b, flat)


def _unflatten(a: RawModule, b: RawModule, flat: int) -> tuple[F2Matrix, ...]:
    base, _ = _hom_flat_layout(a, b)
    out = []
    for v in range(a.m):
        bits = []
        for r in range(b.dims[v]):
            row = 0
            for c in range(a.dims[v]):
                if (flat >> (base[v] + r * a.dims[v] + c)) & 1:
                    row |= 1 << c
            bits.append(row)
        out.append(F2Matrix(b.dims[v], a.dims[v], tuple(bits)))
    return tuple(out)


def _flatten(a: RawModule, b: RawModule, mats: Sequence[F2Matrix]) -> int:
    base, _ = _hom_flat_layout(a, b)
    flat = 0
    for v in range(a.m):
        for r in range(b.dims[v]):
            row = mats[v].bits[r]
            while row:
                c = (row & -row).bit_length() - 1
                flat |= 1 << (base[v] + r * a.dims[v] + c)
                row &= row - 1
    return flat


def _compose_raw(
    phi: Sequence[F2Matrix], psi: Sequence[F2Matrix]
) -> tuple[F2Matrix, ...]:
    """psi after phi, per vertex."""
    return tuple(p.mul(q) for q, p in zip(phi, psi))


# ----------------------------------------------------------------------
# Backend


@dataclass(frozen=True, slots=True)
class _PairTable:
    """Frozen stable Hom data for one ordered pair of indecomposables."""

    dim: int
    reps_flat: tuple[int, ...]
    reps_mats: tuple[tuple[F2Matrix, ...], ...]
    factoring_flat: tuple[int, ...]
    full_dim: int


class NakayamaBackend(Backend):
    """Morphism-level triangulated backend with exact cones."""

    exact_triangles = True

    def __init__(self, m: int, n: int):
        """The algebra on m vertices whose paths of length n vanish."""
        if m < 1:
            raise InputError("m must be at least 1")
        if n < 2:
            raise InputError("n must be at least 2")
        self.m, self.n = m, n
        count = m * (n - 1)
        if count > MAX_NAKAYAMA_INDECS:
            raise InputError(
                f"nakayama:m={m},n={n} has {count} indecomposables, "
                f"above the cap {MAX_NAKAYAMA_INDECS}"
            )
        self.spec_string = f"nakayama:m={m},n={n}"
        self._indecs = tuple(
            Indec(i * (n - 1) + (l - 1), f"M({i},{l})")
            for i in range(m)
            for l in range(1, n)
        )
        self._types = tuple((i, l) for i in range(m) for l in range(1, n))
        self._single = [self._asm((t,)) for t in self._types]
        self._proj = [self._asm(((v, n),)) for v in range(m)]
        self._pairs = self._build_pair_tables()
        self._id_coords = self._build_identity_coords()
        self._sc = self._build_structure_constants()
        self._shift_fwd = self._build_shift_perm()
        self._shift_bwd = tuple(
            self._shift_fwd.index(i) for i in range(len(self._indecs))
        )

    # -- construction helpers -------------------------------------------

    @stored()
    def _asm(self, types: tuple[tuple[int, int], ...]) -> _Assembled:
        return _assemble(self.m, self.n, types)

    def _id_of_type(self, t: tuple[int, int]) -> int:
        i, l = t
        if not (0 <= i < self.m and 1 <= l < self.n):
            raise InternalCheckError(f"not a stable type: {t}")
        return i * (self.n - 1) + (l - 1)

    def _build_pair_tables(self) -> dict[tuple[int, int], _PairTable]:
        out: dict[tuple[int, int], _PairTable] = {}

        def maps(src: RawModule, dst: RawModule) -> list[tuple[F2Matrix, ...]]:
            return [_unflatten(src, dst, v) for v in _hom_basis_raw(src, dst)]

        into = [[maps(a.raw, p.raw) for p in self._proj] for a in self._single]
        outof = [[maps(p.raw, b.raw) for b in self._single] for p in self._proj]
        for a_id, a in enumerate(self._single):
            for b_id, b in enumerate(self._single):
                full = _hom_basis_raw(a.raw, b.raw)
                fact: list[int] = []
                ech = Echelon()
                for p_id in range(len(self._proj)):
                    for fmats in into[a_id][p_id]:
                        for gmats in outof[p_id][b_id]:
                            prod = _flatten(a.raw, b.raw, _compose_raw(fmats, gmats))
                            if ech.add(prod):
                                fact.append(prod)
                # ech spans exactly the factoring maps now
                reps = [v for v in full if ech.add(v)]
                out[(a_id, b_id)] = _PairTable(
                    dim=len(reps),
                    reps_flat=tuple(reps),
                    reps_mats=tuple(_unflatten(a.raw, b.raw, v) for v in reps),
                    factoring_flat=tuple(fact),
                    full_dim=len(full),
                )
        self._pair_solvers = {
            key: ExpressSolver(t.reps_flat + t.factoring_flat)
            for key, t in out.items()
        }
        return out

    def _express_pair(self, a_id: int, b_id: int, flat: int) -> int:
        """Stable coordinates of a raw map between single uniserials."""
        table = self._pairs[(a_id, b_id)]
        combo = self._pair_solvers[(a_id, b_id)].express(flat)
        if combo is None:
            raise InternalCheckError("raw map is not a module map")
        return combo & ((1 << table.dim) - 1)

    def _build_identity_coords(self) -> tuple[int, ...]:
        out = []
        for a_id, a in enumerate(self._single):
            ident = tuple(F2Matrix.identity(d) for d in a.raw.dims)
            out.append(self._express_pair(a_id, a_id, _flatten(a.raw, a.raw, ident)))
        return tuple(out)

    def _build_structure_constants(self):
        sc: dict[tuple[int, int, int], list[list[int]]] = {}
        K = len(self._indecs)
        for a in range(K):
            for b in range(K):
                ta = self._pairs[(a, b)]
                if ta.dim == 0:
                    continue
                for c in range(K):
                    tb = self._pairs[(b, c)]
                    if tb.dim == 0:
                        continue
                    rows = []
                    for p in range(ta.dim):
                        row = []
                        for q in range(tb.dim):
                            prod = _compose_raw(ta.reps_mats[p], tb.reps_mats[q])
                            flat = _flatten(
                                self._single[a].raw, self._single[c].raw, prod
                            )
                            row.append(self._express_pair(a, c, flat))
                        rows.append(row)
                    sc[(a, b, c)] = rows
        return sc

    def _build_shift_perm(self) -> tuple[int, ...]:
        """Cosyzygy on indecomposables, checked on envelope cokernels:
        the cone of x -> 0 is the envelope of x modulo x."""
        perm = []
        for i, single in enumerate(self._single):
            (j,) = self._envelope(single)[2].summands
            if self._cone_counts(Mor(Obj.of(i), Obj.zero())) != {self._types[j]: 1}:
                raise InternalCheckError("envelope cokernel is not the cosyzygy")
            perm.append(j)
        if sorted(perm) != list(range(len(self._types))):
            raise InternalCheckError("cosyzygy is not a permutation")
        return tuple(perm)

    # -- object layer ----------------------------------------------------

    @property
    def indecs(self) -> tuple[Indec, ...]:
        return self._indecs

    def shift_id(self, i: int, k: int = 1) -> int:
        perm = self._shift_fwd if k >= 0 else self._shift_bwd
        for _ in range(abs(k)):
            i = perm[i]
        return i

    def ext_incidence(self, i: int, j: int) -> bool:
        return self.hom_dim_pair(i, self.shift_id(j, 1)) > 0

    # -- morphism layer ----------------------------------------------------

    def hom_dim_pair(self, i: int, j: int) -> int:
        return self._pairs[(i, j)].dim

    def identity(self, x: Obj) -> Mor:
        coords = 0
        for p, q, off, d in self.block_layout(x, x):
            if p == q:
                coords |= self._id_coords[x.summands[p]] << off
        return Mor(x, x, coords)

    def compose(self, f: Mor, g: Mor) -> Mor:
        if f.dst != g.src:
            raise InputError("compose endpoints do not chain")
        x, y, z = f.src, f.dst, g.dst
        out = 0
        f_layout = self.block_layout(x, y)
        g_layout = {(p, q): (off, d) for p, q, off, d in self.block_layout(y, z)}
        o_layout = {(p, q): (off, d) for p, q, off, d in self.block_layout(x, z)}
        for p, j, foff, fd in f_layout:
            fblock = (f.coords >> foff) & ((1 << fd) - 1)
            if not fblock:
                continue
            a = x.summands[p]
            b = y.summands[j]
            for q, c in enumerate(z.summands):
                goff, gd = g_layout[(j, q)]
                gblock = (g.coords >> goff) & ((1 << gd) - 1)
                if not gblock:
                    continue
                sc = self._sc.get((a, b, c))
                if sc is None:
                    continue
                acc = 0
                fb = fblock
                while fb:
                    pbit = (fb & -fb).bit_length() - 1
                    gb = gblock
                    while gb:
                        qbit = (gb & -gb).bit_length() - 1
                        acc ^= sc[pbit][qbit]
                        gb &= gb - 1
                    fb &= fb - 1
                if acc:
                    ooff, od = o_layout[(p, q)]
                    out ^= acc << ooff
        return Mor(x, z, out)

    # -- raw/coordinate conversion -----------------------------------------

    def _obj_types(self, x: Obj) -> tuple[tuple[int, int], ...]:
        return tuple(self._types[i] for i in x.summands)

    def _assembled(self, x: Obj) -> _Assembled:
        return self._asm(self._obj_types(x))

    def _raw_from_mor(self, f: Mor) -> list[F2Matrix]:
        a = self._assembled(f.src)
        b = self._assembled(f.dst)
        rows = [[0] * d for d in b.raw.dims]
        for p, q, off, d in self.block_layout(f.src, f.dst):
            block = (f.coords >> off) & ((1 << d) - 1)
            reps = self._pairs[(f.src.summands[p], f.dst.summands[q])].reps_mats
            while block:
                t = (block & -block).bit_length() - 1
                for v, rep in enumerate(reps[t]):
                    r0, c0 = b.start[q][v], a.start[p][v]
                    for r, row in enumerate(rep.bits):
                        rows[v][r0 + r] ^= row << c0
                block &= block - 1
        return [
            F2Matrix(b.raw.dims[v], a.raw.dims[v], tuple(rows[v]))
            for v in range(self.m)
        ]

    def _express_raw(
        self, src: Obj, dst: Obj, mats: Sequence[F2Matrix]
    ) -> Mor:
        a = self._assembled(src)
        b = self._assembled(dst)
        coords = 0
        for p, q, off, d in self.block_layout(src, dst):
            asrc = self._single[src.summands[p]].raw
            bdst = self._single[dst.summands[q]].raw
            base, _ = _hom_flat_layout(asrc, bdst)
            flat = 0
            for v in range(self.m):
                w, r0, c0 = asrc.dims[v], b.start[q][v], a.start[p][v]
                for r in range(bdst.dims[v]):
                    row = (mats[v].bits[r0 + r] >> c0) & ((1 << w) - 1)
                    flat |= row << (base[v] + r * w)
            block = self._express_pair(src.summands[p], dst.summands[q], flat)
            coords |= block << off
        return Mor(src, dst, coords)

    # -- envelopes, shift on morphisms --------------------------------------

    @stored(key=lambda a: a.types)
    def _envelope(self, a: _Assembled):
        """Injective envelope of a, and a's cosyzygy in it.

        Layer t of a summand (i, l) of a is layer t + n - l of its
        envelope; the other n - l layers form its cosyzygy.  Returns the
        assembled envelope E, the embedding a -> E as, per vertex, the
        slot of E that each slot of a goes to, the shifted object and,
        per vertex, a dict from each cosyzygy slot of E to its slot in
        the assembly of the shifted object.
        """
        m, n = self.m, self.n
        env = self._asm(tuple(((i + l - n) % m, n) for (i, l) in a.types))
        emb = [[0] * d for d in a.raw.dims]
        for s, (i, l) in enumerate(a.types):
            for t in range(l):
                v, ca = a.pos[s][t]
                v2, ce = env.pos[s][t + n - l]
                if v2 != v:
                    raise InternalCheckError("envelope misaligned")
                emb[v][ca] = ce
        ids = [
            self._id_of_type((env.pos[s][0][0], n - l))
            for s, (i, l) in enumerate(a.types)
        ]
        shifted = Obj.from_iter(ids)
        place = _slot_assignment(shifted, [Obj.of(i) for i in ids])
        sasm = self._assembled(shifted)
        slots: list[dict[int, int]] = [{} for _ in range(m)]
        for s, (i, l) in enumerate(a.types):
            for t in range(n - l):
                v, eslot = env.pos[s][t]
                v1, slot = sasm.pos[place[s][0]][t]
                if v1 != v:
                    raise InternalCheckError("shift slot misaligned")
                slots[v][eslot] = slot
        return env, tuple(map(tuple, emb)), shifted, slots

    @stored(key=lambda f: (f.src, f.dst, f.coords))
    def suspend(self, f: Mor) -> Mor:
        """Sigma on a map: the lift phi of f between envelopes, with
        phi iota_a = iota_b f, read on the cosyzygies."""
        if f.src.is_zero or f.dst.is_zero or f.is_zero:
            return Mor(self.shift_obj(f.src, 1), self.shift_obj(f.dst, 1), 0)
        a = self._assembled(f.src)
        b = self._assembled(f.dst)
        pa, ea, src1, slots_a = self._envelope(a)
        pb, eb, dst1, slots_b = self._envelope(b)
        fraw = self._raw_from_mor(f)
        interp = []
        for v, fv in enumerate(fraw):
            for c in range(fv.cols):
                img = sum(1 << e for r, e in enumerate(eb[v]) if fv.bits[r] >> c & 1)
                interp.append((v, 1 << ea[v][c], img))
        phi = _solve_module_map(pa.raw, pb.raw, interp)
        if phi is None:
            raise InternalCheckError("envelope lift failed")
        mats = []
        for v in range(self.m):
            cols = [0] * len(slots_a[v])
            for pslot, c in slots_a[v].items():
                cols[c] = _read_shift(phi[v].column(pslot), slots_b[v])
            mats.append(F2Matrix.from_rows(cols, len(slots_b[v])).transpose())
        return self._express_raw(src1, dst1, mats)

    # -- cones ----------------------------------------------------------------

    @stored(key=lambda f: (f.src, f.dst, f.coords))
    def cone_obj(self, f: Mor) -> Obj:
        """The third object of ``cone(f)``, by the masked-rank count
        (``_cone_counts``): no cone module, splitting or triangle maps."""
        counts = self._cone_counts(f)
        types = [t for t, c in counts.items() for _ in range(c)]
        return Obj.from_iter(self._id_of_type(t) for t in types if t[1] < self.n)

    def _graph(self, f: Mor):
        """The assemblies of Y = f.dst and of the envelope E of X = f.src,
        and per vertex the columns of the graph [f; iota] in Y (+) E,
        checked independent."""
        a, b = self._assembled(f.src), self._assembled(f.dst)
        env, emb, _, _ = self._envelope(a)
        fraw = self._raw_from_mor(f)
        graph = []
        for v, (fv, ev) in enumerate(zip(fraw, emb)):
            ydim = b.raw.dims[v]
            cols = [fv.column(c) | 1 << (ydim + ev[c]) for c in range(fv.cols)]
            if len(Echelon(cols)) != len(cols):
                raise InternalCheckError("graph embedding not injective")
            graph.append(cols)
        return b, env, graph

    def _cone_counts(self, f: Mor) -> dict[tuple[int, int], int]:
        """Uniserial multiplicities of the cone module of f, read off the
        graph of f.  In the chain basis of Y (+) E a path of t arrows
        from vertex j sends slots to slots, onto the slots at v = j + t
        of layer >= t; on the cone its rank is their number plus the
        rank of the graph columns at v with them cleared, minus dim X_v."""
        b, env, graph = self._graph(f)
        m, n = self.m, self.n
        # layer[v][t]: the slots of Y (+) E at v of layer t
        layer = [[0] * n for _ in range(m)]
        for asm, off in ((b, (0,) * m), (env, b.raw.dims)):
            for chain in asm.pos:
                for t, (v, slot) in enumerate(chain):
                    layer[v][t] |= 1 << (slot + off[v])
        # rp[n] = rp[n+1] = 0: no slot is n deep, the graph is independent
        rp = [[0] * m for _ in range(n + 2)]
        for v, cols in enumerate(graph):
            keep, r = 0, len(cols)
            for t in range(n - 1, -1, -1):
                if layer[v][t]:
                    keep |= layer[v][t]
                    r = len(Echelon(g & ~keep for g in cols))
                rp[t][(v - t) % m] = keep.bit_count() + r - len(cols)
        total = b.raw.total_dim() + env.raw.total_dim() - sum(map(len, graph))
        return uniserial_counts(rp, m, n, total)

    def _cone_module(self, f: Mor):
        """Pushout of f along the envelope X -> E: per vertex, Y (+) E
        modulo the columns of [f; iota].  Returns those quotient spaces,
        the cone module, X[1] and the envelope's cosyzygy slots."""
        b, env, graph = self._graph(f)
        _, _, x1, slots = self._envelope(self._assembled(f.src))
        m = self.m
        ydims = b.raw.dims
        quots = [
            QuotientSpace(ydims[v] + env.raw.dims[v], cols)
            for v, cols in enumerate(graph)
        ]
        cdims = [q.dim for q in quots]
        cone_mats = []
        for v in range(m):
            w = (v + 1) % m
            cols = []
            for cc in range(cdims[v]):
                vec = quots[v].lift(1 << cc)
                yv = vec & ((1 << ydims[v]) - 1)
                ev = vec >> ydims[v]
                img = b.raw.mats[v].matvec(yv) | env.raw.mats[v].matvec(ev) << ydims[w]
                cols.append(quots[w].coords(img))
            cone_mats.append(F2Matrix.from_rows(cols, cdims[w]).transpose())
        cone_raw = RawModule(m, self.n, tuple(cdims), tuple(cone_mats))
        return quots, cone_raw, x1, slots

    @stored(key=lambda f: (f.src, f.dst, f.coords))
    def cone(self, f: Mor) -> Tri:
        """Triangle X -> Y -> C -> X[1] by envelope pushout on f."""
        y = f.dst
        quots, cone_raw, x1, slots = self._cone_module(f)
        m = self.m
        ydims = self._assembled(y).raw.dims
        types, to_canon, from_canon = split_module(cone_raw)
        c_obj = Obj.from_iter(self._id_of_type(t) for t in types if t[1] < self.n)
        # two routes to the object: the split and the masked-rank count
        if self.cone_obj(f) != c_obj:
            raise InternalCheckError("cone split and rank count disagree")
        # the split's first coordinates at each vertex are the stable ones
        keep = self._assembled(c_obj).raw.dims

        # g : Y -> C, the pushout inclusion in stable coordinates
        g_mats = [
            F2Matrix.from_rows(
                [to_canon[v].matvec(quots[v].coords(1 << c)) & ((1 << keep[v]) - 1)
                 for c in range(ydims[v])],
                keep[v],
            ).transpose()
            for v in range(m)
        ]
        g = self._express_raw(y, c_obj, g_mats)

        # h : C -> X[1], envelope cokernel coordinates of the lift
        h_mats = [
            F2Matrix.from_rows(
                [_read_shift(quots[v].lift(from_canon[v].column(cc))
                             >> ydims[v], slots[v])
                 for cc in range(keep[v])],
                len(slots[v]),
            ).transpose()
            for v in range(m)
        ]
        h = self._express_raw(c_obj, x1, h_mats)

        tri = Tri(f, g, h)
        self._check_triangle(tri)
        return tri

    def _check_triangle(self, tri: Tri) -> None:
        gf = self.compose(tri.f, tri.g)
        if not gf.is_zero:
            raise InternalCheckError("triangle composite g o f is nonzero")
        hg = self.compose(tri.g, tri.h)
        if not hg.is_zero:
            raise InternalCheckError("triangle composite h o g is nonzero")

    # -- enumeration ------------------------------------------------------------

    def triangle_enumerate(
        self,
        xset: Iterable[int],
        yset: Iterable[int],
        c: Obj,
        cap: int = 4,
        budget: Optional[int] = None,
    ) -> Iterator[Tri]:
        """Triangles A -> C -> B -> A[1] with A in add(xset), B in add(yset).

        Ends carry at most ``cap`` summands each.  Connecting maps are
        enumerated densely (no summand of either end may pair by zero
        with the whole other end); split summands of C are peeled off
        separately, which together is exhaustive for the capped ends.
        No path in the package calls it: the tests use it as the oracle
        of the approximation triangles and the peel, and it stays here
        because the benchmark's layer tracer binds it by name.

        The search scans every connecting map y1[-1] -> x1 of each end
        pair (x1, y1) that has a dense one (``_dense_ends``), by ascending
        coordinates, and yields a triangle for each dense map whose cone
        is the core.  Each yielded triangle is stored per (connecting map,
        split) (``_sum_tri``), so all searches share one ``Tri``.  The
        budget counts units in walk order: one per split triangle and one
        per nonzero connecting map, dense or not.  BudgetExceeded is raised
        at the first unit past the budget.
        """
        xset, yset = tuple(sorted(set(xset))), tuple(sorted(set(yset)))
        left = budget if budget is not None else 1 << 62
        for xtra, ytra, core in _splits_3way(c, xset, yset):
            if core.is_zero and len(xtra) <= cap and len(ytra) <= cap:
                if left < 1:
                    raise BudgetExceeded("triangle enumeration budget exhausted")
                left -= 1
                yield self._sum_tri(None, xtra, ytra)
            for sx in range(1, cap - len(xtra) + 1):
                for sy in range(1, cap - len(ytra) + 1):
                    for x1, y1m, masks, span in self._dense_ends(xset, yset, sx, sy):
                        # the map at coordinate k is the k-th unit
                        for coords in range(1, min(span, left) + 1):
                            if all(map(coords.__and__, masks)):
                                delta = Mor(y1m, x1, coords)
                                if self.cone_obj(delta) == core:
                                    yield self._sum_tri(delta, xtra, ytra)
                        if span > left:
                            raise BudgetExceeded(
                                "triangle enumeration budget exhausted"
                            )
                        left -= span

    def _dense_ends(
        self, xset: tuple[int, ...], yset: tuple[int, ...], sx: int, sy: int
    ) -> Iterator[tuple[Obj, Obj, list[int], int]]:
        """The end pairs (x1, y1[-1]) with |x1| = sx over xset and |y1| = sy
        over yset that have a dense map, x1-major in multiset order, each
        with the masks of the blocks out of each summand of y1[-1], then
        into each summand of x1, and its number of nonzero maps.  A map is
        dense when it meets every mask, so each summand of either end must
        reach the other end; the Hom masks drop the other pairs before
        their blocks are laid out."""
        out, into = self.hom_masks()[:2]
        down = {j: self.shift_id(j, -1) for j in yset}
        for x1 in multisets_over(xset, sx):
            xbits = sum(1 << i for i in set(x1))
            near = [j for j in yset if out[down[j]] & xbits]
            x1_obj = Obj(x1)
            for y1 in multisets_over(near, sy):
                ybits = sum(1 << down[j] for j in set(y1))
                if not all(into[i] & ybits for i in x1):
                    continue
                y1m = Obj.from_iter(down[j] for j in y1)
                masks = [0] * (sy + sx)
                d = 0
                for p, q, off, bd in self.block_layout(y1m, x1_obj):
                    mask = ((1 << bd) - 1) << off
                    masks[p] |= mask
                    masks[sy + q] |= mask
                    d += bd
                yield x1_obj, y1m, masks, (1 << d) - 1

    @stored()
    def _sum_tri(self, delta: Optional[Mor], xtra: Obj, ytra: Obj) -> Tri:
        """The triangle a search yields, checked once: the left rotation
        of the cone of the connecting map ``delta`` (none for a zero
        core), then the split triangles x = x -> 0 -> x[1] of xtra's
        summands and 0 -> y = y -> 0 of ytra's, summed in that order."""
        parts = [] if delta is None else [self.rotate_left(self.cone(delta))]
        zero = Obj.zero()
        for i in xtra.summands:
            x = Obj.of(i)
            parts.append(
                Tri(self.identity(x), Mor(x, zero), Mor(zero, self.shift_obj(x, 1)))
            )
        for j in ytra.summands:
            y = Obj.of(j)
            parts.append(Tri(Mor(zero, y), self.identity(y), Mor(y, zero)))
        tri = self.direct_sum_tri(parts)
        self._check_triangle(tri)
        return tri

    # -- tables ------------------------------------------------------------------

    def stable_hom_table(self) -> dict:
        """Published stable Hom dimensions and factoring data."""
        dims = {}
        factoring = {}
        for (a, b), t in self._pairs.items():
            dims[(self.label_of(a), self.label_of(b))] = t.dim
            factoring[(self.label_of(a), self.label_of(b))] = {
                "full_dim": t.full_dim,
                "factoring_dim": t.full_dim - t.dim,
                "factoring_basis": list(t.factoring_flat),
            }
        return {"dims": dims, "factoring": factoring}


# ----------------------------------------------------------------------
# Decomposition of raw modules


def _path_tower(raw: RawModule) -> list[list[F2Matrix]]:
    """comp[t][j] is the composite of t arrows from vertex j, t = 0..n+1."""
    m = raw.m
    comp: list[list[F2Matrix]] = [[F2Matrix.identity(d) for d in raw.dims]]
    for t in range(1, raw.n + 2):
        prev = comp[t - 1]
        comp.append([raw.mats[(j + t - 1) % m].mul(prev[j]) for j in range(m)])
    return comp


def uniserial_counts(rp: list[list[int]], m: int, n: int, total: int) -> dict:
    """Multiplicity of every uniserial via rank inclusion-exclusion.

    ``rp[t][i]`` is the rank of the composite of t arrows starting at
    vertex i, t = 0..n+1, on a module of dimension ``total``: the
    number of basis chains still alive after t steps.  Differencing
    those ranks in both the start vertex and the length isolates the
    chains of one exact shape.
    """
    if any(rp[n][j] for j in range(m)):
        raise InternalCheckError("length-n paths act nonzero")
    out: dict[tuple[int, int], int] = {}
    for i in range(m):
        for l in range(1, n + 1):
            val = (
                rp[l - 1][i]
                - rp[l][i]
                - rp[l][(i - 1) % m]
                + rp[l + 1][(i - 1) % m]
            )
            if val < 0:
                raise InternalCheckError("negative multiplicity")
            if val:
                out[(i, l)] = val
    if sum(l * c for (i, l), c in out.items()) != total:
        raise InternalCheckError("decomposition does not preserve dimension")
    return out


def split_module(raw: RawModule):
    """Explicit direct-sum decomposition with both transport maps.

    Returns (types, to_canon, from_canon): the uniserial types of
    ``raw``, non-projective first and sorted within each part, and
    mutually inverse per-vertex matrices between ``raw`` and the
    assembly of ``types``.  The columns of from_canon are Jordan chains
    x, Ax, ..., A^(l-1) x of the arrow action A.  The generators of
    length l at vertex j span a complement of ker A^(l-1) + A ker A^(l+1)
    inside ker A^l there; chains grown from any such complements form a
    basis, so to_canon is one inversion and nothing is solved per
    summand.
    """
    m, n = raw.m, raw.n
    kers = [[kernel_basis(c) for c in layer] for layer in _path_tower(raw)]
    gens: list[tuple[tuple[int, int], int]] = []
    for j in range(m):
        i = (j - 1) % m
        for l in range(1, n + 1):
            ech = Echelon(kers[l - 1][j])
            for x in kers[l + 1][i]:
                ech.add(raw.mats[i].matvec(x))
            gens.extend(((j, l), x) for x in kers[l][j] if ech.add(x))
    gens.sort(key=lambda g: (g[0][1] == n, g[0]))
    types = tuple(t for t, _ in gens)
    asm = _assemble(m, n, types)
    if asm.raw.dims != raw.dims:
        raise InternalCheckError("Jordan chains do not fill the module")
    cols: list[list[int]] = [[0] * d for d in raw.dims]
    for s, (_t, x) in enumerate(gens):
        for v, slot in asm.pos[s]:
            cols[v][slot] = x
            x = raw.mats[v].matvec(x)
    to_canon, from_canon = [], []
    for v, d in enumerate(raw.dims):
        solver = ExpressSolver(cols[v])
        inv = [solver.express(1 << r) for r in range(d)]
        if None in inv:
            raise InternalCheckError("Jordan chains are not a basis")
        to_canon.append(F2Matrix.from_rows(inv, d).transpose())
        from_canon.append(F2Matrix.from_rows(cols[v], d).transpose())
    return types, to_canon, from_canon


def _read_shift(vec: int, slots: dict[int, int]) -> int:
    """Shifted-object coordinates of a vector over envelope slots.

    Bits outside the cosyzygy slots are dropped: they lie in the image
    of the module, which the cokernel kills.
    """
    out = 0
    while vec:
        r = (vec & -vec).bit_length() - 1
        vec &= vec - 1
        if r in slots:
            out |= 1 << slots[r]
    return out


def _splits_3way(c: Obj, xset: Sequence[int], yset: Sequence[int]):
    """All (x-part, y-part, core) multiset splits of c: per indecomposable
    of c, ascending, every (x-count, y-count) with the x-count slower,
    the first indecomposable slowest of all."""
    choices = [
        [
            ((ind,) * kx, (ind,) * ky, (ind,) * (cnt - kx - ky))
            for kx in range(cnt + 1 if ind in xset else 1)
            for ky in range(cnt - kx + 1 if ind in yset else 1)
        ]
        for ind, cnt in sorted(c.counts().items())
    ]
    for pick in itertools.product(*choices):
        yield tuple(Obj(sum((part[k] for part in pick), ())) for k in range(3))


def parse_spec(spec: str) -> NakayamaBackend:
    """Build a backend from a string like ``nakayama:m=2,n=2``."""
    prefix = "nakayama:"
    if not spec.startswith(prefix):
        raise InputError(f"not a nakayama spec: {spec!r}")
    body = spec[len(prefix):]
    params = {}
    for part in body.split(","):
        if "=" not in part:
            raise InputError(f"bad nakayama parameter {part!r}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in params:
            raise InputError(f"repeated nakayama parameter {k!r}")
        try:
            params[k] = int(v)
        except ValueError as exc:
            raise InputError(f"bad nakayama parameter {part!r}") from exc
    if set(params) != {"m", "n"}:
        raise InputError("nakayama spec needs exactly m and n")
    return NakayamaBackend(params["m"], params["n"])
