"""Raw maps between direct sums, read and written by slot blocks.

``NakayamaBackend._raw_from_mor`` and ``_express_raw`` treat each
summand of an assembly as a run of consecutive slots at every vertex,
so a block of a map is a shifted, masked copy of the rows of a map
between single uniserials.  The per-entry routes below place every
entry through the layer positions ``_Assembled.pos`` instead, and serve
as the oracle.
"""

import itertools

import pytest

from cotor.core import Mor, Obj
from cotor.nakayama import NakayamaBackend, _assemble, _hom_flat_layout
from helpers import from_entries


def vertex_slots(asm, s, vertex):
    return [slot for (v, slot) in asm.pos[s] if v == vertex]


def raw_from_mor_by_entries(b, f):
    a = b._assembled(f.src)
    d = b._assembled(f.dst)
    grids = [[[0] * a.raw.dims[v] for _ in range(d.raw.dims[v])] for v in range(b.m)]
    for p, q, off, dim in b.block_layout(f.src, f.dst):
        block = (f.coords >> off) & ((1 << dim) - 1)
        table = b._pairs[(f.src.summands[p], f.dst.summands[q])]
        for t in range(dim):
            if not (block >> t) & 1:
                continue
            rep = table.reps_mats[t]
            for v in range(b.m):
                rows, cols = vertex_slots(d, q, v), vertex_slots(a, p, v)
                for lr in range(rep[v].rows):
                    for lc in range(rep[v].cols):
                        grids[v][rows[lr]][cols[lc]] ^= rep[v].entry(lr, lc)
    return [from_entries(grids[v], d.raw.dims[v], a.raw.dims[v]) for v in range(b.m)]


def express_raw_by_entries(b, src, dst, mats):
    a = b._assembled(src)
    d = b._assembled(dst)
    coords = 0
    for p, q, off, _ in b.block_layout(src, dst):
        asrc = b._single[src.summands[p]].raw
        bdst = b._single[dst.summands[q]].raw
        base, _ = _hom_flat_layout(asrc, bdst)
        flat = 0
        for v in range(b.m):
            for lr, gr in enumerate(vertex_slots(d, q, v)):
                for lc, gc in enumerate(vertex_slots(a, p, v)):
                    if mats[v].entry(gr, gc):
                        flat |= 1 << (base[v] + lr * asrc.dims[v] + lc)
        coords |= b._express_pair(src.summands[p], dst.summands[q], flat) << off
    return Mor(src, dst, coords)


def small_objects(b, most=3):
    return [
        Obj.from_iter(ids)
        for k in range(most + 1)
        for ids in itertools.combinations_with_replacement(range(b.K), k)
    ]


@pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 3), (3, 4)])
def test_summands_hold_consecutive_slots_in_layer_order(m, n):
    # Projective types included: envelopes and covers are assembled too.
    types = [(i, l) for i in range(m) for l in range(1, n + 1)]
    for k in range(1, 4):
        for combo in itertools.combinations_with_replacement(types, k):
            asm = _assemble(m, n, combo)
            for s, t in enumerate(combo):
                single = _assemble(m, n, (t,))
                for v in range(m):
                    got = vertex_slots(asm, s, v)
                    start = asm.start[s][v]
                    assert got == list(range(start, start + single.raw.dims[v]))


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (2, 3)])
def test_block_conversions_match_the_per_entry_routes(m, n):
    # Every map between objects of up to three summands, both ways.
    b = NakayamaBackend(m, n)
    objs = small_objects(b)
    for x in objs:
        for y in objs:
            for coords in range(1 << b.hom_dim(x, y)):
                f = Mor(x, y, coords)
                raw = b._raw_from_mor(f)
                assert raw == raw_from_mor_by_entries(b, f)
                assert b._express_raw(x, y, raw) == f
                assert express_raw_by_entries(b, x, y, raw) == f
