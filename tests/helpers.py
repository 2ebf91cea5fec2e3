"""Checks that only the tests need, built on the public backend API."""

from cotor.core import (
    BudgetExceeded, Mor, Obj, Tri, Verdict, _slot_assignment, multisets_over, stored
)
from cotor.f2 import F2Matrix, QuotientSpace, in_span, rank, solve
from cotor.nakayama import (
    _commutation_rows, _path_tower, _unflatten, uniserial_counts
)
from cotor.pairs import reach
from cotor.subcats import Subcat


def decompose_counts(raw):
    """Multiplicity of every uniserial of a raw module, by the ranks of
    the path composites on the module itself (``_path_tower``), fed to
    the backend's inclusion-exclusion."""
    rp = [[rank(c) for c in layer] for layer in _path_tower(raw)]
    return uniserial_counts(rp, raw.m, raw.n, raw.total_dim())


def decompose_module(b, raw):
    """Stable multiset of a raw module by path-rank counting."""
    counts = decompose_counts(raw)
    return Obj.from_iter(
        b._id_of_type(t) for t, c in counts.items() if t[1] < b.n for _ in range(c)
    )


def module_cone_obj(b, f):
    """The cone object of f by the quotient-module count, the oracle of
    ``cone_obj``'s masked-rank count: build the cone module (Y (+) E
    modulo the graph of f, ``_cone_module``) and count path ranks on it."""
    return decompose_module(b, b._cone_module(f)[1])


def one_more_m01(counts_of):
    """A wrong cone count: ``counts_of`` with one more M(0,1) in every
    answer, for tests that a disagreeing route is caught."""

    def counts(f):
        got = dict(counts_of(f))
        got[(0, 1)] = got.get((0, 1), 0) + 1
        return got

    return counts


def with_split(b, parts, xtra, ytra):
    """The direct sum of the triangles ``parts`` with the split triangles
    x = x -> 0 -> x[1] of xtra's summands and 0 -> y = y -> 0 of
    ytra's, in that order, built afresh."""
    zero = Obj.zero()
    parts = list(parts)
    for i in xtra.summands:
        x = Obj.of(i)
        parts.append(Tri(b.identity(x), Mor(x, zero), Mor(zero, b.shift_obj(x, 1))))
    for j in ytra.summands:
        y = Obj.of(j)
        parts.append(Tri(Mor(zero, y), b.identity(y), Mor(y, zero)))
    return b.direct_sum_tri(parts)


def is_isomorphism(b, f):
    """Is there a g: f.dst -> f.src with g after f and f after g the
    identities?  One linear solve over the coordinates of g, through the
    backend's composition operators (so a backend without morphism
    calculus raises CapabilityError)."""
    if f.src.summands != f.dst.summands:
        return False
    x, y = f.src, f.dst
    system = b.right_op(f, x).vstack(b.left_op(f, y))
    rhs = b.identity(x).coords | b.identity(y).coords << b.hom_dim(x, x)
    return solve(system, rhs) is not None


def cover_omega(b, f):
    """Omega on one map of a Nakayama backend by the projective-cover
    route, the mirror of the envelope lift that suspends: lift f through
    the covers P -> f.src and Q -> f.dst, pinned only modulo the kernel
    of Q -> f.dst (selection pins), and read the lift on the syzygies,
    which it must keep inside the syzygies (strict read)."""
    m, n = b.m, b.n
    src1, dst1 = b.shift_obj(f.src, -1), b.shift_obj(f.dst, -1)
    if f.src.is_zero or f.dst.is_zero or f.is_zero:
        return Mor(src1, dst1, 0)
    covers = []
    for x, x1 in ((f.src, src1), (f.dst, dst1)):
        # Layer t of a summand (i, l) is layer t of its cover (i, n); the
        # layers l..n-1 of the cover form its syzygy (i + l, n - l).
        a = b._assembled(x)
        cover = b._asm(tuple((i, n) for (i, _l) in a.types))
        proj = [[0] * d for d in a.raw.dims]
        for s, (_i, l) in enumerate(a.types):
            for t in range(l):
                v, ca = a.pos[s][t]
                v2, cp = cover.pos[s][t]
                assert v2 == v, "cover misaligned"
                proj[v][ca] |= 1 << cp
        ids = [
            b._id_of_type((cover.pos[s][l][0], n - l))
            for s, (_i, l) in enumerate(a.types)
        ]
        assert Obj.from_iter(ids) == x1, "cover syzygy is not the desuspension"
        place = _slot_assignment(x1, [Obj.of(i) for i in ids])
        sasm = b._assembled(x1)
        slots = [{} for _ in range(m)]
        for s, (_i, l) in enumerate(a.types):
            for u, t in enumerate(range(l, n)):
                v, pslot = cover.pos[s][t]
                v1, slot = sasm.pos[place[s][0]][u]
                assert v1 == v, "syzygy slot misaligned"
                slots[v][pslot] = slot
        mats = [
            F2Matrix(a.raw.dims[v], cover.raw.dims[v], tuple(proj[v]))
            for v in range(m)
        ]
        covers.append((cover.raw, mats, slots))
    (pa, ka, slots_a), (pb, kb, slots_b) = covers
    # kappa_b phi = f kappa_a on each basis vector of pa, as the rows of
    # kappa_b (the selection) applied to phi's column
    fraw = b._raw_from_mor(f)
    base, total, rows = _commutation_rows(pa, pb)
    rhs = 0
    for v in range(m):
        stride = pa.dims[v]
        for c in range(stride):
            tgt = fraw[v].matvec(ka[v].column(c))
            for r, mask in enumerate(kb[v].bits):
                row = 0
                while mask:
                    k = (mask & -mask).bit_length() - 1
                    row ^= 1 << (base[v] + k * stride + c)
                    mask &= mask - 1
                rhs |= ((tgt >> r) & 1) << len(rows)
                rows.append(row)
    flat = solve(F2Matrix.from_rows(rows, total), rhs)
    assert flat is not None, "cover lift failed"
    phi = _unflatten(pa, pb, flat)
    mats = []
    for v in range(m):
        cols = [0] * len(slots_a[v])
        for pslot, c in slots_a[v].items():
            vec, out = phi[v].column(pslot), 0
            while vec:
                r = (vec & -vec).bit_length() - 1
                vec &= vec - 1
                assert r in slots_b[v], "cover lift left the syzygy"
                out |= 1 << slots_b[v][r]
            cols[c] = out
        mats.append(F2Matrix.from_rows(cols, len(slots_b[v])).transpose())
    return b._express_raw(src1, dst1, mats)


def from_entries(entries, rows, cols):
    """The matrix with 0/1 entries ``entries[r][c]``, one list per row."""
    packed = [sum((e & 1) << c for c, e in enumerate(row)) for row in entries]
    if len(packed) != rows:
        raise ValueError("entry grid does not match row count")
    return F2Matrix(rows, cols, tuple(packed))


def literal_contains(star, x, y, c):
    """Star membership C in add(x) * add(y) decided by the backend's capped
    triangle enumerator (``StarEngine._literal_verdict``), after the same
    one-sided shortcuts as ``StarEngine.star_contains``; it needs no side
    closed under extensions."""
    if c.is_zero or x.contains_obj(c) or y.contains_obj(c):
        return Verdict.yes()
    if x.is_empty or y.is_empty:
        return Verdict.no()
    return star._literal_verdict(x, y, c)


def witnesses(star, x, y, c, top):
    """The escalating-cap witness search, the oracle of the approximation
    triangles (``PairEngine.approximation``): the triangles
    X' -> c -> Y' -> X'[1] with X' in add(x) and Y' in add(y) of the least
    cap in 2..top that has any, in the backend's enumeration order, under
    the star engine's budget; raises BudgetExceeded."""
    for cap in range(2, top + 1):
        found = False
        for w in star.backend.triangle_enumerate(
            x.ids(), y.ids(), c, cap=cap, budget=star.budget
        ):
            found = True
            yield w
        if found:
            return


@stored(key=lambda x, y, c, top: (x.bits, y.bits, c, top))
def first_witness(star, x, y, c, top):
    """The first of ``witnesses(star, x, y, c, top)``, or None, kept in the
    star engine's stored table; a BudgetExceeded is not kept."""
    return next(witnesses(star, x, y, c, top), None)


def searched_decomposition(engine, cls, c, first, third):
    """``PairEngine.decomposition`` by the search: the first witness in
    add(first) * add(third), with room for the split part of a wide
    object (a top of its width past the engine's cap)."""
    star = engine.star
    tri = first_witness(star, first, third, c, len(c) + star.cap)
    assert tri is not None, f"no witness for {c.summands} at the cap"
    return tri


def searched_classes(q):
    """The class search that ``ZIQuotient`` ran before Krull-Schmidt stood
    in for it, the oracle of ``zi_objects`` and ``class_of``: per id of
    the middle class, None for a core member, else the first earlier
    representative with a nonzero map into it that is invertible modulo
    the core (``PairEngine.iso_mod``), else the id itself."""
    b = q.backend
    rep_of, reps = {}, []
    for zid in q.z_set.ids():
        if zid in q.i_set:
            rep_of[zid] = None
            continue
        maps = (f for r in reps for f in b.hom_elements(Obj.of(r), Obj.of(zid)))
        iso = next(
            (f for f in maps if not f.is_zero and q.engine.iso_mod(q.i_set, f)), None
        )
        rep_of[zid] = zid if iso is None else iso.src.summands[0]
        if iso is None:
            reps.append(zid)
    return rep_of


def whole_object_in_star(engine, x, y, c):
    """Coverage c in add(x) * add(y), for Hom-orthogonal classes, by the
    route ``PairEngine.in_star(x, y, c, 1)`` took before it read one stored
    cone mask per summand: the cone object of the minimal right
    x-approximation of the whole of c, built in one piece."""
    b = engine.backend
    return y.contains_obj(b.cone_obj(engine.approximation(x, c, 1)))


def capped_zi_star_member(mut, m, l, r, cap):
    """The capped search that decided quotient cotorsion-pair coverage
    before one minimal approximation did, the oracle of
    ``MutationEngine.zi_star_member``: does some map into m from a sum of
    at most cap members of l, one per class modulo add(I), have a standard
    right third with its classes in the suspension of r?  False when none
    does."""
    q, target = mut.q, Obj.of(m)
    sig_classes = {mut._shift_permutation(1)[x] for x in r}
    for size in range(cap + 1):
        for pool in multisets_over(l, size):
            src = Obj.from_iter(pool)
            space = q.hom_mod_I(src, target)
            for k in range(1 << space.dim):
                third = q.standard_right_third(Mor(src, target, space.lift(k)))
                if set(q.class_of(third)) <= sig_classes:
                    return True
    return False


def ext_closure(star, x):
    """Least fixed point of adding the indecomposables of R * R to R,
    with a completeness flag.  Runs on the literal enumerator, since the
    intermediate sets carry no extension-closure guarantee."""
    b = star.backend
    r, complete = x, True
    while True:
        grown = r.bits
        for i in range(len(b.indecs)):
            v = literal_contains(star, r, r, Obj.of(i))
            if v.is_yes:
                grown |= 1 << i
            elif v.is_inconclusive:
                complete = False
        if grown == r.bits:
            return r, complete
        r = Subcat(b, grown)


def op_by_compose(b, h, obj, side):
    """The matrix of g -> (h after g) for g: obj -> h.src (side "left")
    or of g -> (g after h) for g: h.dst -> obj (side "right"), one
    ``compose`` per basis map of the free end, built afresh each call."""
    if side == "left":
        d, out = b.hom_dim(obj, h.src), b.hom_dim(obj, h.dst)
        cols = [b.compose(Mor(obj, h.src, 1 << k), h).coords for k in range(d)]
    else:
        d, out = b.hom_dim(h.dst, obj), b.hom_dim(h.src, obj)
        cols = [b.compose(h, Mor(h.dst, obj, 1 << k)).coords for k in range(d)]
    return F2Matrix.from_rows(cols, out).transpose()


def basis_products(b, src, mids, dst):
    """The nonzero products beta after alpha of basis maps alpha: src -> m
    and beta: m -> dst, for each member m of mids in ascending order,
    alpha-major: the span of maps factoring through mids, computed
    afresh with nothing stored."""
    vectors = []
    for mid in mids:
        m_obj = Obj.of(mid)
        for a_bit in range(b.hom_dim(src, m_obj)):
            alpha = Mor(src, m_obj, 1 << a_bit)
            for b_bit in range(b.hom_dim(m_obj, dst)):
                coords = b.compose(alpha, Mor(m_obj, dst, 1 << b_bit)).coords
                if coords:
                    vectors.append(coords)
    return vectors


def inverse_mod(b, core, f):
    """Is f invertible modulo the maps factoring through core?  The inverse
    solve of ``PairEngine.iso_mod`` alone, over spans built afresh
    (``basis_products``), with nothing stored."""
    x, y = f.src, f.dst
    fx, fy = basis_products(b, x, core, x), basis_products(b, y, core, y)
    dxx, dyy = b.hom_dim(x, x), b.hom_dim(y, y)
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


def per_pair_mu(q, x):
    """Condition (I)'s comparison map on x and whether it is invertible
    modulo the core, from the pair's own four triangles and no shared
    comparison or isomorphism table: the route ``ZIQuotient.mu_map`` took
    before twin pairs with the same approximation data shared it."""
    b, p, dec = q.backend, q.p, q.engine.decomposition
    w1 = dec(p.u, x, p.u, q.v_up)
    w2 = dec(q.s_down, x, q.s_down, p.t)
    sig = dec(q.s_down, w1.a, q.s_down, q.z_set)
    omg = dec(p.u, w2.c, q.z_set, q.v_up)
    system = b.left_op(omg.f, w1.a).mul(b.right_op(sig.g, omg.a))
    sol = solve(system, b.compose(w1.f, w2.g).coords)
    assert sol is not None, "the commuting condition has no solution"
    z = Mor(sig.c, omg.a, sol)
    return z, inverse_mod(b, q.i_set, z)


def per_pair_heart(engine, x, pair):
    """Heart vanishing of x against a cotorsion pair, from the pair's own
    right and left approximation triangles and spans built afresh: the
    route ``PairEngine.h_vanishes`` took before twin pairs with the same
    approximation data shared its span test.  The two must agree."""
    b, v1 = engine.backend, pair.v.shifted(1)
    right = engine.decomposition(pair.u, x, pair.u, v1)
    left = engine.approximation(v1, x, -1)
    verdicts = {
        in_span(g.coords, basis_products(b, x, pair.v, end))
        for g, end in ((right.g, right.c), (left, left.dst))
    }
    assert len(verdicts) == 1, "the two triangles disagree"
    return verdicts.pop()


# The keys by which the engine kept three answers before each answer was
# keyed by the arguments it reads.  Each dropped part of its inputs, on a
# written argument that the part dropped could not change the answer.
# The tests hold the argument keys to them: equal for approximations,
# coarser for the other two.


def approx_key(cls, c, step):
    """``PairEngine.approximation``'s old key: the members of cls that
    reach c, then c and step."""
    return (reach(cls, c, step), c, step)


def heart_key(x, pair):
    """``PairEngine._heart_verdict``'s old key for ``h_vanishes(x, pair)``:
    x, the members of U that reach x, and those of V[1] and of V that x
    reaches."""
    u, v = pair.u, pair.v
    return (x, reach(u, x, 1), reach(v.shifted(1), x, -1), reach(v, x, -1))


def comparison_key(q, x):
    """``quotient._comparison``'s old key for ``q.mu_map(x)``: x, the
    members of U and of S[-1] that reach x, of S[-1] that reach u_x and
    of U that reach t_x, and the core."""
    u, s_down, dec = q.p.u, q.s_down, q.engine.decomposition
    u_x = dec(u, x, u, q.v_up).a
    t_x = dec(s_down, x, s_down, q.p.t).c
    return (
        x, reach(u, x, 1), reach(s_down, x, 1), reach(s_down, u_x, 1),
        reach(u, t_x, 1), q.i_set.bits,
    )


def per_class_tops(engine, cls, u, j, step):
    """Lifts of a basis of Hom(u, j) (+1) or Hom(j, u) (-1) modulo the maps
    through the other members of cls and through rad End(u), with spans
    built afresh over every other member (``basis_products``) and nothing
    stored: the route ``PairEngine._tops`` took before it was stored per
    the members that add a product."""
    b = engine.backend
    s, t = (u, j) if step == 1 else (j, u)
    src, dst, uo = Obj.of(s), Obj.of(t), Obj.of(u)
    rad = basis_products(b, src, cls.minus(Subcat.of(b, [u])), dst)
    width = b.hom_dim(src, dst)
    for r in engine._end_radical(u):
        e = Mor(uo, uo, r)
        for k in range(width):
            g = Mor(src, dst, 1 << k)
            rad.append((b.compose(e, g) if step == 1 else b.compose(g, e)).coords)
    q = QuotientSpace(width, rad)
    return [q.lift(1 << k) for k in range(q.dim)]


def full_star_class(engine, x, y):
    """The indecomposables in add(x) * add(y), for Hom-orthogonal classes,
    from the stored cone mask of every indecomposable, members of x and y
    included: the route ``PairEngine.star_class`` took before it read the
    members of either side off their split triangles."""
    near = engine.backend.hom_masks()[1]
    bits = 0
    for c in range(len(near)):
        if not engine._cone_bits(x.bits & near[c], c) & ~y.bits:
            bits |= 1 << c
    return Subcat(engine.backend, bits)


def splits_3way(c, xset, yset):
    """All (x-part, y-part, core) multiset splits of c by recursion over
    its indecomposables, ascending: for each, the x-count, then the
    y-count, ascending, and the rest to the core.  The oracle of
    ``cotor.nakayama._splits_3way``, which walks the same choices as
    one product."""
    items = sorted(c.counts().items())
    xs, ys = set(xset), set(yset)

    def rec(idx, xacc, yacc, dacc):
        if idx == len(items):
            yield Obj.from_iter(xacc), Obj.from_iter(yacc), Obj.from_iter(dacc)
            return
        ind, cnt = items[idx]
        x_max = cnt if ind in xs else 0
        y_max = cnt if ind in ys else 0
        for kx in range(x_max + 1):
            for ky in range(min(y_max, cnt - kx) + 1):
                yield from rec(
                    idx + 1,
                    xacc + [ind] * kx,
                    yacc + [ind] * ky,
                    dacc + [ind] * (cnt - kx - ky),
                )

    yield from rec(0, [], [], [])


def dense_masks(b, src, dst):
    """Masks of the blocks out of each summand of src and into each
    summand of dst, and the Hom dimension; a map is dense when it meets
    all of the masks."""
    layout = b.block_layout(src, dst)
    rows = [0] * len(src)
    cols = [0] * len(dst)
    for p, q, off, bd in layout:
        mask = ((1 << bd) - 1) << off
        rows[p] |= mask
        cols[q] |= mask
    return rows + cols, sum(bd for *_, bd in layout)


def scan_enumerate(b, xset, yset, c, cap, budget=None, spent=None):
    """``NakayamaBackend.triangle_enumerate`` by the per-map scan, with
    every triangle built afresh: c is split by the recursive walk
    (``splits_3way``), every connecting map y1[-1] -> x1 of an end pair
    with a dense map is charged, the dense ones get a full cone, and
    those whose cone is the core yield a triangle.  ``spent[0]`` counts
    the units charged so far; BudgetExceeded falls at the first unit past
    ``budget``."""
    xset = sorted(set(xset))
    yset = sorted(set(yset))
    spent = [0] if spent is None else spent

    def spend():
        spent[0] += 1
        if budget is not None and spent[0] > budget:
            raise BudgetExceeded("triangle enumeration budget exhausted")

    for xtra, ytra, core in splits_3way(c, xset, yset):
        if core.is_zero:
            if len(xtra) <= cap and len(ytra) <= cap:
                spend()
                yield with_split(b, [], xtra, ytra)
        for sx in range(1, cap - len(xtra) + 1):
            for sy in range(1, cap - len(ytra) + 1):
                for x1 in multisets_over(xset, sx):
                    x1_obj = Obj.from_iter(x1)
                    for y1 in multisets_over(yset, sy):
                        y1m = b.shift_obj(Obj.from_iter(y1), -1)
                        masks, d = dense_masks(b, y1m, x1_obj)
                        if d == 0 or any(mk == 0 for mk in masks):
                            continue
                        for coords in range(1, 1 << d):
                            spend()
                            if any(not (coords & mk) for mk in masks):
                                continue
                            cone = b.cone(Mor(y1m, x1_obj, coords))
                            if cone.c != core:
                                continue
                            tri = with_split(b, [b.rotate_left(cone)], xtra, ytra)
                            b._check_triangle(tri)
                            yield tri


def scan_run(b, xset, yset, c, cap, limit):
    """The scan's triangles with the units spent when each was yielded,
    the units spent in all, and whether ``limit`` ran out: one run gives
    what the search must yield and whether it must raise at every budget
    up to the limit."""
    spent = [0]
    got = []
    try:
        for w in scan_enumerate(b, xset, yset, c, cap, limit, spent):
            got.append((w, spent[0]))
    except BudgetExceeded:
        return got, limit, True
    return got, spent[0], False
