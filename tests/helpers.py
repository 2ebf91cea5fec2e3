"""Checks that only the tests need, built on the public backend API."""

from cotor.core import Obj, Verdict
from cotor.f2 import solve
from cotor.subcats import Subcat


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
