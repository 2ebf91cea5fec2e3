"""Checks that only the tests need, built on the public backend API."""

from cotor.f2 import solve


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
