"""Automorphism groups and their orbits on subspaces of H².

Aut(J) is kept as a stabiliser chain (`homsearch.stabiliser_chain`): a few
generators and the basic orbit lengths, whose product is |Aut(J)|.  No list
of its elements is built.

A point of the Grassmannian G_r(H²) is the tuple of rows of an
r × dim(H²) coordinate matrix in canonical RREF, as `linalg.rref` returns
it, so equal subspaces are equal tuples, and tuples compare
lexicographically.  Aut(J) acts linearly on H² coordinates: a generator g
moves a point P to rref(P·A_g), where row k of A_g is the reduced pull-back
of the k-th H² basis form.  An orbit is the closure of a point under the
generators (`homsearch.orbit`).

The allowable points U_r(J) form a union of Aut(J)-orbits, so
`orbit_representatives` walks the orbits of the whole G_r(H²) and runs the
allowability test once per orbit, on its least point.
"""

from itertools import combinations, product as iproduct
from math import prod

from . import cohomology, linalg
from .field import UnsupportedFieldError
from .homsearch import orbit, stabiliser_chain
from .limits import check_points


class AutGroup:
    """The automorphism group of an algebra over a prime field, as the
    generators and basic orbit lengths of a stabiliser chain."""

    __slots__ = ("algebra", "generators", "orbit_lengths")

    def __init__(self, algebra, generators, orbit_lengths):
        self.algebra = algebra
        self.generators = tuple(generators)
        self.orbit_lengths = tuple(orbit_lengths)

    def __len__(self):
        return prod(self.orbit_lengths)


def automorphism_group(a):
    """Aut(J) by Sims' subgroup search over the basis images."""
    if not a.field.is_prime_field:
        raise UnsupportedFieldError("Aut(J) needs a prime field")
    return AutGroup(a, *stabiliser_chain(a))


def gaussian_binomial(n, r, p):
    """The number of r-dimensional subspaces of F_pⁿ."""
    return (prod(p ** (n - i) - 1 for i in range(r))
            // prod(p ** (i + 1) - 1 for i in range(r)))


def grassmannian_points(h2_dim, r, field):
    """All r-dimensional subspaces of field^h2_dim, each exactly once, as
    canonical RREF matrices: pivot columns plus free entries right of each
    row's pivot and off the other pivots.  Raises ResourceLimitError before
    enumerating when their number exceeds the `points` limit."""
    if not field.is_prime_field:
        raise UnsupportedFieldError("cannot enumerate subspaces over Q")
    if not 1 <= r <= h2_dim:
        raise ValueError(f"need 1 <= r <= {h2_dim}, got {r}")
    count = gaussian_binomial(h2_dim, r, field.p)
    check_points(count, f"G({r}, {h2_dim}) over F_{field.p} has {count} "
                        "points")
    p_elems = list(range(field.p))
    for pivots in combinations(range(h2_dim), r):
        pivot_set = set(pivots)
        free_pos = [(row, col)
                    for row, pc in enumerate(pivots)
                    for col in range(pc + 1, h2_dim)
                    if col not in pivot_set]
        for values in iproduct(p_elems, repeat=len(free_pos)):
            mat = [[field.zero] * h2_dim for _ in range(r)]
            for row, pc in enumerate(pivots):
                mat[row][pc] = field.one
            for (row, col), v in zip(free_pos, values):
                mat[row][col] = v
            yield tuple(map(tuple, mat))


def point_forms(h2, pt):
    """Lift a subspace point to its representative cocycles."""
    return tuple(h2.lift(row) for row in pt)


def h2_action_matrix(h2, g):
    """A_g: row k holds the H² coordinates of the pull-back g·b_k."""
    return tuple(h2.reduce(cohomology.pull_back(g, b)) for b in h2.basis)


def orbit_of_point(field, mats, pt):
    """Orbit of pt under the generators' action matrices."""
    return orbit(pt, mats, lambda p, m: linalg.rref(
        field, [linalg.vec_mat(field, row, m) for row in p])[0])


def orbit_representatives(a, r):
    """(H²(J), |U_r(J)|, the least point of each Aut(J)-orbit on U_r(J)).

    A point is allowable when its forms θ_i = Σ_k c_ik b_k have a joint
    radical meeting Z(J) = span(z_1..z_m) in 0, i.e. [θ_i(z_s, e_j)] has
    rank m.  Each orbit of G_r(H²) is closed from its first point in
    enumeration order and tested on its least point."""
    h2 = cohomology.h2_space(a)
    if r > h2.dim:
        return h2, 0, []
    f = a.field
    # pairing[s][k] = b_k(z_s, ·)
    pairing = [[linalg.vec_mat(f, z, b.rows) for b in h2.basis]
               for z in a.centre().rows]
    mats = [h2_action_matrix(h2, g) for g in automorphism_group(a).generators]
    allowable = 0
    reps = []
    visited = set()
    for pt in grassmannian_points(h2.dim, r, f):
        if pt in visited:
            continue
        found = orbit_of_point(f, mats, pt)
        visited |= found
        rep = min(found)
        rows = [[x for c in rep for x in linalg.vec_mat(f, c, zb)]
                for zb in pairing]
        if linalg.rank(f, rows) == len(pairing):
            allowable += len(found)
            reps.append(rep)
    return h2, allowable, sorted(reps)
