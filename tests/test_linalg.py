import random
from fractions import Fraction

from jordannil import linalg
from jordannil.field import GF, QQ
from jordannil.linalg import Subspace, full_space


def test_rref_canonical():
    rows, pivots = linalg.rref(QQ, [(2, 4, 0), (1, 2, 1)])
    assert rows == ((Fraction(1), Fraction(2), Fraction(0)),
                    (Fraction(0), Fraction(0), Fraction(1)))
    assert pivots == (0, 2)
    # scaled/permuted spanning sets give the same rref
    rows2, _ = linalg.rref(QQ, [(1, 2, 1), (4, 8, 0)])
    assert rows == rows2


def test_nullspace():
    basis = linalg.nullspace(GF(3), [(1, 1, 0)], 3)
    ns = Subspace(GF(3), 3, basis)
    assert ns.dim == 2
    assert ns.contains((1, 2, 0))
    assert ns.contains((0, 0, 1))
    assert not ns.contains((1, 0, 0))


def test_invert():
    f = GF(5)
    a = ((1, 2), (3, 4))
    inv = linalg.invert(f, a)
    assert linalg.mat_mul(f, a, inv) == linalg.identity(f, 2)
    assert linalg.invert(f, ((1, 2), (2, 4))) is None


def test_subspace_equality_and_ops():
    f = GF(3)
    u = Subspace(f, 3, [(1, 0, 0), (0, 1, 0)])
    v = Subspace(f, 3, [(1, 1, 0), (2, 1, 0)])
    assert u == v
    assert hash(u) == hash(v)
    w = Subspace(f, 3, [(0, 1, 0), (0, 0, 1)])
    meet = u.intersection(w)
    assert meet.dim == 1 and meet.contains((0, 1, 0))
    assert Subspace(f, 3, u.rows + w.rows) == full_space(f, 3)
    assert Subspace(f, 3).is_zero()


def test_subspace_intersection_random():
    rnd = random.Random(11)
    f = GF(5)
    for _ in range(25):
        u = Subspace(f, 4, [[rnd.randrange(5) for _ in range(4)]
                            for _ in range(2)])
        v = Subspace(f, 4, [[rnd.randrange(5) for _ in range(4)]
                            for _ in range(2)])
        meet = u.intersection(v)
        for row in meet.basis:
            assert u.contains(row) and v.contains(row)
        # dim formula: dim(u+v) = dim u + dim v - dim meet
        assert Subspace(f, 4, u.rows + v.rows).dim == \
            u.dim + v.dim - meet.dim
