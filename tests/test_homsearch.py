import random
from functools import partial
from itertools import product as iproduct

import pytest

from jordannil import homsearch, linalg, tables
from jordannil.algebra import is_isomorphism, zero_algebra
from jordannil.classify import classify_dim
from jordannil.field import GF


def _gl(fld, n):
    """GL(n, p) in lexicographic order, by a rank check on every matrix."""
    group = []
    for flat in iproduct(range(fld.p), repeat=n * n):
        m = tuple(flat[r * n:(r + 1) * n] for r in range(n))
        if linalg.rank(fld, m) == n:
            group.append(m)
    return group


@pytest.mark.parametrize("p", [2, 3])
def test_automorphisms_match_gl_filter(p):
    fld = GF(p)
    for n in (1, 2, 3):
        group = _gl(fld, n)
        for a in classify_dim(n, fld).representatives:
            brute = [m for m in group if is_isomorphism(a, a, m)]
            assert homsearch.find_isomorphisms(a, a, find_all=True) == brute, a


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 3), (7, 2)])
def test_orbit_of_e1_under_gl_generators(p, n):
    # GL(n, p) is transitive on the nonzero vectors of F_p^n
    fld = GF(p)
    generators, _ = homsearch.stabiliser_chain(zero_algebra(fld, n))
    e1 = linalg.unit(fld, n, 0)
    found = homsearch.orbit(e1, generators, partial(linalg.vec_mat, fld))
    assert len(found) == p ** n - 1
    assert all(any(v) for v in found)


def _closed_dim4_conjugates(p):
    """(entry, J, J in two seeded random bases) for each closed dim-4 entry."""
    fld = GF(p)
    rng = random.Random(p)
    for e in tables.catalog("closed", 4):
        a = e.algebra(fld)
        for _ in range(2):
            while True:
                m = tuple(tuple(rng.randrange(p) for _ in range(4))
                          for _ in range(4))
                if linalg.rank(fld, m) == 4:
                    break
            yield e.entry_id, a, a.change_basis(m)


@pytest.mark.parametrize("p", [3, 5])
def test_witness_found_in_both_directions(p):
    for entry_id, a, b in _closed_dim4_conjugates(p):
        for x, y in ((a, b), (b, a)):
            w = homsearch.find_witness(x, y)
            assert w is not None and is_isomorphism(x, y, w), entry_id


def test_search_from_the_dense_side():
    # find_witness starts from the sparse table; started from the random
    # basis, some constraint e_i ∘ e_j has an e_i component, the c_i x term
    # of the linear constraints (over F_5 this side takes minutes)
    for entry_id, a, b in _closed_dim4_conjugates(3):
        found = homsearch.find_isomorphisms(b, a)
        assert found and is_isomorphism(b, a, found[0]), entry_id
