import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from jordannil import linalg, tables
from jordannil.algebra import Algebra, is_isomorphism, zero_algebra
from jordannil.classify import classify_dim
from jordannil.field import GF, QQ

from theory import quotient_by_centre


def j22(fld=QQ):
    return Algebra(fld, 2, {(1, 1, 2): 1})


def j34(fld=QQ):
    return Algebra(fld, 3, {(1, 1, 2): 1, (1, 2, 3): 1})


def test_product_examples():
    a = j22()
    assert a.product((1, 0), (1, 0)) == (0, 1)            # a² = b
    assert a.product((1, 2), (0, 0)) == (0, 0)
    b = j34()
    assert b.product((1, 1, 0), (1, 1, 0)) == (0, 1, 2)   # (a+b)² = b + 2c


def test_product_commutative_random():
    rnd = random.Random(5)
    for fld in (QQ, GF(3)):
        a = j34(fld)
        for _ in range(50):
            if fld.is_prime_field:
                x = tuple(rnd.randrange(3) for _ in range(3))
                y = tuple(rnd.randrange(3) for _ in range(3))
            else:
                x = tuple(Fraction(rnd.randint(-4, 4)) for _ in range(3))
                y = tuple(Fraction(rnd.randint(-4, 4)) for _ in range(3))
            assert a.product(x, y) == a.product(y, x)


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        j22().product((1, 0, 0), (1, 0))


def test_constants_reject_bad_indices():
    with pytest.raises(ValueError):
        Algebra(QQ, 2, {(2, 1, 1): 1})   # needs i <= j
    with pytest.raises(ValueError):
        Algebra(QQ, 1, {(1, 1, 2): 1})


def test_jordan_catalog_and_edge_cases(all_catalog_entries):
    for case, entry in all_catalog_entries:
        a = entry.algebra(tables.entry_field(case))
        assert a.check_jordan(), entry.entry_id
    assert zero_algebra(QQ, 3).check_jordan()
    idem = Algebra(QQ, 2, {(1, 1, 1): 1})
    assert idem.check_jordan()
    assert idem.is_nilpotent() == (False, None)


def _pointwise_jordan(a):
    # reference: x² ∘ (x ∘ e_j) = x ∘ (x² ∘ e_j) at every vector x of F_pⁿ
    for x in iproduct(range(a.field.p), repeat=a.dim):
        xx = a.product(x, x)
        for j in range(a.dim):
            if a.product(xx, a.product_basis(x, j)) \
                    != a.product(x, a.product_basis(xx, j)):
                return False
    return True


def test_jordan_strategies_agree_f5():
    # check_jordan imposes the identity at the generic point, with λ^p = λ
    # over F_p; it must agree with the pointwise identity on every vector
    # over F_2 and F_3, where the rule fires, as over F_5, where it does not
    rnd = random.Random(9)
    for p in (2, 3, 5):
        fld = GF(p)
        verdicts = set()
        for n in (2, 3, 4):
            for _ in range(40):
                consts = {}
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        for k in range(1, n + 1):
                            c = (rnd.randrange(p) if rnd.random() < 0.5 / n
                                 else 0)
                            if c:
                                consts[(i, j, k)] = c
                a = Algebra(fld, n, consts)
                assert a.check_jordan() == _pointwise_jordan(a), a
                verdicts.add(a.check_jordan())
        assert verdicts == {True, False}, p


def test_jordan_identity_is_read_as_a_function_over_f2():
    # e1² = e1, e1e2 = e1 + e2, e2² = e2 satisfies the identity at every
    # point of F_2², but not as a polynomial in λ: λ1²λ2 and λ1λ2 are
    # different monomials and the same function
    a = Algebra(GF(2), 2, {(1, 1, 1): 1, (1, 2, 1): 1, (1, 2, 2): 1,
                           (2, 2, 2): 1})
    assert _pointwise_jordan(a) and a.check_jordan()


def test_jordan_strategies_agree_on_catalog_over_f3():
    for entry in tables.catalog("closed"):
        a = entry.algebra(GF(3))
        assert a.check_jordan() and _pointwise_jordan(a), entry.entry_id


@pytest.mark.parametrize("p", [2, 3])
def test_jordan_generic_point_agrees_on_classes(p):
    # on every classified class up to dim 4 the generic point agrees with
    # the pointwise identity
    memo = {}
    for n in range(1, 5):
        result = classify_dim(n, GF(p), memo)
        for idx, a in enumerate(result.representatives):
            assert a.check_jordan() == _pointwise_jordan(a), \
                f"dim-{n} class #{idx + 1} over F_{p} disagrees: {a}"


def test_associativity(catalog_algebra):
    assert catalog_algebra("closed", "J_{4,7}").is_associative()
    assert not catalog_algebra("closed", "J_{4,6}").is_associative()
    assert zero_algebra(QQ, 2).is_associative()


def test_centre_examples(catalog_algebra):
    assert zero_algebra(QQ, 2).centre().dim == 2
    c = j22().centre()
    assert c.dim == 1 and c.contains((0, 1))
    j32 = catalog_algebra("closed", "J_{3,2}")
    c = j32.centre()
    assert c.dim == 2 and c.contains((0, 1, 0)) and c.contains((0, 0, 1))


def test_lower_central_series_examples(catalog_algebra):
    z = zero_algebra(QQ, 2)
    assert [s.dim for s in z.lower_central_series()] == [2, 0]
    assert [s.dim for s in j34().lower_central_series()] == [3, 2, 1, 0]
    j411 = catalog_algebra("closed", "J_{4,11}")
    assert [s.dim for s in j411.lower_central_series()] == [4, 3, 2, 1, 0]


def test_is_nilpotent_examples():
    assert j22().is_nilpotent() == (True, 3)
    assert zero_algebra(QQ, 1).is_nilpotent() == (True, 2)
    assert Algebra(QQ, 2, {(1, 1, 1): 1}).is_nilpotent() == (False, None)


def test_change_basis_identity_and_scaling():
    a = j22()
    ident = linalg.identity(QQ, 2)
    assert a.change_basis(ident) == a
    scaled = a.change_basis(((Fraction(2), Fraction(0)),
                             (Fraction(0), Fraction(1))))
    assert scaled == Algebra(QQ, 2, {(1, 1, 2): 4})
    with pytest.raises(ValueError):
        a.change_basis(((1, 1), (1, 1)))


def test_change_basis_paper_example():
    # a -> a+b, b -> a-b, c -> 2c turns (ab=c) into (a²=c, b²=-c)
    a = Algebra(QQ, 3, {(1, 2, 3): 1})
    p = ((1, 1, 0), (1, -1, 0), (0, 0, 2))
    assert a.change_basis(p) == Algebra(QQ, 3, {(1, 1, 3): 1, (2, 2, 3): -1})


def random_invertible(rnd, fld, n):
    while True:
        m = tuple(tuple(fld.of(rnd.randint(-3, 3)) for _ in range(n))
                  for _ in range(n))
        if linalg.invert(fld, m) is not None:
            return m


def test_change_basis_is_group_action():
    # seeded random commutative tables, not necessarily Jordan
    rnd = random.Random(3)
    for fld in (GF(2), GF(3), GF(5), QQ):
        for n in (2, 3, 4):
            for _ in range(4):
                a = Algebra(fld, n, {
                    (i, j, k): rnd.randint(-3, 3)
                    for i in range(1, n + 1) for j in range(i, n + 1)
                    for k in range(1, n + 1) if rnd.random() < 0.4})
                p = random_invertible(rnd, fld, n)
                q = random_invertible(rnd, fld, n)
                assert a.change_basis(linalg.identity(fld, n)) == a
                assert a.change_basis(p).change_basis(q) == \
                    a.change_basis(linalg.mat_mul(fld, q, p))
                assert is_isomorphism(a.change_basis(p), a, p)


def test_direct_sum_examples(catalog_algebra):
    assert j22().direct_sum(zero_algebra(QQ, 1)) == \
        catalog_algebra("closed", "J_{3,2}")
    assert zero_algebra(QQ, 1).direct_sum(zero_algebra(QQ, 1)) == \
        zero_algebra(QQ, 2)
    a = j34()
    assert a.direct_sum(zero_algebra(QQ, 0)) == a
    with pytest.raises(ValueError):
        j22().direct_sum(j22(GF(3)))


def test_fingerprint_examples(catalog_algebra):
    z = zero_algebra(QQ, 3)
    assert z.fingerprint() == (3, 3, (3, 0), 0, 2, True, 0)
    j46 = catalog_algebra("closed", "J_{4,6}")
    assert j46.fingerprint() == (4, 1, (4, 2, 1, 0), 2, 4, False, 1)
    assert catalog_algebra("closed", "J_{4,7}").fingerprint().is_associative


def test_fingerprint_invariant_under_change_basis(all_catalog_entries):
    rnd = random.Random(17)
    f3 = GF(3)
    for case, entry in all_catalog_entries:
        fld = GF(2) if case == "char2" else f3
        try:
            a = entry.algebra(fld)
        except ZeroDivisionError:
            continue
        fp = a.fingerprint()
        n = a.dim
        done = 0
        while done < 100:
            p = tuple(tuple(rnd.randrange(fld.p) for _ in range(n))
                      for _ in range(n))
            if linalg.invert(fld, p) is None:
                continue
            done += 1
            assert a.change_basis(p).fingerprint() == fp


def test_nilpotent_implies_nontrivial_centre(all_catalog_entries):
    for case, entry in all_catalog_entries:
        a = entry.algebra(tables.entry_field(case))
        nilpotent, _ = a.is_nilpotent()
        assert nilpotent and (a.dim == 0 or a.centre().dim >= 1)


def test_direct_sum_fingerprint_additive(catalog_algebra):
    a = catalog_algebra("closed", "J_{3,4}")
    b = j22()
    s = a.direct_sum(b)
    assert s.fingerprint().dim == a.dim + b.dim
    assert s.fingerprint().dim_centre == \
        a.fingerprint().dim_centre + b.fingerprint().dim_centre


def test_quotient_by_centre():
    a = j34()
    q = quotient_by_centre(a)            # J_{3,4}/span{c} is a² = b
    assert q == j22()


def test_zero_dim_algebra():
    a = zero_algebra(QQ, 0)
    assert a.is_nilpotent() == (True, 1)
    assert a.check_jordan() and a.is_associative()
