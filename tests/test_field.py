import random
from fractions import Fraction

import pytest

from jordannil.field import GF, QQ, PrimeField


def test_inverse_examples():
    assert QQ.inv(QQ.of(1)) == 1
    assert GF(5).inv(2) == 3
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_double_inverse_is_identity():
    for p in (2, 3, 5, 11):
        f = GF(p)
        for x in range(1, p):
            assert f.inv(f.inv(x)) == x
    rnd = random.Random(1)
    for _ in range(20):
        x = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
        if x:
            assert QQ.inv(QQ.inv(x)) == x


def test_field_axioms_random_triples():
    rnd = random.Random(42)
    fields = [GF(3), GF(7), QQ]
    for f in fields:
        for _ in range(50):
            if f.is_prime_field:
                x, y, z = (rnd.randrange(f.p) for _ in range(3))
            else:
                x, y, z = (Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
                           for _ in range(3))
            assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
            assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
            if y:
                assert f.mul(y, f.inv(y)) == f.one


def test_prime_check():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert GF(2).p == 2


def test_parse_render():
    assert QQ.parse("7/2") == Fraction(7, 2)
    assert QQ.parse("-3") == -3
    assert QQ.render(Fraction(-1, 2)) == "-1/2"
    assert GF(5).parse("7") == 2
    assert GF(5).parse("-1") == 4
    with pytest.raises(ValueError):
        QQ.parse("x")
    with pytest.raises(ValueError):
        GF(3).parse("1/2x")


def test_fraction_coercion_into_prime_field():
    assert GF(5).of(Fraction(1, 2)) == 3   # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        GF(5).of(Fraction(1, 5))
