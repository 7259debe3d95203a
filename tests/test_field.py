import random
from fractions import Fraction

import pytest

from jordannil.field import GF, MR_BOUND, QQ, PrimeField, is_prime


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


def test_is_prime_matches_trial_division_below_10000():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(10_000) if is_prime(n)] == \
        [n for n in range(10_000) if by_division(n)]


def test_is_prime_on_large_values():
    # trial division to √p ran for minutes on the two primes
    assert is_prime(10 ** 18 + 3)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(10 ** 18 + 1)                 # 101 · 9901 · ...
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
    # the least strong pseudoprimes to the first 11 and 12 prime bases
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(318_665_857_834_031_151_167_461)
    assert GF(10 ** 18 + 3).inv(2) == (10 ** 18 + 4) // 2


def test_prime_field_rejects_p_past_the_exact_bound():
    # MR_BOUND is composite, yet a strong probable prime to every base used
    assert is_prime(MR_BOUND)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(MR_BOUND)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 89 - 1)


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


def canonical(x):
    """The rational x as Q holds it: an int when integral, else x."""
    return x.numerator if x.denominator == 1 else x


def test_rationals_are_ints_when_integral():
    assert (QQ.zero, QQ.one) == (0, 1)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of(Fraction(4, 2))) is int and QQ.of(Fraction(4, 2)) == 2
    assert type(QQ.of(True)) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(Fraction(-1, 3))) is int
    assert type(QQ.parse("6/3")) is int and type(QQ.parse("-4")) is int
    assert type(QQ.parse("1/3")) is Fraction


def test_rational_ops_match_fraction_arithmetic():
    """add, sub, mul, inv and div agree with plain Fraction arithmetic on
    the value and return the canonical type; render and hash do not see
    the type, so tables, keys and output are those of Fractions."""
    rnd = random.Random(28)
    types = set()
    for _ in range(400):
        x, y = (Fraction(rnd.randint(-12, 12), rnd.choice((1, 1, 2, 3, 4)))
                for _ in range(2))
        qx, qy = QQ.of(x), QQ.of(y)
        want = {"add": x + y, "sub": x - y, "mul": x * y, "neg": -x}
        got = {"add": QQ.add(qx, qy), "sub": QQ.sub(qx, qy),
               "mul": QQ.mul(qx, qy), "neg": QQ.neg(qx)}
        if y:
            want["inv"], got["inv"] = 1 / y, QQ.inv(qy)
            want["div"], got["div"] = x / y, QQ.div(qx, qy)
        for name, value in want.items():
            assert got[name] == value, (name, x, y)
            assert type(got[name]) is type(canonical(value)), (name, x, y)
            assert QQ.render(got[name]) == str(value)
            assert hash(got[name]) == hash(value)
            types.add(type(got[name]))
    assert types == {int, Fraction}
