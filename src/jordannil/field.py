"""Exact ground fields: the rationals and prime fields F_p.

A field object is the arithmetic context; elements are plain values
(`fractions.Fraction` for Q, ints in [0, p) for F_p).  Everything is exact,
there is no floating point anywhere in the package.
"""

from fractions import Fraction


class UnsupportedFieldError(ValueError):
    """Raised when an operation needs a field kind it does not support."""


# Miller–Rabin on the first 13 prime bases is exact below MR_BOUND, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Exact primality for n < MR_BOUND by deterministic Miller–Rabin."""
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1     # 2^s exactly divides n - 1
    for q in _MR_BASES:
        x = pow(q, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class Field:
    """Common interface of Rationals and PrimeField."""

    kind = None           # "Q" or "Fp"
    characteristic = 0

    @property
    def is_prime_field(self):
        return self.kind == "Fp"

    def div(self, x, y):
        return self.mul(x, self.inv(y))


class Rationals(Field):
    """The field Q with arbitrary-precision Fraction elements."""

    kind = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(x)

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {text!r}") from exc

    def render(self, x):
        return str(x)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The prime field F_p; elements are ints reduced to [0, p)."""

    kind = "Fp"

    def __init__(self, p):
        if p >= MR_BOUND:
            raise ValueError(f"{p} is too large: primes below {MR_BOUND} "
                             "are supported")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def parse(self, text):
        try:
            return int(text.strip()) % self.p
        except ValueError as exc:
            raise ValueError(f"bad F_{self.p} literal {text!r}") from exc

    def render(self, x):
        return str(x % self.p)

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()

_gf_cache = {}


def GF(p):
    """The prime field F_p (cached per p)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
