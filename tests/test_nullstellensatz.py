"""Desk-scale consistency of `contains_one` with explicit zero search.

1 in the ideal certifies that no common zero exists over any extension of
the base field; here the converse direction is probed by exhaustively
searching F_p, F_{p^2} and F_{p^3} for zeros (a one-sided witness check;
the runtime package itself never builds extension fields).
"""

import random
from itertools import product as iproduct

from jordannil.field import GF
from jordannil.groebner import PolyRing, buchberger, contains_one


class ExtField:
    """Minimal GF(p^k) arithmetic as F_p[t] modulo an irreducible polynomial."""

    def __init__(self, p, modulus):
        self.p = p
        self.k = len(modulus) - 1
        self.modulus = modulus          # monic, low degree first

    def elements(self):
        return [tuple(v) for v in iproduct(range(self.p), repeat=self.k)]

    def zero(self):
        return (0,) * self.k

    def embed(self, c):
        return (c % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % self.p
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i in range(self.k):
                    prod[d - self.k + i] = \
                        (prod[d - self.k + i] - c * self.modulus[i]) % self.p
        return tuple(prod[:self.k])

    def pow(self, a, e):
        out = self.embed(1)
        for _ in range(e):
            out = self.mul(out, a)
        return out


# degrees 1..3; the degree-1 entry (modulus t) is F_p itself
EXTENSIONS = {
    2: [ExtField(2, (0, 1)), ExtField(2, (1, 1, 1)), ExtField(2, (1, 1, 0, 1))],
    3: [ExtField(3, (0, 1)), ExtField(3, (1, 0, 1)), ExtField(3, (1, 2, 0, 1))],
}


def has_common_zero(polys, ext):
    nvars = polys[0].ring.nvars
    for point in iproduct(ext.elements(), repeat=nvars):
        good = True
        for poly in polys:
            acc = ext.zero()
            for mono, coeff in poly.terms.items():
                term = ext.embed(int(coeff))
                for vi, e in enumerate(poly.ring.unpack(mono)):
                    if e:
                        term = ext.mul(term, ext.pow(point[vi], e))
                acc = ext.add(acc, term)
            if acc != ext.zero():
                good = False
                break
        if good:
            return True
    return False


def test_extension_field_arithmetic():
    f4 = ExtField(2, (1, 1, 1))
    t = (0, 1)
    assert f4.mul(t, t) == (1, 1)           # t² = t + 1
    f9 = ExtField(3, (1, 0, 1))
    i = (0, 1)
    assert f9.mul(i, i) == (2, 0)           # i² = -1
    nonzero = [e for e in f9.elements() if e != f9.zero()]
    assert all(f9.pow(e, 8) == f9.embed(1) for e in nonzero)


def test_contains_one_vs_point_search_handcrafted():
    ring = PolyRing(GF(2), ["x", "y"])
    # x² + x + 1 has no zero in F_2 but two in F_4
    polys = [ring.parse("x^2 + x + 1")]
    basis = buchberger(polys)
    assert not contains_one(basis)
    ground, quad, cubic = EXTENSIONS[2]
    assert not has_common_zero(polys, ground)
    assert has_common_zero(polys, quad)
    # an inconsistent system has no zero anywhere
    polys = [ring.parse("x"), ring.parse("x + 1")]
    assert contains_one(buchberger(polys))
    for ext in EXTENSIONS[2]:
        assert not has_common_zero(polys, ext)


def test_contains_one_vs_point_search_random():
    rnd = random.Random(2718)
    for p in (2, 3):
        fld = GF(p)
        ring = PolyRing(fld, ["x", "y"])
        for _ in range(25):
            polys = []
            for _ in range(rnd.randint(1, 3)):
                terms = {}
                for _ in range(rnd.randint(1, 4)):
                    mono = (rnd.randint(0, 2), rnd.randint(0, 2))
                    c = rnd.randrange(1, p)
                    terms[mono] = c
                poly = ring.poly(terms)
                if poly:
                    polys.append(poly)
            if not polys:
                continue
            one = contains_one(buchberger(polys))
            found = any(has_common_zero(polys, ext) for ext in EXTENSIONS[p])
            if found:
                assert not one
            if one:
                assert not found
