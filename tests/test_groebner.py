import random
from fractions import Fraction

import pytest

from jordannil.field import GF, QQ
from jordannil.groebner import (PolyRing, buchberger, contains_one,
                                reduce_poly, s_polynomial)
from jordannil.limits import Limits, ResourceLimitError


def ring_xy(fld=QQ, order="lex"):
    return PolyRing(fld, ["x", "y"], order)


def random_system(rnd, fld, nvars=3, npolys=3, maxdeg=2):
    names = ["x", "y", "z", "w"][:nvars]
    ring = PolyRing(fld, names)
    polys = []
    for _ in range(npolys):
        terms = {}
        for _ in range(rnd.randint(2, 4)):
            mono = [0] * nvars
            for _ in range(rnd.randint(0, maxdeg)):
                mono[rnd.randrange(nvars)] += 1
            if fld.is_prime_field:
                c = rnd.randrange(1, fld.p)
            else:
                c = rnd.randint(-3, 3) or 1
            terms[tuple(mono)] = c
        polys.append(ring.poly(terms))
    return ring, [p for p in polys if p]


def test_reduce_examples():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    assert reduce_poly(x * x, [x - r.const(1)]) == r.const(1)
    f = x * y - r.const(1)
    assert reduce_poly(f, []) == f
    assert reduce_poly(f, [x * x - r.const(1), f]).is_zero()


def test_division_reexpansion():
    rnd = random.Random(77)
    for fld in (QQ, GF(5)):
        for _ in range(15):
            ring, polys = random_system(rnd, fld)
            if len(polys) < 2:
                continue
            f, basis = polys[0], polys[1:]
            rem = reduce_poly(f, basis)
            # f - rem lies in the ideal of the basis
            assert reduce_poly(f - rem, buchberger(basis)).is_zero()
            # remainder terms are irreducible
            for m in rem.terms:
                for g in basis:
                    if g:
                        assert not all(a <= b for a, b in
                                       zip(g.lead_monomial(), m))


def test_s_polynomial_examples():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    f = x * x - r.const(1)
    assert s_polynomial(f, f).is_zero()
    s = s_polynomial(f, x * y - r.const(1))
    assert s == x - y
    # coprime lead monomials: S reduces to zero modulo the pair
    g1, g2 = x * x - r.const(1), y * y - r.const(2)
    assert reduce_poly(s_polynomial(g1, g2), [g1, g2]).is_zero()


def test_buchberger_examples():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    assert [g.render() for g in buchberger([x, x - r.const(1)])] == ["1"]
    assert [g.render() for g in buchberger([x - r.const(1)])] == ["x - 1"]
    basis = buchberger([x * x - y, y * y - x])
    rendered = [g.render() for g in basis]
    assert "y^4 - y" in rendered  # lex eliminant


def test_contains_one():
    r = ring_xy()
    x = r.var("x")
    assert contains_one(buchberger([x, x - r.const(1)]))
    assert not contains_one([x - r.const(1)])
    assert contains_one([r.const(3)])
    assert not contains_one([])


def test_every_s_pair_reduces_to_zero():
    rnd = random.Random(41)
    for fld in (QQ, GF(3)):
        for _ in range(10):
            ring, polys = random_system(rnd, fld)
            if not polys:
                continue
            basis = buchberger(polys)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j])
                    assert reduce_poly(s, basis).is_zero()


def test_reduced_basis_unique_under_permutation():
    rnd = random.Random(55)
    for trial in range(20):
        fld = QQ if trial % 2 else GF(5)
        ring, polys = random_system(rnd, fld)
        if len(polys) < 2:
            continue
        b1 = buchberger(polys)
        shuffled = polys[:]
        rnd.shuffle(shuffled)
        b2 = buchberger(shuffled)
        assert b1 == b2


def test_generators_lie_in_ideal_of_basis():
    rnd = random.Random(19)
    ring, polys = random_system(rnd, GF(7))
    basis = buchberger(polys)
    for p in polys:
        assert reduce_poly(p, basis).is_zero()


def test_resource_limits(monkeypatch):
    ring = PolyRing(QQ, ["x", "y", "z"])
    gens = [ring.parse("x^2+y^2+z^2-1"), ring.parse("x*y+y*z+x*z"),
            ring.parse("x^2*y-z^3+x")]
    monkeypatch.setenv("JORDAN_LIMITS", "pairs=2")
    with pytest.raises(ResourceLimitError):
        buchberger(gens)
    monkeypatch.delenv("JORDAN_LIMITS")
    basis = buchberger(gens)
    assert basis and not contains_one(basis)


def test_limits_from_env():
    limits = Limits.from_env({"JORDAN_LIMITS": "pairs=10,terms=20,basis=5"})
    assert (limits.max_pairs, limits.max_terms, limits.max_basis) == (10, 20, 5)
    assert Limits.from_env({}) == Limits()
    with pytest.raises(ValueError):
        Limits.from_env({"JORDAN_LIMITS": "pairs=ten"})


def test_limits_from_env_points():
    assert Limits().max_points == 1_000_000
    limits = Limits.from_env({"JORDAN_LIMITS": "points=50,pairs=7"})
    assert (limits.max_points, limits.max_pairs) == (50, 7)
    with pytest.raises(ValueError):
        Limits.from_env({"JORDAN_LIMITS": "points=-1"})


def test_parser_and_render():
    ring = PolyRing(QQ, ["a11", "a12", "b"])
    p = ring.parse("3*a11^2*b - 1/2*a12")
    assert p.render() == "3*a11^2*b - 1/2*a12"
    assert ring.parse("-a11 + a11") .is_zero()
    assert ring.parse("2") == ring.const(2)
    with pytest.raises(ValueError):
        ring.parse("q + 1")
    with pytest.raises(ValueError):
        ring.parse("")


def test_parse_render_round_trip():
    rnd = random.Random(23)
    for fld in (QQ, GF(7)):
        for _ in range(20):
            ring, polys = random_system(rnd, fld, nvars=4, maxdeg=3)
            for p in polys:
                if fld == QQ:
                    p = p.scale(Fraction(rnd.randint(-9, 9) or 1,
                                         rnd.randint(1, 5)))
                assert ring.parse(p.render()) == p


def test_orders_differ():
    rl = PolyRing(QQ, ["x", "y"], "lex")
    rd = PolyRing(QQ, ["x", "y"], "degrevlex")
    # x > y^3 in lex but not in degrevlex
    f_lex = rl.parse("x + y^3")
    f_deg = rd.parse("x + y^3")
    assert f_lex.lead_monomial() == (1, 0)
    assert f_deg.lead_monomial() == (0, 3)


def test_substitute():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    p = x * x + y
    assert p.substitute({0: y + ring.const(1)}) == \
        ring.parse("y^2 + 3*y + 1")  # (y+1)^2 + y
