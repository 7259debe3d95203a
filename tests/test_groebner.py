import json
import random
from fractions import Fraction

import pytest

from jordannil import cli, tables
from jordannil.field import GF, QQ
from jordannil.groebner import (BOUND, PolyRing, _element, buchberger,
                                contains_one, eliminate_linear, reduce_poly,
                                s_polynomial)
from jordannil.isotest import iso_system
from jordannil.limits import Limits, ResourceLimitError
from theory import (ORDER_KEYS, eliminate_linear_reducing_all, mono_div,
                    mono_divides, mono_lcm, mono_mul, poly_add, poly_mul,
                    poly_scale, tuple_terms)


def ring_xy(fld=QQ, order="lex"):
    return PolyRing(fld, ["x", "y"], order)


ORDER_NAMES = ("degrevlex", "lex")


def random_system(rnd, fld, nvars=3, npolys=3, maxdeg=2, order="degrevlex",
                  top=None):
    """Random generators; over Q with top set, coefficients are fractions
    with numerator and denominator up to top in size."""
    names = ["x", "y", "z", "w"][:nvars]
    ring = PolyRing(fld, names, order)
    polys = []
    for _ in range(npolys):
        terms = {}
        for _ in range(rnd.randint(2, 4)):
            mono = [0] * nvars
            for _ in range(rnd.randint(0, maxdeg)):
                mono[rnd.randrange(nvars)] += 1
            if fld.is_prime_field:
                c = rnd.randrange(1, fld.p)
            elif top:
                c = Fraction(rnd.randint(-top, top) or 1, rnd.randint(1, top))
            else:
                c = rnd.randint(-3, 3) or 1
            terms[tuple(mono)] = c
        polys.append(ring.poly(terms))
    return ring, [p for p in polys if p]


def test_reduce_examples():
    r = ring_xy()
    assert reduce_poly(r.parse("x^2"), [r.parse("x - 1")]) == r.parse("1")
    f = r.parse("x*y - 1")
    assert reduce_poly(f, []) == f
    assert reduce_poly(f, [r.parse("x^2 - 1"), f]).is_zero()


def test_division_reexpansion():
    for order in ORDER_NAMES:
        rnd = random.Random(77)
        for fld in (QQ, GF(5)):
            for _ in range(15):
                ring, polys = random_system(rnd, fld, order=order)
                if len(polys) < 2:
                    continue
                f, basis = polys[0], polys[1:]
                rem = reduce_poly(f, basis)
                # f - rem lies in the ideal of the basis
                assert reduce_poly(poly_add(f, rem, -1),
                                   buchberger(basis)).is_zero()
                # remainder terms are irreducible
                for m in rem.terms:
                    for g in basis:
                        if g:
                            assert not all(a <= b for a, b in zip(
                                ring.unpack(g.lead_monomial()),
                                ring.unpack(m)))


def test_s_polynomial_examples():
    r = ring_xy()
    f = r.parse("x^2 - 1")
    assert s_polynomial(f, f).is_zero()
    s = s_polynomial(f, r.parse("x*y - 1"))
    assert s == r.parse("x - y")
    # coprime lead monomials: S reduces to zero modulo the pair
    g1, g2 = r.parse("x^2 - 1"), r.parse("y^2 - 2")
    assert reduce_poly(s_polynomial(g1, g2), [g1, g2]).is_zero()


def test_buchberger_examples():
    r = ring_xy()
    x, x1 = r.parse("x"), r.parse("x - 1")
    assert [g.render() for g in buchberger([x, x1])] == ["1"]
    assert [g.render() for g in buchberger([x1])] == ["x - 1"]
    basis = buchberger([r.parse("x^2 - y"), r.parse("y^2 - x")])
    rendered = [g.render() for g in basis]
    assert "y^4 - y" in rendered  # lex eliminant


def test_contains_one():
    r = ring_xy()
    x, x1 = r.parse("x"), r.parse("x - 1")
    assert contains_one(buchberger([x, x1]))
    assert not contains_one([x1])
    assert contains_one([r.parse("3")])
    assert not contains_one([])


def test_every_s_pair_reduces_to_zero():
    for order in ORDER_NAMES:
        rnd = random.Random(41)
        for fld in (QQ, GF(3)):
            for _ in range(10):
                ring, polys = random_system(rnd, fld, order=order)
                if not polys:
                    continue
                basis = buchberger(polys)
                for i in range(len(basis)):
                    for j in range(i + 1, len(basis)):
                        s = s_polynomial(basis[i], basis[j])
                        assert reduce_poly(s, basis).is_zero()


def test_reduced_basis_unique_under_permutation():
    for order in ORDER_NAMES:
        rnd = random.Random(55)
        for trial in range(20):
            fld = QQ if trial % 2 else GF(5)
            ring, polys = random_system(rnd, fld, order=order)
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



def test_cli_gb_files_ignore_order_comments_and_blanks(tmp_path, capsys):
    # each seeded system is written twice; the second copy has its
    # generators shuffled and comment and blank lines added
    rnd = random.Random(61)
    for order in ORDER_NAMES:
        for fld, spec in ((QQ, "Q"), (GF(7), "F 7")):
            for _ in range(6):
                ring, polys = random_system(rnd, fld, order=order)
                if not polys:
                    continue
                head = [f"field {spec}", "vars " + " ".join(ring.names)]
                gens = [p.render() for p in polys]
                noisy = [f"{g}  # generator" for g in gens]
                rnd.shuffle(noisy)
                outs = []
                for name, lines in (("plain.gb", head + gens),
                                    ("noisy.gb", ["# a system", ""] + head
                                     + ["", "   "] + noisy + [""])):
                    path = tmp_path / name
                    path.write_text("\n".join(lines) + "\n")
                    assert cli.main(["gb", str(path), "--order", order,
                                     "--json"]) == 0
                    outs.append(capsys.readouterr().out)
                assert outs[0] == outs[1]
                basis = [ring.parse(t) for t in json.loads(outs[0])["basis"]]
                assert basis == buchberger(polys)
                assert all(reduce_poly(p, basis).is_zero() for p in polys)

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


# -- reference: the linear scans that the pair and term heaps replaced, on
# exponent tuples ordered by the order's key --------------------------------

def tuple_lead(p):
    return max(tuple_terms(p), key=ORDER_KEYS[p.ring.order])


def monic(p):
    """p over its lead coefficient, in field arithmetic; 0 stays 0."""
    if not p.terms:
        return p
    return poly_scale(p, p.ring.field.inv(p.terms[p.lead_monomial()]))


def scan_reduce_poly(f, basis):
    """reduce_poly with each lead term found by a max scan over the terms
    left to reduce."""
    ring = f.ring
    fld = ring.field
    data = []
    for g in basis:
        if g.terms:
            terms = tuple_terms(g)
            lm = tuple_lead(g)
            data.append((lm, terms[lm], terms))
    work = tuple_terms(f)
    rem = {}
    while work:
        m = max(work, key=ORDER_KEYS[ring.order])
        c = work.pop(m)
        for lm, lc, terms in data:
            if mono_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        q = mono_div(m, lm)
        factor = fld.div(c, lc)
        for tm, tc in terms.items():
            if tm == lm:
                continue
            mm = mono_mul(tm, q)
            nc = fld.sub(work.get(mm, fld.zero), fld.mul(factor, tc))
            if nc:
                work[mm] = nc
            elif mm in work:
                del work[mm]
    return ring.poly(rem)


def scan_interreduce(polys):
    current = [monic(p) for p in polys if p.terms]
    i = 0
    while i < len(current):
        p = current[i]
        r = scan_reduce_poly(p, current[:i] + current[i + 1:])
        if not r.terms:
            current.pop(i)
            i = 0
        elif r.terms != p.terms:
            current[i] = monic(r)
            i = 0
        else:
            i += 1
    return current


def scan_buchberger(gens):
    """(reduced basis, processed S-pairs, most terms of a nonzero S-pair
    remainder) of buchberger with each S-pair chosen by a min scan over the
    open pairs, keyed by (key(lcm), (i, j))."""
    basis = scan_interreduce(gens)
    if not basis:
        return [], 0, 0
    key = ORDER_KEYS[basis[0].ring.order]
    pairs = {(i, j): mono_lcm(tuple_lead(basis[i]), tuple_lead(basis[j]))
             for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = most_terms = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: (key(pairs[ij]), ij))
        lij = pairs.pop((i, j))
        processed += 1
        if lij == mono_mul(tuple_lead(basis[i]), tuple_lead(basis[j])):
            continue
        if any(k not in (i, j)
               and mono_divides(tuple_lead(basis[k]), lij)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        r = scan_reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if r.terms:
            most_terms = max(most_terms, len(r.terms))
            r = monic(r)
            t = len(basis)
            basis.append(r)
            pairs.update(((u, t), mono_lcm(tuple_lead(basis[u]),
                                           tuple_lead(r)))
                         for u in range(t))
    minimal = []
    for g in sorted(basis, key=lambda g: key(tuple_lead(g))):
        if not any(mono_divides(tuple_lead(h), tuple_lead(g))
                   for h in minimal):
            minimal.append(g)
    out = [monic(scan_reduce_poly(g, minimal[:i] + minimal[i + 1:]))
           for i, g in enumerate(minimal)]
    return sorted((g for g in out if g.terms),
                  key=lambda g: key(tuple_lead(g))), processed, most_terms


def test_heaps_keep_the_scan_selection(monkeypatch):
    """Same reduced basis and normal forms as the linear scans, and the same
    budget outcomes: the least N with JORDAN_LIMITS=pairs=N (the processed
    pairs) or terms=N that does not raise is the reference's.  On these
    seeded systems the counts also move when ties between equal lcms are
    popped in reverse (j, i) order."""
    rnd = random.Random(3)
    counts = []
    for order in ORDER_NAMES:
        for fld in (QQ, GF(3), GF(7)):
            for _ in range(16):
                ring, polys = random_system(rnd, fld, nvars=rnd.randint(2, 4),
                                            npolys=rnd.randint(3, 5),
                                            maxdeg=3, order=order)
                if not polys:
                    continue
                want, processed, most_terms = scan_buchberger(polys)
                counts.append(processed)
                for budget, least in (("pairs", processed),
                                      ("terms", most_terms)):
                    monkeypatch.setenv("JORDAN_LIMITS", f"{budget}={least}")
                    assert buchberger(polys) == want
                    if least:
                        monkeypatch.setenv("JORDAN_LIMITS",
                                           f"{budget}={least - 1}")
                        with pytest.raises(ResourceLimitError):
                            buchberger(polys)
                f = poly_add(poly_mul(polys[0], polys[-1]),
                             polys[len(polys) // 2])
                for basis in (polys[1:], want):
                    assert reduce_poly(f, basis) == scan_reduce_poly(f, basis)
    assert len(counts) > 80 and max(counts) > 100


def test_fractional_coefficients_match_the_fraction_reference():
    """Over Q with fractional coefficients and leads other than ±1, where
    the integer normal form rescales, the normal forms and reduced bases
    are the Fraction reference scans', in both orders."""
    rnd = random.Random(29)
    leads = []
    for order in ORDER_NAMES:
        for _ in range(24):
            ring, polys = random_system(rnd, QQ, nvars=rnd.randint(2, 3),
                                        npolys=rnd.randint(2, 4), maxdeg=3,
                                        order=order, top=9)
            if not polys:
                continue
            leads += [abs(p.terms[p.lead_monomial()]) for p in polys]
            want = scan_buchberger(polys)[0]
            assert buchberger(polys) == want
            f = poly_add(poly_mul(polys[0], polys[-1]),
                         polys[len(polys) // 2])
            for basis in (polys[1:], want):
                assert reduce_poly(f, basis) == scan_reduce_poly(f, basis)
    assert sum(c != 1 for c in leads) > len(leads) // 2


def test_rescaling_chain():
    """Leads 2x, 3y, 5z, 7w: every step reducing x^k rescales, and the
    normal form is the constant 210^-k."""
    for order in ORDER_NAMES:
        ring = PolyRing(QQ, ["x", "y", "z", "w"], order)
        basis = [ring.parse(t) for t in ("2*x - y", "3*y - z", "5*z - w",
                                         "7*w - 1")]
        k = 40
        f = ring.parse(f"x^{k} + 1/3*x^{k - 1}*z")
        # x = 1/210 and z = 1/35 on the variety
        want = ring.poly({(0, 0, 0, 0): Fraction(1, 210 ** k)
                          + Fraction(1, 3 * 35 * 210 ** (k - 1))})
        assert reduce_poly(f, basis) == scan_reduce_poly(f, basis) == want
        assert reduce_poly(f, basis[::-1]) == want
        reduced = buchberger(basis)
        assert reduced == scan_buchberger(basis)[0]
        assert sorted(g.render() for g in reduced) == [
            "w - 1/7", "x - 1/210", "y - 1/105", "z - 1/35"]
        # a basis element is primitive with a positive lead coefficient
        for text, lead, coeffs in (("-6*x + 4*y - 10", 3, [-2, 3, 5]),
                                   ("-3/2*x + 1/3*y", 9, [-2, 9])):
            _, lc, terms = _element(0, ring.parse(text).terms)
            assert (lc, sorted(terms.values())) == (lead, coeffs)


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
    assert ring.parse("2") == ring.poly({(0, 0, 0): 2})
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
                    p = poly_scale(p, Fraction(rnd.randint(-9, 9) or 1,
                                               rnd.randint(1, 5)))
                assert ring.parse(p.render()) == p


def test_packed_monomials_match_exponent_tuples():
    """Packing is a bijection onto ints ordered by the term order, under
    which +, -, the guard-bit divisibility test and lcm are the tuple
    operations: on small exponents, where ties and divisibility are
    frequent, and on exponents whose products reach half the bound."""
    rnd = random.Random(13)
    for order in ORDER_NAMES:
        key = ORDER_KEYS[order]
        divides = set()
        for nvars in (1, 2, 3, 5):
            ring = PolyRing(QQ, ["x", "y", "z", "u", "v"][:nvars], order)
            for trial in range(300):
                top = 3 if trial % 3 else BOUND // (2 * nvars)
                a, b = (tuple(rnd.randint(0, top) for _ in range(nvars))
                        for _ in range(2))
                pa, pb = ring.pack(a), ring.pack(b)
                assert (ring.unpack(pa), ring.unpack(pb)) == (a, b)
                assert (pa < pb) == (key(a) < key(b))
                assert (pa == pb) == (a == b)
                assert pa + pb == ring.pack(mono_mul(a, b))
                assert ring.lcm(pa, pb) == ring.pack(mono_lcm(a, b))
                assert (not (pb - pa) & ring.guard) == mono_divides(a, b)
                if mono_divides(a, b):
                    assert pb - pa == ring.pack(mono_div(b, a))
                divides.add(mono_divides(a, b))
        assert divides == {False, True}


def test_exponent_bound():
    """A field past BOUND is a ValueError when packed and a
    ResourceLimitError when a product or lcm reaches it; in degrevlex the
    degree is a field, in lex only the exponents are."""
    for order in ORDER_NAMES:
        ring = PolyRing(QQ, ["x", "y"], order)
        top = ring.parse(f"x^{BOUND}")
        assert ring.unpack(top.lead_monomial()) == (BOUND, 0)
        for bad in ((BOUND + 1, 0), (0, -1), (1,)):
            with pytest.raises(ValueError):
                ring.pack(bad)
        with pytest.raises(ValueError, match=str(BOUND)):
            ring.parse(f"x^{BOUND + 1} - 1")
        with pytest.raises(ValueError, match=str(BOUND)):
            ring.parse(f"x^{BOUND}*x")
        # y = x^2 in x^(B-1)·y, with the generators in either order
        gens = [ring.parse(f"x^{BOUND - 1}*y"), ring.parse("y - x^2")]
        for system in (gens, gens[::-1]):
            with pytest.raises(ResourceLimitError, match=str(BOUND)):
                eliminate_linear(system)
        corner = [top, ring.parse(f"y^{BOUND}")]
        if order == "degrevlex":
            with pytest.raises(ValueError, match="degree"):
                ring.pack((BOUND, 1))
            # the lcm x^B·y^B has degree 2B
            with pytest.raises(ResourceLimitError, match=str(BOUND)):
                buchberger(corner)
        else:
            assert buchberger(corner) == corner[::-1]
            # x·y reduces by x - y^B to y^(B+1); from x^2 - y^(B-1) and
            # x·y - 1 Buchberger adds x - y^B, whose S-polynomial with
            # x·y - 1 holds y^(B+1)
            big = ring.parse(f"x - y^{BOUND}")
            with pytest.raises(ResourceLimitError, match=str(BOUND)):
                reduce_poly(ring.parse("x*y"), [big])
            with pytest.raises(ResourceLimitError, match=str(BOUND)):
                buchberger([ring.parse(f"x^2 - y^{BOUND - 1}"),
                            ring.parse("x*y - 1")])


def test_orders_differ():
    rl = PolyRing(QQ, ["x", "y"], "lex")
    rd = PolyRing(QQ, ["x", "y"], "degrevlex")
    # x > y^3 in lex but not in degrevlex
    f_lex = rl.parse("x + y^3")
    f_deg = rd.parse("x + y^3")
    assert rl.unpack(f_lex.lead_monomial()) == (1, 0)
    assert rd.unpack(f_deg.lead_monomial()) == (0, 3)



def test_eliminate_linear_brings_back_terms_set_aside():
    """x = -y^2 in x·z + y^2·z + z^2: in degrevlex y^2·z is set aside
    before the substitution brings -y^2·z back, and the two cancel."""
    for fld in (QQ, GF(5)):
        ring = PolyRing(fld, ["x", "y", "z"])
        g = ring.parse("x + y^2")
        assert eliminate_linear([g, ring.parse("x*z + y^2*z")]) == []
        assert eliminate_linear([g, ring.parse("x*z + y^2*z + z^2")]) == [
            ring.parse("z^2")]


@pytest.mark.parametrize("fld", [QQ, GF(5)], ids=["Q", "F5"])
def test_eliminate_linear_reduces_only_what_holds_the_variable(fld):
    """eliminate_linear, which reduces only the polynomials with a term the
    substituted variable divides, returns what the reference that reduces
    and re-normalises every polynomial returns: on the iso systems of every
    ordered pair of distinct closed dim-3 and dim-4 tables, and on random
    systems (with fractional coefficients over Q)."""
    algebras = [e.algebra(fld) for e in tables.catalog("closed")
                if e.dim >= 3]
    systems = [iso_system(a, b) for a in algebras for b in algebras
               if a is not b and a.dim == b.dim]
    rnd = random.Random(29)
    for _ in range(40):
        systems.append(random_system(rnd, fld, nvars=4, npolys=4,
                                     top=9 if fld == QQ else None)[1])
    for polys in systems:
        assert eliminate_linear(polys) == eliminate_linear_reducing_all(polys)
