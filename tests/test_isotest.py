import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import jordannil
from jordannil import groebner, homsearch, isotest, linalg, tables
from jordannil.algebra import Algebra, is_isomorphism, zero_algebra
from jordannil.classify import brute_force_classes, classify_dim
from jordannil.field import GF, QQ
from jordannil.groebner import (PolyRing, buchberger, contains_one,
                                eliminate_linear)
from jordannil.isotest import decide, iso_system, prefilter

import theory
from theory import automorphisms, verify_witness


def test_prefilter_examples(catalog_algebra):
    j46 = catalog_algebra("closed", "J_{4,6}")
    j47 = catalog_algebra("closed", "J_{4,7}")
    assert "is_associative" in prefilter(j46, j47)
    assert prefilter(j46, j46) is None
    j33 = catalog_algebra("closed", "J_{3,3}")
    j34 = catalog_algebra("closed", "J_{3,4}")
    assert "dims_lcs" in prefilter(j33, j34)


def test_iso_system_shape():
    j11 = zero_algebra(QQ, 1)
    polys = iso_system(j11, j11)
    assert [p.render() for p in polys] == ["a11*b - 1"]
    j22 = Algebra(QQ, 2, {(1, 1, 2): 1})
    polys = iso_system(j22, j22)
    ring = polys[0].ring
    assert ring.nvars == 2 * 2 + 1
    assert ring.names == ("a11", "a12", "a21", "a22", "b")


FRACTIONAL = Algebra(QQ, 3, {(1, 1, 2): Fraction(1, 2),
                              (1, 1, 3): Fraction(-3, 4),
                              (1, 2, 3): Fraction(5, 3), (2, 2, 3): 2})


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(2)], ids=["Q", "F5", "F2"])
def test_iso_system_matches_exponent_tuples(fld):
    """On every ordered pair of closed tables of equal dim <= 4, and with a
    table with fractional constants, iso_system gives the polynomials of
    the reference built from exponent tuples: the same terms in the same
    order, with coefficients of the same value and type.  Over F_2 the two
    terms a_ik·a_il and a_il·a_ik of a square cancel."""
    algebras = [e.algebra(fld) for e in tables.catalog("closed")]
    if fld == QQ:
        algebras.append(FRACTIONAL)
    pairs = [(a, b) for a in algebras for b in algebras if a.dim == b.dim]
    assert len(pairs) == (199 if fld == QQ else 190)
    for a, b in pairs:
        got, want = iso_system(a, b), theory.iso_system(a, b)
        assert got == want
        assert [list(p.terms.items()) for p in got] == [
            list(p.terms.items()) for p in want]
        assert [list(map(type, p.terms.values())) for p in got] == [
            list(map(type, p.terms.values())) for p in want]


def evaluate(p, point):
    """p at the point, one value per variable, in field arithmetic."""
    f = p.ring.field
    acc = f.zero
    for m, c in p.terms.items():
        for v, e in zip(point, p.ring.unpack(m)):
            for _ in range(e):
                c = f.mul(c, f.of(v))
        acc = f.add(acc, c)
    return acc


def test_known_automorphism_solves_system():
    # a -> 2a, b -> 4b is an automorphism of (a² = b); the slack takes 1/det
    j22 = Algebra(QQ, 2, {(1, 1, 2): 1})
    polys = iso_system(j22, j22)
    # (a11, a12, a21, a22, b)
    point = (2, 0, 0, 4, Fraction(1, 8))
    assert all(evaluate(p, point) == 0 for p in polys)
    assert evaluate(polys[-1], (2, 0, 0, 4, 1)) != 0


def assert_matches_reference(polys, monkeypatch):
    """eliminate_linear substitutes the reference's variables in the same
    order, and each polynomial it returns is a nonzero scalar multiple of
    the reference's; returns its output."""
    order = []
    find = groebner._linear_variable

    def recording(terms, ring):
        u = find(terms, ring)
        if u is not None:
            order.append(ring.unpack(u).index(1))
        return u

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_linear_variable", recording)
        got = eliminate_linear(polys)
    want_order, want = theory.eliminate_linear(polys)
    assert order == want_order
    assert len(got) == len(want)
    for p, q in zip(got, want):
        f = p.ring.field
        assert p.terms.keys() == q.terms.keys()
        assert len({f.div(c, q.terms[m]) for m, c in p.terms.items()}) == 1
    return got


def test_eliminate_linear_preserves_contains_one(catalog_algebra):
    pairs = [("J_{3,3}", "J_{3,4}"), ("J_{3,2}", "J_{3,3}")]
    for id1, id2 in pairs:
        a = catalog_algebra("closed", id1)
        b = catalog_algebra("closed", id2)
        polys = iso_system(a, b)
        raw = contains_one(buchberger(polys))
        reduced = contains_one(buchberger(eliminate_linear(polys)))
        assert raw == reduced


def test_eliminate_linear_random_systems(monkeypatch):
    rnd = random.Random(61)
    outcomes, eliminated = set(), 0
    # the last Q systems have fractional coefficients
    for fld, top in ((QQ, None), (GF(5), None), (QQ, 9)):
        ring = PolyRing(fld, ["x", "y", "z", "w"])
        units = [tuple(int(i == v) for i in range(4)) for v in range(4)]

        def coeff():
            if top:
                return Fraction(rnd.randint(-top, top) or 1,
                                rnd.randint(1, top))
            return rnd.randint(1, 4)

        for _ in range(20):
            polys = []
            for _ in range(rnd.randint(2, 4)):
                terms = {}
                for _ in range(rnd.randint(0, 2)):
                    terms[rnd.choice(units)] = coeff()
                for _ in range(rnd.randint(1, 2)):
                    mono = [0] * 4
                    mono[rnd.randrange(4)] += 1
                    mono[rnd.randrange(4)] += 1
                    terms[tuple(mono)] = coeff()
                if rnd.random() < 0.5:
                    terms[(0, 0, 0, 0)] = coeff()
                polys.append(ring.poly(terms))
            reduced = assert_matches_reference(polys, monkeypatch)
            eliminated += len(reduced) < len(polys)
            one = contains_one(buchberger(polys))
            assert contains_one(buchberger(reduced)) == one
            outcomes.add(one)
            # no variable is left whose only term in a polynomial is c·x
            for p in reduced:
                for v, unit in enumerate(units):
                    assert [m for m in map(ring.unpack, p.terms)
                            if m[v]] != [unit]
    assert outcomes == {False, True} and eliminated


def test_eliminate_linear_on_the_closed_dim4_systems(monkeypatch):
    """On the iso systems, both ways, of the closed dim-4 pairs that the
    fingerprint does not separate, the integer route matches the Fraction
    route."""
    algebras = [e.algebra(QQ) for e in tables.catalog("closed", 4)]
    systems = [iso_system(a, b) for a in algebras for b in algebras
               if a is not b and prefilter(a, b) is None]
    assert len(systems) == 14
    for polys in systems:
        assert assert_matches_reference(polys, monkeypatch)


def test_decide_reflexive(catalog_algebra):
    for case in ("closed", "real", "char2"):
        for entry in tables.catalog(case):
            a = entry.algebra(tables.entry_field(case))
            v = decide(a, a)
            assert v.kind == isotest.ISOMORPHIC
            assert v.witness == linalg.identity(a.field, a.dim)


def test_decide_nonisomorphic_over_closure(catalog_algebra):
    a = catalog_algebra("closed", "J_{4,12}")
    b = catalog_algebra("closed", "J_{4,13}")
    v = decide(a, b)
    assert v.kind == isotest.NON_ISOMORPHIC_OVER_CLOSURE
    assert [g.render() for g in v.certificate] == ["1"]
    w = decide(b, a)
    assert w.kind == v.kind


def test_j45_closure_pair_over_f3(catalog_algebra):
    # J_{4,5} and the class of classify_dim(4, F_3) with its fingerprint:
    # the largest Groebner call of matching the dim-4 catalog over closures
    f3 = GF(3)
    j45 = catalog_algebra("closed", "J_{4,5}", f3)
    same = [r for r in classify_dim(4, f3).representatives
            if r.fingerprint() == j45.fingerprint()]
    assert len(same) == 1
    v = decide(j45, same[0], mode="closure")
    assert v.kind == isotest.ISOMORPHIC_OVER_CLOSURE
    assert v.certificate is None
    basis = buchberger(eliminate_linear(iso_system(j45, same[0])))
    assert len(basis) == 30 and not contains_one(basis)


def test_decide_square_class_pair():
    consts_plus = {(1, 1, 3): 1, (2, 2, 3): 1, (1, 2, 4): 1}
    consts_minus = {(1, 1, 3): 1, (2, 2, 3): -1, (1, 2, 4): 1}
    a, b = Algebra(QQ, 4, consts_plus), Algebra(QQ, 4, consts_minus)
    v = decide(a, b)
    assert v.kind == isotest.ISOMORPHIC_OVER_CLOSURE
    # over F_5, -1 = 2² is a square, so b -> 2b gives a witness
    f5 = GF(5)
    a5, b5 = Algebra(f5, 4, consts_plus), Algebra(f5, 4, consts_minus)
    v5 = decide(a5, b5)
    assert v5.kind == isotest.ISOMORPHIC
    assert verify_witness(a5, b5, v5.witness)


def test_decide_finds_paper_witness_over_q():
    a = Algebra(QQ, 3, {(1, 2, 3): 1})
    b = Algebra(QQ, 3, {(1, 1, 3): 1, (2, 2, 3): -1})
    v = decide(a, b)
    assert v.kind == isotest.ISOMORPHIC
    assert verify_witness(a, b, v.witness)


def test_verify_witness_examples(catalog_algebra):
    a = catalog_algebra("closed", "J_{4,11}")
    assert verify_witness(a, a, linalg.identity(QQ, 4))
    lhs = Algebra(QQ, 3, {(1, 2, 3): 1})
    rhs = Algebra(QQ, 3, {(1, 1, 3): 1, (2, 2, 3): -1})
    assert verify_witness(lhs, rhs, ((1, 1, 0), (1, -1, 0), (0, 0, 2)))
    assert not verify_witness(lhs, rhs, ((1, 1, 0), (1, 1, 0), (0, 0, 2)))
    assert not verify_witness(lhs, lhs, ((1, 0), (0, 1)))


@pytest.mark.parametrize("fld, mode", [(GF(3), "base"), (QQ, "base"),
                                       (QQ, "closure")])
def test_decide_rejects_invalid_witness(monkeypatch, fld, mode):
    # each of the three witness sites raises, with or without python -O
    a = Algebra(fld, 3, {(1, 1, 2): 1, (1, 2, 3): 1})
    monkeypatch.setattr(homsearch, "find_witness",
                        lambda a, b: (linalg.zeros(a.field, 3),) * 3)
    with pytest.raises(isotest.InvalidWitnessError):
        decide(a, a, mode=mode)


def test_decide_rejects_invalid_witness_under_python_O():
    # `python -O` strips asserts and `if __debug__:` blocks alike
    script = textwrap.dedent("""
        from jordannil import homsearch, isotest, linalg
        from jordannil.algebra import Algebra
        from jordannil.field import GF, QQ
        print(__debug__)
        homsearch.find_witness = lambda a, b: (linalg.zeros(a.field, 3),) * 3
        for fld, mode in ((GF(3), "base"), (QQ, "base"), (QQ, "closure")):
            a = Algebra(fld, 3, {(1, 1, 2): 1, (1, 2, 3): 1})
            try:
                isotest.decide(a, a, mode=mode)
                print("accepted")
            except isotest.InvalidWitnessError:
                print("raised")
    """)
    src = str(Path(jordannil.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised", "raised", "raised"]


def test_decide_modes():
    f3 = GF(3)
    j33a = Algebra(f3, 3, {(1, 1, 3): 1, (2, 2, 3): 1})
    j33b = Algebra(f3, 3, {(1, 1, 3): 1, (2, 2, 3): 2})
    v = decide(j33a, j33b, mode="base")
    # same fingerprint, no witness over F_3, but isomorphic over the closure
    assert v.kind == isotest.ISOMORPHIC_OVER_CLOSURE
    assert v.base_field_conclusive
    v = decide(j33a, j33b, mode="closure")
    assert v.kind == isotest.ISOMORPHIC_OVER_CLOSURE
    assert not v.base_field_conclusive
    with pytest.raises(ValueError):
        decide(j33a, j33b, mode="fast")


def test_agreement_with_full_gl_oracle_f2():
    """decide matches an exhaustive GL search on dim <= 3 over F_2."""
    rnd = random.Random(3)
    f2 = GF(2)
    gl3 = automorphisms(zero_algebra(f2, 3))
    samples = [a for a in brute_force_classes(3, f2).representatives]
    count = 0
    while count < 10:
        consts = {}
        for i in range(1, 4):
            for j in range(i, 4):
                for k in range(1, 4):
                    if rnd.random() < 0.3:
                        consts[(i, j, k)] = 1
        a = Algebra(f2, 3, consts)
        nilpotent, _ = a.is_nilpotent()
        if not (nilpotent and a.check_jordan()):
            continue
        count += 1
        samples.append(a)
    for a in samples:
        for b in samples:
            oracle_iso = any(is_isomorphism(a, b, m) for m in gl3)
            v = decide(a, b, mode="base")
            assert (v.kind == isotest.ISOMORPHIC) == oracle_iso


def test_noniso_pairs_have_no_witness_over_small_primes(catalog_algebra):
    pairs = [("J_{4,12}", "J_{4,13}"), ("J_{4,6}", "J_{4,8}")]
    for id1, id2 in pairs:
        c1 = [e for e in tables.catalog("closed", 4) if e.entry_id == id1][0]
        c2 = [e for e in tables.catalog("closed", 4) if e.entry_id == id2][0]
        for p in (3, 5, 7):
            a, b = c1.algebra(GF(p)), c2.algebra(GF(p))
            assert homsearch.find_witness(a, b) is None
            assert homsearch.find_witness(b, a) is None


def test_decide_rejects_field_mismatch():
    with pytest.raises(ValueError):
        decide(zero_algebra(QQ, 1), zero_algebra(GF(3), 1))


def test_decide_symmetric_verdict_kinds():
    entries = tables.catalog("closed", 3) + tables.catalog("closed", 4)[:6]
    algebras = [(e.entry_id, e.algebra()) for e in entries]
    for i in range(len(algebras)):
        for j in range(i + 1, len(algebras)):
            (_, a), (_, b) = algebras[i], algebras[j]
            if a.dim != b.dim:
                continue
            forward = decide(a, b, mode="closure")
            backward = decide(b, a, mode="closure")
            assert forward.kind == backward.kind


def test_resource_exceeded_verdict(catalog_algebra, monkeypatch):
    a = catalog_algebra("closed", "J_{4,9}")
    b = catalog_algebra("closed", "J_{4,10}")
    monkeypatch.setenv("JORDAN_LIMITS", "pairs=0")
    v = decide(a, b)
    assert v.kind == isotest.RESOURCE_EXCEEDED
    assert "budget" in v.detail
