import random

import pytest

from jordannil import cli
from jordannil import cohomology as coh
from jordannil import orbits
from jordannil.algebra import Algebra, zero_algebra
from jordannil.cohomology import dual_form, zero_form
from jordannil.extension import central_extension
from jordannil.field import GF, QQ

from theory import (centre_of_extension_decomposition,
                    cohomologous_extensions_isomorphic,
                    extension_is_jordan_iff_cocycle, form_from_coeffs,
                    is_allowable)


def test_central_extension_examples():
    j11 = zero_algebra(QQ, 1)
    assert central_extension(j11, [dual_form(QQ, 1, 1, 1)]) == \
        Algebra(QQ, 2, {(1, 1, 2): 1})
    j21 = zero_algebra(QQ, 2)
    theta = dual_form(QQ, 2, 1, 1).add(dual_form(QQ, 2, 2, 2))
    assert central_extension(j21, [theta]) == \
        Algebra(QQ, 3, {(1, 1, 3): 1, (2, 2, 3): 1})
    a = Algebra(QQ, 2, {(1, 1, 2): 1})
    assert central_extension(a, [zero_form(QQ, 2)]) == \
        a.direct_sum(zero_algebra(QQ, 1))


def test_extensions_reconstruct_dim4_tables(catalog_algebra):
    # the stated cocycles rebuild the dimension-4 tables from their parents
    j31 = zero_algebra(QQ, 3)
    theta = dual_form(QQ, 3, 1, 1).add(dual_form(QQ, 3, 2, 2)) \
        .add(dual_form(QQ, 3, 3, 3))
    assert central_extension(j31, [theta]) == catalog_algebra("closed", "J_{4,5}")

    j32 = catalog_algebra("closed", "J_{3,2}")
    theta = dual_form(QQ, 3, 2, 1).add(dual_form(QQ, 3, 3, 3))
    assert central_extension(j32, [theta]) == catalog_algebra("closed", "J_{4,7}")

    j34 = catalog_algebra("closed", "J_{3,4}")
    theta = dual_form(QQ, 3, 3, 1).add(dual_form(QQ, 3, 2, 2))
    assert central_extension(j34, [theta]) == catalog_algebra("closed", "J_{4,11}")

    j21 = zero_algebra(QQ, 2)
    pair = [dual_form(QQ, 2, 1, 1), dual_form(QQ, 2, 2, 1)]
    assert is_allowable(j21, pair)
    assert central_extension(j21, pair) == catalog_algebra("closed", "J_{4,12}")
    pair = [dual_form(QQ, 2, 1, 1).add(dual_form(QQ, 2, 2, 2)),
            dual_form(QQ, 2, 2, 1)]
    assert central_extension(j21, pair) == catalog_algebra("closed", "J_{4,13}")


def test_extension_rejects_non_cocycle(tmp_path, capsys):
    # the pipeline extends by lifts of H² points only; θ from outside the
    # program is checked against Z² by the extend verb
    path = tmp_path / "j22.alg"
    path.write_text("field Q\ndim 2\n1 1 : 2:1\n", encoding="utf-8")
    argv = ["extend", str(path), "--theta", "S(2,1); S(2,2)"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: component 2 violates the cocycle identity\n"


def test_iff_lemma_examples():
    a = Algebra(QQ, 2, {(1, 1, 2): 1})
    assert extension_is_jordan_iff_cocycle(a, dual_form(QQ, 2, 2, 2)) == \
        (False, False)
    assert extension_is_jordan_iff_cocycle(a, zero_form(QQ, 2)) == (True, True)
    assert extension_is_jordan_iff_cocycle(a, dual_form(QQ, 2, 2, 1)) == \
        (True, True)


def test_iff_lemma_random_forms_over_f3():
    rnd = random.Random(31)
    fld = GF(3)
    bases = [zero_algebra(fld, 2), Algebra(fld, 2, {(1, 1, 2): 1}),
             Algebra(fld, 3, {(1, 1, 2): 1, (1, 2, 3): 1})]
    for a in bases:
        both = set()
        for _ in range(40):
            coeffs = {(i, j): rnd.randrange(3)
                      for i in range(1, a.dim + 1) for j in range(1, i + 1)}
            beta = form_from_coeffs(fld, a.dim, coeffs)
            in_z2, jordan = extension_is_jordan_iff_cocycle(a, beta)
            assert in_z2 == jordan
            both.add(in_z2)
        assert both == {True, False} or a.dim == 2


def decomposition(a, forms):
    return centre_of_extension_decomposition(
        a, forms, central_extension(a, forms))


def test_centre_decomposition_examples(catalog_algebra):
    j21 = zero_algebra(QQ, 2)
    theta = dual_form(QQ, 2, 1, 1).add(dual_form(QQ, 2, 2, 2))
    centre, flag = decomposition(j21, [theta])
    assert flag and centre.dim == 1 and centre.contains((0, 0, 1))

    centre, flag = decomposition(j21, [zero_form(QQ, 2)])
    assert flag and centre.dim == 3

    j32 = catalog_algebra("closed", "J_{3,2}")
    centre, flag = decomposition(j32, [dual_form(QQ, 3, 3, 2)])
    assert flag and centre.dim == 1 and centre.contains((0, 0, 0, 1))
    # the extension is the non-associative J_{4,6}
    built = central_extension(j32, [dual_form(QQ, 3, 3, 2)])
    assert built == catalog_algebra("closed", "J_{4,6}")


def test_is_allowable_examples():
    j21 = zero_algebra(QQ, 2)
    assert not is_allowable(j21, [dual_form(QQ, 2, 1, 1)])
    assert is_allowable(j21, [dual_form(QQ, 2, 1, 1), dual_form(QQ, 2, 2, 1)])
    assert not is_allowable(
        j21, [dual_form(QQ, 2, 1, 1), zero_form(QQ, 2)])
    # S(2,2) is not a cocycle on J_{2,2}, though its radical misses the centre
    j22 = Algebra(QQ, 2, {(1, 1, 2): 1})
    assert not is_allowable(j22, [dual_form(QQ, 2, 2, 2)])


def test_is_allowable_computes_z2_once(monkeypatch):
    calls = []
    original = coh.cocycle_space

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(coh, "cocycle_space", counting)
    f3 = GF(3)
    theta = dual_form(f3, 2, 1, 1).add(dual_form(f3, 2, 2, 2))
    assert is_allowable(zero_algebra(f3, 2), [theta])
    assert len(calls) == 1


def test_cohomologous_extensions_isomorphic():
    j11 = zero_algebra(QQ, 1)
    assert cohomologous_extensions_isomorphic(
        j11, [dual_form(QQ, 1, 1, 1)], [[1]])
    a = Algebra(GF(3), 2, {(1, 1, 2): 1})
    theta = [dual_form(GF(3), 2, 2, 1)]
    assert cohomologous_extensions_isomorphic(a, theta, [[0], [0]])
    rnd = random.Random(2)
    for _ in range(20):
        f_rows = [[rnd.randrange(3)], [rnd.randrange(3)]]
        assert cohomologous_extensions_isomorphic(a, theta, f_rows)


def test_extensions_of_cocycles_are_jordan_and_nilpotent():
    rnd = random.Random(13)
    fld = GF(3)
    for consts, n in (({}, 2), ({(1, 1, 2): 1}, 2),
                      ({(1, 1, 2): 1, (1, 2, 3): 1}, 3)):
        a = Algebra(fld, n, consts)
        z2 = coh.cocycle_space(a)
        for _ in range(20):
            theta = zero_form(fld, n)
            for f in z2.forms:
                theta = theta.add(f.scale(rnd.randrange(3)))
            built = central_extension(a, [theta])
            assert built.check_jordan()
            nilpotent, _ = built.is_nilpotent()
            assert nilpotent


def test_allowable_extension_centre_is_exactly_v():
    fld = GF(3)
    for consts, n in (({}, 2), ({(1, 1, 2): 1}, 2)):
        a = Algebra(fld, n, consts)
        h2 = coh.h2_space(a)
        for r in range(1, h2.dim + 1):
            for pt in orbits.orbit_representatives(a, r)[2]:
                forms = orbits.point_forms(h2, pt)
                built = central_extension(a, forms)
                centre = built.centre()
                assert centre.dim == r
                for t in range(r):
                    vec = [fld.zero] * (n + r)
                    vec[n + t] = fld.one
                    assert centre.contains(tuple(vec))


def test_trivial_extension_equals_direct_sum():
    a = Algebra(QQ, 2, {(1, 1, 2): 1})
    for r in (1, 2):
        assert central_extension(a, [zero_form(QQ, 2)] * r) == \
            a.direct_sum(zero_algebra(QQ, r))


def test_central_extension_rejects_bad_shapes():
    a = Algebra(QQ, 2, {(1, 1, 2): 1})
    with pytest.raises(ValueError):
        central_extension(a, [])
    with pytest.raises(ValueError):
        central_extension(a, [dual_form(QQ, 3, 1, 1)])
