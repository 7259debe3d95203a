import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jordannil import cli, homsearch, orbits, tables
from jordannil.algebra import Algebra
from jordannil.field import GF, QQ
from jordannil.files import AlgebraFileError, parse_algebra_file, render_algebra
from jordannil.groebner import BOUND


def test_round_trip_catalog(all_catalog_entries):
    for case, entry in all_catalog_entries:
        a = entry.algebra(tables.entry_field(case))
        assert parse_algebra_file(render_algebra(a)) == a


def test_round_trip_fractions():
    a = Algebra(QQ, 2, {(1, 1, 2): Fraction(7, 2), (2, 2, 1): -3})
    text = render_algebra(a)
    assert "2:7/2" in text
    assert parse_algebra_file(text) == a


def test_round_trip_random_tables():
    rnd = random.Random(31)
    for fld in (QQ, GF(2), GF(5)):
        for _ in range(20):
            n = rnd.randint(1, 4)
            consts = {}
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    for k in range(1, n + 1):
                        if rnd.random() < 0.3:
                            c = rnd.randint(-9, 9) or 1
                            consts[(i, j, k)] = (
                                c if fld.is_prime_field
                                else Fraction(c, rnd.randint(1, 5)))
            a = Algebra(fld, n, consts)
            assert parse_algebra_file(render_algebra(a)) == a


def test_parse_examples():
    a = parse_algebra_file("field F 3\ndim 4\n1 1 : 2:1\n1 2 : 4:1\n")
    assert a.field == GF(3) and a.dim == 4
    assert a.constants == {(1, 1, 2): 1, (1, 2, 4): 1}
    # comments and reversed index order are fine
    b = parse_algebra_file("# c\nfield Q\ndim 2\n2 1 : 2:1  # ba\n")
    assert b.constants == {(1, 2, 2): Fraction(1)}


def test_parse_errors():
    with pytest.raises(AlgebraFileError, match="line 3"):
        parse_algebra_file("field Q\ndim 1\n1 1 : 2:1\n")
    with pytest.raises(AlgebraFileError, match="not prime"):
        parse_algebra_file("field F 4\ndim 1\n")
    with pytest.raises(AlgebraFileError, match="duplicate"):
        parse_algebra_file("field Q\ndim 2\n1 1 : 2:1\n1 1 : 2:2\n")
    with pytest.raises(AlgebraFileError, match="duplicate"):
        parse_algebra_file("field Q\ndim 2\n1 2 : 2:1\n2 1 : 2:2\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("dim 2\nfield Q\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("")
    with pytest.raises(AlgebraFileError, match="twice"):
        parse_algebra_file("field Q\ndim 2\n1 1 : 2:1 2:1\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def entry_file(tmp_path, case, entry_id, fld=None):
    entry = [e for e in tables.catalog(case) if e.entry_id == entry_id][0]
    a = entry.algebra(fld if fld is not None else tables.entry_field(case))
    safe = entry_id.replace("{", "").replace("}", "").replace(",", "_")
    return write(tmp_path, f"{safe}.alg", render_algebra(a))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_check(tmp_path, capsys):
    path = entry_file(tmp_path, "closed", "J_{4,11}")
    code, out = run_cli(capsys, "check", path)
    assert code == 0
    assert out == "Jordan: yes; nilpotent: yes (nilindex 5)\n"
    bad = write(tmp_path, "idem.alg", "field Q\ndim 2\n1 1 : 1:1\n")
    code, out = run_cli(capsys, "check", bad)
    assert code == 1
    assert out == "Jordan: yes; nilpotent: no\n"


def test_cli_input_error_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.alg", "field F 4\ndim 1\n")
    assert cli.main(["check", bad]) == 2
    assert cli.main(["iso", bad, bad]) == 2
    capsys.readouterr()


def test_cli_iso_expect(tmp_path, capsys):
    j46 = entry_file(tmp_path, "closed", "J_{4,6}")
    j47 = entry_file(tmp_path, "closed", "J_{4,7}")
    code, out = run_cli(capsys, "iso", j46, j47, "--expect", "noniso")
    assert code == 0
    assert "distinguished" in out
    code, _ = run_cli(capsys, "iso", j46, j47, "--expect", "iso")
    assert code == 1
    code, out = run_cli(capsys, "iso", j46, j46, "--expect", "iso")
    assert code == 0
    assert "witness" in out


def test_cli_iso_json(tmp_path, capsys):
    j12 = entry_file(tmp_path, "closed", "J_{4,12}")
    j13 = entry_file(tmp_path, "closed", "J_{4,13}")
    code, out = run_cli(capsys, "iso", j12, j13, "--json",
                        "--expect", "noniso")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non_isomorphic_over_closure"
    assert payload["certificate"] == ["1"]


def test_cli_iso_cones_refute_before_the_candidate_bound(tmp_path, capsys,
                                                        monkeypatch):
    # over F_37 the witness search would have 37^4 - 1 = 1 874 160
    # candidates; the square-zero cones (2 701 and 4 033 vectors) refute the
    # pair first, from p + 1 = 38 quadratic forms each
    monkeypatch.delenv("JORDAN_LIMITS", raising=False)
    j46 = entry_file(tmp_path, "closed", "J_{4,6}", GF(37))
    j48 = entry_file(tmp_path, "closed", "J_{4,8}", GF(37))
    code, out = run_cli(capsys, "iso", j46, j48, "--json",
                        "--expect", "noniso")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non_isomorphic_over_closure"
    assert payload["certificate"] == ["1"]


def test_cli_iso_cone_forms_bound_exits_3(tmp_path, capsys, monkeypatch):
    # at p = 1 000 003 each cone sums over p + 1 forms, above the bound
    monkeypatch.delenv("JORDAN_LIMITS", raising=False)
    j46 = entry_file(tmp_path, "closed", "J_{4,6}", GF(1000003))
    j48 = entry_file(tmp_path, "closed", "J_{4,8}", GF(1000003))
    t0 = time.perf_counter()
    assert cli.main(["iso", j46, j48, "--json"]) == 3
    assert time.perf_counter() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: the square-zero cone count "
                            "would sum over 1000004 quadratic forms "
                            "((1000003^2 - 1)/1000002), above the bound "
                            "1000000 (JORDAN_LIMITS points=N overrides it)\n")


def test_cli_iso_different_dimensions(tmp_path, capsys):
    a = write(tmp_path, "a.alg", "field F 3\ndim 3\n1 1 : 2:1\n")
    b = write(tmp_path, "b.alg", "field F 3\ndim 4\n1 1 : 2:1\n")
    code, out = run_cli(capsys, "iso", a, b, "--json", "--expect", "noniso")
    assert code == 0
    assert json.loads(out) == {"verdict": "distinguished",
                               "base_field_conclusive": True,
                               "invariant": "dim: 3 != 4"}


def test_cli_classify_and_determinism(capsys):
    code, out1 = run_cli(capsys, "classify", "--dim", "3", "--field", "F:3")
    assert code == 0
    assert "5 classes" in out1
    code, out2 = run_cli(capsys, "classify", "--dim", "3", "--field", "F:3")
    assert out1 == out2
    code, out = run_cli(capsys, "classify", "--dim", "2", "--field", "F:2",
                        "--json")
    assert json.loads(out)["count"] == 2


def test_cli_classify_dim4_runs(capsys):
    # finite-field dim-4 counts are findings, not assertions
    code, out = run_cli(capsys, "classify", "--dim", "4", "--field", "F:2")
    assert code == 0
    assert "classes" in out.splitlines()[0]


@pytest.mark.parametrize("verb", ["classify", "oracle"])
@pytest.mark.parametrize("dim", ["0", "-1"])
def test_cli_dim_below_one_exits_2(capsys, verb, dim):
    assert cli.main([verb, "--dim", dim, "--field", "F:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_oracle(capsys):
    code, out = run_cli(capsys, "oracle", "--dim", "2", "--field", "F:3")
    assert code == 0
    assert "2 classes" in out


@pytest.mark.parametrize("dim, field, count", [("3", "F:3", "3^18"),
                                               ("2", "F:13", "13^6")])
def test_cli_oracle_above_the_bound_exits_3(capsys, dim, field, count):
    assert cli.main(["oracle", "--dim", dim, "--field", field]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"resource limit: {count} tables exceed the "
                            "oracle bound 2000000\n")


def test_cli_oracle_dim1_near_the_bound(capsys):
    # 1 999 993 tables, under the oracle bound: one class and no witness
    # search, which would list p - 1 candidate images
    code, out = run_cli(capsys, "oracle", "--dim", "1", "--field",
                        "F:1999993", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_cli_cocycles_extend_orbits(tmp_path, capsys):
    j21 = write(tmp_path, "j21.alg", "field F 3\ndim 2\n")
    code, out = run_cli(capsys, "cocycles", j21)
    assert code == 0
    assert "Z2 dim 3" in out and "H2 dim 3" in out
    code, out = run_cli(capsys, "extend", j21, "--theta", "S(1,1)+S(2,2)")
    assert code == 0
    assert parse_algebra_file(out) == Algebra(GF(3), 3,
                                              {(1, 1, 3): 1, (2, 2, 3): 1})
    code, out = run_cli(capsys, "extend", j21, "--theta", "S(1,1); S(2,1)")
    assert parse_algebra_file(out) == Algebra(GF(3), 4,
                                              {(1, 1, 3): 1, (1, 2, 4): 1})
    code, out = run_cli(capsys, "extend", j21, "--theta",
                        "S(1,1)+S(2,2); S(2,1)")
    assert parse_algebra_file(out) == Algebra(
        GF(3), 4, {(1, 1, 3): 1, (2, 2, 3): 1, (1, 2, 4): 1})
    j22 = write(tmp_path, "j22.alg", "field F 3\ndim 2\n1 1 : 2:1\n")
    code, out = run_cli(capsys, "extend", j22, "--theta", "S(2,2)")
    assert code == 2
    for theta in ("S(3,1)", "S(0,1)"):
        assert cli.main(["extend", j21, "--theta", theta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad --theta: ")
    code, out = run_cli(capsys, "orbits", j21, "--r", "1")
    assert code == 0
    assert "allowable 9" in out and "orbits 2" in out


@pytest.mark.parametrize("verb_args", [
    ["cocycles"], ["cocycles", "--json"], ["extend", "--theta", "S(1,1)"],
    ["orbits", "--r", "1"], ["orbits", "--r", "1", "--json"],
], ids=["cocycles", "cocycles-json", "extend", "orbits", "orbits-json"])
@pytest.mark.parametrize("table, reason", [
    ("field F 3\ndim 3\n1 1 : 2:1\n2 2 : 3:1\n", "not a Jordan algebra"),
    ("field F 3\ndim 2\n1 1 : 1:1\n", "not nilpotent"),
    ("field F 3\ndim 3\n1 1 : 1:1\n1 2 : 3:1\n", "not a Jordan algebra"),
], ids=["nilpotent-not-jordan", "jordan-not-nilpotent", "neither"])
def test_cli_construction_verbs_reject_bad_input(tmp_path, capsys, verb_args,
                                                table, reason):
    path = write(tmp_path, "bad.alg", table)
    assert cli.main([verb_args[0], path, *verb_args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"


def test_cli_orbits_enumerates_allowable_points_once(tmp_path, capsys,
                                                     monkeypatch):
    # the orbit walk enumerates G_r(H²) once and tests one point per orbit
    calls = []
    original = orbits.grassmannian_points

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(orbits, "grassmannian_points", counting)
    j21 = write(tmp_path, "j21.alg", "field F 3\ndim 2\n")
    code, out = run_cli(capsys, "orbits", j21, "--r", "1")
    assert code == 0 and "allowable 9" in out and "orbits 2" in out
    assert len(calls) == 1


def test_cli_orbits_grassmannian_bound_exits_3(tmp_path, capsys):
    # G(3, 6) over F_5 has 2 558 556 points, above the default bound
    zero = write(tmp_path, "zero3.alg", "field F 5\ndim 3\n")
    t0 = time.perf_counter()
    assert cli.main(["orbits", zero, "--r", "3"]) == 3
    assert time.perf_counter() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: G(3, 6) over F_5 has 2558556 "
                            "points, above the bound 1000000 "
                            "(JORDAN_LIMITS points=N overrides it)\n")


def _null_filiform(n, relabel):
    """e_i ∘ e_j = e_{i+j} over Q, with e_k renamed to e_{relabel(k)}."""
    lines = ["field Q", f"dim {n}"]
    for i in range(1, n + 1):
        for j in range(i, n + 1 - i):
            x, y = sorted((relabel(i), relabel(j)))
            lines.append(f"{x} {y} : {relabel(i + j)}:1")
    return "\n".join(lines) + "\n"


def test_cli_iso_candidate_bound_exits_3(tmp_path, capsys, monkeypatch):
    # over Q the witness search lists 5^9 - 1 candidate images at dim 9; the
    # bound stops it before one is allocated
    monkeypatch.delenv("JORDAN_LIMITS", raising=False)
    a = write(tmp_path, "nf9.alg", _null_filiform(9, lambda k: k))
    b = write(tmp_path, "nf9c.alg", _null_filiform(9, lambda k: k % 9 + 1))
    t0 = time.perf_counter()
    assert cli.main(["iso", a, b, "--json"]) == 3
    assert time.perf_counter() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: the witness search would list "
                            "1953124 candidate images (5^9 - 1), above the "
                            "bound 1000000 (JORDAN_LIMITS points=N overrides "
                            "it)\n")

    class PastTheBound(Exception):
        pass

    def listing(*args, **kwargs):
        raise PastTheBound()

    # with the bound raised the same call goes on to list the candidates
    monkeypatch.setenv("JORDAN_LIMITS", "points=2000000")
    monkeypatch.setattr(homsearch, "iproduct", listing)
    with pytest.raises(PastTheBound):
        cli.main(["iso", a, b, "--json"])


def test_cli_check_dim_bound_exits_3(tmp_path, capsys, monkeypatch):
    # dim 400 would allocate a 400³ table before the bound
    big = write(tmp_path, "big.alg", "field F 2\n# header\ndim 400\n")
    t0 = time.perf_counter()
    assert cli.main(["check", big]) == 3
    assert time.perf_counter() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: line 3: dim 400 is above the "
                            "bound 24 (JORDAN_LIMITS dim=N overrides it)\n")
    # the bound applies to every verb that reads an algebra file
    assert cli.main(["invariants", big]) == 3
    # and JORDAN_LIMITS moves it both ways
    zero7 = write(tmp_path, "zero7.alg", "field F 5\ndim 7\n")
    monkeypatch.setenv("JORDAN_LIMITS", "dim=6")
    assert cli.main(["check", zero7]) == 3
    monkeypatch.setenv("JORDAN_LIMITS", "dim=7")
    code, out = run_cli(capsys, "check", zero7)
    assert code == 0 and out.startswith("Jordan: yes")


def test_cli_extend_dim_bound_exits_3(tmp_path, capsys, monkeypatch):
    # the extension of a dim-1 table by 30 components has dim 31
    monkeypatch.delenv("JORDAN_LIMITS", raising=False)
    line = write(tmp_path, "line.alg", "field F 3\ndim 1\n")
    theta = ";".join(["S(1,1)"] * 30)
    assert cli.main(["extend", line, "--theta", theta]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: the extension has dim 31 (1 + 30 "
                            "--theta components), above the bound 24 "
                            "(JORDAN_LIMITS dim=N overrides it)\n")
    monkeypatch.setenv("JORDAN_LIMITS", "dim=40")
    code, out = run_cli(capsys, "extend", line, "--theta", theta)
    assert code == 0
    assert parse_algebra_file(out) == Algebra(
        GF(3), 31, {(1, 1, k): 1 for k in range(2, 32)})


def test_cli_classify_dim_bound_exits_3(capsys, monkeypatch):
    # dim 6 over F_2 takes about a minute and dim 7 does not finish
    monkeypatch.delenv("JORDAN_LIMITS", raising=False)
    t0 = time.perf_counter()
    assert cli.main(["classify", "--dim", "6", "--field", "F:2"]) == 3
    assert time.perf_counter() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: classify --dim 6 is above the "
                            "bound 5 (JORDAN_LIMITS classify_dim=N overrides "
                            "it)\n")
    # input errors still exit 2 first
    assert cli.main(["classify", "--dim", "6", "--field", "Q"]) == 2
    capsys.readouterr()
    # and JORDAN_LIMITS moves the bound both ways
    monkeypatch.setenv("JORDAN_LIMITS", "classify_dim=2")
    assert cli.main(["classify", "--dim", "3", "--field", "F:2"]) == 3
    assert capsys.readouterr().err.startswith(
        "resource limit: classify --dim 3 is above the bound 2 ")
    monkeypatch.setenv("JORDAN_LIMITS", "classify_dim=3")
    code, out = run_cli(capsys, "classify", "--dim", "3", "--field", "F:2")
    assert code == 0 and out.startswith("classification dim 3 over F_2: ")


def test_cli_large_prime_field(tmp_path, capsys):
    # trial division to √p kept both calls running past 20 s
    p = 10 ** 18 + 3
    code, out = run_cli(capsys, "classify", "--dim", "1", "--field", f"F:{p}")
    assert code == 0 and out.startswith(f"classification dim 1 over F_{p}: 1 ")
    path = write(tmp_path, "big_p.alg", f"field F {p}\ndim 2\n1 1 : 2:5\n")
    code, out = run_cli(capsys, "check", path)
    assert code == 0 and out.startswith("Jordan: yes; nilpotent: yes")
    for spec in (f"F:{10 ** 18 + 1}", f"F:{2 ** 89 - 1}"):
        assert cli.main(["classify", "--dim", "1", "--field", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            f"error: bad field spec '{spec}': ")


def test_cli_points_bound_spares_the_jordan_identity(tmp_path, capsys,
                                                     monkeypatch):
    # the Jordan and cocycle identities are imposed at the generic point
    # over F_2 too, so the `points` bound guards only what lists points
    path = write(tmp_path, "sq7.alg", "field F 2\ndim 7\n1 1 : 2:1\n")
    monkeypatch.delenv("JORDAN_LIMITS", raising=False)
    unbounded = [run_cli(capsys, "check", path),
                 run_cli(capsys, "cocycles", path, "--json")]
    monkeypatch.setenv("JORDAN_LIMITS", "points=1")
    assert [run_cli(capsys, "check", path),
            run_cli(capsys, "cocycles", path, "--json")] == unbounded
    assert [code for code, _ in unbounded] == [0, 0]
    assert unbounded[0][1].startswith("Jordan: yes")
    assert cli.main(["orbits", path, "--r", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("resource limit: ")


@pytest.mark.parametrize("argv", [["classify", "--dim", "3", "--field",
                                   "F:2"], ["gb", "sys.gb"]])
def test_cli_bad_limits_exit_2(tmp_path, capsys, monkeypatch, argv):
    write(tmp_path, "sys.gb", "field Q\nvars x y\nx^2 - y\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("JORDAN_LIMITS", "points=many")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad JORDAN_LIMITS entry 'points=many'\n"


@pytest.mark.parametrize("verb, text, limits, message", [
    ("check", "field F 3\ndim \u00b2\n", "",
     "{path}: line 2: expected `dim <n>`"),
    ("check", "field F 3\ndim 2\n1 \u00b2 : 2:1\n", "",
     "{path}: line 3: bad product indices '1 \u00b2'"),
    ("check", "field F 3\ndim 2\n1 1 : \u00b2:1\n", "",
     "{path}: line 3: bad term '\u00b2:1', expected k:coeff"),
    ("check", "field F 3\ndim 2\n", "points=\u00b2",
     "bad JORDAN_LIMITS entry 'points=\u00b2'"),
    ("gb", "field Q\nvars x y\nx^\u00b2 - y\n", "",
     "bad polynomial: bad exponent in 'x^\u00b2'"),
], ids=["dim", "indices", "term", "limits", "gb-exponent"])
def test_cli_superscript_digit_exits_2(tmp_path, capsys, monkeypatch, verb,
                                       text, limits, message):
    # str.isdigit accepts '²', which int() rejects
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setenv("JORDAN_LIMITS", limits)
    assert cli.main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


def test_cli_gb(tmp_path, capsys):
    path = write(tmp_path, "sys.gb",
                 "field Q\nvars x y\nx^2 - y\ny^2 - x\n")
    code, out = run_cli(capsys, "gb", path, "--order", "lex")
    assert code == 0
    assert "y^4 - y" in out
    path2 = write(tmp_path, "hard.gb",
                  "field Q\nvars x y z\nx^2+y^2+z^2-1\nx*y+y*z+x*z\n"
                  "x^2*y-z^3+x\n")
    os.environ["JORDAN_LIMITS"] = "pairs=2"
    try:
        code = cli.main(["gb", path2])
    finally:
        del os.environ["JORDAN_LIMITS"]
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "field Q\nvars x 2\nx-2\n",        # `2` is not a variable name
    "field Q\nvars x x\nx\n",          # a name given twice
    "field Q\nvars x y\nx^*y - 1\n",   # an exponent left empty
], ids=["number-as-var", "repeated-var", "empty-exponent"])
def test_cli_gb_rejects_bad_vars_and_exponents(tmp_path, capsys, text):
    path = write(tmp_path, "bad.gb", text)
    assert cli.main(["gb", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("gens, code, message", [
    # x^(B+1) does not fit its field: an input error
    (f"x^{BOUND + 1} - y", 2,
     f"error: bad polynomial: degree {BOUND + 1} exceeds the bound {BOUND}"),
    # both fit, but the lcm x^B·y^B of the S-pair has degree 2B
    (f"x^{BOUND}\ny^{BOUND}", 3,
     f"resource limit: a monomial's exponent or degree exceeds {BOUND}"),
], ids=["parse", "lcm"])
def test_cli_gb_exponent_bound(tmp_path, gens, code, message):
    # a whole process, so that a traceback would show on stderr
    path = write(tmp_path, "big.gb", f"field Q\nvars x y\n{gens}\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "jordannil.cli", "gb", path],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "",
                                                          message + "\n")


def test_cli_catalog(capsys):
    code, out = run_cli(capsys, "catalog", "list", "--case", "closed",
                        "--dim", "4")
    assert code == 0
    assert out.count("J_{4,") == 13
    code, out = run_cli(capsys, "catalog", "verify", "--case", "closed",
                        "--dim", "3")
    assert code == 0
    assert "OK" in out


def test_cli_catalog_verify_empty_selection_exits_2(capsys):
    # `catalog list` refuses an empty selection the same way
    for action in ("verify", "list"):
        for extra in ([], ["--json"]):
            assert cli.main(["catalog", action, "--case", "char2",
                             "--dim", "4", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: no catalog entries")


def test_cli_invariants_json(tmp_path, capsys):
    path = entry_file(tmp_path, "closed", "J_{4,6}")
    code, out = run_cli(capsys, "invariants", path, "--json")
    payload = json.loads(out)
    assert payload["dims_lcs"] == [4, 2, 1, 0]
    assert payload["is_associative"] is False


def test_cli_catalog_files_pass_check(tmp_path, capsys, all_catalog_entries):
    for case, entry in all_catalog_entries:
        a = entry.algebra(tables.entry_field(case))
        path = write(tmp_path, "entry.alg", render_algebra(a))
        assert cli.main(["check", path]) == 0
        capsys.readouterr()


def test_cli_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
