"""Command-line interface.

Exit codes: 0 success, 1 failed check/expectation, 2 input error,
3 resource limit exceeded.  All output is deterministic for fixed inputs.
"""

import argparse
import json
import sys

from . import tables as catalog_mod
from . import classify as classify_mod
from . import cohomology, extension, isotest, orbits
from .field import QQ, GF
from .files import AlgebraFileError, parse_algebra_file, render_algebra
from .groebner import PolyRing, buchberger
from .limits import Limits, ResourceLimitError


class InputError(Exception):
    pass


def _read_algebra(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_algebra_file(text)
    except AlgebraFileError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_nilpotent_jordan(path):
    """An algebra file the construction applies to: Jordan and nilpotent."""
    a = _read_algebra(path)
    if not a.check_jordan():
        raise InputError(f"{path}: not a Jordan algebra")
    if not a.is_nilpotent()[0]:
        raise InputError(f"{path}: not nilpotent")
    return a


def _parse_field(spec):
    if spec == "Q":
        return QQ
    if spec.startswith("F:"):
        try:
            return GF(int(spec[2:]))
        except ValueError as exc:
            raise InputError(f"bad field spec {spec!r}: {exc}") from exc
    raise InputError(f"bad field spec {spec!r}; use Q or F:<p>")


def _emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _render_matrix(fld, mat):
    return "\n".join(" ".join(fld.render(x) for x in row) for row in mat)


# -- verbs ------------------------------------------------------------------

def cmd_check(args):
    a = _read_algebra(args.file)
    jordan = a.check_jordan()
    nilpotent, nilindex = a.is_nilpotent()
    nil_txt = f"yes (nilindex {nilindex})" if nilpotent else "no"
    print(f"Jordan: {'yes' if jordan else 'no'}; nilpotent: {nil_txt}")
    return 0 if jordan and nilpotent else 1


def cmd_invariants(args):
    a = _read_algebra(args.file)
    fp = a.fingerprint()
    if args.json:
        _emit_json(fp._asdict())
        return 0
    print(f"dim: {fp.dim}")
    print(f"centre dim: {fp.dim_centre}")
    print(f"lower central series dims: {fp.dims_lcs}")
    print(f"square dim: {fp.dim_square}")
    print(f"nilindex: {fp.nilindex if fp.nilindex is not None else 'none'}")
    print(f"associative: {'yes' if fp.is_associative else 'no'}")
    print(f"centre ∩ square dim: {fp.dim_centre_meet_square}")
    return 0


def cmd_cocycles(args):
    a = _read_nilpotent_jordan(args.file)
    h2 = cohomology.h2_space(a)
    spaces = {title: [cohomology.render_form(f) for f in forms]
              for title, forms in (("Z2", h2.z2.forms),
                                   ("dC1", h2.coboundaries.forms),
                                   ("H2", h2.basis))}
    if args.json:
        _emit_json({title: {"dim": len(basis), "basis": basis}
                    for title, basis in spaces.items()})
        return 0
    for title, basis in spaces.items():
        print(f"{title} dim {len(basis)}:")
        for text in basis:
            print(f"  {text}")
    return 0


def cmd_extend(args):
    a = _read_nilpotent_jordan(args.file)
    parts = args.theta.split(";")
    dim, bound = a.dim + len(parts), Limits.from_env().max_dim
    if dim > bound:
        raise ResourceLimitError(
            f"the extension has dim {dim} ({a.dim} + {len(parts)} --theta "
            f"components), above the bound {bound} "
            "(JORDAN_LIMITS dim=N overrides it)")
    comps = []
    for part in parts:
        part = part.strip()
        if not part:
            raise InputError("empty cocycle component in --theta")
        try:
            comps.append(cohomology.parse_form_combo(a.field, a.dim, part))
        except ValueError as exc:
            raise InputError(f"bad --theta: {exc}") from exc
    z2 = cohomology.cocycle_space(a)
    for t, form in enumerate(comps):
        if not z2.contains(form):
            raise InputError(
                f"component {t + 1} violates the cocycle identity")
    sys.stdout.write(render_algebra(extension.central_extension(a, comps)))
    return 0


def cmd_orbits(args):
    a = _read_nilpotent_jordan(args.file)
    if not a.field.is_prime_field:
        raise InputError("orbit enumeration needs a prime field")
    if args.r < 1:
        raise InputError("--r must be at least 1")
    h2, allowable, reps = orbits.orbit_representatives(a, args.r)

    def rep_text(pt):
        forms = orbits.point_forms(h2, pt)
        return "; ".join(cohomology.render_form(f) for f in forms)

    if args.json:
        _emit_json({"h2_dim": h2.dim, "r": args.r,
                    "allowable": allowable, "orbits": len(reps),
                    "representatives": [rep_text(pt) for pt in reps]})
        return 0
    print(f"H2 dim {h2.dim}; r={args.r}; allowable {allowable}; "
          f"orbits {len(reps)}")
    for idx, pt in enumerate(reps, start=1):
        print(f"rep {idx}: {rep_text(pt)}")
    return 0


def cmd_iso(args):
    a = _read_algebra(args.file1)
    b = _read_algebra(args.file2)
    if a.field != b.field:
        raise InputError("the two algebras use different fields")
    verdict = isotest.decide(a, b, mode=args.mode)
    payload = {"verdict": verdict.kind,
               "base_field_conclusive": verdict.base_field_conclusive}
    if verdict.invariant:
        payload["invariant"] = verdict.invariant
    if verdict.witness is not None:
        payload["witness"] = [[a.field.render(x) for x in row]
                              for row in verdict.witness]
    if verdict.certificate is not None:
        payload["certificate"] = [g.render() for g in verdict.certificate]
    if verdict.detail:
        payload["detail"] = verdict.detail
    if args.json:
        _emit_json(payload)
    else:
        print(f"verdict: {verdict.kind}")
        if verdict.invariant:
            print(f"distinguished by {verdict.invariant}")
        if verdict.witness is not None:
            print("witness:")
            print(_render_matrix(a.field, verdict.witness))
        if verdict.certificate is not None:
            print("certificate: reduced basis "
                  + "{" + ", ".join(g.render() for g in verdict.certificate) + "}")
        if verdict.detail:
            print(verdict.detail)
    if verdict.kind == isotest.RESOURCE_EXCEEDED:
        return 3
    if args.expect == "iso":
        return 0 if verdict.kind == isotest.ISOMORPHIC else 1
    if args.expect == "noniso":
        return 0 if verdict.non_isomorphic else 1
    return 0


def cmd_gb(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    fld = None
    names = None
    polys_text = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field "):
            spec = line.split(None, 1)[1].strip()
            fld = _parse_field(spec.replace("F ", "F:"))
        elif line.startswith("vars "):
            names = line.split()[1:]
        else:
            polys_text.append(line)
    if fld is None or not names:
        raise InputError("gb file needs `field ...` and `vars ...` headers")
    try:
        ring = PolyRing(fld, names, args.order)
    except ValueError as exc:
        raise InputError(f"bad vars line: {exc}") from exc
    try:
        gens = [ring.parse(t) for t in polys_text]
    except ValueError as exc:
        raise InputError(f"bad polynomial: {exc}") from exc
    basis = buchberger(gens)
    if args.json:
        _emit_json({"order": args.order, "basis": [g.render() for g in basis]})
        return 0
    print(f"reduced basis ({len(basis)} elements, {args.order}):")
    for g in basis:
        print(f"  {g.render()}")
    return 0


def _emit_classification(result, label, as_json):
    reps = result.representatives
    if as_json:
        _emit_json({
            "what": label, "dim": result.dim, "field": repr(result.field),
            "count": len(reps),
            "classes": [{
                "index": i + 1,
                "provenance": prov.describe(),
                "fingerprint": rep.fingerprint()._asdict(),
                "file": render_algebra(rep),
            } for i, (rep, prov) in enumerate(zip(reps, result.provenance))],
        })
        return
    print(f"{label} dim {result.dim} over {result.field!r}: "
          f"{len(reps)} classes")
    for i, (rep, prov) in enumerate(zip(reps, result.provenance), start=1):
        fp = rep.fingerprint()
        print(f"class {i}: centre {fp.dim_centre}; lcs {fp.dims_lcs}; "
              f"associative {'yes' if fp.is_associative else 'no'}; "
              f"{prov.describe()}")
    for i, rep in enumerate(reps, start=1):
        print(f"--- class {i} ---")
        sys.stdout.write(render_algebra(rep))
    return


def _check_dim(dim):
    if dim < 1:
        raise InputError(f"--dim must be at least 1, got {dim}")


def cmd_classify(args):
    _check_dim(args.dim)
    fld = _parse_field(args.field)
    if not fld.is_prime_field:
        raise InputError("classify needs a prime field (use F:<p>)")
    bound = Limits.from_env().max_classify_dim
    if args.dim > bound:
        raise ResourceLimitError(
            f"classify --dim {args.dim} is above the bound {bound} "
            "(JORDAN_LIMITS classify_dim=N overrides it)")
    result = classify_mod.classify_dim(args.dim, fld)
    _emit_classification(result, "classification", args.json)
    return 0


def cmd_oracle(args):
    _check_dim(args.dim)
    fld = _parse_field(args.field)
    if not fld.is_prime_field:
        raise InputError("the oracle needs a prime field (use F:<p>)")
    result = classify_mod.brute_force_classes(args.dim, fld)
    _emit_classification(result, "oracle", args.json)
    return 0


def cmd_catalog(args):
    entries = catalog_mod.catalog(args.case, args.dim)
    if not entries:
        raise InputError(f"no catalog entries for --case {args.case}"
                         f" --dim {args.dim}")
    if args.action == "list":
        if args.json:
            _emit_json([{
                "id": e.entry_id, "dim": e.dim, "case": e.case,
                "associative": e.is_associative,
                "file": render_algebra(e.algebra(catalog_mod.entry_field(args.case))),
            } for e in entries])
            return 0
        for e in entries:
            a = e.algebra(catalog_mod.entry_field(args.case))
            print(f"{e.entry_id}  dim {e.dim}  "
                  f"{'associative' if e.is_associative else 'not associative'}"
                  f"  {a!r}")
        return 0
    report = catalog_mod.catalog_verify(args.case, args.dim, jobs=args.jobs)
    if args.json:
        _emit_json({
            "case": report.case, "dim": report.dim, "ok": report.ok,
            "entries": [{"id": eid, "checks": checks}
                        for eid, checks in report.entry_checks],
            "pairs": [{"ids": [i1, i2], "method": m, "ok": ok, "detail": d}
                      for i1, i2, m, ok, d in report.pair_checks],
        })
        return 0 if report.ok else 1
    print(f"catalog verify case={report.case}"
          + (f" dim={report.dim}" if report.dim else "")
          + f": {len(report.entry_checks)} entries, "
          + f"{len(report.pair_checks)} pairs")
    bad = False
    for eid, checks in report.entry_checks:
        failed = [k for k, v in checks.items() if not v]
        if failed:
            bad = True
            print(f"entry {eid}: FAILED {', '.join(failed)}")
    for i1, i2, method, ok, detail in report.pair_checks:
        if not ok:
            bad = True
            print(f"pair {i1} / {i2}: FAILED ({method}: {detail})")
    counts = report.counts()
    print("pair certificates: "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print("OK" if not bad else "FAILED")
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jordannil",
        description="Exact construction, classification and isomorphism "
                    "testing of nilpotent Jordan algebras.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="Jordan identity and nilpotency of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="isomorphism invariants of a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("cocycles", help="Z², δC¹ and H² of an algebra")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cocycles)

    p = sub.add_parser("extend", help="build a central extension")
    p.add_argument("file")
    p.add_argument("--theta", required=True,
                   help="cocycle components, e.g. 'S(1,1)+S(2,2); S(2,1)'")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("orbits", help="orbit representatives on H² subspaces")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("iso", help="decide isomorphism of two algebra files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--mode", choices=["base", "closure"], default="base")
    p.add_argument("--expect", choices=["iso", "noniso"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("gb", help="reduced Groebner basis of a generator file")
    p.add_argument("file")
    p.add_argument("--order", choices=["degrevlex", "lex"], default="degrevlex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("classify", help="classify nilpotent Jordan algebras")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", required=True, help="F:<p>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="brute-force enumeration oracle")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", required=True, help="F:<p>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("catalog", help="built-in classification tables")
    p.add_argument("action", choices=["list", "verify"])
    p.add_argument("--case", choices=list(catalog_mod.CASES), default="closed")
    p.add_argument("--dim", type=int)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for verify (default 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Limits.from_env()
    except ValueError as exc:  # a malformed JORDAN_LIMITS
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
