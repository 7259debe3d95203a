"""The workloads: their inputs, the CLI calls of one round, and the checks.

A workload builds its inputs from the seed (`build`), names the CLI calls
one round makes (`Op.argv`) and checks each call's output (`Op.check`) by
routes apart from the program: the arithmetic in checks.py, properties the
theory guarantees, and the paper's counts.  Nothing is compared against a
stored copy of an earlier output.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from checks import (Table, conjugate, gl, has_central_component,
                    is_associative, is_jordan, is_nilpotent, is_witness,
                    lcs_dims, parse_algebra, rank, require)


@dataclass
class Op:
    argv: list
    check: Callable[[str], None]   # raises CheckFailed on a wrong output


# Tables of the closed-field catalog (the paper's dims 3 and 4), as
# (i, j, k, c): e_i ∘ e_j has coefficient c on e_k.  Only the entries the
# iso workload uses are listed.
CLOSED = {
    "J_{3,2}": (3, [(1, 1, 2, 1)]),
    "J_{3,3}": (3, [(1, 1, 3, 1), (2, 2, 3, 1)]),
    "J_{3,4}": (3, [(1, 1, 2, 1), (1, 2, 3, 1)]),
    "J_{4,6}": (4, [(1, 1, 2, 1), (2, 3, 4, 1)]),
    "J_{4,8}": (4, [(1, 1, 3, 1), (2, 2, 3, 1), (1, 3, 4, 1)]),
    "J_{4,9}": (4, [(1, 1, 3, 1), (2, 2, 3, -1), (1, 3, 4, 1), (2, 3, 4, 1)]),
}
# Characteristic 2, dim 3: ab = c against a² = b² = c.  Every square is 0
# in the first, so they differ over every extension of F_2.
CHAR2 = {
    "J_{3,3}": (3, [(1, 2, 3, 1)]),
    "J_{3,4}": (3, [(1, 1, 3, 1), (2, 2, 3, 1)]),
}

# Classes of dimension n - 1 over F_p, which the oracle and the paper's
# tables both give.  By Skjelbred–Sund, the dim-n classes with a central
# component are exactly these plus a trivial line.
CLASSES_BELOW = {2: 2, 3: 5}

# catalog case and dim -> (entries, entries that are not associative),
# the paper's counts.
CATALOG_COUNTS = {(3, "closed"): (4, 0), (3, "real"): (5, 0),
                  (4, "closed"): (13, 4), (4, "real"): (17, 5)}

def _table(p, entry, source=CLOSED):
    n, products = source[entry]
    return Table.from_products(p, n, products)


def _random_gl(rng, p, n):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank(p, m) == n:
            return m


def _write(workdir, name, table):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.render())
    return path


def check_class_files(doc, p, n):
    """Every class file is a dim-n algebra over F_p, Jordan and nilpotent."""
    require(doc["dim"] == n and doc["count"] == len(doc["classes"]),
            "class count does not match the class list")
    tables = []
    for cls in doc["classes"]:
        t = parse_algebra(cls["file"])
        require(t.p == p and t.n == n, f"class {cls['index']}: wrong field or dim")
        require(is_jordan(t), f"class {cls['index']}: not Jordan")
        require(is_nilpotent(t), f"class {cls['index']}: not nilpotent")
        tables.append(t)
    return tables


def match_one_to_one(found, reference):
    """Pair each table of `found` with its own table of `reference` through
    a GL(n, p) witness that is_witness confirms."""
    require(len(found) == len(reference),
            f"{len(found)} classes against {len(reference)} in the reference")
    if not found:
        return
    n, p = found[0].n, found[0].p
    group = gl(n, p)
    free = list(range(len(reference)))
    for idx, a in enumerate(found):
        hit = next((j for j in free if lcs_dims(a) == lcs_dims(reference[j])
                    and any(is_witness(a, reference[j], g) for g in group)),
                   None)
        require(hit is not None, f"class {idx + 1} matches no reference class")
        free.remove(hit)


class Workload:
    name = why = None

    def build(self, seed, workdir, quick):
        """Write the inputs under workdir; the calls of one round."""
        raise NotImplementedError

    def prepare(self, call):
        """Compute what the checks compare against, outside all timing."""


class Classify(Workload):
    name = "classify"
    why = ("the paper's pipeline end to end: H^2, Aut-orbits, central "
           "extensions and dedup, on dim 4 over F_2 and F_3")

    def build(self, seed, workdir, quick):
        n = 3 if quick else 4
        return [Op(["classify", "--dim", str(n), "--field", f"F:{p}", "--json"],
                   self._checker(p, n)) for p in (2, 3)]

    @staticmethod
    def _checker(p, n):
        def check(text):
            doc = json.loads(text)
            tables = check_class_files(doc, p, n)
            split = sum(1 for t in tables if has_central_component(t))
            listed = sum(1 for c in doc["classes"]
                         if c["provenance"].startswith("direct sum"))
            require(split == listed == CLASSES_BELOW[n - 1],
                    f"F_{p}: {split} classes split off a line and {listed} "
                    f"are listed as direct sums; want {CLASSES_BELOW[n - 1]}")
        return check


class Iso(Workload):
    name = "iso"
    why = ("witness search: exhaustive refutation of same-invariant pairs "
           "over F_5/F_7, and early exit on seeded GL(4,5) conjugates")

    # (p, file 1, file 2): same fingerprint, no isomorphism over the closure.
    # The direction is part of the input: from the other side each search
    # runs past 12 s instead of 1.4-6 s.
    NEGATIVE = [(7, "J_{4,6}", "J_{4,8}"), (5, "J_{4,6}", "J_{4,9}")]
    POSITIVE = [(5, "J_{4,6}")] * 2
    QUICK_NEGATIVE = [(2, "J_{3,3}", "J_{3,4}")]
    QUICK_POSITIVE = [(5, "J_{3,2}"), (5, "J_{3,3}"), (5, "J_{3,4}")]

    def build(self, seed, workdir, quick):
        rng = random.Random(seed)
        ops = []
        negative = self.QUICK_NEGATIVE if quick else self.NEGATIVE
        source = CHAR2 if quick else CLOSED
        for idx, (p, x, y) in enumerate(negative):
            f1 = _write(workdir, f"neg{idx}a.alg", _table(p, x, source))
            f2 = _write(workdir, f"neg{idx}b.alg", _table(p, y, source))
            ops.append(Op(["iso", f1, f2, "--json"], self._negative))
        for idx, (p, x) in enumerate(self.QUICK_POSITIVE if quick
                                     else self.POSITIVE):
            a = _table(p, x)
            b = conjugate(a, _random_gl(rng, p, a.n))
            f1 = _write(workdir, f"pos{idx}a.alg", a)
            f2 = _write(workdir, f"pos{idx}b.alg", b)
            ops.append(Op(["iso", f1, f2, "--json"], self._positive(a, b)))
        return ops

    @staticmethod
    def _negative(text):
        doc = json.loads(text)
        require(doc["verdict"] == "non_isomorphic_over_closure",
                f"negative pair: verdict {doc['verdict']}")
        require(doc.get("certificate") == ["1"],
                "negative pair without the certificate {1}")

    @staticmethod
    def _positive(a, b):
        def check(text):
            doc = json.loads(text)
            require(doc["verdict"] == "isomorphic",
                    f"conjugate pair: verdict {doc['verdict']}")
            phi = [[int(x) for x in row] for row in doc.get("witness", [])]
            require(is_witness(a, b, phi), "witness does not map A onto B")
        return check


class Catalog(Workload):
    name = "catalog"
    why = ("re-checks the paper's dim-4 tables (closed and real): Groebner "
           "certificates over Q and invariants over Fraction")

    def build(self, seed, workdir, quick):
        n = 3 if quick else 4
        ops = []
        for case in ("closed", "real"):
            entries, nonassoc = CATALOG_COUNTS[(n, case)]
            ops.append(Op(["catalog", "list", "--case", case, "--dim", str(n),
                           "--json"], self._list(entries, nonassoc)))
            ops.append(Op(["catalog", "verify", "--case", case, "--dim", str(n),
                           "--jobs", "1", "--json"], self._verify(entries)))
        return ops

    @staticmethod
    def _list(entries, nonassoc):
        def check(text):
            doc = json.loads(text)
            require(len(doc) == entries, f"{len(doc)} entries, want {entries}")
            count = 0
            for e in doc:
                t = parse_algebra(e["file"])
                assoc = is_associative(t)
                require(assoc == e["associative"],
                        f"{e['id']}: associativity flag is wrong")
                require(is_jordan(t) and is_nilpotent(t),
                        f"{e['id']}: not a nilpotent Jordan algebra")
                count += not assoc
            require(count == nonassoc,
                    f"{count} non-associative entries, want {nonassoc}")
        return check

    @staticmethod
    def _verify(entries):
        def check(text):
            doc = json.loads(text)
            require(doc["ok"] is True, "catalog verify is not ok")
            require(len(doc["entries"]) == entries,
                    f"{len(doc['entries'])} entries, want {entries}")
            require(all(all(e["checks"].values()) for e in doc["entries"]),
                    "an entry check failed")
            require(len(doc["pairs"]) == entries * (entries - 1) // 2,
                    "not every pair was certified")
            require(all(pr["ok"] and pr["method"] in
                        ("fingerprint", "groebner", "skipped-square-class")
                        for pr in doc["pairs"]), "a pair is not certified")
        return check


class Oracle(Workload):
    name = "oracle"
    why = ("brute-force enumeration of all 2^18 dim-3 tables over F_2: "
           "nilpotency tests, RREF and the oracle's rank filter")

    def __init__(self):
        self.reference = None

    def build(self, seed, workdir, quick):
        return [Op(["oracle", "--dim", "3", "--field", "F:2", "--json"],
                   self._check)]

    def prepare(self, call):
        """The classification the oracle is checked against; run once,
        outside the timed and traced rounds."""
        rc, text = call(["classify", "--dim", "3", "--field", "F:2", "--json"])
        require(rc == 0, "reference classification failed")
        self.reference = check_class_files(json.loads(text), 2, 3)

    def _check(self, text):
        found = check_class_files(json.loads(text), 2, 3)
        match_one_to_one(found, self.reference)


WORKLOADS = {w.name: w for w in (Classify, Iso, Catalog, Oracle)}
