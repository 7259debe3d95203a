"""Built-in classification tables for dimensions 1-4 and their verification.

Cases: "any" (dims 1-2, valid over every field), "closed" (algebraically
closed, characteristic != 2), "char2", "real".  Entries carry exact tables
over Q (instantiable over any prime field where the coefficients make
sense).  The real tables are the closed ones with five square-class
families split into members ^{+1} and ^{-1} (_REAL_SPLITS).
"""

from functools import lru_cache
import os
from typing import NamedTuple

from . import isotest
from .algebra import Algebra, default_labels
from .field import QQ, GF

CASES = ("any", "closed", "char2", "real")


class CatalogEntry(NamedTuple):
    entry_id: str
    case: str
    dim: int
    products: tuple              # ((i, j, k, coeff), ...) with 1-based i <= j
    is_associative: bool = True
    family: str = None           # real square-class family: id without ^{±1}
    centre_labels: tuple = None  # declared centre basis, when stated
    decomposition: str = ""      # e.g. "J_{2,2} + J_{1,1}"

    def algebra(self, fld=QQ):
        consts = {(i, j, k): fld.of(c) for i, j, k, c in self.products}
        return Algebra(fld, self.dim, consts)


def _e(entry_id, case, dim, products, assoc=True, centre=None,
       decomposition=""):
    return CatalogEntry(entry_id, case, dim, tuple(products), assoc,
                        centre_labels=tuple(centre) if centre else None,
                        decomposition=decomposition)


_ANY = [
    _e("J_{1,1}", "any", 1, [], centre=("a",)),
    _e("J_{2,1}", "any", 2, [], centre=("a", "b"),
       decomposition="J_{1,1} + J_{1,1}"),
    _e("J_{2,2}", "any", 2, [(1, 1, 2, 1)], centre=("b",)),           # a^2 = b
]

_DIM3_CLOSED = [
    _e("J_{3,1}", "closed", 3, [], centre=("a", "b", "c"),
       decomposition="J_{2,1} + J_{1,1}"),
    _e("J_{3,2}", "closed", 3, [(1, 1, 2, 1)], centre=("b", "c"),
       decomposition="J_{2,2} + J_{1,1}"),                            # a^2 = b
    _e("J_{3,3}", "closed", 3, [(1, 1, 3, 1), (2, 2, 3, 1)],
       centre=("c",)),                                                # a^2 = c, b^2 = c
    _e("J_{3,4}", "closed", 3, [(1, 1, 2, 1), (1, 2, 3, 1)],
       centre=("c",)),                                                # a^2 = b, ab = c
]

_DIM3_CHAR2 = [
    _e("J_{3,1}", "char2", 3, [], centre=("a", "b", "c"),
       decomposition="J_{2,1} + J_{1,1}"),
    _e("J_{3,2}", "char2", 3, [(1, 1, 2, 1)], centre=("b", "c"),
       decomposition="J_{2,2} + J_{1,1}"),
    _e("J_{3,3}", "char2", 3, [(1, 2, 3, 1)], centre=("c",)),         # ab = c
    _e("J_{3,4}", "char2", 3, [(1, 1, 3, 1), (2, 2, 3, 1)],
       centre=("c",)),                                                # a^2 = c, b^2 = c
    _e("J_{3,5}", "char2", 3, [(1, 1, 2, 1), (1, 2, 3, 1)],
       centre=("c",)),                                                # a^2 = b, ab = c
]

_DIM4_CLOSED = [
    _e("J_{4,1}", "closed", 4, [], decomposition="J_{3,1} + J_{1,1}"),
    _e("J_{4,2}", "closed", 4, [(1, 1, 2, 1)],
       decomposition="J_{3,2} + J_{1,1}"),                            # a^2 = b
    _e("J_{4,3}", "closed", 4, [(1, 1, 3, 1), (2, 2, 3, 1)],
       decomposition="J_{3,3} + J_{1,1}"),                            # a^2 = c, b^2 = c
    _e("J_{4,4}", "closed", 4, [(1, 1, 2, 1), (1, 2, 3, 1)],
       decomposition="J_{3,4} + J_{1,1}"),                            # a^2 = b, ab = c
    _e("J_{4,5}", "closed", 4, [(1, 1, 4, 1), (2, 2, 4, 1), (3, 3, 4, 1)]),
    _e("J_{4,6}", "closed", 4, [(1, 1, 2, 1), (2, 3, 4, 1)],
       assoc=False),                                                  # a^2 = b, bc = d
    _e("J_{4,7}", "closed", 4, [(1, 1, 2, 1), (1, 2, 4, 1), (3, 3, 4, 1)]),
    _e("J_{4,8}", "closed", 4, [(1, 1, 3, 1), (2, 2, 3, 1), (1, 3, 4, 1)],
       assoc=False),                                                  # a^2 = c, b^2 = c, ac = d
    _e("J_{4,9}", "closed", 4,
       [(1, 1, 3, 1), (2, 2, 3, -1), (1, 3, 4, 1), (2, 3, 4, 1)],
       assoc=False),
    _e("J_{4,10}", "closed", 4,
       [(1, 1, 3, 1), (2, 2, 3, -1), (1, 3, 4, 1), (2, 3, 4, 1), (1, 2, 4, 1)],
       assoc=False),
    _e("J_{4,11}", "closed", 4,
       [(1, 1, 2, 1), (1, 2, 3, 1), (1, 3, 4, 1), (2, 2, 4, 1)]),
    _e("J_{4,12}", "closed", 4, [(1, 1, 3, 1), (1, 2, 4, 1)]),        # a^2 = c, ab = d
    _e("J_{4,13}", "closed", 4, [(1, 1, 3, 1), (2, 2, 3, 1), (1, 2, 4, 1)]),
]

# Over R the closed classes stay, except that R* has two square classes:
# each family below splits into members ^{+1} and ^{-1}, in which the
# coefficient of the named product e_i ∘ e_j = e_k is alpha = ±1.
_REAL_SPLITS = {
    "J_{3,3}": (2, 2, 3),                                             # b^2 = alpha c
    "J_{4,3}": (2, 2, 3),
    "J_{4,5}": (3, 3, 4),                                             # c^2 = alpha d
    "J_{4,8}": (2, 2, 3),
    "J_{4,13}": (2, 2, 3),
}


def _real_entries(entry):
    """The real entries of a closed one: itself, or its two family members."""
    entry = entry._replace(case="real")
    slot = _REAL_SPLITS.get(entry.entry_id)
    if slot is None:
        return [entry]
    members = []
    for alpha in (1, -1):
        sup = f"^{{{alpha:+d}}}"
        members.append(entry._replace(
            entry_id=entry.entry_id + sup, family=entry.entry_id,
            products=tuple((i, j, k, alpha * c if (i, j, k) == slot else c)
                           for i, j, k, c in entry.products),
            decomposition=" + ".join(
                part + sup if part in _REAL_SPLITS else part
                for part in entry.decomposition.split(" + "))))
    return members


_BY_CASE = {
    "closed": _DIM3_CLOSED + _DIM4_CLOSED,
    "char2": _DIM3_CHAR2,
    "real": [r for e in _DIM3_CLOSED + _DIM4_CLOSED for r in _real_entries(e)],
}


def catalog(case="closed", dim=None):
    """Catalog entries for a case; dims 1-2 hold over any field."""
    if case not in CASES:
        raise ValueError(f"unknown catalog case {case!r}; choose from {CASES}")
    entries = list(_ANY) if case == "any" else list(_ANY) + _BY_CASE[case]
    if dim is not None:
        entries = [e for e in entries if e.dim == dim]
    return entries


def entry_field(case):
    return GF(2) if case == "char2" else QQ


@lru_cache(maxsize=None)
def _entry_algebra(case, dim, index):
    """catalog(case, dim)[index] over its field, built once per process so
    that its invariants are computed once, not once per pair."""
    return catalog(case, dim)[index].algebra(entry_field(case))


def _verify_entry(entry, a):
    fld = a.field
    nilpotent, _ = a.is_nilpotent()
    checks = {
        "jordan": a.check_jordan(),
        "nilpotent": nilpotent,
        "associative_flag": a.is_associative() == entry.is_associative,
    }
    if entry.centre_labels is not None:
        idx = {lab: i for i, lab in enumerate(default_labels(a.dim))}
        want = [tuple(fld.one if i == idx[lab] else fld.zero
                      for i in range(a.dim)) for lab in entry.centre_labels]
        centre = a.centre()
        checks["centre_claim"] = (centre.dim == len(want)
                                  and all(centre.contains(v) for v in want))
    return checks


def _certify_pair(a, b, mode):
    verdict = isotest.decide(a, b, mode=mode)
    if verdict.non_isomorphic:
        if verdict.kind == isotest.DISTINGUISHED:
            return ("fingerprint", True, verdict.invariant)
        if verdict.kind == isotest.NON_ISOMORPHIC_OVER_CLOSURE:
            return ("groebner", True, "reduced basis {1}")
        return ("witness-search", True,
                "no witness over the base field; merges over the closure")
    if verdict.kind == isotest.RESOURCE_EXCEEDED:
        return ("groebner", False, f"resource limit: {verdict.detail}")
    return (verdict.kind, False, verdict.detail or "unexpected verdict")


def _pair_job(args):
    case, dim, i, j = args
    entries = catalog(case, dim)
    e1, e2 = entries[i], entries[j]
    fld = entry_field(case)
    if e1.family is not None and e1.family == e2.family:
        return (e1.entry_id, e2.entry_id, "skipped-square-class", True,
                "closure-merged; distinctness over the reals out of scope")
    mode = (isotest.MODE_BASE_FIELD_FIRST if fld.is_prime_field
            else isotest.MODE_CLOSURE_ONLY)
    method, ok, detail = _certify_pair(_entry_algebra(case, dim, i),
                                       _entry_algebra(case, dim, j),
                                       mode)
    return (e1.entry_id, e2.entry_id, method, ok, detail)


class CatalogReport(NamedTuple):
    case: str
    dim: int
    entry_checks: tuple   # (id, {check: bool})
    pair_checks: tuple    # (id1, id2, method, ok, detail)

    @property
    def ok(self):
        return (all(all(c.values()) for _, c in self.entry_checks)
                and all(ok for _, _, _, ok, _ in self.pair_checks))

    def counts(self):
        methods = {}
        for _, _, method, _, _ in self.pair_checks:
            methods[method] = methods.get(method, 0) + 1
        return methods


def catalog_verify(case, dim=None, jobs=1):
    """Check every entry and certify pairwise distinctness where in scope."""
    entries = catalog(case, dim)
    entry_checks = tuple(
        (e.entry_id, _verify_entry(e, _entry_algebra(case, dim, i)))
        for i, e in enumerate(entries))
    jobs_args = []
    by_dim = {}
    for i, e in enumerate(entries):
        by_dim.setdefault(e.dim, []).append(i)
    for _, idxs in sorted(by_dim.items()):
        for ii, i in enumerate(idxs):
            for j in idxs[ii + 1:]:
                jobs_args.append((case, dim, i, j))
    # a pool starts all its workers at once, so never more than there are
    # pairs or processors
    workers = min(jobs, len(jobs_args), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pair_job, jobs_args))
    else:
        results = [_pair_job(a) for a in jobs_args]
    results.sort(key=lambda rec: (rec[0], rec[1]))
    return CatalogReport(case, dim, entry_checks, tuple(results))
