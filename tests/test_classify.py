import concurrent.futures
import os
import random
import tracemalloc
from fractions import Fraction
from functools import partial, reduce
from itertools import product as iproduct

import pytest

from jordannil import classify, extension, homsearch, isotest, linalg, tables
from jordannil.algebra import Algebra, fingerprint_key, zero_algebra
from jordannil.classify import (brute_force_classes, classify_dim,
                                descendants_with_reps, nilpotent_jordan_tables)
from jordannil.field import GF, QQ
from jordannil.files import render_algebra
from jordannil.limits import ResourceLimitError
from jordannil.orbits import automorphism_group

from theory import (automorphisms, descendants, gl_order, match_classes,
                    quotient_by_centre, verify_witness)


def test_descendants_examples():
    f3 = GF(3)
    d = descendants(zero_algebra(f3, 1), 1)
    assert d == [Algebra(f3, 2, {(1, 1, 2): 1})]
    assert descendants(zero_algebra(f3, 1), 2) == []
    d = descendants(Algebra(f3, 2, {(1, 1, 2): 1}), 1)
    assert d == [Algebra(f3, 3, {(1, 1, 2): 1, (1, 2, 3): 1})]


def test_descendants_build_each_extension_once(monkeypatch):
    built = []
    real = extension.central_extension

    def counting(a, forms):
        built.append(forms)
        return real(a, forms)

    monkeypatch.setattr(extension, "central_extension", counting)
    a = zero_algebra(GF(3), 2)
    out = descendants_with_reps(a, 1)
    assert len(out) == len(built) == 2


def test_classify_dim_counts(prime_field):
    assert len(classify_dim(1, prime_field)) == 1
    assert len(classify_dim(2, prime_field)) == 2
    assert len(classify_dim(3, prime_field)) == 5


def test_classify_output_is_sound(prime_field):
    result = classify_dim(3, prime_field)
    reps = result.representatives
    for a in reps:
        assert a.check_jordan()
        nilpotent, _ = a.is_nilpotent()
        assert nilpotent
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            verdict = isotest.decide(reps[i], reps[j], mode="base")
            assert verdict.kind != isotest.ISOMORPHIC


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_dim(2, QQ)
    with pytest.raises(ValueError):
        classify_dim(0, GF(3))


def test_classify_deterministic():
    a = classify_dim(3, GF(3))
    b = classify_dim(3, GF(3))
    assert a.representatives == b.representatives
    assert a.provenance == b.provenance


@pytest.mark.parametrize("p, top", [(2, 4), (3, 4), (5, 3)])
def test_classes_pairwise_non_isomorphic(p, top):
    # classify_dim relies on Skjelbred-Sund and runs no isomorphism test
    # between its candidates; the exhaustive witness search confirms that
    # no two classes with the same fingerprint are isomorphic
    for n in range(2, top + 1):
        buckets = {}
        for rep in classify_dim(n, GF(p)).representatives:
            buckets.setdefault(rep.fingerprint(), []).append(rep)
        for bucket in buckets.values():
            for i, a in enumerate(bucket):
                for b in bucket[i + 1:]:
                    assert homsearch.find_witness(a, b) is None, (p, n)


def test_brute_force_counts():
    assert len(brute_force_classes(2, GF(2))) == 2
    assert len(brute_force_classes(2, GF(3))) == 2
    with pytest.raises(ResourceLimitError):
        brute_force_classes(3, GF(3))
    with pytest.raises(ValueError):
        brute_force_classes(2, QQ)


def test_oracle_dim1_iterates_the_field_lazily():
    # itertools.product would copy range(p) into a tuple of p ints
    tracemalloc.start()
    try:
        assert len(brute_force_classes(1, GF(100003))) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def left_power_is_zero(a, i):
    """L_{e_i}ⁿ = 0, by applying x ↦ e_i ∘ x n times to every basis vector."""
    f, n = a.field, a.dim
    e_i = linalg.unit(f, n, i)
    images = [linalg.unit(f, n, j) for j in range(n)]
    for _ in range(n):
        images = [a.product(e_i, x) for x in images]
    return not any(any(x) for x in images)


def random_table(rnd, fld, n):
    """A sparse random table, or a random basis change of a table with
    e_i ∘ e_j ∈ span(e_k : k > max(i, j)), which is always nilpotent."""
    p = fld.p
    triangular = rnd.random() < 0.5
    consts = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j + 1 if triangular else 1, n + 1):
                if rnd.random() < 0.4:
                    consts[(i, j, k)] = rnd.randrange(1, p)
    a = Algebra(fld, n, consts)
    if not triangular:
        return a
    while True:
        mat = tuple(tuple(rnd.randrange(p) for _ in range(n))
                    for _ in range(n))
        if linalg.invert(fld, mat) is not None:
            return a.change_basis(mat)


def test_nilpotent_tables_have_nilpotent_left_multiplications():
    # the oracle's prune: L_x(cᵐ) ⊆ cᵐ⁺¹, so a nilpotent table has every
    # L_{e_i} nilpotent
    rnd = random.Random(10)
    verdicts = set()
    for p in (2, 3, 5):
        fld = GF(p)
        for n in (2, 3, 4):
            for _ in range(60):
                a = random_table(rnd, fld, n)
                nilpotent, _ = a.is_nilpotent()
                verdicts.add(nilpotent)
                if nilpotent:
                    assert all(left_power_is_zero(a, i) for i in range(n)), a
    assert verdicts == {True, False}


def flat_oracle(n, fld, group):
    """Every table in lexicographic order, then is_nilpotent() and
    check_jordan(), then the first table of each orbit of the basis changes
    in group, sorted as brute_force_classes sorts its classes."""
    p = fld.p
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]

    def combo_of(a):
        return tuple(x for i, j in pairs for x in a.table[i - 1][j - 1])

    seen = set()
    reps = []
    for combo in iproduct(range(p), repeat=len(pairs) * n):
        if combo in seen:
            continue
        consts = {(i, j, k + 1): combo[t * n + k]
                  for t, (i, j) in enumerate(pairs) for k in range(n)
                  if combo[t * n + k]}
        a = Algebra(fld, n, consts)
        if not (a.is_nilpotent()[0] and a.check_jordan()):
            continue
        reps.append(a)
        seen.update(combo_of(a.change_basis(mat)) for mat in group)
    return sorted(reps, key=lambda a: (fingerprint_key(a.fingerprint()),
                                       render_algebra(a)))


@pytest.mark.parametrize("group", ["gl", "trivial"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_brute_force_matches_flat_enumeration(p, group, monkeypatch):
    # with the trivial group every nilpotent Jordan table is its own class,
    # so a prune that drops any of them shows
    fld = GF(p)
    gl = automorphisms(zero_algebra(fld, 2))
    if group == "trivial":
        # mass formula: the orbit of J holds |GL(2, p)| / |Aut(J)| tables
        mass = sum(Fraction(gl_order(2, p), len(automorphism_group(a)))
                   for a in brute_force_classes(2, fld).representatives)
        gl = [linalg.identity(fld, 2)]
        monkeypatch.setattr(classify, "gl_generators", lambda fld, n: [])
    expected = flat_oracle(2, fld, gl)
    if group == "trivial":
        assert mass == len(expected)
    got = brute_force_classes(2, fld).representatives
    assert [a.table for a in got] == [a.table for a in expected]
    if group == "gl":
        assert len(got) == 2


def test_brute_force_dim3_f2_representatives():
    # the first table of each class in enumeration order, as the flat
    # enumeration (flat_oracle over GL(3, 2), about 20 s) gives them
    expected = [
        {(2, 3, 1): 1},
        {(2, 3, 1): 1, (3, 3, 1): 1},
        {(2, 3, 1): 1, (3, 3, 2): 1},
        {(3, 3, 2): 1},
        {},
    ]
    got = brute_force_classes(3, GF(2)).representatives
    assert [a.constants for a in got] == expected


@pytest.mark.parametrize("n, p", [(1, 5), (2, 2), (2, 3), (3, 2), (2, 5),
                                  (3, 3)])
def test_oracle_generators_generate_gl(n, p):
    fld = GF(p)
    group = homsearch.orbit(linalg.identity(fld, n),
                            classify.gl_generators(fld, n),
                            partial(linalg.mat_mul, fld))
    assert len(group) == gl_order(n, p)


def test_oracle_orbits_dim3_f2_satisfy_orbit_stabiliser():
    # the tables the oracle marks for a class are its orbit under GL(3, 2)
    fld = GF(2)
    gl, _ = homsearch.stabiliser_chain(zero_algebra(fld, 3))

    def act(t, g):
        return Algebra.from_table(fld, t).change_basis(g).table
    for a in brute_force_classes(3, fld).representatives:
        tables_of_a = homsearch.orbit(a.table, gl, act)
        assert len(tables_of_a) * len(automorphism_group(a)) == \
            gl_order(3, 2), a


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2)])
def test_mass_formula(n, p):
    # orbit-stabiliser over the pipeline's classes: the orbit of J holds
    # |GL(n, p)| / |Aut(J)| tables, and the orbits partition the tables
    fld = GF(p)
    mass = sum(Fraction(gl_order(n, p), len(automorphism_group(a)))
               for a in classify_dim(n, fld).representatives)
    tables_seen = sum(1 for _ in nilpotent_jordan_tables(n, fld, ()))
    assert mass == tables_seen
    if (n, p) == (3, 2):
        assert tables_seen == 92


def test_oracle_dim1_skips_the_gl_generators(monkeypatch):
    # the zero table is the only nilpotent table at n = 1 and is fixed by
    # every basis change, so GL(1, p) is never built
    def refuse(fld, n):
        raise AssertionError("gl_generators called")
    monkeypatch.setattr(classify, "gl_generators", refuse)
    result = brute_force_classes(1, GF(999983))
    assert [a.table for a in result.representatives] == [(((0,),),)]


def test_match_classes_dim2():
    # up to 7⁶ tables
    for fld in (GF(2), GF(3), GF(5), GF(7)):
        oracle = brute_force_classes(2, fld)
        pipeline = classify_dim(2, fld)
        matches = match_classes(oracle, pipeline)
        assert sorted(j for _, j, _ in matches) == [0, 1]
        for i, j, witness in matches:
            assert verify_witness(oracle.representatives[i],
                                  pipeline.representatives[j], witness)


def test_catalog_counts_and_flags():
    closed4 = tables.catalog("closed", 4)
    assert len(closed4) == 13
    non_assoc = {e.entry_id for e in closed4 if not e.is_associative}
    assert non_assoc == {"J_{4,6}", "J_{4,8}", "J_{4,9}", "J_{4,10}"}
    real4 = tables.catalog("real", 4)
    assert len(real4) == 17
    assert sum(not e.is_associative for e in real4) == 5
    char2_3 = tables.catalog("char2", 3)
    assert len(char2_3) == 5
    assert any(e.products == ((1, 2, 3, 1),) for e in char2_3)
    assert len(tables.catalog("any", 2)) == 2
    assert len(tables.catalog("closed", 3)) == 4
    assert len(tables.catalog("real", 3)) == 5
    with pytest.raises(ValueError):
        tables.catalog("complex")


REAL_IDS = {
    3: ["J_{3,1}", "J_{3,2}", "J_{3,3}^{+1}", "J_{3,3}^{-1}", "J_{3,4}"],
    4: ["J_{4,1}", "J_{4,2}", "J_{4,3}^{+1}", "J_{4,3}^{-1}", "J_{4,4}",
        "J_{4,5}^{+1}", "J_{4,5}^{-1}", "J_{4,6}", "J_{4,7}", "J_{4,8}^{+1}",
        "J_{4,8}^{-1}", "J_{4,9}", "J_{4,10}", "J_{4,11}", "J_{4,12}",
        "J_{4,13}^{+1}", "J_{4,13}^{-1}"],
}


@pytest.mark.parametrize("dim", [3, 4])
def test_real_catalog_ids_in_order(dim):
    entries = tables.catalog("real", dim)
    assert [e.entry_id for e in entries] == REAL_IDS[dim]
    assert all((e.family is None) == ("^" not in e.entry_id)
               and e.case == "real" for e in entries)
    # a ^{-1} member negates b² = c (c² = d in J_{4,5}) of its closed entry
    closed = {e.entry_id: e for e in tables.catalog("closed", dim)}
    for e in entries:
        base = closed[e.family or e.entry_id]
        slot = (3, 3, 4) if e.family == "J_{4,5}" else (2, 2, 3)
        sign = -1 if e.entry_id.endswith("^{-1}") else 1
        assert e.products == tuple(
            (i, j, k, sign * c if (i, j, k) == slot else c)
            for i, j, k, c in base.products)
    # pairs name their entries in list order
    ids = REAL_IDS[dim]
    report = tables.catalog_verify("real", dim)
    assert {(a, b) for a, b, *_ in report.pair_checks} == \
        {(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]}


def test_catalog_entries_check_out(all_catalog_entries):
    for case, entry in all_catalog_entries:
        a = entry.algebra(tables.entry_field(case))
        assert a.check_jordan(), entry.entry_id
        nilpotent, _ = a.is_nilpotent()
        assert nilpotent, entry.entry_id
        assert a.is_associative() == entry.is_associative, entry.entry_id


def test_catalog_decompositions_are_direct_sums(all_catalog_entries):
    # "J_{4,3}^{+1} = J_{3,3}^{+1} + J_{1,1}": split on " + ", since the
    # ids of square-class families contain a "+"
    checked = 0
    for case, entry in all_catalog_entries:
        if not entry.decomposition:
            continue
        fld = tables.entry_field(case)
        ids = {e.entry_id: e for e in tables.catalog(case)}
        total = reduce(Algebra.direct_sum, [
            ids[i].algebra(fld) for i in entry.decomposition.split(" + ")])
        verdict = isotest.decide(total, entry.algebra(fld))
        assert verdict.kind == isotest.ISOMORPHIC, (case, entry.entry_id)
        checked += 1
    assert checked == 18


def test_catalog_verify_small_cases():
    rep = tables.catalog_verify("closed", 3)
    assert rep.ok
    assert rep.counts() == {"fingerprint": 6}
    rep = tables.catalog_verify("char2")
    assert rep.ok


def test_catalog_entries_appear_in_classification():
    for p in (3, 5):
        fld = GF(p)
        results = {n: classify_dim(n, fld) for n in (1, 2, 3)}
        for case in ("closed", "real"):
            for entry in tables.catalog(case):
                if entry.dim > 3:
                    continue
                inst = entry.algebra(fld)
                reps = results[entry.dim].representatives
                assert any(homsearch.find_witness(inst, rep) is not None
                           for rep in reps), (case, entry.entry_id, p)
    # char-2 tables appear over F_2
    results = {n: classify_dim(n, GF(2)) for n in (1, 2, 3)}
    for entry in tables.catalog("char2"):
        inst = entry.algebra(GF(2))
        reps = results[entry.dim].representatives
        assert any(homsearch.find_witness(inst, rep) is not None
                   for rep in reps), entry.entry_id


def test_descendant_quotient_recovers_parent():
    f3 = GF(3)
    parents = classify_dim(2, f3).representatives + \
        classify_dim(3, f3).representatives
    for parent in parents:
        for r in (1, 2):
            for child in descendants(parent, r):
                quotient = quotient_by_centre(child)
                assert homsearch.find_witness(quotient, parent) is not None


def test_provenance_description():
    result = classify_dim(2, GF(2))
    texts = [p.describe() for p in result.provenance]
    assert any("direct sum" in t for t in texts)
    assert any("extension" in t for t in texts)


def test_dim4_classification_contains_catalog_tables():
    # finite-field dim-4 class counts are findings, not assertions, but the
    # instantiated closed and real tables must all occur up to isomorphism
    f3 = GF(3)
    result = classify_dim(4, f3)
    reps_by_fp = {}
    for rep in result.representatives:
        reps_by_fp.setdefault(rep.fingerprint(), []).append(rep)
    for case in ("closed", "real"):
        for entry in tables.catalog(case, 4):
            inst = entry.algebra(f3)
            bucket = reps_by_fp.get(inst.fingerprint(), [])
            assert any(homsearch.find_witness(inst, rep) is not None
                       for rep in bucket), (case, entry.entry_id)


@pytest.mark.parametrize("p", [5, 7])
def test_dim4_over_f5_is_reachable(p):
    # Aut(J) as a stabiliser chain keeps GL(3,p) from being enumerated, and
    # its orbits are found on H² coordinates; the class counts over F_5 and
    # F_7 are findings, not assertions
    fld = GF(p)
    result = classify_dim(4, fld)
    for rep in result.representatives:
        assert rep.check_jordan()
        assert rep.is_nilpotent()[0]
    sums = [pv for pv in result.provenance if pv.kind == "direct_sum"]
    assert len(sums) == len(classify_dim(3, fld))


def test_catalog_verify_builds_each_entry_once(monkeypatch):
    built = []
    original = tables.CatalogEntry.algebra

    def counting(entry, fld=QQ):
        built.append(entry.entry_id)
        return original(entry, fld)

    monkeypatch.setattr(tables.CatalogEntry, "algebra", counting)
    tables._entry_algebra.cache_clear()
    try:
        rep = tables.catalog_verify("closed", 3)
    finally:
        tables._entry_algebra.cache_clear()
    assert rep.ok
    assert sorted(built) == sorted(e.entry_id for e in tables.catalog("closed", 3))


@pytest.mark.parametrize("cpus, workers", [(4, [4]), (64, [6]), (None, [])])
def test_catalog_verify_caps_workers(monkeypatch, cpus, workers):
    # closed dim 3 has 6 pairs; a pool forks all its workers on first use,
    # so --jobs is capped by the pairs and the processors
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    serial = tables.catalog_verify("closed", 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    report = tables.catalog_verify("closed", 3, jobs=10 ** 6)
    assert requested == workers
    assert report == serial


def test_catalog_verify_parallel_matches_serial():
    serial = tables.catalog_verify("closed", 3, jobs=1)
    parallel = tables.catalog_verify("closed", 3, jobs=2)
    assert serial.pair_checks == parallel.pair_checks
    assert serial.entry_checks == parallel.entry_checks
