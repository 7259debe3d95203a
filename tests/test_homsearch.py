import random
import time
from functools import cache, partial
from itertools import combinations
from itertools import product as iproduct

import pytest

from jordannil import homsearch, isotest, linalg, tables
from jordannil.algebra import Algebra, is_isomorphism, zero_algebra
from jordannil.classify import classify_dim
from jordannil.field import GF, QQ

from theory import (automorphisms, cone_size_by_enumeration,
                    cone_size_from_profile)


def _gl(fld, n):
    """GL(n, p) in lexicographic order, by a rank check on every matrix."""
    group = []
    for flat in iproduct(range(fld.p), repeat=n * n):
        m = tuple(flat[r * n:(r + 1) * n] for r in range(n))
        if linalg.rank(fld, m) == n:
            group.append(m)
    return group


@pytest.mark.parametrize("p", [2, 3])
def test_automorphisms_match_gl_filter(p):
    fld = GF(p)
    for n in (1, 2, 3):
        group = _gl(fld, n)
        for a in classify_dim(n, fld).representatives:
            brute = [m for m in group if is_isomorphism(a, a, m)]
            assert automorphisms(a) == brute, a


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 3), (7, 2)])
def test_orbit_of_e1_under_gl_generators(p, n):
    # GL(n, p) is transitive on the nonzero vectors of F_p^n
    fld = GF(p)
    generators, _ = homsearch.stabiliser_chain(zero_algebra(fld, n))
    e1 = linalg.unit(fld, n, 0)
    found = homsearch.orbit(e1, generators, partial(linalg.vec_mat, fld))
    assert len(found) == p ** n - 1
    assert all(any(v) for v in found)


def _closed(entry_id, fld):
    e = next(e for e in tables.catalog("closed") if e.entry_id == entry_id)
    return e.algebra(fld)


def _closed_dim4_conjugates(p):
    """(entry, J, J in two seeded random bases) for each closed dim-4 entry."""
    fld = GF(p)
    rng = random.Random(p)
    for e in tables.catalog("closed", 4):
        a = e.algebra(fld)
        for _ in range(2):
            while True:
                m = tuple(tuple(rng.randrange(p) for _ in range(4))
                          for _ in range(4))
                if linalg.rank(fld, m) == 4:
                    break
            yield e.entry_id, a, a.change_basis(m)


@pytest.mark.parametrize("p", [3, 5])
def test_witness_found_in_both_directions(p):
    for entry_id, a, b in _closed_dim4_conjugates(p):
        for x, y in ((a, b), (b, a)):
            w = homsearch.find_witness(x, y)
            assert w is not None and is_isomorphism(x, y, w), entry_id


def test_search_from_the_dense_side():
    # find_witness starts from the sparse table; started from the random
    # basis, some constraint e_i ∘ e_j has an e_i component, the c_i x term
    # of the linear constraints (over F_5 this side takes minutes)
    for entry_id, a, b in _closed_dim4_conjugates(3):
        found = homsearch.find_isomorphisms(b, a)
        assert found and is_isomorphism(b, a, found[0]), entry_id


def test_witness_for_the_j412_conjugate():
    # every image of e_2 in J²(b) is a dead subtree, since e_2 ∉ J²(a);
    # without the characteristic subspaces this search took 8-11 s
    a = _closed("J_{4,12}", GF(5))
    b = a.change_basis(((4, 3, 0, 4), (1, 0, 3, 3), (4, 4, 3, 3),
                        (3, 3, 1, 2)))
    assert homsearch.find_isomorphisms(a, b) == [
        ((0, 4, 0, 4), (0, 1, 0, 3), (1, 4, 0, 4), (0, 0, 2, 4))]


def test_mismatched_invariants_skip_the_search(monkeypatch):
    def entered(self):
        raise AssertionError("the search ran")
    monkeypatch.setattr(homsearch._Search, "dfs", entered)
    # same dim, different J²: the zero algebra against a² = b
    a, b = zero_algebra(GF(3), 3), _closed("J_{3,2}", GF(3))
    assert a.fingerprint() != b.fingerprint()
    for x, y in ((a, b), (b, a)):
        assert homsearch.find_isomorphisms(x, y) == []
        assert homsearch.find_witness(x, y) is None


def rescan_propagate(self, trail):
    """The reference propagation: rescan every constraint until none
    changes, the search without the worklist of touched constraints."""
    f, b, n = self.f, self.b, self.n
    assigned, constraints = self.assigned, self.constraints
    changed = True
    while changed:
        changed = False
        for (i, j), terms in constraints.items():
            if i not in assigned or j not in assigned:
                continue
            w = b.product(assigned[i], assigned[j])
            known = [f.zero] * n
            unknown = []
            for k, c in terms:
                if k in assigned:
                    known = linalg.vec_add(
                        f, known, linalg.vec_scale(f, c, assigned[k]))
                else:
                    unknown.append((k, c))
            if not unknown:
                if tuple(known) != w:
                    return False
            elif len(unknown) == 1:
                k, c = unknown[0]
                img = linalg.vec_scale(
                    f, f.inv(c), linalg.vec_sub(f, w, known))
                if not self.assign(k, img, trail):
                    return False
                changed = True
    return True


def scan_candidates(self, i):
    """The reference candidates: every nonzero vector over the entries in
    lexicographic order, only the square-zero ones when e_i ∘ e_i = 0, with
    no linear solve."""
    b, squares = self.b, self.constraints[(i, i)]
    for x in iproduct(self.entries, repeat=self.n):
        if any(x) and (squares or not any(b.product(x, x))):
            yield x


def _no_profile_check(monkeypatch):
    monkeypatch.setattr(homsearch, "_profiles_differ", lambda *args: False)


def _counted(monkeypatch, call, reference, scan=True):
    """call() and the nodes its searches visited; the reference search has
    no characteristic subspaces and no profile check, propagates by rescanning
    and, with `scan`, scans every candidate instead of solving for them."""
    searches = []

    class Recorded(homsearch._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    with monkeypatch.context() as m:
        m.setattr(homsearch, "_Search", Recorded)
        if reference:
            m.setattr(homsearch, "_characteristic_pairs", lambda a, b: [])
            _no_profile_check(m)
            m.setattr(Recorded, "propagate", rescan_propagate)
            if scan:
                m.setattr(Recorded, "candidates", scan_candidates)
        out = call()
    return out, sum(s.nodes for s in searches)


def _same_as_reference(monkeypatch, call, scan=True):
    found, nodes = _counted(monkeypatch, call, reference=False)
    expected, ref_nodes = _counted(monkeypatch, call, reference=True,
                                   scan=scan)
    assert found == expected
    assert nodes <= ref_nodes
    return found, nodes, ref_nodes


def _random_conjugate(a, rng, entries=None):
    """a in a seeded random basis with entries from F_p, or from `entries`."""
    fld, n = a.field, a.dim
    entries = entries or range(fld.p)
    while True:
        m = tuple(tuple(rng.choice(entries) for _ in range(n))
                  for _ in range(n))
        if linalg.rank(fld, m) == n:
            return a.change_basis(m)


def _check_class(monkeypatch, a, targets):
    """Aut(a) as a stabiliser chain, and the first isomorphism from a to
    each target."""
    _same_as_reference(monkeypatch, lambda: homsearch.stabiliser_chain(a))
    for b in targets:
        _same_as_reference(monkeypatch,
                           lambda: homsearch.find_isomorphisms(a, b))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pruned_search_matches_reference_dim3(monkeypatch, p):
    # every class against a seeded conjugate of every class, its own too
    rng = random.Random(p)
    reps = classify_dim(3, GF(p)).representatives
    conjugates = [_random_conjugate(a, rng) for a in reps]
    for a in reps:
        _check_class(monkeypatch, a, conjugates)


def test_pruned_search_matches_reference_dim4_f3(monkeypatch):
    rng = random.Random(4)
    reps = classify_dim(4, GF(3)).representatives
    for a in reps:
        b = _random_conjugate(a, rng)
        _check_class(monkeypatch, a, [b])
        _same_as_reference(monkeypatch,
                           lambda: homsearch.find_isomorphisms(b, a))


def test_pruned_search_matches_reference_closed_dim4(monkeypatch):
    # from the random basis, forced images take part in constraints that
    # only a re-queue after each forced image checks
    for _entry_id, a, b in _closed_dim4_conjugates(3):
        for x, y in ((a, b), (b, a)):
            _same_as_reference(monkeypatch,
                               lambda: homsearch.find_isomorphisms(x, y))


def test_pruned_search_matches_reference_over_q(monkeypatch):
    # over Q both searches give up after QQ_NODE_BUDGET nodes; each pair
    # whose reference search ends within the budget is compared (15 of 16)
    rng = random.Random(3)
    box = tuple(map(QQ.of, homsearch.QQ_ENTRIES))
    compared = 0
    for e in tables.catalog("closed", 3):
        a = e.algebra(QQ)
        for b in [_random_conjugate(a, rng, box) for _ in range(2)]:
            for x, y in ((a, b), (b, a)):
                def call():
                    return homsearch.find_isomorphisms(x, y)
                try:
                    expected, ref_nodes = _counted(monkeypatch, call,
                                                   reference=True)
                except homsearch.SearchBudgetExceeded:
                    continue
                found, nodes = _counted(monkeypatch, call, reference=False)
                assert found == expected and nodes <= ref_nodes, e.entry_id
                assert not found or is_isomorphism(x, y, found[0])
                compared += 1
    assert compared == 15


def test_characteristic_subspaces_prune_j46_to_j48(monkeypatch):
    # the profile check refutes this pair before any search; without it the
    # pair is an exhaustive refutation, against the same linear solve
    # without the subspaces (a scan of F_7^4 per image takes minutes)
    _no_profile_check(monkeypatch)
    a, b = _closed("J_{4,6}", GF(7)), _closed("J_{4,8}", GF(7))
    found, nodes, ref_nodes = _same_as_reference(
        monkeypatch, lambda: homsearch.find_isomorphisms(a, b), scan=False)
    assert found == [] and nodes < ref_nodes


@pytest.mark.parametrize("p, x, y", [(7, "J_{4,6}", "J_{4,8}"),
                                     (5, "J_{4,6}", "J_{4,9}")])
def test_square_zero_cones_refute_without_search(monkeypatch, p, x, y):
    def entered(self):
        raise AssertionError("the search ran")
    monkeypatch.setattr(homsearch._Search, "dfs", entered)
    a, b = _closed(x, GF(p)), _closed(y, GF(p))
    assert a.fingerprint() == b.fingerprint()
    assert homsearch.find_isomorphisms(a, b) == []


@pytest.mark.parametrize("p, k", [(5, 2), (7, 1)])
def test_pencil_profiles_refute_forms_of_one_closure_class(monkeypatch, p,
                                                           k):
    # a² = c, b² = d against a² = c, ab = d, b² = c + k·d: one class over
    # the closure, so there is no {1} certificate, and the square-zero cones
    # have the same size; without the profile the exhaustive search took
    # 2 s over F_5 and 28 s over F_7
    def entered(self):
        raise AssertionError("the search ran")
    monkeypatch.setattr(homsearch._Search, "dfs", entered)
    fld = GF(p)
    a = Algebra(fld, 4, {(1, 1, 3): 1, (2, 2, 4): 1})
    b = Algebra(fld, 4, {(1, 1, 3): 1, (1, 2, 4): 1, (2, 2, 3): 1,
                         (2, 2, 4): k})
    for x, y in ((a, b), (b, a)):
        assert homsearch.find_isomorphisms(x, y) == []
        verdict = isotest.decide(x, y)
        assert verdict.kind == isotest.ISOMORPHIC_OVER_CLOSURE
        assert verdict.base_field_conclusive
        assert verdict.detail == "no base-field witness (exhaustive search)"


@pytest.fixture(scope="module")
def classes():
    """classes(n, p): the representatives of classify_dim(n, GF(p)), each
    classified once per module."""
    return cache(lambda n, p: classify_dim(n, GF(p)).representatives)


def _cone_size(a):
    return cone_size_from_profile(homsearch._pencil_profile(a), a.field.p,
                                  a.dim)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cone_size_matches_enumeration_on_classes(classes, p):
    for n in range(1, 5):
        for a in classes(n, p):
            assert _cone_size(a) == cone_size_by_enumeration(a), a


def test_cone_size_matches_enumeration_on_random_tables():
    # symmetric tables, neither Jordan nor nilpotent in general, from empty
    # to dense, so that the pencils span from 0 to n dimensions
    rng = random.Random(25)
    for _ in range(320):
        p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        density = rng.random()
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if rng.random() < density:
                        table[i][j][k] = table[j][i][k] = rng.randrange(p)
        a = Algebra.from_table(GF(p), table)
        assert _cone_size(a) == cone_size_by_enumeration(a), a


def test_cone_count_multiplies_no_vectors(monkeypatch):
    # F_31^4 has 923 521 vectors; the profile works on the pencil of forms
    def multiplied(self, x, y):
        raise AssertionError("a vector was multiplied")
    monkeypatch.setattr(Algebra, "product", multiplied)
    a, b = _closed("J_{4,6}", GF(31)), _closed("J_{4,8}", GF(31))
    assert homsearch._profiles_differ(a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cone_check_passes_conjugates(classes, monkeypatch, p):
    # isomorphic algebras pass both checks and reach the (stubbed) search
    rng = random.Random(p)
    pairs = [(a, _random_conjugate(a, rng)) for n in range(1, 5)
             for a in classes(n, p)]
    searched = []

    def entered(self):
        searched.append(self)
        return True
    monkeypatch.setattr(homsearch._Search, "dfs", entered)
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            searched.clear()
            homsearch.find_isomorphisms(x, y)
            # equal tables return the identity before either check
            assert searched or x == y, (x, y)


@pytest.mark.parametrize("p, pairs, split", [(2, 59, 56), (3, 14, 14),
                                             (5, 14, 14), (7, 14, 14)])
def test_profiles_split_dim4_classes(classes, p, pairs, split):
    # the dim-4 class pairs with equal fingerprints; the square-zero cone
    # sizes split 34 of them over F_2 and 12 over F_3, F_5 and F_7
    same = [(a, b) for a, b in combinations(classes(4, p), 2)
            if a.fingerprint() == b.fingerprint()]
    assert len(same) == pairs
    assert sum(homsearch._profiles_differ(a, b) for a, b in same) == split


def test_no_cone_check_over_q():
    # the Q candidates are a box, not an Aut-invariant set: the two boxes
    # hold different numbers of square-zero vectors, yet a witness exists
    a = Algebra(QQ, 3, {(1, 2, 3): 1})
    b = a.change_basis(((1, 1, -1), (1, 0, -1), (1, -1, 0)))
    box = list(iproduct(map(QQ.of, homsearch.QQ_ENTRIES), repeat=3))

    def cone(x):
        return sum(1 for v in box if not any(x.product(v, v)))
    assert cone(a) != cone(b)
    found = homsearch.find_isomorphisms(a, b)
    assert found and is_isomorphism(a, b, found[0])


def test_null_filiform_dim8_over_q():
    # e_i ∘ e_j = e_{i+j} against its cyclic relabelling: the box holds
    # 5^8 - 1 vectors, and the search solves for its candidates instead of
    # filtering the whole box by squares first (which took minutes)
    n = 8

    def table(relabel):
        return {(*sorted((relabel(i), relabel(j))), relabel(i + j)): 1
                for i in range(1, n + 1) for j in range(i, n + 1 - i)}
    a = Algebra(QQ, n, table(lambda k: k))
    b = Algebra(QQ, n, table(lambda k: k % n + 1))
    t0 = time.perf_counter()
    w = homsearch.find_witness(a, b)
    assert time.perf_counter() - t0 < 10
    assert w is not None and is_isomorphism(a, b, w)
