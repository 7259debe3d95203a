import random
from itertools import product as iproduct

import pytest

from jordannil import cohomology as coh
from jordannil import linalg
from jordannil.algebra import Algebra, is_isomorphism, zero_algebra
from jordannil.classify import classify_dim
from jordannil.field import GF, QQ, UnsupportedFieldError
from jordannil.limits import ResourceLimitError
from jordannil.orbits import (automorphism_group, gaussian_binomial,
                              grassmannian_points, h2_action_matrix,
                              orbit_of_point, orbit_representatives,
                              point_forms)

from theory import automorphisms, gl_order, radical


def act_on_h2(h2, phi, coords):
    """Image of H² coordinates under phi: the pull-back of their lift.
    `H2Space.reduce` trusts its argument to lie in Z², so a pull-back that
    leaves Z² raises here."""
    form = coh.pull_back(phi, h2.lift(coords))
    if not h2.z2.contains(form):
        raise ValueError("the pull-back leaves Z²")
    return h2.reduce(form)


def radical_allowable(a, h2, r):
    """U_r(J) by the radical route: the points of G_r(H²) whose lifted
    forms have a joint radical meeting Z(J) in 0."""
    centre = a.centre()
    return {pt for pt in grassmannian_points(h2.dim, r, a.field)
            if radical(list(point_forms(h2, pt)))
            .intersection(centre).is_zero()}


def test_aut_group_sizes():
    f3 = GF(3)
    assert len(automorphism_group(zero_algebra(f3, 2))) == 48   # |GL(2,3)|
    j22 = Algebra(f3, 2, {(1, 1, 2): 1})
    assert len(automorphism_group(j22)) == 6


def test_aut_group_matches_exhaustive_gl_scan():
    f3 = GF(3)
    j22 = Algebra(f3, 2, {(1, 1, 2): 1})
    brute = set()
    for flat in iproduct(range(3), repeat=4):
        m = (flat[:2], flat[2:])
        if linalg.invert(f3, m) is not None and is_isomorphism(j22, j22, m):
            brute.add(m)
    assert set(automorphisms(j22)) == brute
    aut = automorphism_group(j22)
    assert len(aut) == len(brute)
    assert all(is_isomorphism(j22, j22, m) for m in brute)


def test_aut_contains_identity_and_preserves_products():
    f2 = GF(2)
    j33 = Algebra(f2, 3, {(1, 2, 3): 1})
    assert is_isomorphism(j33, j33, linalg.identity(f2, 3))
    # a·b = c, c·b = 0
    assert not is_isomorphism(j33, j33, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    for phi in automorphisms(j33):
        assert is_isomorphism(j33, j33, phi)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_chain_order_matches_enumeration(p):
    fld = GF(p)
    for n in (1, 2, 3):
        for a in classify_dim(n, fld).representatives:
            aut = automorphism_group(a)
            for g in aut.generators:
                assert is_isomorphism(a, a, g)
            if p == 5 and not a.constants:
                expected = gl_order(n, p)
            else:
                expected = len(automorphisms(a))
            assert len(aut) == expected, a


def test_chain_order_of_gl_3_7_without_enumeration():
    aut = automorphism_group(zero_algebra(GF(7), 3))
    assert len(aut) == gl_order(3, 7) == 33_784_128
    assert len(aut.generators) < 20
    for g in aut.generators:
        assert linalg.invert(GF(7), g) is not None


def test_aut_needs_prime_field():
    with pytest.raises(UnsupportedFieldError):
        automorphism_group(zero_algebra(QQ, 1))


def test_aut_j32_has_stated_shape():
    # images: phi(a) free with a11 != 0, phi(b) = a11²·b, phi(c) in span{b,c}
    f3 = GF(3)
    j32 = Algebra(f3, 3, {(1, 1, 2): 1})
    # 2 * 3 * 3 * 3 * 2 free parameters
    assert len(automorphism_group(j32)) == 108
    for m in automorphisms(j32):
        a11 = m[0][0]
        assert a11 != 0
        assert m[1] == (0, (a11 * a11) % 3, 0)
        assert m[2][0] == 0


def test_aut_j33_alpha_has_stated_shape():
    # phi(c) = a33·c with a33 determined by phi(a)² = phi(c) and
    # phi(b)² = alpha·phi(c); the cross products of the images vanish
    for p, alpha in ((3, 1), (3, 2), (5, 1), (5, 2)):
        fld = GF(p)
        j33 = Algebra(fld, 3, {(1, 1, 3): 1, (2, 2, 3): alpha})
        for m in automorphisms(j33):
            assert m[2][0] == 0 and m[2][1] == 0
            a33 = m[2][2]
            assert a33 == (m[0][0] ** 2 + alpha * m[0][1] ** 2) % p
            assert (alpha * a33) % p == \
                (m[1][0] ** 2 + alpha * m[1][1] ** 2) % p
            assert (m[0][0] * m[1][0] + alpha * m[0][1] * m[1][1]) % p == 0


def test_aut_group_closed_under_product_and_inverse():
    f3 = GF(3)
    j22 = Algebra(f3, 2, {(1, 1, 2): 1})
    elems = set(automorphisms(j22))
    for m in elems:
        assert linalg.invert(f3, m) in elems
        for m2 in elems:
            assert linalg.mat_mul(f3, m, m2) in elems


def test_act_on_h2_examples():
    f3 = GF(3)
    j21 = zero_algebra(f3, 2)
    h2 = coh.h2_space(j21)
    v = (1, 2, 0)
    assert act_on_h2(h2, linalg.identity(f3, 2), v) == v
    # phi = diag(1,2) sends S(2,2) to 4*S(2,2) = S(2,2) mod 3
    phi = ((1, 0), (0, 2))
    assert act_on_h2(h2, phi, (0, 0, 1)) == (0, 0, 1)


def test_act_on_h2_rejects_non_automorphism():
    # the pull-back of a cocycle by a map outside Aut can leave Z²
    f3 = GF(3)
    j22 = Algebra(f3, 2, {(1, 1, 2): 1})
    h2 = coh.h2_space(j22)
    not_aut = ((1, 0), (1, 1))
    assert not is_isomorphism(j22, j22, not_aut)
    with pytest.raises(ValueError):
        act_on_h2(h2, not_aut, (1,))


def test_act_composition_law():
    rnd = random.Random(6)
    f3 = GF(3)
    j21 = zero_algebra(f3, 2)
    h2 = coh.h2_space(j21)
    aut = automorphisms(j21)
    for _ in range(20):
        p = aut[rnd.randrange(len(aut))]
        q = aut[rnd.randrange(len(aut))]
        v = tuple(rnd.randrange(3) for _ in range(h2.dim))
        composed = linalg.mat_mul(f3, q, p)
        assert act_on_h2(h2, composed, v) == act_on_h2(h2, q, act_on_h2(h2, p, v))


def test_grassmannian_counts():
    assert len(list(grassmannian_points(2, 1, GF(2)))) == 3
    assert len(list(grassmannian_points(3, 2, GF(3)))) == 13
    assert len(list(grassmannian_points(4, 4, GF(5)))) == 1
    pts = list(grassmannian_points(3, 1, GF(3)))
    assert len(pts) == 13 and len(set(pts)) == 13
    for pt in pts:
        assert linalg.rank(GF(3), pt) == 1


def test_points_are_their_own_rref():
    # points are plain row tuples in canonical RREF, so a point and the
    # rref of its rows are the same tuple
    f3 = GF(3)
    for pt in grassmannian_points(4, 2, f3):
        assert pt == linalg.rref(f3, pt)[0]
    for a, r in ((zero_algebra(f3, 2), 1), (zero_algebra(f3, 2), 2),
                 (Algebra(f3, 3, {(1, 1, 2): 1}), 2)):
        h2, _, reps = orbit_representatives(a, r)
        assert reps and set(reps) <= radical_allowable(a, h2, r)
        for pt in reps:
            assert type(pt) is tuple and pt == linalg.rref(f3, pt)[0]


def test_gaussian_binomial_counts_the_points():
    for n, r, p in ((2, 1, 2), (3, 2, 3), (4, 4, 5), (4, 2, 3), (5, 2, 2)):
        assert gaussian_binomial(n, r, p) == \
            len(list(grassmannian_points(n, r, GF(p))))
    assert gaussian_binomial(6, 3, 5) == 2_558_556


def test_grassmannian_bound(monkeypatch):
    # G(3, 6) over F_5 is refused before any point is made
    with pytest.raises(ResourceLimitError, match="2558556 points"):
        next(grassmannian_points(6, 3, GF(5)))
    monkeypatch.setenv("JORDAN_LIMITS", "points=12")
    with pytest.raises(ResourceLimitError, match="13 points, above the bound 12"):
        list(grassmannian_points(3, 2, GF(3)))
    monkeypatch.setenv("JORDAN_LIMITS", "points=13")
    assert len(list(grassmannian_points(3, 2, GF(3)))) == 13


def test_grassmannian_rejects_bad_input():
    with pytest.raises(UnsupportedFieldError):
        list(grassmannian_points(2, 1, QQ))
    with pytest.raises(ValueError):
        list(grassmannian_points(2, 3, GF(2)))


def test_orbit_representative_examples():
    f3 = GF(3)
    _, _, reps = orbit_representatives(zero_algebra(f3, 1), 1)
    assert reps == [((1,),)]
    j22 = Algebra(f3, 2, {(1, 1, 2): 1})
    _, _, reps = orbit_representatives(j22, 1)
    assert reps == [((1,),)]   # H² is spanned by S(2,1)
    h2, allowable, reps = orbit_representatives(zero_algebra(f3, 1), 2)
    assert h2.dim == 1 and allowable == 0 and reps == []


def test_orbits_partition_allowable_points():
    f3 = GF(3)
    j21 = zero_algebra(f3, 2)
    h2 = coh.h2_space(j21)
    aut = automorphism_group(j21)
    mats = [h2_action_matrix(h2, g) for g in aut.generators]
    allowable = radical_allowable(j21, h2, 1)
    _, count, reps = orbit_representatives(j21, 1)
    assert count == len(allowable)
    union = set()
    total = 0
    for pt in reps:
        orbit = orbit_of_point(f3, mats, pt)
        assert orbit <= allowable           # U_r is stable under Aut
        assert len(aut) % len(orbit) == 0   # orbit-stabilizer
        assert not (orbit & union)
        union |= orbit
        total += len(orbit)
    assert union == allowable and total == len(allowable)


def _reference_orbits(h2, aut, points):
    """Orbit partition of points: the full dim H² × dim H² action matrix of
    each phi in aut, applied to the rows of one point of each orbit."""
    f = h2.field
    mats = [[h2.reduce(coh.pull_back(phi, b)) for b in h2.basis]
            for phi in aut]
    partition = []
    seen = set()
    for pt in points:
        if pt in seen:
            continue
        orbit = {linalg.rref(
                     f, [linalg.vec_mat(f, row, m) for row in pt])[0]
                 for m in mats}
        seen |= orbit
        partition.append((pt, orbit))
    return partition


# the BFS runs from every allowable point and must give the reference orbit
# of that point
CASES = [
    (zero_algebra(GF(3), 3), 1),
    (zero_algebra(GF(3), 2), 1),
    (zero_algebra(GF(3), 2), 2),
    (Algebra(GF(3), 2, {(1, 1, 2): 1}), 1),
    (zero_algebra(GF(2), 3), 1),
    (Algebra(GF(2), 3, {(1, 1, 2): 1}), 1),   # dim H² = 4
    (Algebra(GF(2), 3, {(1, 1, 2): 1}), 2),
]
CASE_IDS = ["zero3-F3-r1", "zero2-F3-r1", "zero2-F3-r2", "J22-F3-r1",
            "zero3-F2-r1", "J32-F2-r1", "J32-F2-r2"]


@pytest.mark.parametrize("a, r", CASES, ids=CASE_IDS)
def test_orbit_of_point_matches_action_matrices(a, r):
    h2 = coh.h2_space(a)
    aut = automorphism_group(a)
    mats = [h2_action_matrix(h2, g) for g in aut.generators]
    points = sorted(radical_allowable(a, h2, r))
    assert points
    expected = _reference_orbits(h2, automorphisms(a), points)
    orbit_of = {pt: orbit for _, orbit in expected for pt in orbit}
    assert set(orbit_of) == set(points)
    assert sum(len(orbit) for _, orbit in expected) == len(points)
    for pt in points:
        assert orbit_of_point(a.field, mats, pt) == orbit_of[pt]


def reference_walk(a, r):
    """orbit_representatives by the reference routes: U_r from the radical
    route, cut into BFS orbits from its points; each orbit must lie in U_r
    (U_r is Aut-stable) and gives its least point."""
    h2 = coh.h2_space(a)
    mats = [h2_action_matrix(h2, g) for g in automorphism_group(a).generators]
    allowable = radical_allowable(a, h2, r)
    reps = []
    seen = set()
    for pt in sorted(allowable):
        if pt in seen:
            continue
        orbit = orbit_of_point(a.field, mats, pt)
        assert orbit <= allowable, pt
        seen |= orbit
        reps.append(min(orbit))
    return h2, len(seen), sorted(reps)


def assert_walk_matches_reference(a, r):
    h2, count, reps = orbit_representatives(a, r)
    ref_h2, ref_count, ref_reps = reference_walk(a, r)
    assert [b.rows for b in h2.basis] == [b.rows for b in ref_h2.basis]
    assert (count, reps) == (ref_count, ref_reps), (a, r)
    return gaussian_binomial(h2.dim, r, a.field.p), count


@pytest.mark.parametrize("a, r", CASES, ids=CASE_IDS)
def test_allowable_points_match_radical_route(a, r):
    # the orbit walk tests one point per orbit of G_r(H²); the radical
    # route tests every point.  The cases include centres of dimension 2
    # and 3 (zero algebras) and r = 2
    assert_walk_matches_reference(a, r)


# G(2, 6) over F_5 (the dim-3 zero algebra at r = 2) has 508 431 points,
# too many for the per-point radical route in this suite
MAX_REFERENCE_POINTS = 20_000


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_walk_matches_reference(p):
    fld = GF(p)
    cases = []
    for n in (1, 2, 3):
        for a in classify_dim(n, fld).representatives:
            h2_dim = coh.h2_space(a).dim
            cases += [(a, r) for r in range(1, min(2, h2_dim) + 1)
                      if gaussian_binomial(h2_dim, r, p)
                      <= MAX_REFERENCE_POINTS]
    # a dim-4 algebra whose H² (dim 3) has no allowable point: every
    # cocycle vanishes on the centre span(e_4)
    cases += [(Algebra(fld, 4, {(1, 1, 2): 1, (2, 3, 4): 1}), r)
              for r in (1, 2)]
    sizes = [assert_walk_matches_reference(a, r) for a, r in cases]
    assert any(0 < count < total for total, count in sizes)
    assert (gaussian_binomial(3, 1, p), 0) in sizes


@pytest.mark.parametrize("a", [zero_algebra(GF(3), 2),
                               Algebra(GF(2), 3, {(1, 1, 2): 1}),
                               Algebra(GF(3), 3, {(1, 1, 3): 1, (2, 2, 3): 2})],
                         ids=["zero2-F3", "J32-F2", "J33-F3"])
def test_action_matrix_matches_pull_back(a):
    f = a.field
    h2 = coh.h2_space(a)
    for g in automorphism_group(a).generators:
        mat = h2_action_matrix(h2, g)
        for v in iproduct(range(f.p), repeat=h2.dim):
            assert linalg.vec_mat(f, v, mat) == act_on_h2(h2, g, v)
        for r in range(1, h2.dim + 1):
            for pt in grassmannian_points(h2.dim, r, f):
                moved = [linalg.vec_mat(f, row, mat) for row in pt]
                pulled = [h2.reduce(coh.pull_back(g, b))
                          for b in point_forms(h2, pt)]
                assert linalg.rref(f, moved) == linalg.rref(f, pulled)


def test_allowable_stable_under_aut_random():
    rnd = random.Random(14)
    f2 = GF(2)
    j21 = zero_algebra(f2, 2)
    h2 = coh.h2_space(j21)
    aut = automorphisms(j21)
    pts = sorted(radical_allowable(j21, h2, 1))
    for pt in pts:
        phi = aut[rnd.randrange(len(aut))]
        moved = [act_on_h2(h2, phi, row) for row in pt]
        red, _ = linalg.rref(f2, moved)
        forms = [h2.lift(r) for r in red]
        rad = radical(list(forms))
        assert rad.intersection(j21.centre()).is_zero()


def test_point_forms_lift():
    f2 = GF(2)
    j21 = zero_algebra(f2, 2)
    h2 = coh.h2_space(j21)
    _, _, reps = orbit_representatives(j21, 2)
    for pt in reps:
        forms = point_forms(h2, pt)
        assert len(forms) == 2
        for form in forms:
            assert h2.z2.contains(form)


@pytest.mark.parametrize("p", [2, 3])
def test_aut_order_of_extension_from_parent_orbit(p):
    """|Aut(J_θ)| = |Aut(A)| / |orbit of W| · p^(r·(dim A − dim A²)) for
    every class J_θ without a central component, n ≤ 4: the kernel of
    Aut(J_θ) → Stab_Aut(A)(W) is Hom(A/A², V).  Both sides come from
    independent stabiliser chains, so this checks every chain and every
    orbit length of the walk."""
    f = GF(p)
    memo = {}
    checked = 0
    for n in range(2, 5):
        result = classify_dim(n, f, memo)
        for j, prov in zip(result.representatives, result.provenance):
            if prov.kind != "extension":
                continue
            a = memo[prov.parent_dim].representatives[prov.parent_index]
            aut_a = automorphism_group(a)
            h2 = coh.h2_space(a)
            mats = [h2_action_matrix(h2, g) for g in aut_a.generators]
            orbit = orbit_of_point(f, mats, prov.rep_coords)
            assert len(aut_a) % len(orbit) == 0
            kernel = p ** (prov.r * (a.dim - a.fingerprint().dim_square))
            assert len(automorphism_group(j)) == \
                len(aut_a) // len(orbit) * kernel
            checked += 1
    assert checked == {2: 21, 3: 15}[p]
