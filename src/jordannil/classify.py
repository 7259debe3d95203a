"""Classification of nilpotent Jordan algebras over prime fields.

classify_dim builds dimension n from dimension < n: direct sums with a
one-dimensional trivial algebra supply the classes with a central component,
orbit representatives of allowable subspaces of H² supply the central
extensions without one.  The program relies on the theory here and checks
neither fact again: by the centre lemma Z(J_θ) = (θ⊥ ∩ Z(J)) ⊕ V an
extension by an allowable θ has centre V, and by the Skjelbred–Sund theorem
no two candidates are isomorphic.
brute_force_classes is the independent oracle: nilpotent_jordan_tables sets
the symmetric structure constants one product at a time and skips every
subtree with a non-nilpotent L_x, and each class is marked as the orbit of
its first table under explicit generators of GL(n, p), so the oracle shares
no search with the Aut(J) that classify_dim uses.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from . import extension, homsearch, linalg, orbits
from .algebra import Algebra, fingerprint_key, zero_algebra
from .files import render_algebra
from .limits import ResourceLimitError


@dataclass(frozen=True)
class Provenance:
    kind: str                 # "base", "direct_sum", "extension" or "oracle"
    parent_dim: int = None
    parent_index: int = None  # index into classify_dim(parent_dim) output
    r: int = None
    rep_coords: tuple = None  # orbit representative, rows in the H² basis

    def describe(self):
        if self.kind == "base":
            return "zero algebra"
        if self.kind == "oracle":
            return "brute-force enumeration"
        if self.kind == "direct_sum":
            return (f"direct sum: dim-{self.parent_dim} class "
                    f"#{self.parent_index + 1} + trivial line")
        return (f"extension of dim-{self.parent_dim} class "
                f"#{self.parent_index + 1}, r={self.r}, orbit rep "
                f"{self.rep_coords}")


@dataclass(frozen=True)
class ClassificationResult:
    dim: int
    field: object
    representatives: tuple
    provenance: tuple

    def __len__(self):
        return len(self.representatives)


def descendants_with_reps(a, r):
    """(J_θ, orbit representative) for each Aut-orbit of allowable subspaces.

    The lifts of H² coordinates lie in Z², and an allowable θ has θ⊥ ∩ Z(J)
    = 0, so by the centre lemma Z(J_θ) = V: J_θ has no central component.
    """
    h2, _, reps = orbits.orbit_representatives(a, r)
    return [(extension.central_extension(a, orbits.point_forms(h2, rep)), rep)
            for rep in reps]


def _class_order(a):
    return fingerprint_key(a.fingerprint()), render_algebra(a)


def classify_dim(n, fld, _memo=None):
    """All nilpotent Jordan algebras of dimension n over F_p, up to isomorphism."""
    if not fld.is_prime_field:
        raise ValueError("classification runs over prime fields")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    memo = _memo if _memo is not None else {}
    if n in memo:
        return memo[n]
    if n == 1:
        result = ClassificationResult(
            1, fld, (zero_algebra(fld, 1),), (Provenance("base"),))
        memo[1] = result
        return result

    candidates = []
    below = classify_dim(n - 1, fld, memo)
    for idx, d in enumerate(below.representatives):
        candidates.append((d.direct_sum(zero_algebra(fld, 1)),
                           Provenance("direct_sum", n - 1, idx)))
    for r in range(1, n):
        parents = classify_dim(n - r, fld, memo)
        for idx, parent in enumerate(parents.representatives):
            for ext, rep in descendants_with_reps(parent, r):
                candidates.append(
                    (ext, Provenance("extension", n - r, idx, r, rep)))

    # Skjelbred–Sund: the candidates are pairwise non-isomorphic (direct
    # sums by their parts without a central component, extensions by their
    # Aut-orbits), so no isomorphism test runs between them.
    candidates.sort(key=lambda cp: _class_order(cp[0]))
    result = ClassificationResult(
        n, fld,
        tuple(c for c, _ in candidates),
        tuple(p for _, p in candidates))
    memo[n] = result
    return result


# -- brute-force oracle -----------------------------------------------------

_BRUTE_BOUND = 2_000_000


def _is_nilpotent_operator(fld, rows):
    """True iff the operator e_j ↦ rows[j] satisfies Lⁿ = 0."""
    power = rows
    for _ in range(len(rows) - 1):
        power = linalg.mat_mul(fld, power, rows)
    return not any(map(any, power))


def nilpotent_jordan_tables(n, fld, seen):
    """Each nilpotent Jordan table on F_pⁿ that is not in seen, as an Algebra.

    The walk sets the symmetric products one at a time and skips every
    subtree with a non-nilpotent L_{e_i}.  seen is read at each leaf, before
    the nilpotency and Jordan tests, so the caller may grow it while the
    walk runs.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    table = [[None] * n for _ in range(n)]

    def walk(t):
        if t == len(pairs):
            a = Algebra.from_table(fld, table)
            if a.table not in seen and a.is_nilpotent()[0] \
                    and a.check_jordan():
                yield a
            return
        i, j = pairs[t]
        # product() copies range(p) into a tuple; at n = 1, the only size
        # with a large p under the bound, zip yields the 1-tuples lazily
        vectors = (zip(range(fld.p)) if n == 1
                   else iproduct(range(fld.p), repeat=n))
        for v in vectors:
            table[i][j] = table[j][i] = v
            # With e_i ∘ e_n set, L_{e_i} is complete.  L_x(cᵐ) ⊆ cᵐ⁺¹, so
            # every L_{e_i} of a nilpotent table is nilpotent.
            if j == n - 1 and not _is_nilpotent_operator(fld, table[i]):
                continue
            yield from walk(t + 1)

    return walk(0)


def gl_generators(fld, n):
    """Generators of GL(n, p), rows = images of the basis: diag(ω, 1, …, 1)
    for a primitive root ω, the transvection e_1 ↦ e_1 + e_2 and the cycle
    e_i ↦ e_{i+1}, each left out where it is the identity.  The cycle
    conjugates the transvection to every e_i ↦ e_i + e_{i+1} (indices mod
    n); with their commutators these are the elementary transvections, which
    generate SL(n, p), and diag(ω, 1, …, 1) adds every determinant."""
    p = fld.p
    omega = next(g for g in range(1, p)
                 if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    ident = linalg.identity(fld, n)
    gens = [((omega,) + ident[0][1:],) + ident[1:]]
    if n > 1:
        gens.append(((fld.one, fld.one) + ident[0][2:],) + ident[1:])
        gens.append(ident[1:] + ident[:1])
    return [g for g in gens if g != ident]


def brute_force_classes(n, fld):
    """Oracle: enumerate the nilpotent Jordan tables and partition them into
    isomorphism classes by closing each new table under gl_generators."""
    if not fld.is_prime_field:
        raise ValueError("the oracle runs over prime fields")
    slots = n * n * (n + 1) // 2
    if fld.p ** slots > _BRUTE_BOUND:
        raise ResourceLimitError(
            f"{fld.p}^{slots} tables exceed the oracle bound {_BRUTE_BOUND}")

    def act(t, g):
        return Algebra.from_table(fld, t).change_basis(g).table

    zero = zero_algebra(fld, n)
    gl = None
    seen = set()
    reps = []
    for a in nilpotent_jordan_tables(n, fld, seen):
        reps.append(a)
        # the zero table is its own orbit, and at n = 1 the only class:
        # GL(n, p) is needed from the first class with nonzero products
        if a != zero:
            if gl is None:
                gl = gl_generators(fld, n)
            seen.update(homsearch.orbit(a.table, gl, act))
    reps.sort(key=_class_order)
    return ClassificationResult(
        n, fld, tuple(reps), tuple(Provenance("oracle") for _ in reps))
