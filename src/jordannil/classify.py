"""Classification of nilpotent Jordan algebras over prime fields.

classify_dim builds dimension n from dimension < n: direct sums with a
one-dimensional trivial algebra supply the classes with a central component,
orbit representatives of allowable subspaces of H² supply the central
extensions without one; by the Skjelbred–Sund theorem no two of them are
isomorphic.
brute_force_classes is the independent oracle: set the symmetric structure
constants one product at a time, skip every subtree with a non-nilpotent L_x,
filter, and mark each class as the orbit of its first table under the
generators of GL(n, p), the stabiliser chain of the zero algebra.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from . import extension, homsearch, linalg, orbits
from .algebra import Algebra, fingerprint_key, zero_algebra
from .files import render_algebra


class InstanceTooLargeError(ValueError):
    """Brute-force enumeration would exceed the desk-scale bound."""


@dataclass(frozen=True)
class Provenance:
    kind: str                 # "base", "direct_sum" or "extension"
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

    Each J_θ is built once and checked against the centre lemma
    Z(J_θ) = (θ⊥ ∩ Z(J)) ⊕ V; a violation raises, under python -O too.
    """
    h2, _, reps = orbits.orbit_representatives(a, r)
    out = []
    for rep in reps:
        # lifts of H² coordinates lie in Z² by construction
        forms = orbits.point_forms(h2, rep)
        ext = extension.central_extension(a, forms)
        _, flag = extension.centre_of_extension_decomposition(a, forms, ext)
        if not flag:
            raise AssertionError("centre decomposition failed on a descendant")
        out.append((ext, rep))
    return out


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


def brute_force_classes(n, fld):
    """Oracle: enumerate all symmetric tables, filter Jordan + nilpotent,
    partition into isomorphism classes by closing each new table under the
    GL(n, p) generators."""
    if not fld.is_prime_field:
        raise ValueError("the oracle runs over prime fields")
    p = fld.p
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    slots = len(pairs) * n
    if p ** slots > _BRUTE_BOUND:
        raise InstanceTooLargeError(
            f"{p}^{slots} tables exceed the oracle bound {_BRUTE_BOUND}")

    gl, _ = homsearch.stabiliser_chain(zero_algebra(fld, n))

    def act(t, g):
        return Algebra.from_table(fld, t).change_basis(g).table

    vectors = list(iproduct(range(p), repeat=n))
    table = [[None] * n for _ in range(n)]
    seen = set()
    reps = []

    def walk(t):
        if t == len(pairs):
            a = Algebra.from_table(fld, table)
            if a.table in seen or not a.is_nilpotent()[0] \
                    or not a.check_jordan():
                return
            reps.append(a)
            seen.update(homsearch.orbit(a.table, gl, act))
            return
        i, j = pairs[t]
        for v in vectors:
            table[i][j] = table[j][i] = v
            # With e_i ∘ e_n set, L_{e_i} is complete.  L_x(cᵐ) ⊆ cᵐ⁺¹, so
            # every L_{e_i} of a nilpotent table is nilpotent.
            if j == n - 1 and not _is_nilpotent_operator(fld, table[i]):
                continue
            walk(t + 1)

    walk(0)
    reps.sort(key=_class_order)
    return ClassificationResult(
        n, fld, tuple(reps), tuple(Provenance("oracle") for _ in reps))
