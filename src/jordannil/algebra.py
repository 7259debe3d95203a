"""Commutative structure-constant algebras and their structural invariants.

An Algebra holds the ground field, a dimension n and the symmetric products
e_i ∘ e_j = Σ_k c_{ij}^k e_k.  Only pairs i ≤ j are accepted on construction;
the full table is materialized for O(1) lookup.  All values are immutable.
"""

from collections import namedtuple
from operator import add
import string

from . import linalg
from .linalg import Subspace


Fingerprint = namedtuple(
    "Fingerprint",
    ["dim", "dim_centre", "dims_lcs", "dim_square", "nilindex",
     "is_associative", "dim_centre_meet_square"])


def fingerprint_key(fp):
    """Total-order sort key (nilindex None means the series never dies)."""
    ni = fp.nilindex if fp.nilindex is not None else 10 ** 9
    return (fp.dim, fp.dim_centre, fp.dims_lcs, fp.dim_square, ni,
            fp.is_associative, fp.dim_centre_meet_square)


def default_labels(n):
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"e{i + 1}" for i in range(n))


class Algebra:
    """Commutative algebra given by symmetric structure constants."""

    __slots__ = ("field", "dim", "table", "_cache")

    def __init__(self, field, dim, constants=None):
        self.field = field
        self.dim = dim
        rows = [[list([field.zero] * dim) for _ in range(dim)] for _ in range(dim)]
        if constants:
            for (i, j, k), c in constants.items():
                if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                    raise ValueError(f"product index ({i},{j},{k}) out of range")
                if i > j:
                    raise ValueError(f"constants must use i <= j, got ({i},{j})")
                c = field.of(c)
                rows[i - 1][j - 1][k - 1] = c
                rows[j - 1][i - 1][k - 1] = c
        self.table = tuple(tuple(tuple(v) for v in row) for row in rows)
        self._cache = {}

    @classmethod
    def from_table(cls, field, table):
        a = cls.__new__(cls)
        a.field = field
        a.dim = len(table)
        a.table = tuple(tuple(tuple(v) for v in row) for row in table)
        a._cache = {}
        return a

    @property
    def constants(self):
        """Nonzero constants as {(i, j, k): c} with 1-based i <= j."""
        out = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[(i + 1, j + 1, k + 1)] = c
        return out

    def encode(self):
        return (repr(self.field), self.dim, tuple(sorted(self.constants.items())))

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.table == other.table)

    def __hash__(self):
        return hash(self.encode())

    def __repr__(self):
        labels = default_labels(self.dim)
        parts = []
        for (i, j, k), c in sorted(self.constants.items()):
            lhs = (f"{labels[i - 1]}^2" if i == j
                   else f"{labels[i - 1]}*{labels[j - 1]}")
            coeff = "" if c == self.field.one else f"{self.field.render(c)}*"
            parts.append(f"{lhs}={coeff}{labels[k - 1]}")
        body = ", ".join(parts) if parts else "zero"
        return f"Algebra({self.field!r}, dim {self.dim}: {body})"

    # -- products ---------------------------------------------------------

    def product(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        f = self.field
        out = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = f.mul(xi, yj)
                for k, t in enumerate(row[j]):
                    if t:
                        out[k] = f.add(out[k], f.mul(c, t))
        return tuple(out)

    def product_basis(self, x, j):
        """product(x, e_{j+1}) without building the unit vector."""
        f = self.field
        out = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for k, t in enumerate(self.table[i][j]):
                if t:
                    out[k] = f.add(out[k], f.mul(xi, t))
        return tuple(out)

    # -- identities -------------------------------------------------------

    def check_jordan(self):
        """x² ∘ (x ∘ e_j) = x ∘ (x² ∘ e_j) at the generic point x of
        jordan_terms, hence at every x in fieldⁿ."""
        if "jordan" not in self._cache:
            self._cache["jordan"] = all(
                self._sym_product(*lhs) == self._sym_product(*rhs)
                for lhs, rhs in jordan_terms(self))
        return self._cache["jordan"]

    def _sym_product(self, p, q):
        # p, q: polynomial vectors {exponent tuple over λ: coordinate vector}
        f = self.field
        out = {}
        for m1, v1 in p.items():
            for m2, v2 in q.items():
                w = self.product(v1, v2)
                if not any(w):
                    continue
                m = lambda_product(f, m1, m2)
                if m in out:
                    out[m] = tuple(f.add(a, b) for a, b in zip(out[m], w))
                    if not any(out[m]):
                        del out[m]
                else:
                    out[m] = w
        return out

    def _sym_product_basis(self, p, j):
        """_sym_product(p, e_{j+1}) without building the constant e_{j+1}."""
        out = {}
        for m, v in p.items():
            w = self.product_basis(v, j)
            if any(w):
                out[m] = w
        return out

    def is_associative(self):
        """(e_i e_j) e_k = e_i (e_j e_k) for all basis vectors."""
        if "assoc" not in self._cache:
            t, n = self.table, self.dim
            self._cache["assoc"] = all(
                self.product_basis(t[i][j], k) == self.product_basis(t[j][k], i)
                for i in range(n) for j in range(n) for k in range(n))
        return self._cache["assoc"]

    # -- invariants -------------------------------------------------------

    def centre(self):
        if "centre" not in self._cache:
            f = self.field
            n = self.dim
            rows = []
            for j in range(n):
                for k in range(n):
                    rows.append(tuple(self.table[i][j][k] for i in range(n)))
            self._cache["centre"] = Subspace(f, n, linalg.nullspace(f, rows, n))
        return self._cache["centre"]

    def lower_central_series(self):
        """c¹ = J, c^m = c^{m-1} ∘ J; ends at 0 or when it stabilizes."""
        if "lcs" not in self._cache:
            f = self.field
            n = self.dim
            series = [linalg.full_space(f, n)]
            while True:
                current = series[-1]
                if current.is_zero():
                    break
                vectors = [self.product_basis(u, j)
                           for u in current.basis for j in range(n)]
                nxt = Subspace(f, n, vectors)
                if nxt == current:
                    break
                series.append(nxt)
            self._cache["lcs"] = series
        return self._cache["lcs"]

    def square(self):
        series = self.lower_central_series()
        if len(series) >= 2:
            return series[1]
        return series[0]  # dim 0: J² = J = 0

    def is_nilpotent(self):
        """(True, nilindex) when the series hits 0, else (False, None)."""
        series = self.lower_central_series()
        if series[-1].is_zero():
            return True, len(series) if self.dim > 0 else 1
        return False, None

    def fingerprint(self):
        if "fp" not in self._cache:
            series = self.lower_central_series()
            dims = tuple(s.dim for s in series)
            nilpotent, nilindex = self.is_nilpotent()
            centre = self.centre()
            square = self.square()
            self._cache["fp"] = Fingerprint(
                dim=self.dim,
                dim_centre=centre.dim,
                dims_lcs=dims,
                dim_square=square.dim,
                nilindex=nilindex if nilpotent else None,
                is_associative=self.is_associative(),
                dim_centre_meet_square=centre.intersection(square).dim)
        return self._cache["fp"]

    # -- constructions ----------------------------------------------------

    def change_basis(self, p):
        """New basis e'_i = Σ_j p[i][j] e_j; requires p invertible."""
        f = self.field
        pinv = linalg.invert(f, p)
        if pinv is None:
            raise ValueError("basis-change matrix is singular")
        table = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                w = self.product(p[i], p[j])
                row.append(linalg.vec_mat(f, w, pinv))
            table.append(tuple(row))
        return Algebra.from_table(f, table)

    def direct_sum(self, other):
        if self.field != other.field:
            raise ValueError("direct sum needs a common field")
        f = self.field
        n, m = self.dim, other.dim
        consts = dict(self.constants)
        for (i, j, k), c in other.constants.items():
            consts[(i + n, j + n, k + n)] = c
        return Algebra(f, n + m, consts)


def zero_algebra(field, n):
    return Algebra(field, n)


def lambda_product(field, m1, m2):
    """The λ-monomial m1·m2 as a function on fieldⁿ.

    Over F_p every λ satisfies λ^p = λ, so an exponent e ≥ p is read as
    (e - 1) mod (p - 1) + 1.  A polynomial reduced this way is zero iff it
    vanishes at every point of F_pⁿ (Lidl and Niederreiter, Finite Fields).
    The identities have degree ≤ 3, so the rule never fires over Q or over
    F_p with p ≥ 5.
    """
    m = tuple(map(add, m1, m2))
    p = field.characteristic
    if p and max(m, default=0) >= p:
        m = tuple(e if e < p else (e - 1) % (p - 1) + 1 for e in m)
    return m


def jordan_terms(a):
    """The two sides of the Jordan identity, before their last product.

    Yields ((x², x ∘ e_j), (x, x² ∘ e_j)) for each j at the generic point
    x = Σ λ_i e_i, as polynomial vectors {exponent tuple over λ_1..λ_n:
    coordinate vector} multiplied with lambda_product.  The identity equates
    the products of the two pairs at every λ-monomial, which is the same as
    equating them at every point x of fieldⁿ, over every field.
    """
    f = a.field
    n = a.dim
    x = {tuple(1 if j == i else 0 for j in range(n)): linalg.unit(f, n, i)
         for i in range(n)}
    xx = a._sym_product(x, x)
    for j in range(n):
        yield ((xx, a._sym_product_basis(x, j)),
               (x, a._sym_product_basis(xx, j)))


def is_isomorphism(a, b, phi):
    """True iff phi (rows = images of a's basis) is an algebra isomorphism a -> b."""
    if a.field != b.field or a.dim != b.dim or len(phi) != a.dim:
        return False
    f = a.field
    if linalg.invert(f, phi) is None:
        return False
    for i in range(a.dim):
        for j in range(i, a.dim):
            lhs = linalg.vec_mat(f, a.table[i][j], phi)
            if lhs != b.product(phi[i], phi[j]):
                return False
    return True
