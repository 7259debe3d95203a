"""Exact dense linear algebra over a Field.

Vectors are row tuples; a matrix is a tuple of rows and acts on the right of
a row vector (row i of a basis-change matrix is the image of basis vector i).
Subspaces are stored as canonical reduced-row-echelon bases so that equal
subspaces compare equal structurally.
"""

from .field import Field


def zeros(field, n):
    return tuple([field.zero] * n)


def unit(field, n, i):
    row = [field.zero] * n
    row[i] = field.one
    return tuple(row)


def identity(field, n):
    return tuple(unit(field, n, i) for i in range(n))


def vec_add(field, x, y):
    return tuple(field.add(a, b) for a, b in zip(x, y))


def vec_sub(field, x, y):
    return tuple(field.sub(a, b) for a, b in zip(x, y))


def vec_scale(field, c, x):
    return tuple(field.mul(c, a) for a in x)


def vec_mat(field, x, m):
    """Row vector times matrix."""
    n = len(m[0]) if m else 0
    out = [field.zero] * n
    for xi, row in zip(x, m):
        if xi:
            for j, a in enumerate(row):
                if a:
                    out[j] = field.add(out[j], field.mul(xi, a))
    return tuple(out)


def mat_mul(field, a, b):
    return tuple(vec_mat(field, row, b) for row in a)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def rref(field, rows):
    """Reduced row echelon form; returns (rows_without_zeros, pivot_columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple([tuple(row) for row in work[:r]]), tuple(pivots)


def rank(field, rows):
    return len(rref(field, rows)[0])


def nullspace(field, rows, ncols):
    """Canonical RREF basis of {x : rows · x^T = 0}."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(tuple(vec))
    return rref(field, basis)[0]


def invert(field, m):
    """Inverse matrix, or None if singular."""
    n = len(m)
    aug = [list(row) + list(unit(field, n, i)) for i, row in enumerate(m)]
    red, pivots = rref(field, aug)
    if len(red) < n or list(pivots) != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def reduce_vector(field, v, rref_rows, pivots):
    """Remainder of v after elimination by canonical RREF rows."""
    out = list(v)
    for row, pc in zip(rref_rows, pivots):
        if out[pc]:
            f = out[pc]
            out = [field.sub(a, field.mul(f, b)) for a, b in zip(out, row)]
    return tuple(out)


class Subspace:
    """A subspace of field^n with canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows, self.pivots = rref(field, list(vectors))

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        return self.rows

    def is_zero(self):
        return not self.rows

    def contains(self, v):
        return not any(reduce_vector(self.field, v, self.rows, self.pivots))

    def reduce(self, v):
        return reduce_vector(self.field, v, self.rows, self.pivots)

    def intersection(self, other):
        # solutions (a, b) of a·U - b·V = 0; the a-part spans the meet
        f = self.field
        u, v = self.rows, other.rows
        if not u or not v:
            return Subspace(f, self.ambient_dim)
        stacked = [list(ur) for ur in u] + [[f.neg(x) for x in vr] for vr in v]
        coeffs = nullspace(f, transpose(stacked), len(u) + len(v))
        vectors = []
        for coeff in coeffs:
            vec = zeros(f, self.ambient_dim)
            for c, row in zip(coeff[:len(u)], u):
                if c:
                    vec = vec_add(f, vec, vec_scale(f, c, row))
            vectors.append(vec)
        return Subspace(f, self.ambient_dim, vectors)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def full_space(field, n):
    return Subspace(field, n, identity(field, n))
