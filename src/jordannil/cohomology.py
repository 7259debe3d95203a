"""Symmetric bilinear forms and degree-2 cohomology of an algebra.

A form θ on an n-dimensional algebra is a symmetric n×n matrix; it is
vectorized on the lower triangle in the fixed order
(1,1),(2,1),(2,2),(3,1),(3,2),(3,3),...  so that spaces of forms have
canonical RREF bases.  S(i,j) denotes the dual basis form with value 1 on
(e_i, e_j) and (e_j, e_i), 0 elsewhere.
"""

from . import linalg
from .algebra import jordan_terms, lambda_product
from .linalg import Subspace


def triangle_size(n):
    return n * (n + 1) // 2


def triangle_index(i, j):
    """0-based position of (i, j), 1-based i >= j."""
    return i * (i - 1) // 2 + (j - 1)


def triangle_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]


class BilinearForm:
    """Symmetric bilinear form as a full matrix over the algebra's field."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.n = len(rows)
        self.rows = tuple(tuple(r) for r in rows)
        for i in range(self.n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("form matrix is not symmetric")

    @classmethod
    def from_vector(cls, field, n, vec):
        rows = [[field.zero] * n for _ in range(n)]
        for i, j in triangle_pairs(n):
            c = vec[triangle_index(i, j)]
            rows[i - 1][j - 1] = c
            rows[j - 1][i - 1] = c
        return cls(field, rows)

    def vectorize(self):
        return tuple(self.rows[i - 1][j - 1] for i, j in triangle_pairs(self.n))

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def add(self, other):
        f = self.field
        return BilinearForm(f, [linalg.vec_add(f, a, b)
                                for a, b in zip(self.rows, other.rows)])

    def scale(self, c):
        f = self.field
        return BilinearForm(f, [linalg.vec_scale(f, c, r) for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, BilinearForm) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"BilinearForm({render_form(self)})"


def zero_form(field, n):
    return BilinearForm(field, [[field.zero] * n for _ in range(n)])


def dual_form(field, n, i, j):
    """S(i, j): value 1 on (e_i, e_j) and (e_j, e_i), 0 elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"S({i},{j}) out of range for dimension {n}")
    if i < j:
        i, j = j, i
    rows = [[field.zero] * n for _ in range(n)]
    rows[i - 1][j - 1] = field.one
    rows[j - 1][i - 1] = field.one
    return BilinearForm(field, rows)


def render_form(form):
    f = form.field
    parts = []
    for i, j in triangle_pairs(form.n):
        c = form.rows[i - 1][j - 1]
        if not c:
            continue
        s = f"S({i},{j})"
        if c == f.one:
            term = s
        elif f.kind == "Q" and c == -f.one:
            term = f"-{s}"
        else:
            term = f"{f.render(c)}*{s}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


def _form_vector(form):
    return form.vectorize() if isinstance(form, BilinearForm) else tuple(form)


class FormSpace(Subspace):
    """Space of symmetric forms with canonical RREF basis (vectorized)."""

    __slots__ = ("n",)

    def __init__(self, field, n, forms=()):
        super().__init__(field, triangle_size(n),
                         [_form_vector(f) for f in forms])
        self.n = n

    @property
    def forms(self):
        return tuple(BilinearForm.from_vector(self.field, self.n, r)
                     for r in self.rows)

    def contains(self, form):
        return super().contains(_form_vector(form))

    def __repr__(self):
        return f"FormSpace(dim {self.dim} on dim-{self.n} space)"


def cocycle_space(a):
    """Z²(J, K): symmetric θ with θ(x², x∘e_j) = θ(x, x²∘e_j).

    θ is applied to the pairs of `jordan_terms`, whose products
    `check_jordan` compares: each λ-monomial of the difference, read with
    λ^p = λ over F_p, gives one linear condition on the triangle
    coordinates of θ, so θ satisfies the identity at every point x.
    """
    f = a.field
    n = a.dim
    size = triangle_size(n)
    rows = []

    def add_rows(by_monomial, p, q, sign):
        # by_monomial[m] ±= coefficients of θ(p, q) at the λ-monomial m
        op = f.add if sign > 0 else f.sub
        for m1, x in p.items():
            for m2, y in q.items():
                m = lambda_product(f, m1, m2)
                row = by_monomial.setdefault(m, [f.zero] * size)
                for i in range(1, n + 1):
                    xi, yi = x[i - 1], y[i - 1]
                    for j in range(1, i + 1):
                        if i == j:
                            c = f.mul(xi, yi)
                        else:
                            c = f.add(f.mul(xi, y[j - 1]), f.mul(x[j - 1], yi))
                        if c:
                            idx = triangle_index(i, j)
                            row[idx] = op(row[idx], c)

    for lhs, rhs in jordan_terms(a):
        by_monomial = {}
        add_rows(by_monomial, *lhs, 1)
        add_rows(by_monomial, *rhs, -1)
        rows.extend(tuple(r) for r in by_monomial.values() if any(r))

    basis = linalg.nullspace(f, rows, size)
    return FormSpace(f, n, basis)


def coboundary_space(a):
    """δC¹(J, K): span of δf_k with (δf_k)(e_i, e_j) = k-th coord of e_i∘e_j."""
    f = a.field
    n = a.dim
    forms = []
    for k in range(n):
        rows = [[a.table[i][j][k] for j in range(n)] for i in range(n)]
        forms.append(BilinearForm(f, rows))
    return FormSpace(f, n, forms)


class H2Space:
    """H²(J, K) as a canonical complement of δC¹ inside Z².

    The complement basis extends the RREF basis of δC¹ by Z² rows in fixed
    coordinate order, so reduction of any cocycle modulo δC¹ is deterministic.
    """

    __slots__ = ("algebra", "z2", "coboundaries", "basis", "_projection")

    def __init__(self, a):
        self.algebra = a
        self.z2 = cocycle_space(a)
        self.coboundaries = coboundary_space(a)
        f = a.field
        work = [list(r) for r in self.coboundaries.rows]
        work_rows, work_piv = linalg.rref(f, work)
        added = []
        for r in self.z2.rows:
            red = linalg.reduce_vector(f, r, work_rows, work_piv)
            if any(red):
                lead = next(i for i, c in enumerate(red) if c)
                red = linalg.vec_scale(f, f.inv(red[lead]), red)
                added.append(red)
                work_rows, work_piv = linalg.rref(f, list(work_rows) + [red])
        self.basis = tuple(BilinearForm.from_vector(f, a.dim, v) for v in added)
        # Rows δC¹, then H², then unit vectors off the pivots of their span
        # form a basis of all forms.  Column k of the inverse reads off the
        # k-th coordinate in that basis; the H² columns are the projection.
        size = triangle_size(a.dim)
        pivots = set(work_piv)
        outside = [linalg.unit(f, size, c) for c in range(size)
                   if c not in pivots]
        cols = linalg.transpose(linalg.invert(
            f, list(self.coboundaries.rows) + added + outside))
        start = self.coboundaries.dim
        self._projection = linalg.transpose(cols[start:start + len(added)])

    @property
    def dim(self):
        return len(self.basis)

    @property
    def field(self):
        return self.algebra.field

    def reduce(self, form):
        """Coordinates of form modulo δC¹ in the H² basis.

        form must lie in Z²; this is not checked.  The classification
        reduces only pull-backs of H² basis forms by automorphisms, which
        stay in Z², and a form from outside is checked with `z2.contains`.
        """
        return linalg.vec_mat(self.field, form.vectorize(), self._projection)

    def lift(self, coords):
        f = self.field
        form = zero_form(f, self.algebra.dim)
        for c, b in zip(coords, self.basis):
            if c:
                form = form.add(b.scale(c))
        return form


def h2_space(a):
    return H2Space(a)


def pull_back(phi, form):
    """(φθ)(x, y) = θ(φx, φy); with rows-as-images this is Φ M Φ^T."""
    f = form.field
    if len(phi) != form.n:
        raise ValueError("matrix size does not match form")
    m = linalg.mat_mul(f, phi, form.rows)
    m = linalg.mat_mul(f, m, linalg.transpose(phi))
    return BilinearForm(f, m)


def parse_form_combo(field, n, text):
    """Parse `2*S(1,1)+S(2,1)-1/2*S(2,2)` into a BilinearForm."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty form expression")
    terms = []
    i = 0
    while i < len(s):
        sign = field.one
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = field.neg(field.one)
            i += 1
        j = s.find("S(", i)
        if j < 0:
            raise ValueError(f"expected S(i,j) term in {text!r}")
        coeff = field.one
        if j > i:
            lit = s[i:j]
            if not lit.endswith("*"):
                raise ValueError(f"bad coefficient {lit!r} in {text!r}")
            coeff = field.parse(lit[:-1])
        k = s.find(")", j)
        if k < 0:
            raise ValueError(f"unclosed S( in {text!r}")
        inner = s[j + 2:k]
        try:
            a, b = (int(v) for v in inner.split(","))
        except ValueError as exc:
            raise ValueError(f"bad S(i,j) indices {inner!r}") from exc
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"S({a},{b}) out of range for dimension {n}")
        terms.append((a, b, field.mul(sign, coeff)))
        i = k + 1
    form = zero_form(field, n)
    for a, b, c in terms:
        form = form.add(dual_form(field, n, a, b).scale(c))
    return form
