"""Arithmetic the benchmark checks the program's outputs with.

Nothing here imports jordannil.  Algebra files are parsed here, and
products, the Jordan identity, nilpotency, the centre and witnesses are
computed here from the structure constants.  A scalar is an int reduced
mod p, or a Fraction when p is 0 (the field Q).
"""

from fractions import Fraction
from itertools import product as iproduct


class CheckFailed(Exception):
    """A program output failed one of the benchmark's checks."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _norm(p, x):
    return x % p if p else x


def _inv(p, x):
    return pow(x, -1, p) if p else 1 / Fraction(x)


class Table:
    """Structure constants: t[i][j] lists the coordinates of e_i ∘ e_j."""

    def __init__(self, p, n, t):
        self.p = p
        self.n = n
        self.t = t

    @classmethod
    def from_products(cls, p, n, products):
        """products: ((i, j, k, c), ...) with 1-based indices, i <= j."""
        t = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in products:
            c = _norm(p, c)
            t[i - 1][j - 1][k - 1] = c
            t[j - 1][i - 1][k - 1] = c
        return cls(p, n, t)

    def mul(self, u, v):
        p, n, t = self.p, self.n, self.t
        out = [0] * n
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = ui * vj
                for k, tk in enumerate(t[i][j]):
                    if tk:
                        out[k] += c * tk
        return [_norm(p, x) for x in out]

    def unit(self, i):
        return [1 if k == i else 0 for k in range(self.n)]

    def render(self):
        """The table in the program's algebra file format."""
        lines = ["field Q" if not self.p else f"field F {self.p}",
                 f"dim {self.n}"]
        for i in range(self.n):
            for j in range(i, self.n):
                terms = [f"{k + 1}:{c}" for k, c in enumerate(self.t[i][j]) if c]
                if terms:
                    lines.append(f"{i + 1} {j + 1} : " + " ".join(terms))
        return "\n".join(lines) + "\n"


def parse_algebra(text):
    """Parse the program's algebra file format into a Table."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    require(len(lines) >= 2, "algebra file lacks its field and dim lines")
    head = lines[0].split()
    if head == ["field", "Q"]:
        p = 0
    else:
        require(len(head) == 3 and head[:2] == ["field", "F"]
                and head[2].isdigit(), f"bad field line {lines[0]!r}")
        p = int(head[2])
    dim = lines[1].split()
    require(len(dim) == 2 and dim[0] == "dim" and dim[1].isdigit(),
            f"bad dim line {lines[1]!r}")
    n = int(dim[1])
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for line in lines[2:]:
        lhs, sep, rhs = line.partition(":")
        idx = lhs.split()
        require(sep and len(idx) == 2 and all(x.isdigit() for x in idx),
                f"bad product line {line!r}")
        i, j = sorted(int(x) - 1 for x in idx)
        require(0 <= i and j < n and (i, j) not in seen,
                f"bad or repeated product ({i + 1},{j + 1})")
        seen.add((i, j))
        for term in rhs.split():
            k, sep, c = term.partition(":")
            require(sep and k.isdigit() and 1 <= int(k) <= n,
                    f"bad term {term!r}")
            value = _norm(p, int(c)) if p else Fraction(c)
            t[i][j][int(k) - 1] = value
            t[j][i][int(k) - 1] = value
    return Table(p, n, t)


# -- linear algebra ---------------------------------------------------------

def rref(p, rows):
    """Nonzero rows of the reduced row echelon form."""
    rows = [list(r) for r in rows]
    out = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = _inv(p, piv[col])
        piv = [_norm(p, x * inv) for x in piv]
        rows = [[_norm(p, x - r[col] * y) for x, y in zip(r, piv)] if r[col]
                else r for r in rows]
        out = [[_norm(p, x - r[col] * y) for x, y in zip(r, piv)] if r[col]
               else r for r in out]
        out.append(piv)
    return out


def rank(p, rows):
    return len(rref(p, rows))


def nullspace(p, rows, ncols):
    """Basis of {x : row · x = 0 for every row}."""
    red = rref(p, rows)
    pivots = [next(c for c, x in enumerate(r) if x) for r in red]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for r, pc in zip(red, pivots):
            x[pc] = _norm(p, -r[f])
        basis.append(x)
    return basis


def gl(n, p):
    """Every invertible n × n matrix over F_p, as tuples of rows."""
    vecs = list(iproduct(range(p), repeat=n))
    return [m for m in iproduct(vecs, repeat=n) if rank(p, m) == n]


def invert(p, m):
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(m)]
    red = rref(p, aug)
    require(len(red) == n and all(red[i][i] == 1 for i in range(n)),
            "matrix is singular")
    return [row[n:] for row in red]


def conjugate(a, m):
    """The table of `a` in the basis f_i = Σ_j m[i][j] e_j."""
    p, n = a.p, a.n
    minv = invert(p, m)
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = a.mul(m[i], m[j])
            t[i][j] = [_norm(p, sum(w[r] * minv[r][k] for r in range(n)))
                       for k in range(n)]
    return Table(p, n, t)


# -- algebra properties -----------------------------------------------------

def _poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _sym_mul(a, u, v):
    """Product of two vectors whose coordinates are polynomials."""
    out = [{} for _ in range(a.n)]
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            row = a.t[i][j]
            if not (ui and vj and any(row)):
                continue
            uv = _poly_mul(ui, vj)
            for k, c in enumerate(row):
                if c:
                    for m, x in uv.items():
                        out[k][m] = out[k].get(m, 0) + c * x
    return [{m: c for m, c in ((m, _norm(a.p, c)) for m, c in w.items()) if c}
            for w in out]


def is_jordan(a):
    """x² ∘ (x ∘ y) = x ∘ (x² ∘ y) as a polynomial identity in x and y."""
    n = a.n

    def var(i):
        mono = [0] * (2 * n)
        mono[i] = 1
        return {tuple(mono): 1}

    x = [var(i) for i in range(n)]
    y = [var(n + i) for i in range(n)]
    x2 = _sym_mul(a, x, x)
    return (_sym_mul(a, x2, _sym_mul(a, x, y))
            == _sym_mul(a, x, _sym_mul(a, x2, y)))


def is_nilpotent(a):
    """The series c¹ = J, c^{k+1} = c^k ∘ J reaches 0."""
    return lcs_dims(a)[-1] == 0


def is_associative(a):
    basis = [a.unit(i) for i in range(a.n)]
    return all(a.mul(a.mul(x, y), z) == a.mul(x, a.mul(y, z))
               for x in basis for y in basis for z in basis)


def has_central_component(a):
    """J = J' ⊕ K as algebras, i.e. the centre is not inside J²."""
    n = a.n
    # z is central iff z ∘ e_j = 0 for all j: n² linear conditions on z
    conditions = [[a.t[i][j][k] for i in range(n)]
                  for j in range(n) for k in range(n)]
    centre = nullspace(a.p, conditions, n)
    square = rref(a.p, [a.t[i][j] for i in range(n) for j in range(n)])
    return rank(a.p, square + centre) > len(square)


def lcs_dims(a):
    """Dimensions of c¹ = J, c^{k+1} = c^k ∘ J, until 0 or n + 1 steps."""
    dims = [a.n]
    layer = [a.unit(i) for i in range(a.n)]
    while layer and len(dims) <= a.n + 1:
        layer = rref(a.p, [a.mul(u, a.unit(j)) for u in layer for j in range(a.n)])
        dims.append(len(layer))
    return tuple(dims)


def is_witness(a, b, phi):
    """phi (rows are images of a's basis in b) is an isomorphism a -> b."""
    n = a.n
    if b.n != n or a.p != b.p or len(phi) != n or any(len(r) != n for r in phi):
        return False
    phi = [[_norm(a.p, x) for x in row] for row in phi]
    if rank(a.p, phi) != n:
        return False
    for i in range(n):
        for j in range(i, n):
            want = [_norm(a.p, sum(a.t[i][j][k] * phi[k][m] for k in range(n)))
                    for m in range(n)]
            if b.mul(phi[i], phi[j]) != want:
                return False
    return True
