"""Central extensions J_θ = J ⊕ V and the structural facts they satisfy."""

from . import cohomology, linalg
from .algebra import Algebra, is_isomorphism, zero_algebra
from .cohomology import BilinearForm, cocycle_space, radical
from .linalg import Subspace


class NotACocycleError(ValueError):
    """A component of the extension data fails the cocycle identity."""


class CocycleVector:
    """θ = (θ_1, ..., θ_r): one symmetric form per new central coordinate."""

    __slots__ = ("base", "components")

    def __init__(self, base, components, validate=True):
        components = tuple(components)
        if not components:
            raise ValueError("cocycle vector needs r >= 1 components")
        for c in components:
            if not isinstance(c, BilinearForm) or c.n != base.dim \
                    or c.field != base.field:
                raise ValueError("component does not match the base algebra")
        if validate:
            z2 = cocycle_space(base)
            for t, c in enumerate(components):
                if not z2.contains(c):
                    raise NotACocycleError(
                        f"component {t + 1} violates the cocycle identity")
        self.base = base
        self.components = components

    @property
    def r(self):
        return len(self.components)

    def joint_radical(self):
        return radical(list(self.components))


def _coerce_vector(base, theta, validate):
    if isinstance(theta, CocycleVector):
        return theta
    if isinstance(theta, BilinearForm):
        theta = [theta]
    return CocycleVector(base, theta, validate=validate)


def _extension_table(a, components):
    n = a.dim
    r = len(components)
    consts = {}
    for (i, j, k), c in a.constants.items():
        consts[(i, j, k)] = c
    for t, form in enumerate(components):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                c = form.rows[i - 1][j - 1]
                if c:
                    consts[(j, i, n + t + 1)] = c
    return Algebra(a.field, n + r, consts)


def central_extension(a, theta, validate=True):
    """J_θ: products gain θ-components on the appended central coordinates."""
    vec = _coerce_vector(a, theta, validate)
    return _extension_table(a, vec.components)


def extension_is_jordan_iff_cocycle(a, beta):
    """(β ∈ Z², J_β is Jordan) for an arbitrary symmetric form vector β.

    The two booleans must agree whenever `a` itself is a Jordan algebra;
    this is exposed unvalidated precisely so the equivalence is testable.
    """
    if isinstance(beta, BilinearForm):
        beta = [beta]
    beta = list(beta)
    z2 = cocycle_space(a)
    in_z2 = all(z2.contains(c) for c in beta)
    ext = _extension_table(a, beta)
    return in_z2, ext.check_jordan()


def centre_of_extension_decomposition(a, theta, ext=None):
    """Z(J_θ) together with the check Z(J_θ) = (θ⊥ ∩ Z(J)) ⊕ V.

    ext is J_θ when the caller has built it already.
    """
    vec = _coerce_vector(a, theta, validate=True)
    if ext is None:
        ext = central_extension(a, vec, validate=False)
    centre = ext.centre()
    f = a.field
    n, r = a.dim, vec.r
    meet = vec.joint_radical().intersection(a.centre())
    expected_vectors = [tuple(row) + (f.zero,) * r for row in meet.basis]
    expected_vectors += [linalg.unit(f, n + r, n + t) for t in range(r)]
    expected = Subspace(f, n + r, expected_vectors)
    return centre, centre == expected


def is_allowable(a, theta):
    """θ ⊆ Z², its joint radical avoids Z(J), and its images in H² are
    independent; `H2Space.reduce` rejects a form outside Z²."""
    vec = _coerce_vector(a, theta, validate=False)
    if not vec.joint_radical().intersection(a.centre()).is_zero():
        return False
    h2 = cohomology.h2_space(a)
    try:
        coords = [h2.reduce(c) for c in vec.components]
    except ValueError:
        return False
    return linalg.rank(a.field, coords) == vec.r


def coboundary_of_map(a, f_rows):
    """δf for a linear map f: J -> V given by rows f(e_i); one form per V-coordinate."""
    field = a.field
    n = a.dim
    r = len(f_rows[0]) if f_rows else 0
    comps = []
    for t in range(r):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = field.zero
                for k, c in enumerate(a.table[i][j]):
                    if c:
                        acc = field.add(acc, field.mul(c, f_rows[k][t]))
                row.append(acc)
            rows.append(row)
        comps.append(BilinearForm(field, rows))
    return comps


def cohomologous_extensions_isomorphic(a, theta, f_rows):
    """Verify σ(x + v) = x + f(x) + v is an isomorphism J_θ -> J_{θ+δf}."""
    vec = _coerce_vector(a, theta, validate=True)
    delta = coboundary_of_map(a, f_rows)
    if len(delta) != vec.r:
        raise ValueError("f must map into the same V as θ")
    field = a.field
    shifted = [c.add(d) for c, d in zip(vec.components, delta)]
    ext1 = central_extension(a, vec, validate=False)
    ext2 = _extension_table(a, shifted)
    n, r = a.dim, vec.r
    sigma = []
    for i in range(n):
        row = list(linalg.unit(field, n + r, i))
        for t in range(r):
            row[n + t] = field.of(f_rows[i][t])
        sigma.append(tuple(row))
    for t in range(r):
        sigma.append(linalg.unit(field, n + r, n + t))
    return is_isomorphism(ext1, ext2, tuple(sigma))


def trivial_extension_equals_direct_sum(a, r):
    """J_0 with r zero components equals A ⊕ (zero algebra of dim r)."""
    zero = [cohomology.zero_form(a.field, a.dim) for _ in range(r)]
    ext = central_extension(a, CocycleVector(a, zero, validate=False),
                            validate=False)
    return ext == a.direct_sum(zero_algebra(a.field, r))
