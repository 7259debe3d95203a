"""Central extensions J_θ = J ⊕ V and the centre lemma they satisfy.

θ = (θ_1, ..., θ_r) is a sequence of BilinearForms, one per new central
coordinate.  The classification extends only by lifts of H² points, which
lie in Z² by construction, so `central_extension` checks shapes only; the
`extend` verb checks each component against Z², where θ comes from outside
the program.
"""

from . import linalg
from .algebra import Algebra
from .cohomology import radical
from .linalg import Subspace


def central_extension(a, forms):
    """J_θ: products gain θ-components on the appended central coordinates."""
    if not forms:
        raise ValueError("an extension needs r >= 1 forms")
    n = a.dim
    for form in forms:
        if form.n != n or form.field != a.field:
            raise ValueError("form does not match the base algebra")
    consts = dict(a.constants)
    for t, form in enumerate(forms):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                c = form.rows[i - 1][j - 1]
                if c:
                    consts[(j, i, n + t + 1)] = c
    return Algebra(a.field, n + len(forms), consts)


def centre_of_extension_decomposition(a, forms, ext):
    """Z(J_θ) together with the check Z(J_θ) = (θ⊥ ∩ Z(J)) ⊕ V.

    ext is J_θ = central_extension(a, forms).
    """
    centre = ext.centre()
    f = a.field
    n, r = a.dim, len(forms)
    meet = radical(forms).intersection(a.centre())
    expected_vectors = [tuple(row) + (f.zero,) * r for row in meet.basis]
    expected_vectors += [linalg.unit(f, n + r, n + t) for t in range(r)]
    expected = Subspace(f, n + r, expected_vectors)
    return centre, centre == expected
