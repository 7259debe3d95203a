"""Central extensions J_θ = J ⊕ V of an algebra by symmetric forms.

θ = (θ_1, ..., θ_r) is a sequence of BilinearForms, one per new central
coordinate.  The classification extends only by lifts of H² points, which
lie in Z² by construction, so `central_extension` checks shapes only; the
`extend` verb checks each component against Z², where θ comes from outside
the program.  The centre lemma Z(J_θ) = (θ⊥ ∩ Z(J)) ⊕ V is not checked
here; the tests check it on every extension the classification builds up
to dimension 4 over F₂ and F₃.
"""

from .algebra import Algebra


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
