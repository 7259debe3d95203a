"""Direct checks of the lemmas the construction relies on without
re-checking them, and other helpers only the tests use."""

from functools import partial
from itertools import permutations, product as iproduct
from math import prod

from jordannil import cohomology, groebner, homsearch, linalg
from jordannil.algebra import Algebra, is_isomorphism
from jordannil.classify import descendants_with_reps
from jordannil.cohomology import BilinearForm, cocycle_space
from jordannil.extension import central_extension
from jordannil.isotest import iso_ring
from jordannil.linalg import Subspace


def automorphisms(a):
    """Every automorphism of a over F_p, in lexicographic order: the
    closure of the stabiliser chain's generators under matrix products."""
    f = a.field
    generators, _ = homsearch.stabiliser_chain(a)
    return sorted(homsearch.orbit(linalg.identity(f, a.dim), generators,
                                  partial(linalg.mat_mul, f)))


def cone_size_by_enumeration(a):
    """|{x ∈ F_pⁿ : x ∘ x = 0}|, by squaring every vector: the reference
    for `cone_size_from_profile` on homsearch's pencil profile."""
    return sum(1 for v in iproduct(range(a.field.p), repeat=a.dim)
               if not any(a.product(v, v)))


def cone_size_from_profile(profile, p, n):
    """|{x ∈ F_pⁿ : x ∘ x = 0}| from the counts of the congruence classes
    of the (p^m - 1)/(p - 1) forms Σ μ_l B_l of the pencil (see homsearch's
    module docstring), m = dim J².

    Over odd p, Gauss sums (Lidl and Niederreiter, Finite Fields, §5.2 and
    §6.2) give

        p^m·|cone| = pⁿ + (p - 1)·Σ_μ η((-1)^(r/2)·D)·p^(n - r/2)

    over the points μ whose form has even rank r > 0 and discriminant D, η
    the Legendre symbol.  Over F_2, x ∘ x = Σ x_i (e_i ∘ e_i) is linear,
    and the functionals on J² that vanish on its image are the forms with
    zero diagonal: 0 and the A alternating ones.  So x ↦ x ∘ x has rank
    m - log_2(A + 1), and |cone| = 2^(n - m)·(A + 1).
    """
    p_m = (p - 1) * sum(profile.values()) + 1
    if p == 2:
        alternating = sum(c for (_, alt), c in profile.items() if alt)
        return 2 ** n * (alternating + 1) // p_m
    eta_minus_one = 1 if p % 4 == 1 else -1
    total = p ** n
    for (r, eta), count in profile.items():
        if r % 2 == 0:
            total += ((p - 1) * count * eta * eta_minus_one ** (r // 2)
                      * p ** (n - r // 2))
    return total // p_m


def gl_order(n, p):
    return prod(p ** n - p ** k for k in range(n))


def evaluate(form, x, y):
    """θ(x, y) for coordinate vectors x and y."""
    f = form.field
    acc = f.zero
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = form.rows[i]
        for j, yj in enumerate(y):
            if yj and row[j]:
                acc = f.add(acc, f.mul(xi, f.mul(row[j], yj)))
    return acc


def form_from_coeffs(field, n, coeffs):
    """Σ c_{ij} S(i,j) from {(i, j): c} with i >= j."""
    vec = [field.zero] * cohomology.triangle_size(n)
    for (i, j), c in coeffs.items():
        if i < j:
            i, j = j, i
        idx = cohomology.triangle_index(i, j)
        vec[idx] = field.add(vec[idx], field.of(c))
    return BilinearForm.from_vector(field, n, vec)


def quotient_by_centre(a):
    """J / Z(J) on the basis vectors complementary to the centre pivots."""
    z = a.centre()
    keep = [c for c in range(a.dim) if c not in set(z.pivots)]
    pos = {c: t for t, c in enumerate(keep)}
    table = []
    for x in keep:
        row = []
        for y in keep:
            w = z.reduce(a.table[x][y])
            row.append(tuple(w[c] for c in keep))
            if any(w[c] for c in range(a.dim) if c not in pos):
                raise AssertionError("centre reduction left pivot support")
        table.append(tuple(row))
    return Algebra.from_table(a.field, table)


def descendants(a, r):
    """Step-r descendants of a: central extensions without central component."""
    return [ext for ext, _ in descendants_with_reps(a, r)]


def match_classes(result_a, result_b):
    """Bijection between two classifications with explicit witnesses.

    Returns [(i, j, witness)] with witness mapping result_a.representatives[i]
    onto result_b.representatives[j]; raises if no bijection exists.
    """
    if len(result_a) != len(result_b):
        raise AssertionError(
            f"class counts differ: {len(result_a)} vs {len(result_b)}")
    matches = []
    used = set()
    for i, a in enumerate(result_a.representatives):
        found = None
        for j, b in enumerate(result_b.representatives):
            if j in used:
                continue
            if a.fingerprint() != b.fingerprint():
                continue
            witness = homsearch.find_witness(a, b)
            if witness is not None:
                found = (j, witness)
                break
        if found is None:
            raise AssertionError(f"representative {i} matches nothing")
        used.add(found[0])
        matches.append((i, found[0], found[1]))
    return matches


def extension_is_jordan_iff_cocycle(a, beta):
    """(β ∈ Z², J_β is Jordan) for an arbitrary symmetric form β.

    The two booleans agree whenever a itself is a Jordan algebra.
    """
    in_z2 = cocycle_space(a).contains(beta)
    return in_z2, central_extension(a, [beta]).check_jordan()


def radical(forms):
    """θ⊥ = {x : θ_t(x, ·) = 0 for every t}, the joint radical of a
    nonempty sequence of forms."""
    field, n = forms[0].field, forms[0].n
    rows = [r for form in forms for r in form.rows]
    return Subspace(field, n, linalg.nullspace(field, rows, n))


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


def verify_witness(a, b, phi):
    """True iff phi, given in any form the field can coerce, is invertible
    and preserves all basis products."""
    try:
        phi = tuple(tuple(a.field.of(x) for x in row) for row in phi)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    if any(len(row) != a.dim for row in phi) or len(phi) != a.dim:
        return False
    return is_isomorphism(a, b, phi)


def is_allowable(a, forms):
    """θ ⊆ Z², its joint radical avoids Z(J), and its images in H² are
    independent."""
    if not radical(forms).intersection(a.centre()).is_zero():
        return False
    h2 = cohomology.h2_space(a)
    if not all(h2.z2.contains(c) for c in forms):
        return False
    coords = [h2.reduce(c) for c in forms]
    return linalg.rank(a.field, coords) == len(forms)


def coboundary_of_map(a, f_rows):
    """δf, one form per V-coordinate, for f: J -> V with rows f(e_i)."""
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


def cohomologous_extensions_isomorphic(a, forms, f_rows):
    """σ(x + v) = x + f(x) + v is an isomorphism J_θ -> J_{θ+δf}."""
    delta = coboundary_of_map(a, f_rows)
    if len(delta) != len(forms):
        raise ValueError("f must map into the same V as θ")
    field = a.field
    shifted = [c.add(d) for c, d in zip(forms, delta)]
    ext1 = central_extension(a, forms)
    ext2 = central_extension(a, shifted)
    n, r = a.dim, len(forms)
    sigma = []
    for i in range(n):
        row = list(linalg.unit(field, n + r, i))
        for t in range(r):
            row[n + t] = field.of(f_rows[i][t])
        sigma.append(tuple(row))
    for t in range(r):
        sigma.append(linalg.unit(field, n + r, n + t))
    return is_isomorphism(ext1, ext2, tuple(sigma))


# -- exponent tuples: the reference for groebner's packed monomials --------

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lex_key(m):
    return m


def degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


# order name -> ascending sort key of exponent tuples
ORDER_KEYS = {"lex": lex_key, "degrevlex": degrevlex_key}


# -- field arithmetic on {exponent tuple: coefficient}, which Polynomial
# lacks: test inputs, and the Fraction route of linear elimination that
# groebner.eliminate_linear is checked against ------------------------------

def tuple_terms(p):
    return {p.ring.unpack(m): c for m, c in p.terms.items()}


def add_terms(f, out, terms, coeff, mono=None):
    """out += coeff·mono·terms in place over the field f; mono None is 1."""
    for m, c in terms.items():
        if mono is not None:
            m = mono_mul(m, mono)
        c = f.add(out.get(m, f.zero), f.mul(coeff, c))
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def mul_terms(f, a, b):
    out = {}
    for m, c in a.items():
        add_terms(f, out, b, c, m)
    return out


def poly_add(p, q, coeff=1):
    """p + coeff·q."""
    f = p.ring.field
    return p.ring.poly(add_terms(f, tuple_terms(p), tuple_terms(q),
                                 f.of(coeff)))


def poly_mul(p, q):
    return p.ring.poly(mul_terms(p.ring.field, tuple_terms(p),
                                 tuple_terms(q)))


def poly_scale(p, coeff):
    return p.ring.poly(add_terms(p.ring.field, {}, tuple_terms(p),
                                 p.ring.field.of(coeff)))


def substitute(f, terms, i, value):
    """terms with x_i replaced by the polynomial value."""
    out = {}
    pows = {}
    for m, c in terms.items():
        e = m[i]
        if e not in pows:
            pows[e] = {(0,) * len(m): f.one}
            for _ in range(e):
                pows[e] = mul_terms(f, pows[e], value)
        add_terms(f, out, pows[e], c, m[:i] + (0,) + m[i + 1:])
    return out


def linear_variable(terms):
    """Least i such that the only term involving x_i is c·x_i, or None."""
    linear = {m.index(1) for m in terms if sum(m) == 1}
    for m in terms:
        if sum(m) != 1:
            linear.difference_update(i for i, e in enumerate(m) if e)
    return min(linear, default=None)


def eliminate_linear(polys):
    """(indices of the eliminated variables in order, polynomials): the
    route of groebner.eliminate_linear in field arithmetic, substituting
    x_i = -rest/c for the first polynomial c·x_i + rest with a linear x_i."""
    ring = polys[0].ring
    f = ring.field
    current = [tuple_terms(p) for p in polys if p.terms]
    order = []
    while True:
        for k, terms in enumerate(current):
            i = linear_variable(terms)
            if i is not None:
                break
        else:
            return order, [ring.poly(t) for t in current]
        terms = current.pop(k)
        order.append(i)
        unit = tuple(int(j == i) for j in range(ring.nvars))
        factor = f.neg(f.inv(terms[unit]))
        value = add_terms(f, {}, {m: c for m, c in terms.items()
                                  if m != unit}, factor)
        current = [t for t in (substitute(f, q, i, value) for q in current)
                   if t]


def iso_system(a, b):
    """The reference for isotest.iso_system: the same polynomials, built
    from exponent tuples through PolyRing.poly."""
    n = a.dim
    fld = a.field
    ring = iso_ring(n, fld)

    def avar(i, j):  # 1-based
        return (i - 1) * n + (j - 1)

    polys = []
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            cij = a.table[i - 1][j - 1]
            for m in range(1, n + 1):
                terms = {}
                for k in range(1, n + 1):
                    c = cij[k - 1]
                    if c:
                        mono = [0] * ring.nvars
                        mono[avar(k, m)] = 1
                        terms[tuple(mono)] = fld.add(
                            terms.get(tuple(mono), fld.zero), c)
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        g = b.table[k - 1][l - 1][m - 1]
                        if g:
                            mono = [0] * ring.nvars
                            mono[avar(i, k)] += 1
                            mono[avar(j, l)] += 1
                            terms[tuple(mono)] = fld.sub(
                                terms.get(tuple(mono), fld.zero), g)
                poly = ring.poly(terms)
                if poly:
                    polys.append(poly)
    slack = {(0,) * ring.nvars: -1}
    for perm in permutations(range(n)):
        mono = [0] * n * n + [1]
        for i in range(n):
            mono[i * n + perm[i]] = 1
        inversions = sum(perm[x] > perm[y]
                         for x in range(n) for y in range(x + 1, n))
        slack[tuple(mono)] = -1 if inversions % 2 else 1
    polys.append(ring.poly(slack))
    return polys


def eliminate_linear_reducing_all(polys):
    """The reference for groebner.eliminate_linear: the same substitutions
    on the same ints, but every polynomial is reduced and re-normalised for
    each variable substituted away, whether it holds the variable or not."""
    polys = [g for g in polys if g.terms]
    if not polys:
        return []
    ring = polys[0].ring
    p = ring.field.characteristic
    current = [groebner._element(p, g.terms)[2] for g in polys]
    while True:
        for k, terms in enumerate(current):
            u = groebner._linear_variable(terms, ring)
            if u is not None:
                break
        else:
            return [groebner._polynomial(ring, terms, 1) for terms in current]
        g = [groebner._element(p, current.pop(k), u)]
        current = [groebner._element(p, r)[2] for r in
                   (groebner._normal_form(t, g, ring)[0] for t in current)
                   if r]
