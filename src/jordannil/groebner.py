"""Multivariate polynomials and Buchberger's algorithm over Q and F_p.

A monomial is one int: its exponent vector packed into W-bit fields, the
top bit of each a guard bit (Monagan and Pearce, CASC 2007).  In degrevlex
the high fields hold (deg, e_1+...+e_{n-1}, ..., e_1) and the low ones
e_1 ... e_n; in lex the fields are e_1 ... e_n, e_1 most significant.  So
the int order is the term order, a product is a sum, a divides b iff b - a
sets no guard bit, and a, b are coprime iff their lcm is a + b.  PolyRing
packs at the edges; a field past BOUND is a ValueError there and a
ResourceLimitError inside a product or lcm.

Buchberger runs on int coefficients (Cox, Little and O'Shea, ch. 2
§§9–10): over Q a basis element is primitive with a positive lead
coefficient and `_normal_form`, the one normal-form loop, keeps a common
denominator; over F_p it is monic and a coefficient is reduced mod p when
its term is popped from the loop's heap.  `eliminate_linear`, which
substitutes away the linear variables of an isomorphism system before
Buchberger runs, is the same loop on the same ints.  A Polynomial is a
value to parse, render and compare, with no arithmetic of its own;
Fractions appear only in what `reduce_poly`, `s_polynomial`, `buchberger`
and `eliminate_linear` return.
"""

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .limits import Limits, ResourceLimitError

W = 32                       # bits per exponent field, guard bit included
BOUND = (1 << (W - 1)) - 1   # the largest exponent or degree a field holds
_OVERFLOW = f"a monomial's exponent or degree exceeds {BOUND}"


class PolyRing:
    """Polynomial ring: a field, named variables and a monomial order."""

    __slots__ = ("field", "names", "order", "guard", "_index", "_units",
                 "_shifts")

    def __init__(self, field, names, order="degrevlex"):
        if order not in ("lex", "degrevlex"):
            raise ValueError(f"unknown monomial order {order!r}")
        names = tuple(names)
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"variable name {name!r} is not an identifier")
        if len(set(names)) != len(names):
            raise ValueError(f"repeated variable name in {' '.join(names)}")
        self.field = field
        self.names = names
        self.order = order
        self._index = {name: i for i, name in enumerate(self.names)}
        n = len(names)
        # e_i sits in field n - 1 - i (field 0 is the least significant);
        # in degrevlex e_1 + ... + e_k sits in field n + k - 1, so x_i also
        # adds 1 to every field from n + i up; ones has 1 in every field
        ones = sum(1 << W * f for f in range(2 * n if order == "degrevlex" else n))
        self.guard = ones << W - 1
        self._shifts = tuple(W * (n - 1 - i) for i in range(n))
        self._units = tuple((1 << s) + (ones >> W * (n + i) << W * (n + i))
                            for i, s in enumerate(self._shifts))

    @property
    def nvars(self):
        return len(self.names)

    def poly(self, terms):
        """The polynomial of {exponent vector: coefficient}."""
        clean = {}
        for m, c in terms.items():
            c = self.field.of(c)
            if c:
                clean[self.pack(m)] = c
        return Polynomial(self, clean)

    def parse(self, text):
        """Parse `3*a11^2*b - 1/2*a12` in the ring's variables."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        f = self.field
        terms = {}
        # signed chunks: split before each sign that follows no operator
        for chunk in re.split(r"(?<=[^-+*/^])(?=[-+])", s):
            coeff = f.neg(f.one) if chunk[0] == "-" else f.one
            if chunk[0] in "+-":
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            mono = [0] * self.nvars
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"empty factor in {text!r}")
                name, caret, exp = factor.partition("^")
                if name in self._index:
                    if caret and not (exp.isascii() and exp.isdigit()):
                        raise ValueError(f"bad exponent in {factor!r}")
                    mono[self._index[name]] += int(exp) if caret else 1
                else:
                    if caret:
                        raise ValueError(f"exponent on a constant in {factor!r}")
                    coeff = f.mul(coeff, f.parse(factor))
            key = tuple(mono)
            terms[key] = f.add(terms.get(key, f.zero), coeff)
        return self.poly(terms)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.order, repr(self.field)))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {'.'.join(self.names)}, {self.order})"

    def pack(self, exps):
        """The monomial of an exponent vector; ValueError past BOUND."""
        exps = tuple(exps)
        if len(exps) != self.nvars or min(exps, default=0) < 0:
            raise ValueError(f"bad exponent vector {exps}")
        top, what = ((sum(exps), "degree") if self.order == "degrevlex"
                     else (max(exps, default=0), "exponent"))
        if top > BOUND:
            raise ValueError(f"{what} {top} exceeds the bound {BOUND}")
        return sum(e * u for e, u in zip(exps, self._units))

    def unpack(self, m):
        """The exponent vector of a monomial."""
        return tuple(m >> s & BOUND for s in self._shifts)

    def lcm(self, a, b):
        m = sum(max(x, y) * u for x, y, u in
                zip(self.unpack(a), self.unpack(b), self._units))
        if m & self.guard:
            raise ResourceLimitError(_OVERFLOW)
        return m


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return set(self.terms) <= {0}

    def lead_monomial(self):
        return max(self.terms, default=None)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def render(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        out = ""
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            neg = f.kind == "Q" and c < 0
            text = f.render(-c if neg else c)
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in
                            zip(self.ring.names, self.ring.unpack(m)) if e)
            if body:
                text = body if text == "1" else f"{text}*{body}"
            sign = (" - " if neg else " + ") if out else ("-" if neg else "")
            out += sign + text
        return out

    def __repr__(self):
        return f"Poly({self.render()})"


# -- normal form and Buchberger -------------------------------------------

def _integral(terms):
    """(ints, den) with terms = ints / den, den the common denominator of
    the rational values (an int, and so an F_p element, has denominator 1)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator)
            for m, c in terms.items()}, den


def _element(p, terms, lm=None):
    """(lead, lead coeff, ints) of nonzero rational terms scaled to be
    primitive with a positive lead coefficient (p = 0) or monic mod p; the
    lead is lm if given, else the largest monomial."""
    if lm is None:
        lm = max(terms)
    if p:
        inv = pow(terms[lm], -1, p)
        return lm, 1, {m: c * inv % p for m, c in terms.items()}
    terms = _integral(terms)[0]
    g = gcd(*terms.values()) if terms[lm] > 0 else -gcd(*terms.values())
    return lm, terms[lm] // g, {m: c // g for m, c in terms.items()}


def _polynomial(ring, terms, den):
    """The field polynomial of ints / den (den is 1 over F_p)."""
    p = ring.field.characteristic
    return Polynomial(ring, {m: c % p for m, c in terms.items() if c % p}
                      if p else {m: Fraction(c, den) for m, c in terms.items()})


def _normal_form(work, basis, ring):
    """(rem, den): rem / den is the full normal form of the int polynomial
    work (consumed) modulo basis, a list of _element triples.  The first g
    with lm(g) | m cancels a lead term c·m: with L = lc(g), d = gcd(c, L),
    work, rem and den are scaled by L/d and (c/d)·(m/lm(g))·g is subtracted.
    Over F_p L = 1, and a coefficient is reduced mod p when it is popped."""
    guard, p = ring.guard, ring.field.characteristic
    # the heap holds -m, so the largest monomial pops first; each monomial is
    # pushed as it enters work, and one cancelled since is skipped when popped
    heap = [-m for m in work]
    heapify(heap)
    rem = {}
    den = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if p:
            c %= p
        if not c:
            continue
        for lm, lc, terms in basis:
            q = m - lm
            if not q & guard:
                break
        else:
            # a term set aside can come back when lm(g) is not the largest
            # term of g, as in eliminate_linear
            c += rem.pop(m, 0)
            if p:
                c %= p
            if c:
                rem[m] = c
            continue
        if lc != 1:
            d = gcd(c, lc)
            c //= d
            if d != lc:
                s = lc // d
                den *= s
                work = {k: v * s for k, v in work.items()}
                rem = {k: v * s for k, v in rem.items()}
        for tm, tc in terms.items():
            if tm == lm:
                continue
            mm = tm + q
            old = work.get(mm)
            if old is None:
                if mm & guard:
                    raise ResourceLimitError(_OVERFLOW)
                work[mm] = -c * tc
                heappush(heap, -mm)
            else:
                nc = old - c * tc
                if nc:
                    work[mm] = nc
                else:
                    del work[mm]
    return rem, den


def _s_terms(a, b, lab, ring):
    """The int S-polynomial (L_b/d)·(lab/lm a)·a - (L_a/d)·(lab/lm b)·b of two
    _element triples, d = gcd(L_a, L_b), with lab the lcm of their leads."""
    (la, ca, ta), (lb, cb, tb) = a, b
    d = gcd(ca, cb)
    sa, sb, ua, ub = cb // d, ca // d, lab - la, lab - lb
    out = {m + ua: c * sa for m, c in ta.items()}
    for m, c in tb.items():   # the two lead terms cancel
        m += ub
        nc = out.get(m, 0) - c * sb
        if nc:
            out[m] = nc
        else:
            del out[m]
    # a product of two monomials in range overflows into guard bits only
    if any(m & ring.guard for m in out):
        raise ResourceLimitError(_OVERFLOW)
    return out


def reduce_poly(f, basis):
    """Full normal form of f modulo basis: no remainder term is divisible
    by any basis lead monomial, and f - result lies in the basis ideal."""
    p = f.ring.field.characteristic
    work, den = _integral(f.terms)
    rem, s = _normal_form(work, [_element(p, g.terms) for g in basis
                                 if g.terms], f.ring)
    return _polynomial(f.ring, rem, den * s)


def s_polynomial(f, g):
    """S(f, g) = (lcm/lt(f))·f - (lcm/lt(g))·g."""
    if not f.terms or not g.terms:
        raise ValueError("S-polynomial of zero polynomial")
    ring = f.ring
    a, b = (_element(ring.field.characteristic, h.terms) for h in (f, g))
    terms = _s_terms(a, b, ring.lcm(a[0], b[0]), ring)
    return _polynomial(ring, terms, lcm(a[1], b[1]))


def _interreduce(basis, ring):
    """Reduce each element by the others until stable (same ideal)."""
    i = 0
    while i < len(basis):
        r = _normal_form(dict(basis[i][2]), basis[:i] + basis[i + 1:], ring)[0]
        if not r:
            basis.pop(i)
            i = 0
        elif r != basis[i][2]:
            basis[i] = _element(ring.field.characteristic, r)
            i = 0
        else:
            i += 1
    return basis


def buchberger(gens):
    """Reduced Groebner basis of ideal(gens) for the generators' ring order,
    within the budgets of Limits.from_env()."""
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    ring = gens[0].ring
    guard, lcm_of, p = ring.guard, ring.lcm, ring.field.characteristic
    limits = Limits.from_env()
    basis = _interreduce([_element(p, g.terms) for g in gens], ring)
    leads = [e[0] for e in basis]
    # the open S-pairs (i, j), i < j, each with the lcm of its lead monomials
    pairs = {(i, j): lcm_of(leads[i], leads[j])
             for i in range(len(basis)) for j in range(i + 1, len(basis))}
    # the same pairs, each pushed once, popped least (lcm, (i, j)) first
    queue = [(lij, ij) for ij, lij in pairs.items()]
    heapify(queue)
    processed = 0
    while queue:
        i, j = heappop(queue)[1]
        lij = pairs.pop((i, j))
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceLimitError(
                f"S-pair budget exceeded ({limits.max_pairs})")
        if lij == leads[i] + leads[j]:
            continue  # coprime leads reduce to zero
        if any(not (lij - lk) & guard and k != i and k != j
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, lk in enumerate(leads)):
            continue
        r = _normal_form(_s_terms(basis[i], basis[j], lij, ring), basis,
                         ring)[0]
        if r:
            if len(r) > limits.max_terms:
                raise ResourceLimitError(
                    f"term budget exceeded ({limits.max_terms})")
            t = len(basis)
            if t + 1 > limits.max_basis:
                raise ResourceLimitError(
                    f"basis-size budget exceeded ({limits.max_basis})")
            basis.append(_element(p, r))
            leads.append(basis[t][0])
            for u in range(t):
                pairs[u, t] = lcm_of(leads[u], leads[t])
                heappush(queue, (pairs[u, t], (u, t)))
    # the minimal elements (distinct leads), each reduced by the others
    minimal = []
    for e in sorted(basis):
        if all((e[0] - h[0]) & guard for h in minimal):
            minimal.append(e)
    return [_polynomial(ring, terms, lc) for _, lc, terms in sorted(
        _element(p, _normal_form(dict(e[2]), minimal[:i] + minimal[i + 1:],
                                 ring)[0]) for i, e in enumerate(minimal))]


def _linear_variable(terms, ring):
    """The least x_i, as a monomial, such that the only term of the int
    polynomial terms that x_i divides is c·x_i; or None."""
    guard = ring.guard
    for u in ring._units:
        if u in terms and all((m - u) & guard for m in terms if m != u):
            return u
    return None


def eliminate_linear(polys):
    """Substitute away variables x occurring as c·x + (terms without x).

    This is an exact change of presentation: 1 is in the original ideal iff
    it is in the reduced one, and the Groebner run gets far fewer variables.
    Substituting x is the normal form modulo c·x + rest with lead x; each
    polynomial is kept as ints, up to a nonzero scalar.
    """
    polys = [g for g in polys if g.terms]
    if not polys:
        return []
    ring = polys[0].ring
    p = ring.field.characteristic
    current = [_element(p, g.terms)[2] for g in polys]
    while True:
        for k, terms in enumerate(current):
            u = _linear_variable(terms, ring)
            if u is not None:
                break
        else:
            return [_polynomial(ring, terms, 1) for terms in current]
        g = [_element(p, current.pop(k), u)]
        current = [_element(p, r)[2] for r in
                   (_normal_form(t, g, ring)[0] for t in current) if r]


def contains_one(basis):
    """True iff the ideal is the whole ring (basis has a nonzero constant)."""
    return any(g.terms and g.is_constant() for g in basis)
