"""Multivariate polynomials and Buchberger's algorithm over Q and F_p.

A monomial is one int: its exponent vector packed into W-bit fields, the
top bit of each a guard bit (Monagan and Pearce, CASC 2007).  In degrevlex
the high fields hold (deg, e_1+...+e_{n-1}, ..., e_1) and the low ones
e_1 ... e_n; in lex the fields are e_1 ... e_n, e_1 most significant.  So
the int order is the term order, a product is a sum, a divides b iff b - a
sets no guard bit, and a, b are coprime iff their lcm is a + b.  PolyRing
packs and unpacks at the edges (`poly`, `var`, `parse`, `render`), where a
field past BOUND is a ValueError; inside a product or lcm it is a
ResourceLimitError.  `reduce_poly` is the one normal-form routine; it pops
lead terms from a heap of negated monomials, lazily deleting cancelled ones.
`buchberger` keeps the open S-pairs in a heap of (lcm, (i, j)) and pops the
least, the normal selection strategy (Cox, Little and O'Shea, ch. 2
§§9–10).  It returns the reduced Groebner basis (monic, inter-reduced,
unique for the order) and raises ResourceLimitError instead of running
away on intractable input; its budgets come from JORDAN_LIMITS.
"""

from heapq import heapify, heappop, heappush

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

    def zero(self):
        return Polynomial(self, {})

    def const(self, c):
        c = self.field.of(c)
        return Polynomial(self, {0: c} if c else {})

    def var(self, name_or_index):
        i = (self._index[name_or_index] if isinstance(name_or_index, str)
             else name_or_index)
        return Polynomial(self, {self._units[i]: self.field.one})

    def parse(self, text):
        return parse_polynomial(self, text)

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

    def _checked(self, terms):
        # a product of two monomials in range overflows into guard bits only
        if any(m & self.guard for m in terms):
            raise ResourceLimitError(_OVERFLOW)
        return Polynomial(self, terms)


class Polynomial:
    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._lead = None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return set(self.terms) <= {0}

    def lead_monomial(self):
        if self._lead is None and self.terms:
            self._lead = max(self.terms)
        return self._lead

    def lead_coeff(self):
        lm = self.lead_monomial()
        return self.terms[lm] if lm is not None else self.ring.field.zero

    def monic(self):
        lc = self.lead_coeff()
        if not self.terms or lc == self.ring.field.one:
            return self
        inv = self.ring.field.inv(lc)
        f = self.ring.field
        return Polynomial(self.ring, {m: f.mul(inv, c) for m, c in self.terms.items()})

    def __add__(self, other):
        f = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = f.add(out.get(m, f.zero), c)
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        f = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                nc = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if nc:
                    out[m] = nc
                elif m in out:
                    del out[m]
        return self.ring._checked(out)

    def mul_term(self, coeff, mono):
        f = self.ring.field
        if not coeff:
            return Polynomial(self.ring, {})
        return self.ring._checked({m + mono: f.mul(c, coeff)
                                   for m, c in self.terms.items()})

    def scale(self, coeff):
        return self.mul_term(coeff, 0)

    def substitute(self, mapping):
        """Replace variables by polynomials; mapping keys are var indices."""
        ring = self.ring
        out = ring.zero()
        kept = {}   # the terms with no variable of mapping
        pows = {}
        for m, c in self.terms.items():
            factor = None
            for i, p in mapping.items():
                e = m >> ring._shifts[i] & BOUND
                if e:
                    m -= e * ring._units[i]
                    if (i, e) not in pows:
                        pows[i, e] = p
                        for _ in range(e - 1):
                            pows[i, e] = pows[i, e] * p
                    factor = (pows[i, e] if factor is None
                              else factor * pows[i, e])
            if factor is None:
                kept[m] = c
            else:
                out = out + factor.mul_term(c, m)
        return out + Polynomial(ring, kept)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def render(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        names = self.ring.names
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(self.ring.unpack(m)):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            neg = f.kind == "Q" and c < 0
            mag = -c if neg else c
            coeff_txt = f.render(mag)
            if body and coeff_txt == "1":
                text = body
            elif body:
                text = f"{coeff_txt}*{body}"
            else:
                text = coeff_txt
            if not parts:
                parts.append(("-" if neg else "") + text)
            else:
                parts.append((" - " if neg else " + ") + text)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


def parse_polynomial(ring, text):
    """Parse `3*a11^2*b - 1/2*a12` in the ring's variables."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    # split into signed chunks at top level (no parentheses in the grammar)
    chunks = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > start:
            prev = s[i - 1]
            if prev in "+-*/^":
                continue
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])
    poly = ring.zero()
    f = ring.field
    for chunk in chunks:
        sign = f.one
        if chunk.startswith("+"):
            chunk = chunk[1:]
        elif chunk.startswith("-"):
            sign = f.neg(f.one)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        mono = [0] * ring.nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            name, caret, exp = factor.partition("^")
            if name in ring._index:
                e = 1
                if caret:
                    if not (exp.isascii() and exp.isdigit()):
                        raise ValueError(f"bad exponent in {factor!r}")
                    e = int(exp)
                mono[ring._index[name]] += e
            else:
                if caret:
                    raise ValueError(f"exponent on a constant in {factor!r}")
                coeff = f.mul(coeff, f.parse(factor))
        poly = poly + ring.poly({tuple(mono): coeff})
    return poly


# -- normal form and Buchberger -------------------------------------------

def reduce_poly(f, basis):
    """Full normal form of f modulo basis: no remainder term is divisible
    by any basis lead monomial, and f - result lies in the basis ideal."""
    ring = f.ring
    fld = ring.field
    guard = ring.guard
    data = [(g.lead_monomial(), g.lead_coeff(), g.terms)
            for g in basis if g.terms]
    work = dict(f.terms)
    # the heap holds -m, so the largest monomial pops first; each monomial is
    # pushed as it enters work, and one cancelled since is skipped when popped
    heap = [-m for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, terms in data:
            q = m - lm
            if not q & guard:
                break
        else:
            rem[m] = c
            continue
        factor = fld.div(c, lc)
        for tm, tc in terms.items():
            if tm == lm:
                continue
            mm = tm + q
            old = work.get(mm)
            if old is None:
                if mm & guard:
                    raise ResourceLimitError(_OVERFLOW)
                work[mm] = fld.neg(fld.mul(factor, tc))
                heappush(heap, -mm)
            else:
                nc = fld.sub(old, fld.mul(factor, tc))
                if nc:
                    work[mm] = nc
                else:
                    del work[mm]
    return Polynomial(ring, rem)


def s_polynomial(f, g):
    """S(f, g) = (lcm/lt(f))·f - (lcm/lt(g))·g."""
    if not f.terms or not g.terms:
        raise ValueError("S-polynomial of zero polynomial")
    fld = f.ring.field
    lmf, lmg = f.lead_monomial(), g.lead_monomial()
    lcm = f.ring.lcm(lmf, lmg)
    part1 = f.mul_term(fld.inv(f.lead_coeff()), lcm - lmf)
    part2 = g.mul_term(fld.inv(g.lead_coeff()), lcm - lmg)
    return part1 - part2


def _interreduce(polys):
    """Reduce each generator by the others until stable (same ideal)."""
    current = [p.monic() for p in polys if p.terms]
    i = 0
    while i < len(current):
        p = current[i]
        others = current[:i] + current[i + 1:]
        r = reduce_poly(p, others)
        if not r.terms:
            current.pop(i)
            i = 0
        elif r.terms != p.terms:
            current[i] = r.monic()
            i = 0
        else:
            i += 1
    return current


def buchberger(gens):
    """Reduced Groebner basis of ideal(gens) for the generators' ring order,
    within the budgets of Limits.from_env()."""
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    ring = gens[0].ring
    limits = Limits.from_env()
    basis = _interreduce(gens)
    if not basis:
        return []
    guard, lcm = ring.guard, ring.lcm
    leads = [g.lead_monomial() for g in basis]
    # the open S-pairs (i, j), i < j, each with the lcm of its lead monomials
    pairs = {(i, j): lcm(leads[i], leads[j])
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
        r = reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if r.terms:
            if len(r.terms) > limits.max_terms:
                raise ResourceLimitError(
                    f"term budget exceeded ({limits.max_terms})")
            r = r.monic()
            t = len(basis)
            if t + 1 > limits.max_basis:
                raise ResourceLimitError(
                    f"basis-size budget exceeded ({limits.max_basis})")
            basis.append(r)
            leads.append(r.lead_monomial())
            for u in range(t):
                pairs[u, t] = lcm(leads[u], leads[t])
                heappush(queue, (pairs[u, t], (u, t)))
    return _reduced_basis(basis)


def _reduced_basis(basis):
    guard = basis[0].ring.guard
    minimal = []
    for g in sorted(basis, key=Polynomial.lead_monomial):
        lg = g.lead_monomial()
        if all((lg - h.lead_monomial()) & guard for h in minimal):
            minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(g, others)
        if r.terms:
            out.append(r.monic())
    return sorted(out, key=Polynomial.lead_monomial)


def contains_one(basis):
    """True iff the ideal is the whole ring (basis has a nonzero constant)."""
    return any(g.terms and g.is_constant() for g in basis)
