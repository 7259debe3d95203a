"""Multivariate polynomials and Buchberger's algorithm over Q and F_p.

Monomials are exponent tuples over the ring's fixed variable list.  The
default order is degree-reverse-lexicographic; lexicographic is available.
`reduce_poly` is the one normal-form routine; it pops lead terms from a
heap under the order's descending key, with lazy deletion of cancelled
terms.  `buchberger` keeps the open S-pairs in a heap keyed once by
(order key of the lcm, (i, j)) and pops the least, the normal selection
strategy (Cox, Little and O'Shea, ch. 2 §§9–10).  It returns the reduced
Groebner basis (monic, inter-reduced, unique for the order) and raises
ResourceLimitError instead of running away on intractable input; its
budgets come from JORDAN_LIMITS.
"""

from heapq import heapify, heappop, heappush

from .limits import Limits, ResourceLimitError


# -- monomials ------------------------------------------------------------

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


def lex_desc_key(m):
    return tuple(-e for e in m)


def degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def degrevlex_desc_key(m):
    return (-sum(m), m[::-1])


# order name -> (ascending key, descending key): the descending key sorts
# the largest monomial first, as heapq pops it
ORDERS = {"lex": (lex_key, lex_desc_key),
          "degrevlex": (degrevlex_key, degrevlex_desc_key)}


class PolyRing:
    """Polynomial ring: a field, named variables and a monomial order."""

    __slots__ = ("field", "names", "order", "key", "desc_key", "_index")

    def __init__(self, field, names, order="degrevlex"):
        if order not in ORDERS:
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
        self.key, self.desc_key = ORDERS[order]
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def nvars(self):
        return len(self.names)

    def zero_mono(self):
        return (0,) * self.nvars

    def poly(self, terms):
        clean = {}
        for m, c in terms.items():
            c = self.field.of(c)
            if c:
                clean[tuple(m)] = c
        return Polynomial(self, clean)

    def zero(self):
        return Polynomial(self, {})

    def const(self, c):
        c = self.field.of(c)
        return Polynomial(self, {self.zero_mono(): c} if c else {})

    def var(self, name_or_index):
        i = (self._index[name_or_index] if isinstance(name_or_index, str)
             else name_or_index)
        m = [0] * self.nvars
        m[i] = 1
        return Polynomial(self, {tuple(m): self.field.one})

    def parse(self, text):
        return parse_polynomial(self, text)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.order, repr(self.field)))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {'.'.join(self.names)}, {self.order})"


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
        return not self.terms or set(self.terms) == {self.ring.zero_mono()}

    def lead_monomial(self):
        if self._lead is None and self.terms:
            self._lead = max(self.terms, key=self.ring.key)
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
                m = mono_mul(m1, m2)
                nc = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if nc:
                    out[m] = nc
                elif m in out:
                    del out[m]
        return Polynomial(self.ring, out)

    def mul_term(self, coeff, mono):
        f = self.ring.field
        if not coeff:
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {mono_mul(m, mono): f.mul(c, coeff)
                                      for m, c in self.terms.items()})

    def scale(self, coeff):
        return self.mul_term(coeff, self.ring.zero_mono())

    def substitute(self, mapping):
        """Replace variables by polynomials; mapping keys are var indices."""
        ring = self.ring
        out = ring.zero()
        pow_cache = {}
        for m, c in self.terms.items():
            residual = list(m)
            factor = ring.const(c)
            for i, e in enumerate(m):
                if e and i in mapping:
                    residual[i] = 0
                    key = (i, e)
                    if key not in pow_cache:
                        acc = ring.const(1)
                        for _ in range(e):
                            acc = acc * mapping[i]
                        pow_cache[key] = acc
                    factor = factor * pow_cache[key]
            out = out + factor.mul_term(ring.field.one, tuple(residual))
        return out

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
        for m in sorted(self.terms, key=self.ring.key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
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
    desc = ring.desc_key
    data = [(g.lead_monomial(), g.lead_coeff(), g.terms)
            for g in basis if g.terms]
    work = dict(f.terms)
    # every monomial that enters work is pushed once; a cancelled one stays
    # in the heap and is skipped when popped
    heap = [(desc(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, terms in data:
            if mono_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        q = mono_div(m, lm)
        factor = fld.div(c, lc)
        for tm, tc in terms.items():
            if tm == lm:
                continue
            mm = mono_mul(tm, q)
            old = work.get(mm)
            if old is None:
                work[mm] = fld.neg(fld.mul(factor, tc))
                heappush(heap, (desc(mm), mm))
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
    lcm = mono_lcm(lmf, lmg)
    part1 = f.mul_term(fld.inv(f.lead_coeff()), mono_div(lcm, lmf))
    part2 = g.mul_term(fld.inv(g.lead_coeff()), mono_div(lcm, lmg))
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
    key = ring.key
    # the open S-pairs (i, j), i < j, each with the lcm of its lead monomials
    pairs = {(i, j): mono_lcm(basis[i].lead_monomial(), basis[j].lead_monomial())
             for i in range(len(basis)) for j in range(i + 1, len(basis))}
    # the same pairs, each pushed once, popped least (key(lcm), (i, j)) first
    queue = [(key(lij), ij) for ij, lij in pairs.items()]
    heapify(queue)
    processed = 0
    while queue:
        i, j = heappop(queue)[1]
        lij = pairs.pop((i, j))
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceLimitError(
                f"S-pair budget exceeded ({limits.max_pairs})")
        if lij == mono_mul(basis[i].lead_monomial(), basis[j].lead_monomial()):
            continue  # coprime leads reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(basis[k].lead_monomial(), lij) \
                    and (min(i, k), max(i, k)) not in pairs \
                    and (min(j, k), max(j, k)) not in pairs:
                skip = True
                break
        if skip:
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
            lead = r.lead_monomial()
            for u in range(t):
                lut = mono_lcm(basis[u].lead_monomial(), lead)
                pairs[(u, t)] = lut
                heappush(queue, (key(lut), (u, t)))
    return _reduced_basis(basis)


def _reduced_basis(basis):
    ring = basis[0].ring
    key = ring.key
    ordered = sorted(basis, key=lambda g: key(g.lead_monomial()))
    minimal = []
    for g in ordered:
        if not any(mono_divides(h.lead_monomial(), g.lead_monomial())
                   for h in minimal):
            minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(g, others)
        if r.terms:
            out.append(r.monic())
    return sorted(out, key=lambda g: key(g.lead_monomial()))


def contains_one(basis):
    """True iff the ideal is the whole ring (basis has a nonzero constant)."""
    return any(g.terms and g.is_constant() for g in basis)
