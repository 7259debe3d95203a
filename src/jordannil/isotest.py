"""Deciding isomorphism of structure-constant algebras.

Pipeline: invariant prefilter, a complete backtracking witness search over
prime fields, then the Groebner route — the structure equations plus the
slack relation b·det(φ) − 1 have a common zero over the algebraic closure
iff the reduced basis is not {1}.  Over Q a bounded small-height witness
search runs before conceding "isomorphic over the closure only".
"""

from dataclasses import dataclass, field as dc_field
from itertools import permutations

from . import algebra as algebra_mod
from . import groebner, homsearch
from .groebner import PolyRing
from .limits import ResourceLimitError

ISOMORPHIC = "isomorphic"
NON_ISOMORPHIC_OVER_CLOSURE = "non_isomorphic_over_closure"
ISOMORPHIC_OVER_CLOSURE = "isomorphic_over_closure"
DISTINGUISHED = "distinguished"
RESOURCE_EXCEEDED = "resource_exceeded"

MODE_BASE_FIELD_FIRST = "base"
MODE_CLOSURE_ONLY = "closure"


@dataclass(frozen=True)
class IsoVerdict:
    kind: str
    witness: tuple = None
    certificate: tuple = None       # reduced Groebner basis, for the {1} case
    invariant: str = None
    base_field_conclusive: bool = False
    detail: str = dc_field(default="")


def prefilter(a, b):
    """Name of the first differing fingerprint invariant, or None."""
    fa, fb = a.fingerprint(), b.fingerprint()
    for name in algebra_mod.Fingerprint._fields:
        va, vb = getattr(fa, name), getattr(fb, name)
        if va != vb:
            return f"{name}: {va} != {vb}"
    return None


def iso_ring(n, fld, order="degrevlex"):
    names = [f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    names.append("b")
    return PolyRing(fld, names, order)


def _det_polynomial(ring, n):
    # Leibniz expansion of det(a_ij); n stays at desk scale
    fld = ring.field
    out = ring.zero()
    for perm in permutations(range(n)):
        inv = sum(1 for x in range(n) for y in range(x + 1, n)
                  if perm[x] > perm[y])
        sign = fld.one if inv % 2 == 0 else fld.neg(fld.one)
        mono = [0] * ring.nvars
        for i in range(n):
            mono[i * n + perm[i]] += 1
        out = out + ring.poly({tuple(mono): sign})
    return out


def iso_system(a, b, order="degrevlex"):
    """Structure equations Σ c_{ij}^k a_{km} − Σ γ_{kl}^m a_{ik} a_{jl}
    for i >= j, m = 1..n, plus b·det(a_ij) − 1.  Zero equations are dropped.
    """
    if a.dim != b.dim:
        raise ValueError("algebras must have the same dimension")
    if a.field != b.field:
        raise ValueError("algebras must share the ground field")
    n = a.dim
    fld = a.field
    ring = iso_ring(n, fld, order)

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
    bvar = ring.var("b")
    polys.append(bvar * _det_polynomial(ring, n) - ring.const(1))
    return polys


def eliminate_linear(polys):
    """Substitute away variables x occurring as c·x + (terms without x).

    This is an exact change of presentation: 1 is in the original ideal iff
    it is in the reduced one, and the Groebner run gets far fewer variables.
    """
    if not polys:
        return []
    ring = polys[0].ring
    fld = ring.field
    current = [p for p in polys if p]
    while True:
        target = None
        for pi, p in enumerate(current):
            counts = {}
            for m in p.terms:
                for vi, e in enumerate(m):
                    if e:
                        counts[vi] = counts.get(vi, 0) + (2 if e > 1 else 1)
            for vi, cnt in sorted(counts.items()):
                if cnt != 1:
                    continue
                mono = [0] * ring.nvars
                mono[vi] = 1
                mono = tuple(mono)
                if mono in p.terms:
                    target = (pi, vi, mono)
                    break
            if target:
                break
        if target is None:
            return current
        pi, vi, mono = target
        p = current.pop(pi)
        coeff = p.terms[mono]
        rest = groebner.Polynomial(ring, {m: c for m, c in p.terms.items()
                                          if m != mono})
        replacement = rest.scale(fld.neg(fld.inv(coeff)))
        current = [q.substitute({vi: replacement}) for q in current]
        current = [q for q in current if q]


def verify_witness(a, b, phi):
    """True iff phi is invertible and preserves all basis products."""
    try:
        phi = tuple(tuple(a.field.of(x) for x in row) for row in phi)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    if any(len(row) != a.dim for row in phi) or len(phi) != a.dim:
        return False
    return algebra_mod.is_isomorphism(a, b, phi)


class InvalidWitnessError(RuntimeError):
    """A witness search returned a map that is not an isomorphism."""


def _check_witness(a, b, witness):
    # an explicit check, not an assert: it must run under python -O too
    if not verify_witness(a, b, witness):
        raise InvalidWitnessError(f"witness {witness} is not an isomorphism")


def decide(a, b, mode=MODE_BASE_FIELD_FIRST, limits=None):
    """Classify the pair: see IsoVerdict kinds for the possible outcomes."""
    if a.field != b.field:
        raise ValueError("algebras must share the ground field")
    if mode not in (MODE_BASE_FIELD_FIRST, MODE_CLOSURE_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    name = prefilter(a, b)
    if name is not None:
        return IsoVerdict(DISTINGUISHED, invariant=name,
                          base_field_conclusive=True)

    def q_heuristic():
        try:
            return homsearch.find_witness(a, b)
        except homsearch.SearchBudgetExceeded:
            return None

    base_conclusive = False
    q_searched = False
    if mode == MODE_BASE_FIELD_FIRST:
        if a.field.is_prime_field:
            witness = homsearch.find_witness(a, b)
            if witness is not None:
                _check_witness(a, b, witness)
                return IsoVerdict(ISOMORPHIC, witness=witness,
                                  base_field_conclusive=True)
            base_conclusive = True  # the search over F_p is exhaustive
        else:
            witness = q_heuristic()
            q_searched = True
            if witness is not None:
                _check_witness(a, b, witness)
                return IsoVerdict(ISOMORPHIC, witness=witness,
                                  base_field_conclusive=True)

    try:
        basis = groebner.buchberger(eliminate_linear(iso_system(a, b)),
                                    limits=limits)
    except ResourceLimitError as exc:
        return IsoVerdict(RESOURCE_EXCEEDED, detail=str(exc))
    if groebner.contains_one(basis):
        return IsoVerdict(NON_ISOMORPHIC_OVER_CLOSURE,
                          certificate=tuple(basis),
                          base_field_conclusive=True)

    if not a.field.is_prime_field:
        witness = None if q_searched else q_heuristic()
        if witness is not None:
            _check_witness(a, b, witness)
            return IsoVerdict(ISOMORPHIC, witness=witness,
                              base_field_conclusive=True)
        return IsoVerdict(ISOMORPHIC_OVER_CLOSURE,
                          detail="no base-field witness found (bounded search)")

    return IsoVerdict(ISOMORPHIC_OVER_CLOSURE,
                      base_field_conclusive=base_conclusive,
                      detail="no base-field witness (exhaustive search)"
                      if base_conclusive else "")
