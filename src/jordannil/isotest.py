"""Deciding isomorphism of structure-constant algebras.

Pipeline: invariant prefilter, a witness search, then the Groebner route —
the structure equations plus the slack relation b·det(φ) − 1 have a common
zero over the algebraic closure iff the reduced basis is not {1}.  One
witness step serves every site: the backtracking search, complete over a
prime field and bounded in height over Q, with an explicit check of what it
returns that raises InvalidWitnessError under `python -O` too.  The search
first compares the dimensions of the characteristic subspaces, and over a
prime field the sizes of the square-zero cones, computed from quadratic
forms before any bound on pⁿ applies; a pair that differs there has no
witness without any search, and the Groebner route still gives its {1}
certificate.  Over Q as over F_p the search then prunes by those
subspaces, keeping e_i in each exactly when its image lies in the
counterpart.  Base mode runs the witness step before the Groebner route;
closure mode over Q runs it after, before conceding "isomorphic over the
closure only".  The system is built as term dicts; groebner.eliminate_linear
substitutes its linear variables away on the integer form that Buchberger
then starts from.  The Groebner budgets come only from JORDAN_LIMITS.
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

    @property
    def non_isomorphic(self):
        """True iff the verdict rules out an isomorphism over the base field:
        it settles the base-field question and finds no isomorphism."""
        return self.base_field_conclusive and self.kind != ISOMORPHIC


def prefilter(a, b):
    """Name of the first differing fingerprint invariant, or None."""
    fa, fb = a.fingerprint(), b.fingerprint()
    for name in algebra_mod.Fingerprint._fields:
        va, vb = getattr(fa, name), getattr(fb, name)
        if va != vb:
            return f"{name}: {va} != {vb}"
    return None


def iso_ring(n, fld):
    names = [f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    names.append("b")
    return PolyRing(fld, names)


def iso_system(a, b):
    """Structure equations Σ c_{ij}^k a_{km} − Σ γ_{kl}^m a_{ik} a_{jl}
    for i >= j, m = 1..n, plus b·det(a_ij) − 1.  Zero equations are dropped.
    """
    if a.dim != b.dim:
        raise ValueError("algebras must have the same dimension")
    if a.field != b.field:
        raise ValueError("algebras must share the ground field")
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
    # b·det(a_ij) − 1, det by its Leibniz expansion; n stays at desk scale
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


class InvalidWitnessError(RuntimeError):
    """A witness search returned a map that is not an isomorphism."""


def _witness(a, b):
    """A checked witness a -> b, or None: none exists over a prime field,
    or the bounded search over Q found none."""
    try:
        witness = homsearch.find_witness(a, b)
    except homsearch.SearchBudgetExceeded:
        return None
    # an explicit check, not an assert: it must run under python -O too
    if witness is not None and not algebra_mod.is_isomorphism(a, b, witness):
        raise InvalidWitnessError(f"witness {witness} is not an isomorphism")
    return witness


def decide(a, b, mode=MODE_BASE_FIELD_FIRST):
    """Classify the pair: see IsoVerdict kinds for the possible outcomes."""
    if a.field != b.field:
        raise ValueError("algebras must share the ground field")
    if mode not in (MODE_BASE_FIELD_FIRST, MODE_CLOSURE_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    name = prefilter(a, b)
    if name is not None:
        return IsoVerdict(DISTINGUISHED, invariant=name,
                          base_field_conclusive=True)

    searched = mode == MODE_BASE_FIELD_FIRST
    witness = _witness(a, b) if searched else None
    if witness is not None:
        return IsoVerdict(ISOMORPHIC, witness=witness,
                          base_field_conclusive=True)

    try:
        basis = groebner.buchberger(
            groebner.eliminate_linear(iso_system(a, b)))
    except ResourceLimitError as exc:
        return IsoVerdict(RESOURCE_EXCEEDED, detail=str(exc))
    if groebner.contains_one(basis):
        return IsoVerdict(NON_ISOMORPHIC_OVER_CLOSURE,
                          certificate=tuple(basis),
                          base_field_conclusive=True)

    if a.field.is_prime_field:  # a base-mode search over F_p is exhaustive
        return IsoVerdict(ISOMORPHIC_OVER_CLOSURE,
                          base_field_conclusive=searched,
                          detail="no base-field witness (exhaustive search)"
                          if searched else "")
    witness = None if searched else _witness(a, b)
    if witness is not None:
        return IsoVerdict(ISOMORPHIC, witness=witness,
                          base_field_conclusive=True)
    return IsoVerdict(ISOMORPHIC_OVER_CLOSURE,
                      detail="no base-field witness found (bounded search)")
