"""Backtracking search for algebra isomorphisms.

Images of basis vectors are assigned one at a time, most-constrained index
first.  After every assignment the product constraints
phi(e_i) ∘ phi(e_j) = Σ_k c_{ij}^k phi(e_k) are propagated: a constraint whose
right side has exactly one unassigned image forces that image; contradictions
prune.  Images are kept linearly independent by eliminating each new image
against the echelonized earlier ones, so complete assignments are
isomorphisms.

Over a prime field the search is exhaustive.  Over Q it enumerates vectors
with entries from a small-height candidate set under a node budget, so a
"not found" answer is only heuristic there.
"""

from itertools import product as iproduct

from . import linalg
from .algebra import is_isomorphism


class SearchBudgetExceeded(Exception):
    pass


QQ_ENTRIES = (0, 1, -1, 2, -2)


def _assignment_order(a):
    # most product constraints first; ties broken by index for determinism
    counts = [0] * a.dim
    for (i, j, _k), _c in a.constants.items():
        counts[i - 1] += 1
        counts[j - 1] += 1
    return sorted(range(a.dim), key=lambda i: (-counts[i], i))


def _candidate_vectors(a, q_entries):
    f = a.field
    if f.is_prime_field:
        vecs = [tuple(v) for v in iproduct(range(f.p), repeat=a.dim)]
    else:
        entries = [f.of(e) for e in q_entries]
        vecs = [tuple(v) for v in iproduct(entries, repeat=a.dim)]
    return [v for v in vecs if any(v)]


def find_isomorphisms(a, b, find_all=False, q_entries=QQ_ENTRIES,
                      node_budget=None):
    """Matrices (rows = images of a's basis) of isomorphisms a -> b.

    Returns a list; with find_all=False it holds at most one witness.
    Raises SearchBudgetExceeded if the node budget runs out.
    """
    if a.field != b.field or a.dim != b.dim:
        return []
    f = a.field
    n = a.dim
    if n == 0:
        return [()]
    order = _assignment_order(a)
    candidates = _candidate_vectors(a, q_entries)
    results = []
    assigned = {}
    # images so far, echelonized row by row, for the independence test
    rows, pivots = [], []
    nodes = [0]

    constraints = {}
    for i in range(n):
        for j in range(i, n):
            constraints[(i, j)] = [(k, c) for k, c in enumerate(a.table[i][j]) if c]

    # indices with e_i ∘ e_i = 0 can only map to square-zero vectors of b;
    # filtering once keeps deep branches from rescanning the whole space
    square_zero = None
    cand_for = {}
    for i in range(n):
        if constraints[(i, i)]:
            cand_for[i] = candidates
        else:
            if square_zero is None:
                square_zero = [v for v in candidates
                               if not any(b.product(v, v))]
            cand_for[i] = square_zero

    def assign(k, vec, trail):
        rest = linalg.reduce_vector(f, vec, rows, pivots)
        lead = next((c for c, x in enumerate(rest) if x), None)
        if lead is None:
            return False
        rows.append(linalg.vec_scale(f, f.inv(rest[lead]), rest))
        pivots.append(lead)
        assigned[k] = vec
        trail.append(k)
        return True

    def undo(trail):
        for k in trail:
            del assigned[k]
        del rows[len(rows) - len(trail):]
        del pivots[len(pivots) - len(trail):]

    def propagate(trail):
        changed = True
        while changed:
            changed = False
            for (i, j), terms in constraints.items():
                if i not in assigned or j not in assigned:
                    continue
                w = b.product(assigned[i], assigned[j])
                known = [f.zero] * n
                unknown = []
                for k, c in terms:
                    if k in assigned:
                        known = linalg.vec_add(
                            f, known, linalg.vec_scale(f, c, assigned[k]))
                    else:
                        unknown.append((k, c))
                if not unknown:
                    if tuple(known) != w:
                        return False
                elif len(unknown) == 1:
                    k, c = unknown[0]
                    img = linalg.vec_scale(
                        f, f.inv(c), linalg.vec_sub(f, w, known))
                    if not assign(k, img, trail):
                        return False
                    changed = True
        return True

    def next_index():
        # fail-first: prefer the index whose assignment yields the most
        # immediate product checks, then the most forced images
        best_score = None
        best = None
        for i in order:
            if i in assigned:
                continue
            checks = forces = 0
            for (u, v), terms in constraints.items():
                if u != i and v != i:
                    continue
                partner = v if u == i else u
                if partner != i and partner not in assigned:
                    continue
                unknown = sum(1 for k, _ in terms
                              if k != i and k not in assigned)
                if unknown == 0:
                    checks += 1
                elif unknown == 1:
                    forces += 1
            score = (checks, forces)
            if best_score is None or score > best_score:
                best_score = score
                best = i
        return best

    def dfs():
        i = next_index()
        if i is None:
            results.append(tuple(assigned[k] for k in range(n)))
            return not find_all
        for vec in cand_for[i]:
            nodes[0] += 1
            if node_budget is not None and nodes[0] > node_budget:
                raise SearchBudgetExceeded()
            trail = []
            if not assign(i, vec, trail):
                undo(trail)
                continue
            if propagate(trail) and dfs():
                return True
            undo(trail)
        return False

    if not find_all and is_isomorphism(a, b, linalg.identity(f, n)):
        return [linalg.identity(f, n)]
    dfs()
    if not find_all:
        return results[:1]
    return sorted(set(results))


def find_witness(a, b, q_entries=QQ_ENTRIES, node_budget=None):
    """First isomorphism witness or None."""
    found = find_isomorphisms(a, b, find_all=False, q_entries=q_entries,
                              node_budget=node_budget)
    return found[0] if found else None
