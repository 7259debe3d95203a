"""Backtracking search for algebra isomorphisms.

Images of basis vectors are assigned one at a time, most-constrained index
first.  After every assignment the product constraints
phi(e_i) ∘ phi(e_j) = Σ_k c_{ij}^k phi(e_k) are propagated: a constraint whose
right side has exactly one unassigned image forces that image; contradictions
prune.  Propagation works through a worklist of the constraints that mention
a newly assigned index, and each forced image queues its own constraints;
the others were settled at the node above.  Images are kept linearly
independent by eliminating each new image against the echelonized earlier
ones, so complete assignments are isomorphisms.

The candidate images of the next index i are the solutions of the
constraints already linear in x = phi(e_i): every e_i ∘ e_j = Σ_k c_k e_k
with phi(e_j) and each phi(e_k), k ≠ i, assigned gives
x ∘ phi(e_j) - c_i x = Σ_{k≠i} c_k phi(e_k).  The stacked system is solved
once per node, and its solutions with every coordinate in `entries` (F_p,
or QQ_ENTRIES over Q) are visited in lexicographic order.  That is the
order of a scan of all vectors over `entries`, restricted to the images
that propagation would not reject, so the search returns the same witness
as the scan.  Over a prime field the search is exhaustive; over Q it
searches that box and gives up after QQ_NODE_BUDGET nodes, so a "not
found" answer is only heuristic there.  The candidates lie among the pⁿ - 1
or 5ⁿ - 1 nonzero vectors over `entries`; these are counted, not listed,
and ResourceLimitError is raised before any is visited when the count
exceeds the `points` limit.

Every isomorphism maps J^m (m ≥ 2), the centre Z and Z ∩ J² of a onto those
of b, so `find_isomorphisms` returns no map at once when the fingerprints,
which hold their dimensions, differ, and e_i ∈ S(a) iff phi(e_i) ∈ S(b)
prunes the candidates over any field (de Graaf prunes the same way for
nilpotent Lie algebras, J. Algebra 309, 2007): the equations of S(b) join
the linear system when e_i ∈ S(a), and otherwise the candidates in S(b)
are dropped.  Pruning removes only subtrees without isomorphisms, so the
witnesses stay those of the unpruned search.

The square-zero cone {x : x ∘ x = 0} is a characteristic set: every
isomorphism maps the cone of a onto that of b, so an index with
e_i ∘ e_i = 0 only takes square-zero images.

Over a prime field, for a ≠ b, `find_isomorphisms` compares the pencils of
a and b before it builds the search, and returns no map when they differ.
The pencil span{C_k}, C_k = (c_{ij}^k)_{ij}, holds the matrices of the
forms (x, y) ↦ λ(x ∘ y).  An isomorphism phi with matrix M (rows = images)
gives λ(phi(x) ∘ phi(y)) = (λ∘phi)(x ∘ y), so B ↦ M·B·Mᵀ maps the pencil
of b onto that of a.  With B_1, …, B_m a basis of span{C_k} (m = dim J²),
each projective point μ of F_p^m is counted under the congruence class of
Σ μ_l B_l: over odd p its rank r and, for even r, the Legendre symbol
η(D) of its discriminant (scaling by t scales D by t^r); over F_2 its rank
and whether it is alternating.  These counts are invariants, and they
determine the size of the square-zero cone; no vector is multiplied.  The
(p^m - 1)/(p - 1) forms are counted against the `points` limit.  Over Q
the search sees only a box, not all of Qⁿ, and the check does not run.

`find_witness` searches from the side with fewer nonzero structure constants
and inverts the witness if that is b: the fewer constraints the source has,
the fewer images its search needs to try before they force the rest.

`stabiliser_chain` runs the same search from a to a as Sims' subgroup search
with coset pruning (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, ch. 4).  Which index the search branches on, and which images
propagation forces, depend only on which indices are assigned, so the
branching indices of the identity path form a base of Aut(a).  Per base
point it searches one automorphism for each candidate image outside the
basic orbit known so far, so Aut(a) comes out as generators and basic orbit
lengths, and its elements are never listed.
"""

from collections import Counter
from functools import partial
from itertools import product as iproduct
from operator import mul

from . import linalg
from .algebra import is_isomorphism
from .limits import check_points


class SearchBudgetExceeded(Exception):
    pass


QQ_ENTRIES = (0, 1, -1, 2, -2)
QQ_NODE_BUDGET = 20_000


def _assignment_order(a):
    # most product constraints first; ties broken by index for determinism
    counts = [0] * a.dim
    for (i, j, _k), _c in a.constants.items():
        counts[i - 1] += 1
        counts[j - 1] += 1
    return sorted(range(a.dim), key=lambda i: (-counts[i], i))


def _entries(a):
    """The coordinates of candidate images: F_p, or QQ_ENTRIES over Q.

    Raises ResourceLimitError when the nonzero vectors over them exceed the
    `points` limit.
    """
    f = a.field
    entries = range(f.p) if f.is_prime_field else tuple(map(f.of, QQ_ENTRIES))
    count = len(entries) ** a.dim - 1
    check_points(count, f"the witness search would list {count} candidate "
                        f"images ({len(entries)}^{a.dim} - 1)")
    return entries


def _characteristic_pairs(a, b):
    """(S(a), S(b)) for S = J^m (m >= 2), Z and Z ∩ J².

    Every isomorphism a -> b maps each S(a) onto S(b).  a and b have the
    same fingerprint, so their lower central series have the same length.
    """
    pairs = list(zip(a.lower_central_series()[1:],
                     b.lower_central_series()[1:]))
    za, zb = a.centre(), b.centre()
    pairs.append((za, zb))
    pairs.append((za.intersection(a.square()), zb.intersection(b.square())))
    return pairs


def _congruence_class(f, flat, n):
    """The congruence class of the symmetric n × n matrix `flat`, row by
    row, over F_p: (rank, alternating) over F_2; over odd p (r, η(D)), D
    the product of the r nonzero entries of a congruent diagonal matrix, or
    (r, 0) for odd r."""
    m = [flat[i:i + n] for i in range(0, n * n, n)]
    if f.p == 2:
        return linalg.rank(f, m), not any(flat[::n + 1])
    r, disc = 0, 1
    while True:
        hits = [(i != j, i, j) for i, row in enumerate(m)
                for j, c in enumerate(row) if c]
        if not hits:
            if r % 2:
                return r, 0
            return r, 1 if pow(disc, (f.p - 1) // 2, f.p) == 1 else -1
        # v = e_k, or e_k + e_j if the diagonal is zero: with b = Bv and
        # c = vᵀBv ≠ 0, B is congruent to diag(c) ⊥ (B - b·bᵀ/c)
        _, k, j = min(hits)
        b = m[k] if k == j else linalg.vec_add(f, m[k], m[j])
        c = b[k] if k == j else f.add(b[k], b[j])
        r, disc, inv = r + 1, f.mul(disc, c), f.inv(c)
        m = [linalg.vec_sub(f, row, linalg.vec_scale(f, f.mul(x, inv), b))
             for row, x in zip(m, b)]


def _pencil_profile(a):
    """How many projective points μ of the pencil span{C_k} give a form
    Σ μ_l B_l of each congruence class (see the module docstring)."""
    f, n = a.field, a.dim
    p, flat = f.p, sum(a.table, ())      # flat[n·i + j] = e_i ∘ e_j
    basis = linalg.rref(f, linalg.transpose(flat))[0]   # of the C_k, flat
    m = len(basis)
    forms = (p ** m - 1) // (p - 1)
    count = f"{p}^{m} - 1" if p == 2 else f"({p}^{m} - 1)/{p - 1}"
    check_points(forms, f"the pencil profile would rank {forms} forms "
                        f"({count})")
    return Counter(
        _congruence_class(f, linalg.vec_mat(f, (1,) + tail, basis[lead:]), n)
        for lead in range(m)             # μ = (0, …, 0, 1, tail)
        for tail in iproduct(range(p), repeat=m - 1 - lead))


def _profiles_differ(a, b):
    """True when the pencil profiles of a and b differ, which proves a ≇ b
    (see the module docstring)."""
    return _pencil_profile(a) != _pencil_profile(b)


def _solutions(f, entries, n, red, pivots):
    """Solutions of an RREF system with every coordinate in `entries`, in
    lexicographic order.

    Column c of `red` is the coefficient of x_{n-1-c} and column n the right
    side.  With the unknowns reversed each pivot unknown depends only on free
    unknowns of lower index, so counting the free unknowns up over `entries`
    counts the solutions up in lexicographic order.  A solution with a pivot
    coordinate outside `entries` is skipped, which never happens over F_p.
    """
    pivot_vars = [n - 1 - c for c in pivots]
    free = [v for v in range(n) if v not in pivot_vars]
    for values in iproduct(entries, repeat=len(free)):
        x = [f.zero] * n
        for v, t in zip(free, values):
            x[v] = t
        for row, v in zip(red, pivot_vars):
            s = row[n]
            for u in free:
                s -= row[n - 1 - u] * x[u]
            s = f.of(s)
            if s not in entries:
                break
            x[v] = s
        else:
            yield tuple(x)


class _Search:
    """Backtracking state of a search for isomorphisms a -> b.

    `assigned` maps indices of a's basis to their images in b; `rows` and
    `pivots` hold those images echelonized, for the independence test.
    Every step that extends the assignment records the indices it assigned
    in a trail, and `undo(trail)` takes them back.  `dfs` leaves the state
    as it found it, hit or not, so a caller can search several subtrees of
    one node in turn; a hit is kept in `found`.
    """

    def __init__(self, a, b, pairs):
        f = a.field
        n = a.dim
        self.b, self.f, self.n = b, f, n
        self.entries = _entries(a)
        self.node_budget = None if f.is_prime_field else QQ_NODE_BUDGET
        self.order = _assignment_order(a)
        self.found = None
        self.assigned = {}
        self.rows, self.pivots = [], []
        self.nodes = 0

        # watch[k]: the constraints whose status changes when k is assigned
        constraints = {}
        watch = {k: [] for k in range(n)}
        for i in range(n):
            for j in range(i, n):
                terms = [(k, c) for k, c in enumerate(a.table[i][j]) if c]
                constraints[(i, j)] = terms
                for k in {i, j}.union(k for k, _ in terms):
                    watch[k].append((i, j))
        self.constraints, self.watch = constraints, watch

        # e_i ∈ S(a) iff phi(e_i) ∈ S(b) for each characteristic pair.  S(b)
        # is kept as a basis of its annihilator, the h with h·x = 0 on S(b):
        # `inside[i]` holds those rows, echelonized, as equations of the
        # system `candidates` solves, `outside[i]` the bases whose zeros are
        # dropped from the candidates of e_i
        inside = {i: [] for i in range(n)}
        self.outside = {i: [] for i in range(n)}
        for sa, sb in dict.fromkeys(pairs):    # equal pairs once
            if sb.dim in (0, n):
                continue                 # no nonzero image is excluded
            ann = linalg.nullspace(f, sb.basis, n)
            for i in range(n):
                if sa.contains(linalg.unit(f, n, i)):
                    inside[i].extend(h[::-1] + (f.zero,) for h in ann)
                else:
                    self.outside[i].append(ann)
        self.inside = {i: linalg.rref(f, rows)[0] for i, rows in inside.items()}

    def assign(self, k, vec, trail):
        f, rows, pivots = self.f, self.rows, self.pivots
        rest = linalg.reduce_vector(f, vec, rows, pivots)
        lead = next((c for c, x in enumerate(rest) if x), None)
        if lead is None:
            return False
        rows.append(linalg.vec_scale(f, f.inv(rest[lead]), rest))
        pivots.append(lead)
        self.assigned[k] = vec
        trail.append(k)
        return True

    def undo(self, trail):
        assigned = self.assigned
        for k in trail:
            del assigned[k]
        del self.rows[len(self.rows) - len(trail):]
        del self.pivots[len(self.pivots) - len(trail):]

    def candidates(self, i):
        # for each product constraint linear in x = phi(e_i), the n
        # equations of x ∘ phi(e_j) - c_i x = Σ_{k≠i} c_k phi(e_k), unknowns
        # reversed (see _solutions) and the right side last
        f, b, n = self.f, self.b, self.n
        assigned = self.assigned
        constraints = self.constraints
        system = list(self.inside[i])
        for j, w in assigned.items():
            terms = constraints[(min(i, j), max(i, j))]
            if any(k != i and k not in assigned for k, _ in terms):
                continue
            c_i = f.zero
            rhs = [f.zero] * n
            for k, c in terms:
                if k == i:
                    c_i = c
                else:
                    rhs = linalg.vec_add(
                        f, rhs, linalg.vec_scale(f, c, assigned[k]))
            cols = [b.product_basis(w, r) for r in reversed(range(n))]
            for s in range(n):
                row = [col[s] for col in cols]
                row[n - 1 - s] = f.sub(row[n - 1 - s], c_i)
                row.append(rhs[s])
                system.append(row)
        red, red_pivots = linalg.rref(f, system)
        if red_pivots and red_pivots[-1] == n:
            return []                    # inconsistent: prune the node
        found = (x for x in _solutions(f, self.entries, n, red, red_pivots)
                 if any(x))
        outside = self.outside[i]
        if outside:
            # x ∈ S(b) iff h·x = 0 for every h of S(b)'s annihilator
            found = (x for x in found
                     if all(any(f.of(sum(map(mul, h, x))) for h in ann)
                            for ann in outside))
        if not constraints[(i, i)]:
            # e_i ∘ e_i = 0, so phi(e_i) lies in b's square-zero cone
            found = (x for x in found if not any(b.product(x, x)))
        return found

    def propagate(self, trail):
        # a worklist of the constraints that the assignments on the trail,
        # and the images they force, touched; the others were settled when
        # the node above was propagated
        f, b, n = self.f, self.b, self.n
        assigned, constraints, watch = self.assigned, self.constraints, self.watch
        work = dict.fromkeys(key for k in trail for key in watch[k])
        while work:
            key = next(iter(work))
            del work[key]
            i, j = key
            if i not in assigned or j not in assigned:
                continue
            w = b.product(assigned[i], assigned[j])
            known = [f.zero] * n
            unknown = []
            for k, c in constraints[key]:
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
                if not self.assign(k, img, trail):
                    return False
                work.update(dict.fromkeys(watch[k]))
        return True

    def next_index(self):
        # fail-first: prefer the index whose assignment yields the most
        # immediate product checks, then the most forced images.  The
        # choice depends only on which indices are assigned.
        assigned, constraints = self.assigned, self.constraints
        best_score = None
        best = None
        for i in self.order:
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

    def dfs(self):
        """Search the subtree of the current node; True once a hit ends it."""
        i = self.next_index()
        if i is None:
            self.found = tuple(self.assigned[k] for k in range(self.n))
            return True
        for vec in self.candidates(i):
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                raise SearchBudgetExceeded()
            trail = []
            hit = (self.assign(i, vec, trail) and self.propagate(trail)
                   and self.dfs())
            self.undo(trail)
            if hit:
                return True
        return False


def find_isomorphisms(a, b):
    """A list holding the first isomorphism a -> b (rows = images of a's
    basis) the search finds, or no map when there is none.

    Over Q raises SearchBudgetExceeded after QQ_NODE_BUDGET nodes.  Raises
    ResourceLimitError when the candidate box exceeds the `points` limit.
    """
    if a.field != b.field or a.dim != b.dim:
        return []
    f = a.field
    ident = linalg.identity(f, a.dim)
    if is_isomorphism(a, b, ident):      # a = b, dim 0 included
        return [ident]
    if a.fingerprint() != b.fingerprint():
        return []
    # the profiles are compared before _Search checks the `points` bound on
    # its candidates, so a pair they refute needs no bound on pⁿ
    if f.is_prime_field and _profiles_differ(a, b):
        return []
    search = _Search(a, b, _characteristic_pairs(a, b))
    return [search.found] if search.dfs() else []


def orbit(start, generators, act):
    """Orbit of start under the group the generators generate, where
    act(x, g) is the image of x under g: its closure, breadth first."""
    seen = {start}
    queue = [start]
    for x in queue:
        for g in generators:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def stabiliser_chain(a):
    """Generators of Aut(a) over F_p and the basic orbit lengths of a chain.

    The base is the sequence of indices the search branches on along the
    identity path (forced images follow from the base images).  The levels
    are completed from the deepest up; at level l the earlier base vectors
    are fixed.  A candidate image of the level's base vector e_i that lies
    outside the orbit Δ of e_i under the generators found so far is
    searched for one automorphism, which becomes a generator.  Every image
    of e_i under the level's stabiliser is a candidate, so at the end Δ is
    its basic orbit, the generators found generate the stabiliser, and
    |Aut(a)| is the product of the orbit lengths.
    """
    f, n = a.field, a.dim
    ident = linalg.identity(f, n)
    act = partial(linalg.vec_mat, f)
    search = _Search(a, a, _characteristic_pairs(a, a))
    base = []                            # (index, trail) per level
    i = search.next_index()
    while i is not None:
        trail = []
        if not (search.assign(i, ident[i], trail)
                and search.propagate(trail)):
            raise RuntimeError("the identity failed the automorphism search")
        base.append((i, trail))
        i = search.next_index()
    generators, lengths = [], []
    for i, trail in reversed(base):
        search.undo(trail)
        delta = orbit(ident[i], generators, act)
        for vec in search.candidates(i):
            if vec in delta:
                continue
            trail = []
            if (search.assign(i, vec, trail) and search.propagate(trail)
                    and search.dfs()):
                generators.append(search.found)
                delta = orbit(ident[i], generators, act)
            search.undo(trail)
        lengths.append(len(delta))
    return generators, lengths[::-1]


def find_witness(a, b):
    """An isomorphism a -> b (rows = images of a's basis) or None.

    The search runs from the side with fewer nonzero structure constants, a
    on a tie; a witness b -> a is returned inverted.
    """
    swap = len(b.constants) < len(a.constants)
    source, target = (b, a) if swap else (a, b)
    found = find_isomorphisms(source, target)
    if not found:
        return None
    return linalg.invert(a.field, found[0]) if swap else found[0]
