"""Exhaustive search, degree cleanup, and walk construction.

The searcher finds the largest edge count of a hypergraph on n vertices that
stays free of homomorphic tight-cycle images for a chosen set of residues.
The cleanup routines trim low-degree or low-codegree parts while certifying
how little was lost, and the walk builder routes a tight walk through a
prescribed triple family inside a nearly odd-bipartite 4-graph.

Numeric parameters accept ints, Fractions, or floats; a float is read at its
shortest decimal form, so ``0.1`` means one tenth exactly.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .census import as_fraction
from .hypergraph import Hypergraph, shadow
from .permgroup import MAX_ARITY
from .tightconn import (
    WalkWitness,
    contains_hom_cycle_of_length,
    is_hom_free,
    is_valid_walk,
    oriented_edges,
    walk_distances,
)

Edge = tuple[int, ...]


# ---------------------------------------------------------------------------
# exhaustive search


class BudgetExceededError(Exception):
    """Search space too large for the given budget.

    Carries a greedy ``lower_bound`` with its ``witness`` so callers still get
    a certified feasible packing, and the count of candidates ``explored``
    while producing it.
    """

    def __init__(self, message: str, lower_bound: int, witness: Hypergraph, explored: int):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.witness = witness
        self.explored = explored


@dataclass(frozen=True)
class SearchResult:
    n: int
    r: int
    residues: frozenset[int]
    max_edges: int
    witnesses: tuple[Hypergraph, ...]
    explored: int
    canonical: bool
    complete: bool


def _colex_edges(n: int, r: int) -> list[Edge]:
    return sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])


def _free_for_all(g: Hypergraph, residues) -> bool:
    return all(is_hom_free(g, k) for k in residues)


def _greedy_pack(n: int, r: int, residues, pool) -> tuple[list[Edge], int]:
    kept: list[Edge] = []
    explored = 0
    for e in pool:
        explored += 1
        if _free_for_all(Hypergraph(r, n, kept + [e]), residues):
            kept.append(e)
    return kept, explored


def _search_subtree(args):
    """One include/exclude prefix of the edge pool, searched to the leaves.

    The prefix forces the first decisions of the DFS. Subtrees never share
    bounds, so each returns every tying leaf it saw; the merge keeps the
    global maximum. Module-level for pickling.
    """
    n, r, residues, prefix = args
    pool = _colex_edges(n, r)
    explored = 0
    best = -1
    witnesses: list[tuple[Edge, ...]] = []

    def dfs(i: int, acc: list[Edge]) -> None:
        nonlocal best, explored, witnesses
        if len(acc) + (len(pool) - i) < best:
            return
        if i == len(pool):
            if len(acc) > best:
                best = len(acc)
                witnesses = [tuple(acc)]
            elif len(acc) == best:
                witnesses.append(tuple(acc))
            return
        e = pool[i]
        bit = prefix[i] if i < len(prefix) else None
        if bit != 0:
            explored += 1
            if _free_for_all(Hypergraph(r, n, acc + [e]), residues):
                acc.append(e)
                dfs(i + 1, acc)
                acc.pop()
        if bit != 1:
            dfs(i + 1, acc)

    dfs(0, [])
    return best, witnesses, explored


def _vertex_invariants(n: int, edges) -> tuple:
    """Iterated degree profile, refined until the partition stabilizes."""
    inv = tuple(sum(v in e for e in edges) for v in range(n))
    while True:
        nxt = tuple(
            (inv[v], tuple(sorted(tuple(sorted(inv[u] for u in e if u != v)) for e in edges if v in e)))
        for v in range(n))
        if len(set(nxt)) == len(set(inv)):
            return inv
        inv = nxt


def _canonical_form(n: int, edges) -> tuple[Edge, ...]:
    """Least relabeling of the edge set over invariant-respecting bijections."""
    inv = _vertex_invariants(n, edges)
    classes: dict = {}
    for v in range(n):
        classes.setdefault(inv[v], []).append(v)
    ordered = [classes[key] for key in sorted(classes)]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in ordered)):
        relabel = {}
        pos = 0
        for arrangement in parts:
            for v in arrangement:
                relabel[v] = pos
                pos += 1
        img = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in edges))
        if best is None or img < best:
            best = img
    return best


def _search_canonical(n: int, r: int, residues) -> tuple[int, list[tuple[Edge, ...]], int]:
    pool = _colex_edges(n, r)
    level: set[tuple[Edge, ...]] = {()}
    depth = 0
    explored = 0
    while True:
        nxt: set[tuple[Edge, ...]] = set()
        for rep in level:
            have = set(rep)
            for e in pool:
                if e in have:
                    continue
                explored += 1
                cand = sorted(have | {e})
                if _free_for_all(Hypergraph(r, n, cand), residues):
                    nxt.add(_canonical_form(n, cand))
        if not nxt:
            return depth, sorted(level), explored
        level = nxt
        depth += 1


def brute_force_ex_hom(
    n: int,
    r: int,
    residues,
    budget: int = 20,
    canonical: bool = False,
    jobs: int = 1,
) -> SearchResult:
    """Largest hom-free edge count on ``n`` vertices, with all extremal witnesses.

    The plain search walks an include/exclude tree over the colex edge order,
    pruning a branch as soon as one added edge breaks hom-freeness for some
    residue (supergraphs cannot recover) or the branch cannot tie the best
    found. ``budget`` caps the pool size for the plain search; ``canonical``
    switches to a level-by-level scan of isomorphism classes instead, capped
    at n <= 8 and always single-process. With ``jobs`` > 1 the plain tree is
    split on the first two edges and searched in parallel by at most one
    worker per subtree and per CPU; the merged result is independent of the
    split. Witnesses come sorted by their sorted edge tuples.

    Raises BudgetExceededError (carrying a greedy lower bound) when the cap
    is exceeded, ValueError for bad arguments or an arity above MAX_ARITY
    (every candidate closes a connection group inside S_r), before any work.
    """
    if n < 0 or r < 1:
        raise ValueError(f"bad search domain n={n}, r={r}")
    if r > MAX_ARITY:
        raise ValueError(f"search arity {r} exceeds {MAX_ARITY}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    ks = frozenset(k % r for k in residues)
    if not ks:
        raise ValueError("need at least one residue")
    pool = _colex_edges(n, r)
    if canonical:
        if n > 8:
            kept, seen = _greedy_pack(n, r, ks, pool)
            raise BudgetExceededError(
                f"canonical search is capped at 8 vertices, got {n}",
                len(kept), Hypergraph(r, n, kept), seen,
            )
        max_edges, forms, explored = _search_canonical(n, r, ks)
        witnesses = tuple(Hypergraph(r, n, form) for form in forms)
        return SearchResult(n, r, ks, max_edges, witnesses, explored, True, True)
    if len(pool) > budget:
        kept, seen = _greedy_pack(n, r, ks, pool)
        raise BudgetExceededError(
            f"pool of {len(pool)} edges exceeds budget {budget}",
            len(kept), Hypergraph(r, n, kept), seen,
        )
    width = min(2, len(pool))
    tasks = [(n, r, ks, bits) for bits in itertools.product((0, 1), repeat=width)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as procs:
            outcomes = procs.map(_search_subtree, tasks)
    else:
        outcomes = [_search_subtree(t) for t in tasks]
    best = max(b for b, _, _ in outcomes)
    explored = sum(seen for _, _, seen in outcomes)
    tying = sorted(tuple(sorted(w)) for _, ws, _ in outcomes for w in ws if len(w) == best)
    witnesses = tuple(Hypergraph(r, n, w) for w in tying)
    return SearchResult(n, r, ks, best, witnesses, explored, False, True)


# ---------------------------------------------------------------------------
# degree and codegree cleanup


def min_degree_refine(g: Hypergraph, c, eps) -> tuple[frozenset[int], tuple[int, ...]]:
    """Greedily drop vertices of low degree until the rest are well connected.

    While some vertex v of the surviving set S has fewer than
    (c - eps) * (|S|-1)^(r-1) / (r-1)! edges inside S, remove the least such
    v. On dense enough input the survivors keep degree above the threshold at
    the original scale; on sparse input the cascade may empty S entirely.
    Returns (survivors, removal order).
    """
    c = as_fraction(c)
    eps = as_fraction(eps)
    if not 0 < c <= 1:
        raise ValueError(f"density c must lie in (0, 1], got {c}")
    if not 0 < eps < c:
        raise ValueError(f"eps must lie in (0, c), got {eps}")
    coeff = (c - eps) / math.factorial(g.r - 1)
    live = set(range(g.n))
    removed: list[int] = []
    degree: Counter = Counter()
    for e in g.edges:
        for v in e:
            degree[v] += 1
    while live:
        threshold = coeff * (len(live) - 1) ** (g.r - 1)
        victim = next((v for v in sorted(live) if degree[v] <= threshold), None)
        if victim is None:
            break
        live.discard(victim)
        removed.append(victim)
        for e in g.edges:
            if victim in e and all(u in live or u == victim for u in e):
                for u in e:
                    if u != victim:
                        degree[u] -= 1
    return frozenset(live), tuple(removed)


def prune_low_codegree(g: Hypergraph, eps) -> tuple[Hypergraph, int]:
    """Delete edges through weak (r-1)-sets until every codegree exceeds eps*n.

    Iterates to a fixpoint: each pass finds the (r-1)-subsets covered by at
    most eps*n edges and removes every edge containing one. Returns the
    surviving hypergraph and the number of deleted edges; the total loss is
    at most eps * n * C(n, r-1) across all passes.
    """
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    threshold = eps * g.n
    deleted = 0
    while True:
        doomed = {
            e for e in g.edges
            if any(len(g.completions(e[:i] + e[i + 1 :])) <= threshold for i in range(g.r))
        }
        if not doomed:
            return g, deleted
        deleted += len(doomed)
        g = Hypergraph(g.r, g.n, (e for e in g.edges if e not in doomed))


def _reverse_walk_distances(g: Hypergraph, target) -> dict:
    """Least stretch of a tight walk into ``target`` from each (window, residue)."""
    # a tight walk read backwards is a tight walk
    return {(y[::-1], m): d for (y, m), d in walk_distances(g, tuple(target)[::-1]).items()}


def verify_short_connection_bound(g: Hypergraph, eps) -> bool:
    """Check that codegree-pruned graphs connect quickly along tight walks.

    For every ordered pair of oriented edges in a common plain component the
    least walk stretch divisible by r, counted in r-steps, must be at most
    (2r + 1) / eps^r. The input must already be a codegree fixpoint at this
    eps, else ValueError. Components whose two one-sided eccentricities from
    the least window already fit under the bound are accepted without the
    quadratic pass.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _, lost = prune_low_codegree(g, eps)
    if lost:
        raise ValueError("input is not codegree-pruned at this eps")
    if not g.edges:
        return True
    bound = Fraction(2 * g.r + 1, 1) / eps**g.r
    seen: set = set()
    for rep in oriented_edges(g):
        if rep in seen:
            continue
        # a walk of stretch r replaces every slot once in place, and one in-place
        # replacement is such a walk: residue 0 reaches exactly rep's plain component
        fwd = walk_distances(g, rep)
        comp = [y for y, m in fwd if m == 0]
        seen.update(comp)
        rev = _reverse_walk_distances(g, rep)
        ecc_out = max(Fraction(fwd[(y, 0)], g.r) for y in comp)
        ecc_in = max(Fraction(rev[(y, 0)], g.r) for y in comp)
        if ecc_in + ecc_out <= bound:
            continue
        for y in comp:
            dist = walk_distances(g, y)
            if any(Fraction(dist[(z, 0)], g.r) > bound for z in comp):
                return False
    return True


def delete_to_residue_free(g: Hypergraph, length: int) -> tuple[Hypergraph, int]:
    """Remove few edges so no homomorphic cycle image of ``length``'s residue is left.

    Requires that ``g`` itself has no homomorphic image of the tight cycle on
    ``length`` vertices (ValueError otherwise). Codegree pruning at the least
    eps in 2^-32 Z with eps^r >= r(2r+1) / (length - length mod r) kills every
    closed walk residue equal to length mod r: a surviving closed walk could be
    pumped up to stretch exactly ``length`` through the short-connection
    bound. Deletes at most 2r * n^r / length^(1/r) edges; both the residue
    freeness and the deletion bound are checked before returning
    (RuntimeError otherwise).
    """
    r = g.r
    if length <= r:
        raise ValueError(f"cycle length {length} must exceed arity {r}")
    if contains_hom_cycle_of_length(g, length):
        raise ValueError(f"input already contains a homomorphic cycle image of length {length}")
    k = length % r
    # eps = a / 2^32 for the least a with a^r (length - k) >= r(2r+1) 2^(32r), from
    # Newton's integer r-th root (descending from above to the floor), rounded up
    need = -(-(r * (2 * r + 1) << 32 * r) // (length - k))
    a = 1 << (need.bit_length() // r + 1)
    while (b := ((r - 1) * a + need // a ** (r - 1)) // r) < a:
        a = b
    eps = Fraction(a + (a**r < need), 1 << 32)
    pruned, deleted = prune_low_codegree(g, eps)
    if not is_hom_free(pruned, k):
        raise RuntimeError(f"codegree pruning left a residue-{k} homomorphic cycle")
    # deleted <= 2r n^r / length^(1/r), raised to the r-th power to stay in integers
    if deleted**r * length > (2 * r * g.n**r) ** r:
        raise RuntimeError(f"deleted {deleted} edges, above the 2r n^r / length^(1/r) bound")
    return pruned, deleted


# ---------------------------------------------------------------------------
# eps-closeness to the odd bipartite comparison graph


@dataclass(frozen=True)
class EpsCloseReport:
    """Where a 4-graph with a chosen bipartition misses the odd-bipartite ideal.

    ``violations_1`` lists waypoint triples with too few extensions into the
    parity-correct side, ``violations_2`` pairs of the triple shadow with too
    few waypoint completions in a part, ``violations_3`` vertices whose
    shadow neighborhood misses too much of a part. The remark fields carry
    the relaxed whole-vertex-set thresholds, evaluated when the parts are
    balanced enough (3 * min part >= n).
    """

    epsilon: Fraction
    violations_1: tuple
    violations_2: tuple
    violations_3: tuple
    remark_applies: bool
    remark_violations_2: tuple
    remark_violations_3: tuple

    @property
    def is_close(self) -> bool:
        return not (self.violations_1 or self.violations_2 or self.violations_3)


def _check_waypoints(t: Hypergraph) -> None:
    if t.r != 3:
        raise ValueError(f"waypoints must form a 3-graph, got arity {t.r}")


def check_eps_close(g: Hypergraph, a_side, b_side, t: Hypergraph, eps) -> EpsCloseReport:
    """Audit how close ``g`` is to the odd bipartite 4-graph on (A, B) along ``t``.

    The parts must partition the vertex set and the waypoint 3-graph must
    live on it. Three conditions are checked exactly: every waypoint
    triple extends to at least a (1 - eps) share of the side that keeps the
    intersection with A odd; every shadow pair completes to waypoints in at
    least a (1 - eps) share of each part; every vertex reaches at least a
    (1 - eps) share of each part inside the shadow.
    """
    if g.r != 4:
        raise ValueError(f"closeness audit needs arity 4, got {g.r}")
    part_a = frozenset(a_side)
    part_b = frozenset(b_side)
    if part_a & part_b:
        raise ValueError("parts must be disjoint")
    if part_a | part_b != set(range(g.n)):
        raise ValueError("parts must cover the vertex set")
    _check_waypoints(t)
    if t.n != g.n:
        raise ValueError(f"triple family lives on {t.n} vertices, graph on {g.n}")
    eps = as_fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")

    bad_triples = []
    for tri in t.edges:
        side = part_b if len(part_a.intersection(tri)) % 2 else part_a
        # adding u from this side keeps |edge ∩ A| odd
        pool = side.difference(tri)
        if len(pool.intersection(g.completions(tri))) < (1 - eps) * len(pool):
            bad_triples.append(tri)

    pairs = shadow(t.edges)
    bad_pairs = []
    bad_pairs_remark = []
    for pair in sorted(pairs):
        thirds = t.completions(pair)
        for side, tag in ((part_a, "A"), (part_b, "B")):
            if len(side.intersection(thirds)) < (1 - eps) * len(side.difference(pair)):
                bad_pairs.append((pair, tag))
        if len(thirds) < (1 - eps / 3) * (g.n - 2):
            bad_pairs_remark.append(pair)

    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for x, y in pairs:
        adj[x].add(y)
        adj[y].add(x)
    bad_vertices = []
    bad_vertices_remark = []
    for v in range(g.n):
        for side, tag in ((part_a, "A"), (part_b, "B")):
            if len(adj[v] & side) < (1 - eps) * len(side - {v}):
                bad_vertices.append((v, tag))
        if len(adj[v]) < (1 - eps / 3) * (g.n - 1):
            bad_vertices_remark.append(v)

    return EpsCloseReport(
        epsilon=eps,
        violations_1=tuple(bad_triples),
        violations_2=tuple(bad_pairs),
        violations_3=tuple(bad_vertices),
        remark_applies=3 * min(len(part_a), len(part_b)) >= g.n,
        remark_violations_2=tuple(bad_pairs_remark),
        remark_violations_3=tuple(bad_vertices_remark),
    )


def refine_triple_set(t: Hypergraph, alpha, eps, delta) -> tuple[frozenset[int], Hypergraph]:
    """Trim a dense triple family (a 3-graph) to one with uniformly spread degrees.

    From a family of at least (alpha - eps) n^3 / 6 triples whose pair
    degrees never exceed alpha * n, keep the vertices of near-average triple
    degree, then drop every triple using a pair that became poor. Needs
    delta <= min(eps^(1/4), 8 alpha) and n >= 1 / (delta (1 - delta)).

    The returned family satisfies, and this function checks (RuntimeError
    otherwise): the vertex set keeps at least (1 - delta^2) n vertices, every
    surviving shadow pair has degree at least (alpha - 7 delta) n, and every
    surviving vertex has shadow degree at least (1 - 4 delta) n.
    """
    alpha = as_fraction(alpha)
    eps = as_fraction(eps)
    delta = as_fraction(delta)
    _check_waypoints(t)
    n = t.n
    if not 0 < alpha <= 1 or not 0 < eps <= 1:
        raise ValueError("alpha and eps must lie in (0, 1]")
    if delta <= 0 or delta**4 > eps or delta > 8 * alpha:
        raise ValueError(f"delta {delta} out of range for eps {eps}, alpha {alpha}")
    if delta >= 1 or delta * (1 - delta) * n < 1:
        raise ValueError(f"{n} vertices is too small for delta {delta}")
    if 6 * len(t.edges) < (alpha - eps) * n**3:
        raise ValueError("triple family too sparse for these constants")
    if any(len(t.completions(pair)) > alpha * n for pair in shadow(t.edges)):
        raise ValueError(f"a pair degree exceeds alpha * n = {alpha * n}")
    vertex_deg = Counter(v for tri in t.edges for v in tri)

    keep = frozenset(v for v in range(n) if vertex_deg[v] >= (alpha - delta**2) * n**2 / 2)
    inner = Hypergraph(3, n, (tri for tri in t.edges if keep.issuperset(tri)))
    poor = {
        pair for pair in itertools.combinations(sorted(keep), 2)
        if len(inner.completions(pair)) < (alpha - delta) * n
    }
    refined = Hypergraph(
        3, n, (tri for tri in inner.edges if poor.isdisjoint(itertools.combinations(tri, 2)))
    )

    if len(keep) < (1 - delta**2) * n:
        raise RuntimeError(f"kept {len(keep)} vertices, below (1 - delta^2) n")
    final_pairs = shadow(refined.edges)
    final_adj: dict[int, set[int]] = {v: set() for v in keep}
    for u, v in final_pairs:
        final_adj[u].add(v)
        final_adj[v].add(u)
    if any(len(refined.completions(pair)) < (alpha - 7 * delta) * n for pair in final_pairs):
        raise RuntimeError("a surviving shadow pair has degree below (alpha - 7 delta) n")
    if any(len(final_adj[v]) < (1 - 4 * delta) * n for v in keep):
        raise RuntimeError("a surviving vertex has shadow degree below (1 - 4 delta) n")
    return keep, refined


# ---------------------------------------------------------------------------
# walks through a triple family


def build_walk_through_T(
    g: Hypergraph,
    a_side,
    b_side,
    t: Hypergraph,
    eps,
    endpoints,
    pattern,
) -> WalkWitness | None:
    """Build a tight walk between two waypoint triples along a side pattern.

    ``pattern`` prescribes the intermediate positions between the three-vertex
    endpoints: each entry is the label "A" or "B" (any vertex of that part)
    or an explicit vertex. The walk starts with the first endpoint triple in
    the given order, ends with the second, and every intermediate position up
    to the final three must close a waypoint triple with its two
    predecessors; the last three are bridged by the edge checks alone.

    Preconditions (ValueError): eps <= 1/10 and the closeness audit of
    (g, A, B, t) passes at this eps; both endpoint triples are waypoints;
    the pattern has at least six entries; every four-window of labels with no
    explicit vertex has an odd count of "A" entries, since such windows must
    be realizable in the odd bipartite comparison graph. Windows touching
    explicit vertices are settled against the actual edge set during the
    search. Returns the least walk in position-by-position vertex order, or
    None when the search exhausts.
    """
    eps = as_fraction(eps)
    if eps > Fraction(1, 10):
        raise ValueError(f"eps must be at most 1/10, got {eps}")
    report = check_eps_close(g, a_side, b_side, t, eps)
    if not report.is_close:
        raise ValueError("graph is not eps-close to odd bipartite along these triples")
    start, end = endpoints
    start = tuple(start)
    end = tuple(end)
    if not (t.has_edge(start) and t.has_edge(end)):
        raise ValueError("both endpoint triples must belong to the waypoint family")
    tokens = list(pattern)
    if len(tokens) < 6:
        raise ValueError(f"pattern needs at least 6 positions, got {len(tokens)}")
    for tok in tokens:
        if tok in ("A", "B"):
            continue
        if not isinstance(tok, int) or not 0 <= tok < g.n:
            raise ValueError(f"pattern entry {tok!r} is neither a side label nor a vertex")

    total = 6 + len(tokens)
    full_tokens = list(start) + tokens + list(end)
    for i in range(3, total):
        window = full_tokens[i - 3 : i + 1]
        if all(tok in ("A", "B") for tok in window):
            if window.count("A") % 2 == 0:
                raise ValueError(f"label window {tuple(window)} has even A-count")

    pools = {"A": sorted(set(a_side)), "B": sorted(set(b_side))}
    seq: list = list(start) + [None] * len(tokens) + list(end)
    last_waypoint = total - 7

    def admissible(i: int) -> bool:
        window = seq[i - 3 : i + 1]
        if len(set(window)) != 4 or not g.has_edge(window):
            return False
        return not (3 <= i <= last_waypoint) or t.has_edge(seq[i - 2 : i + 1])

    def search(i: int):
        if i == total - 3:
            if all(admissible(j) for j in range(total - 3, total)):
                return tuple(seq)
            return None
        tok = tokens[i - 3]
        for v in pools[tok] if tok in pools else (tok,):
            seq[i] = v
            if admissible(i):
                found = search(i + 1)
                if found is not None:
                    return found
        seq[i] = None
        return None

    vertices = search(3)
    if vertices is None:
        return None
    witness = WalkWitness(vertices=vertices, stretch=total - g.r)
    if not is_valid_walk(g, witness.vertices):
        raise RuntimeError(f"routed sequence {vertices!r} is not a tight walk")
    return witness
