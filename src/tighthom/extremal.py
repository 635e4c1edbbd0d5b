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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .census import as_fraction
from .hypergraph import Hypergraph, shadow
from .permgroup import MAX_ARITY, cyc, perm_power
from .tightconn import (
    WalkWitness,
    component_index,
    contains_hom_cycle_of_length,
    is_hom_free,
    is_valid_walk,
    join_edge,
    oriented_edges,
    walk_distances,
)

Edge = tuple[int, ...]


# ---------------------------------------------------------------------------
# exhaustive search

# The largest pool a plain search walks.  The include/exclude tree grows about
# exponentially in the pool (single runs at k = 1 on a 2-core x86_64 machine,
# Python 3.11): pool 20 (n = 6, r = 3) 0.14 s; pool 21 0.11 s at r = 2 and
# 0.27 s at r = 5; pool 28 1.1 s at r = 2 and 4.5 s at r = 6; pool 35 27 s at
# r = 3 and 93 s at r = 4.  The demos and bench search plain pools of at most
# 15 edges, the tests of at most 21 (n = 7, r = 2).
SEARCH_MAX_PLAIN_POOL = 28

# The most vertices a canonical search takes, so its pool has at most C(8, 4) =
# 70 edges at r = 4.  Its levels hold every isomorphism class of hom-free
# graphs: n = 7 at r = 4 (a 35-edge pool) took 586 s.
SEARCH_MAX_CANONICAL_N = 8


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


def _search_plain(n: int, r: int, pis, pool) -> tuple[int, list[tuple[Edge, ...]], int]:
    """Include/exclude DFS over the edge pool, searched to the leaves.

    A candidate is its hom-free parent plus one edge, decided by ``join_edge``
    from the parent's component index: only the components its faces touch
    merge.  An included edge grows the index that its subtree reads.

    The first min(2, |pool|) decisions are fixed in turn, and each of those
    subtrees is searched under its own bound, so each collects every tying
    leaf it sees; the merge keeps the overall maximum.  One shared bound
    would explore fewer candidates, but ``explored`` is pinned as it is.
    """
    explored = 0
    outcomes: list[tuple[int, list[tuple[Edge, ...]]]] = []

    # prefix, best and leaves belong to the subtree the loop below is searching
    def dfs(i: int, acc: list[Edge], index) -> None:
        nonlocal best, explored, leaves
        if len(acc) + (len(pool) - i) < best:
            return
        if i == len(pool):
            if len(acc) > best:
                best = len(acc)
                leaves = [tuple(acc)]
            elif len(acc) == best:
                leaves.append(tuple(acc))
            return
        e = pool[i]
        bit = prefix[i] if i < len(prefix) else None
        if bit != 0:
            explored += 1
            child = join_edge(index, e, pis, grow=True)
            if child is not None:
                acc.append(e)
                dfs(i + 1, acc, child)
                acc.pop()
        if bit != 1:
            dfs(i + 1, acc, index)

    for prefix in itertools.product((0, 1), repeat=min(2, len(pool))):
        best = -1
        leaves: list[tuple[Edge, ...]] = []
        dfs(0, [], ({}, {}))
        outcomes.append((best, leaves))
    best = max(b for b, _ in outcomes)
    tying = sorted(tuple(sorted(w)) for b, ws in outcomes if b == best for w in ws)
    return best, tying, explored


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


def _search_canonical(n: int, r: int, pis, pool) -> tuple[int, list[tuple[Edge, ...]], int]:
    """Level by level over isomorphism classes: each representative's component
    index decides its one-edge extensions, and a labeled extension that another
    representative already formed in this level is not formed again."""
    level: set[tuple[Edge, ...]] = {()}
    depth = 0
    explored = 0
    while True:
        nxt: set[tuple[Edge, ...]] = set()
        formed: set[tuple[Edge, ...]] = set()
        for rep in level:
            index = component_index(Hypergraph(r, n, rep))
            have = set(rep)
            for e in pool:
                if e in have:
                    continue
                explored += 1
                if join_edge(index, e, pis):
                    cand = tuple(sorted(have | {e}))
                    if cand not in formed:
                        formed.add(cand)
                        nxt.add(_canonical_form(n, cand))
        if not nxt:
            return depth, sorted(level), explored
        level = nxt
        depth += 1


def brute_force_ex_hom(n: int, r: int, residues, canonical: bool = False) -> SearchResult:
    """Largest hom-free edge count on ``n`` vertices, with all extremal witnesses.

    The plain search walks an include/exclude tree over the colex edge order,
    pruning a branch as soon as one added edge breaks hom-freeness for some
    residue (supergraphs cannot recover) or the branch cannot tie the best
    found; it takes pools of at most SEARCH_MAX_PLAIN_POOL edges. ``canonical``
    switches to a level-by-level scan of isomorphism classes instead, on at
    most SEARCH_MAX_CANONICAL_N vertices. Either runs in this process.
    Witnesses come sorted by their sorted edge tuples.

    Raises ValueError before any work for bad arguments, an arity above
    MAX_ARITY (every candidate closes a connection group inside S_r), or a
    size over the mode's cap.
    """
    if n < 0 or r < 1:
        raise ValueError(f"bad search domain n={n}, r={r}")
    if r > MAX_ARITY:
        raise ValueError(f"search arity {r} exceeds {MAX_ARITY}")
    ks = frozenset(k % r for k in residues)
    if not ks:
        raise ValueError("need at least one residue")
    if canonical and n > SEARCH_MAX_CANONICAL_N:
        raise ValueError(f"canonical search is capped at {SEARCH_MAX_CANONICAL_N} vertices, got {n}")
    if not canonical and (size := math.comb(n, r)) > SEARCH_MAX_PLAIN_POOL:
        raise ValueError(f"pool of {size} edges exceeds {SEARCH_MAX_PLAIN_POOL=}")
    pool = _colex_edges(n, r)
    search = _search_canonical if canonical else _search_plain
    max_edges, found, explored = search(n, r, [perm_power(cyc(r), k) for k in sorted(ks)], pool)
    witnesses = tuple(Hypergraph(r, n, edges) for edges in found)
    return SearchResult(n, r, ks, max_edges, witnesses, explored, canonical, True)


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

    # the shadow as a 2-graph: its pairs in order, and each vertex's links
    links = Hypergraph(2, g.n, shadow(t.edges))
    bad_pairs = []
    bad_pairs_remark = []
    for pair in links.edges:
        thirds = t.completions(pair)
        for side, tag in ((part_a, "A"), (part_b, "B")):
            if len(side.intersection(thirds)) < (1 - eps) * len(side.difference(pair)):
                bad_pairs.append((pair, tag))
        if len(thirds) < (1 - eps / 3) * (g.n - 2):
            bad_pairs_remark.append(pair)

    bad_vertices = []
    bad_vertices_remark = []
    for v in range(g.n):
        nbrs = links.completions((v,))
        for side, tag in ((part_a, "A"), (part_b, "B")):
            if len(side.intersection(nbrs)) < (1 - eps) * len(side - {v}):
                bad_vertices.append((v, tag))
        if len(nbrs) < (1 - eps / 3) * (g.n - 1):
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
    final_links = Hypergraph(2, n, shadow(refined.edges))
    if any(len(refined.completions(pair)) < (alpha - 7 * delta) * n for pair in final_links.edges):
        raise RuntimeError("a surviving shadow pair has degree below (alpha - 7 delta) n")
    if any(len(final_links.completions((v,))) < (1 - 4 * delta) * n for v in keep):
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

    The search is depth-first over positions 3 .. end; a position's candidates
    are the completions of its last three vertices in g's face index, ascending.
    The rest of the walk depends only on (position, last three vertices), so a
    state whose candidates all fail is never expanded again: the work is at
    most positions x states x candidates, not |pool|^positions.
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

    # without recursion, so the pattern length is not bounded by the interpreter's
    # stack; left[i] holds position i's untried candidates, dead the failed states
    sides = {"A": frozenset(a_side), "B": frozenset(b_side)}
    pools = [sides.get(tok, {tok}) for tok in full_tokens]
    seq = list(start) + [None] * (total - 3)
    left, dead = [None] * total, set()

    def candidates(i: int):
        a, b, c = seq[i - 3 : i]
        if (i, a, b, c) in dead:
            return iter(())
        return (
            v for v in g.completions(tuple(sorted((a, b, c))))
            if v in pools[i] and (i > total - 7 or t.has_edge((b, c, v)))
        )

    i = 3
    while 3 <= i < total:
        if left[i] is None:
            left[i] = candidates(i)
        seq[i] = next(left[i], None)
        if seq[i] is None:
            dead.add((i, *seq[i - 3 : i]))
            left[i] = None
            i -= 1
        else:
            i += 1
    if i < 3:
        return None
    vertices = tuple(seq)
    witness = WalkWitness(vertices=vertices, stretch=total - g.r)
    if not is_valid_walk(g, witness.vertices):
        raise RuntimeError(f"routed sequence {vertices!r} is not a tight walk")
    return witness
