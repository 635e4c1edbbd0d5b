"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is deliberately written from scratch against the definitions,
without importing package internals, so a bug in the package cannot hide in
its own oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque


# ---------------------------------------------------------------------------
# permutations and subgroups


def o_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def o_inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def o_apply(p, x):
    out = [None] * len(x)
    for j, v in enumerate(x):
        out[p[j]] = v
    return tuple(out)


def o_parity(p):
    """0 for an even permutation, 1 for an odd one, by counting inversions."""
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2)) % 2


def o_order(p):
    """The least e >= 1 with p^e the identity."""
    ident, power, e = tuple(range(len(p))), tuple(p), 1
    while power != ident:
        power, e = o_compose(p, power), e + 1
    return e


def o_conjugate(group, s):
    """The subgroup s . group . s^-1."""
    s_inv = o_inverse(s)
    return frozenset(o_compose(s, o_compose(h, s_inv)) for h in group)


def o_conjugators(small, big):
    """Every s, in lexicographic order, with s . small . s^-1 inside big."""
    r = len(next(iter(big)))
    big = set(big)
    return [
        s for s in itertools.permutations(range(r))
        if all(o_compose(s, o_compose(h, o_inverse(s))) in big for h in small)
    ]


def o_closure(gens):
    r = len(next(iter(gens)))
    members = {tuple(range(r))}
    frontier = [g for g in gens if g not in members]
    members.update(frontier)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(members):
                for c in (o_compose(a, b), o_compose(b, a)):
                    if c not in members:
                        members.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(members)


def o_greedy_generators(gens, start_gens=()):
    """``start_gens``, then each of ``gens`` not in the span of those kept before it."""
    kept = list(start_gens)
    span = o_closure(kept) if kept else {tuple(range(len(gens[0])))}
    for g in gens:
        if g not in span:
            kept.append(g)
            span = o_closure(kept)
    return kept


def brute_force_subgroups(r):
    """Every subgroup of the symmetric group on r slots, r <= 4.

    For r <= 4 every subgroup is generated by at most two elements, so closing
    all singletons and pairs is exhaustive.
    """
    if r > 4:
        raise ValueError("pair closure is only exhaustive for r <= 4")
    perms = list(itertools.permutations(range(r)))
    subs = set()
    for g in perms:
        subs.add(o_closure([g]))
    for g, h in itertools.combinations(perms, 2):
        subs.add(o_closure([g, h]))
    return subs


def bucket_by_conjugacy(subs, r):
    """Partition a set of subgroups into conjugacy classes (sets of frozensets)."""
    perms = list(itertools.permutations(range(r)))
    remaining = set(subs)
    classes = []
    while remaining:
        group = next(iter(remaining))
        orbit = {o_conjugate(group, s) for s in perms}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return classes


# ---------------------------------------------------------------------------
# tight walks, straight from the definition


def o_oriented_edges(edges):
    out = []
    for e in edges:
        out.extend(itertools.permutations(e))
    return out


def o_plain_component(edges, n, r, x):
    """Oriented edges reachable from x by replacing one vertex in place, by BFS."""
    edge_set = {frozenset(e) for e in edges}
    x = tuple(x)
    if frozenset(x) not in edge_set or len(set(x)) != r:
        raise ValueError("start is not an oriented edge")
    seen = {x}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        for i in range(r):
            for w in range(n):
                nxt = cur[:i] + (w,) + cur[i + 1 :]
                if w not in cur and frozenset(nxt) in edge_set and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def o_tight_components(edges, n, r):
    """The ~ classes as (representative, size, sorted edges, group), by representative.

    Plain components of all oriented edges are merged across the reorderings
    of each edge; the group of a class is every permutation keeping its least
    oriented edge inside that edge's own plain component.
    """
    perms = list(itertools.permutations(range(r)))
    plain = {}
    for x in sorted(o_oriented_edges(edges)):
        if x not in plain:
            comp = o_plain_component(edges, n, r, x)
            for y in comp:
                plain[y] = comp
    classes = []
    for x in sorted(plain):
        if any(x in members for members in classes):
            continue
        members = set(plain[x])
        grown = True
        while grown:
            grown = False
            for y in list(members):
                for p in perms:
                    z = o_apply(p, y)
                    if z not in members:
                        members |= plain[z]
                        grown = True
        classes.append(members)
    out = []
    for members in classes:
        rep = min(members)
        group = frozenset(p for p in perms if o_apply(p, rep) in plain[rep])
        supports = tuple(sorted({tuple(sorted(y)) for y in members}))
        out.append((rep, len(members), supports, group))
    return sorted(out)


def o_walk_levels(edges, n, r, start):
    """Level sets of tight-walk continuations from an oriented edge.

    levels[s] is the set of windows reachable by a walk of stretch s from
    ``start``.  Levels are extended until they stabilize: appending r vertices
    can always replay the last window's own entries (a rotation), so
    levels[s+r] >= levels[s] pointwise, and once levels repeat across r
    consecutive steps the dynamics are fixed forever.
    """
    edge_set = {frozenset(e) for e in edges}
    if frozenset(start) not in edge_set:
        raise ValueError("start is not an edge")

    def succs(window):
        out = []
        for v in range(n):
            if v in window[1:]:
                continue
            nxt = window[1:] + (v,)
            if frozenset(nxt) in edge_set:
                out.append(nxt)
        return out

    levels = [frozenset([start])]
    while True:
        cur = levels[-1]
        levels.append(frozenset(w for window in cur for w in succs(window)))
        if len(levels) > r and all(
            len(levels) - 1 - i >= r and levels[-1 - i] == levels[-1 - i - r]
            for i in range(r)
        ):
            break
        if not levels[-1]:
            break
    return levels


def o_min_closed_stretch(edges, n, r, k):
    """Least stretch of a closed tight walk with stretch = k (mod r), or None."""
    best = None
    for start in o_oriented_edges(edges):
        levels = o_walk_levels(edges, n, r, start)
        for s in range(1, len(levels)):
            if s % r == k % r and start in levels[s]:
                if best is None or s < best:
                    best = s
                break
    return best


def o_closed_stretch_upper_bound(edges, n, r, k):
    """Upper bound on the least closed stretch of residue k via replacement paths, or None.

    A path of d single-vertex replacements from x to its k-fold right
    rotation yields a closed tight walk of stretch r*d + k: consecutive
    windows of the path concatenate, and k extra vertices unwind the
    rotation.  Minimized over every oriented edge x by breadth-first search.
    """
    k %= r
    if not edges:
        return None
    if k == 0:
        return r
    edge_set = {frozenset(e) for e in edges}
    best = None
    for x in o_oriented_edges(edges):
        target = x[-k:] + x[:-k]
        dist = {x: 0}
        queue = deque([x])
        while queue and target not in dist:
            cur = queue.popleft()
            for i in range(r):
                for w in range(n):
                    nxt = cur[:i] + (w,) + cur[i + 1 :]
                    if w not in cur and frozenset(nxt) in edge_set and nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
        if target in dist and (best is None or r * dist[target] + k < best):
            best = r * dist[target] + k
    return best


def o_closed_walk_witness(edges, n, r, k):
    """Shortest closed tight walk of residue k as (stretch, vertices), or None.

    One unrestricted breadth-first search over (window, residue) tuples from
    every oriented edge in lexicographic order, successors by ascending
    appended vertex; a later start replaces the incumbent only when strictly
    shorter, so the answer is the first walk found from the least start that
    attains the minimum.  Residue 0 is the least edge run through twice.
    """
    edge_set = {frozenset(e) for e in edges}
    k %= r
    if not edges:
        return None
    if k == 0:
        first = min(tuple(sorted(e)) for e in edges)
        return r, first + first
    succs = {}
    for window in o_oriented_edges(edges):
        tail = window[1:]
        succs[window] = [v for v in range(n) if v not in tail and frozenset(tail + (v,)) in edge_set]
    best = None
    best_walk = None
    for x in sorted(succs):
        goal = (x, k)
        dist = {(x, 0): 0}
        parent = {}
        queue = deque([(x, 0)])
        while queue:
            state = queue.popleft()
            d = dist[state]
            if best is not None and d + 1 >= best:
                # nothing deeper can improve the incumbent
                continue
            window, residue = state
            for v in succs[window]:
                nxt = (window[1:] + (v,), (residue + 1) % r)
                if nxt not in dist:
                    dist[nxt] = d + 1
                    parent[nxt] = (state, v)
                    queue.append(nxt)
        if goal in dist and (best is None or dist[goal] < best):
            best = dist[goal]
            appended = []
            state = goal
            while state != (x, 0):
                state, v = parent[state]
                appended.append(v)
            best_walk = x + tuple(reversed(appended))
    return None if best is None else (best, best_walk)


def o_reachable_stretches(levels, r, y, cap):
    """All stretches s <= cap of tight walks to window y, given the start's levels.

    ``levels`` is ``o_walk_levels(edges, n, r, x)`` for the start window x.
    """
    out = set()
    for s in range(min(cap, len(levels) - 1) + 1):
        if s < len(levels) and y in levels[s]:
            out.add(s)
    # replay periodicity: if y is reachable at s, also at s + r while capped
    grow = True
    while grow:
        grow = False
        for s in sorted(out):
            if s + r <= cap and s + r not in out:
                if s + r < len(levels) and y in levels[s + r]:
                    out.add(s + r)
                    grow = True
    return out


# ---------------------------------------------------------------------------
# bipartite-style residue oracle for graphs (r = 2)


def o_graph_odd_closed_walk(edges, n):
    """True iff some component of a 2-graph has an odd closed walk (is non-bipartite)."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    color = {}
    for s in range(n):
        if s in color or not adj[s]:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    q.append(w)
                elif color[w] == color[u]:
                    return True
    return False


def o_prune_low_codegree(edges, r, threshold):
    """Codegree pruning by counting: each pass counts every (r-1)-subset of the
    surviving edges and drops each edge holding one covered at most
    ``threshold`` (that is, eps * n) times. Returns (sorted survivors, deleted
    count).
    """
    live = {tuple(sorted(e)) for e in edges}
    deleted = 0
    while True:
        codeg = Counter(sub for e in live for sub in itertools.combinations(e, r - 1))
        weak = {sub for sub, d in codeg.items() if d <= threshold}
        doomed = {e for e in live if any(sub in weak for sub in itertools.combinations(e, r - 1))}
        if not doomed:
            return tuple(sorted(live)), deleted
        live -= doomed
        deleted += len(doomed)


def o_max_hom_free(n, r, residues):
    """Unpruned search: every subset of edges, checked independently.

    Returns (max_edges, sorted tuple of all extremal edge sets).
    """
    from tighthom.hypergraph import Hypergraph
    from tighthom.tightconn import is_hom_free

    pool = sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])
    best, winners = 0, []
    for mask in range(1 << len(pool)):
        edges = tuple(e for i, e in enumerate(pool) if mask >> i & 1)
        g = Hypergraph(r, n, edges)
        if all(is_hom_free(g, k) for k in residues):
            if len(edges) > best:
                best, winners = len(edges), [edges]
            elif len(edges) == best:
                winners.append(edges)
    return best, tuple(sorted(tuple(sorted(w)) for w in winners))


def o_vertex_invariants(n, edges):
    """Iterated degree profile, refined until the partition stabilizes."""
    inv = tuple(sum(v in e for e in edges) for v in range(n))
    while True:
        nxt = tuple(
            (inv[v], tuple(sorted(tuple(sorted(inv[u] for u in e if u != v)) for e in edges if v in e)))
        for v in range(n))
        if len(set(nxt)) == len(set(inv)):
            return inv
        inv = nxt


def o_canonical_form(n, edges):
    """Least relabeling of the edge set over invariant-respecting bijections,
    each image sorted as tuples of tuples and compared directly."""
    inv = o_vertex_invariants(n, edges)
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


# ---------------------------------------------------------------------------
# tight walks through a waypoint triple family


def o_walk_through(edges, triples, a_side, b_side, endpoints, pattern):
    """Least routed walk by trying every sequence: start, pattern, end.

    Each pattern entry "A" or "B" ranges over that part, in ascending order,
    and any other entry is that one vertex.  A sequence counts when every
    4-window is four distinct vertices forming an edge and every position
    3 .. len - 7 closes a waypoint triple with its two predecessors.  Returns
    the lexicographically least such sequence, or None.
    """
    edge_set = {frozenset(e) for e in edges}
    triple_set = {frozenset(tri) for tri in triples}
    sides = {"A": sorted(a_side), "B": sorted(b_side)}
    start, end = endpoints
    choices = [(v,) for v in start] + [sides.get(tok, (tok,)) for tok in pattern] + [(v,) for v in end]
    total = len(choices)
    for seq in itertools.product(*choices):
        windows = (seq[i - 3 : i + 1] for i in range(3, total))
        if not all(len(set(w)) == 4 and frozenset(w) in edge_set for w in windows):
            continue
        if all(frozenset(seq[i - 2 : i + 1]) in triple_set for i in range(3, total - 6)):
            return seq
    return None


# ---------------------------------------------------------------------------
# accordant colorings


def o_accordant(edges, r, color_of):
    """Do all oriented edges one vertex replacement apart get equal colors?

    Tries every orientation of every edge against every other edge sharing
    r - 1 of its vertices, found by scanning the edge list; ``color_of`` gives
    the color of an oriented edge.
    """
    for e in edges:
        for x in itertools.permutations(e):
            cx, sx = color_of(x), set(x)
            for f in edges:
                if len(sx & set(f)) != r - 1:
                    continue
                (w,) = set(f) - sx
                i = next(i for i, v in enumerate(x) if v not in f)
                if color_of(x[:i] + (w,) + x[i + 1 :]) != cx:
                    return False
    return True


# ---------------------------------------------------------------------------
# triangle census of four-tag pair colorings


def o_triangle_counts(n, colors):
    """(green triangles, purple 3-cycles, cherries) by classifying every triple.

    ``colors`` maps each pair (u, v), u < v, to ("blue",), ("green",),
    ("red", tail, head) or ("purple", tail, head). A cherry is a blue base
    whose two endpoints both point red at the third vertex.
    """
    tg = tp = tc = 0
    for x, y, z in itertools.combinations(range(n), 3):
        vals = {frozenset(p): colors[p] for p in ((x, y), (x, z), (y, z))}
        if all(v == ("green",) for v in vals.values()):
            tg += 1
        if all(v[0] == "purple" for v in vals.values()):
            heads = [v[2] for v in vals.values()]
            if sorted(heads) == [x, y, z]:  # each vertex entered once
                tp += 1
        for apex in (x, y, z):
            base = tuple(v for v in (x, y, z) if v != apex)
            if vals[frozenset(base)] == ("blue",) and all(
                vals[frozenset((b, apex))] == ("red", b, apex) for b in base
            ):
                tc += 1
    return tg, tp, tc


# ---------------------------------------------------------------------------
# oddly bipartite edge counts


def o_e_opt(n):
    """Best C(a,3)*b + a*C(b,3) over every split a + b = n with a >= b, and its splits."""
    counts = {
        (a, n - a): math.comb(a, 3) * (n - a) + a * math.comb(n - a, 3)
        for a in range(n - n // 2, n + 1)
    }
    top = max(counts.values(), default=0)
    return top, sorted(k for k, v in counts.items() if v == top)
