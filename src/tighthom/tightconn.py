"""Tight components, their connection groups, and homomorphic-cycle detection.

An oriented edge is an edge with an ordering of its vertices.  Two oriented
edges are adjacent when one arises from the other by replacing a single
vertex (keeping positions); "plain components" are the classes of that walk
relation.  The coarser relation ~ also identifies an oriented edge with its
reorderings, so a ~ class is a component of the graph on unordered edges
that share r-1 vertices.  Its connection group holds the permutations whose
action on the representative stays in the representative's plain component.

One depth-first search over that edge graph, read as a gain graph, yields
both.  Each edge ``e`` gets a potential ``pot[e]`` with
``apply_to_tuple(pot[e], e)`` in the root's plain component (the root is the
representative, with the identity); replacing one vertex of that orientation
gives the potential of a new neighbour.  A step onto an edge that already has
a potential closes a cycle and yields a Schreier generator; these generate
the connection group ``tc``, and the orientations of ``e`` in the plain
component are the coset ``tc . pot[e]`` (Gross & Tucker, Topological Graph
Theory; Seress, Permutation Group Algorithms).  A step that puts into slot i a
vertex of rank j among the other r - 1 moves the potential by one of r^2 fixed
slot moves (``_slot_moves``, a ``right_mul`` per (i, j) and arity), and a closed
cycle's generator is one getter, kept per edge, of the inverse potential; the
potentials and generators are those of sorting and reordering the new edge.

A graph plus one edge ``e`` needs no new search (``join_edge``).  Each edge
keeps its potential and its class's group with the generators ``_close``
kept.  Each neighbour of ``e`` through a face proposes a potential for ``e``
by a slot move in reverse, and the first proposal fixes it.  Another from the
same class closes a cycle and adds one generator.  One from another class
merges that class, whose potentials and generators move by the step between
the two proposals.  The first class's group grows by cosets, so only the
touched classes are read.

A tight walk of stretch s appends s vertices to a start window, every
intermediate width-r window being an edge with distinct vertices.  Closed
walks (first window = last window) of stretch s = k (mod r) are exactly what
homomorphic images of long cycles with residue k unroll to, so hom-freeness
for a residue family reduces to connection groups.  Walks run over states
(window i, stretch mod r), window i being the i-th oriented edge in
lexicographic order, along one successor table of window indices kept on the
graph.  Every rotation of a closed walk is one, so the search from each start
window enters no earlier window (Johnson, SIAM J. Comput. 4, 1975), and the
witness is the first walk found from the least start attaining the minimum.
The starts are searched in ascending blocks of ``_BLOCK``, each block as one
breadth-first search over bitsets of starts (multi-source BFS: Then et al.,
"The More the Merrier", PVLDB 8(4), 2014); the winning start's own search,
``_walk_bfs``, is then replayed for its walk.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .hypergraph import Edge, Hypergraph
from .permgroup import (
    Perm, _close, apply_to_tuple, avoids, closure, compose, cyc, embeds_in, identity, inverse,
    minimal_generators, perm_power, reorder_perm, right_mul,
)

Oriented = tuple[int, ...]
_BLOCK = 256  # start windows per bit-parallel closed-walk search


def oriented_edges(g: Hypergraph) -> list[Oriented]:
    """All orderings of all edges, lexicographically sorted."""
    return sorted(x for e in g.edges for x in itertools.permutations(e))


@dataclass(frozen=True)
class TightComponent:
    """A ~ class: its edges with their potentials, and its connection group.

    ``potentials`` pairs each sorted edge of the class with a permutation
    ``p`` such that ``apply_to_tuple(p, edge)`` lies in the plain component
    of ``representative``, the least edge of the class; pairs are sorted by
    edge.  ``tc`` is the connection group of the representative.
    """

    representative: Oriented
    potentials: tuple[tuple[Edge, Perm], ...]
    tc: frozenset[Perm]

    @property
    def size(self) -> int:
        """Number of oriented edges in the class."""
        return math.factorial(len(self.representative)) * len(self.potentials)

    def edge_supports(self) -> tuple[Edge, ...]:
        return tuple(e for e, _ in self.potentials)


@lru_cache(maxsize=None)
def _slot_moves(r: int):
    """``moves[i][j](pe)`` is ``compose(pe, reorder_perm(f, y))`` when ``y`` puts into
    slot ``i`` of a sorted edge a vertex of rank ``j`` among the ``r - 1`` others,
    and ``f`` is ``y`` sorted: the vertex sits at ``j`` of ``f``, the others in order."""
    slots = [[t if t < i else t + 1 for t in range(r - 1)] for i in range(r)]  # the others' in y
    return [[right_mul(s[:j] + [i] + s[j:]) for j in range(r)] for i, s in enumerate(slots)]


def _gain_components(g: Hypergraph) -> tuple[TightComponent, ...]:
    ident = identity(g.r)
    moves = _slot_moves(g.r)
    completions = g.completions
    inv_of = {}  # per reached edge, the getter composing with its inverse potential
    out = []
    for root in g.edges:
        if root in inv_of:
            continue
        inv_of[root] = right_mul(ident)
        reached = [(root, ident)]
        gens = {ident}
        stack = [(root, ident)]
        while stack:
            e, pe = stack.pop()
            for i, v in enumerate(e):
                face = e[:i] + e[i + 1 :]
                row = moves[i]
                for w in completions(face):
                    if w == v:
                        continue
                    j = bisect_left(face, w)
                    f = face[:j] + (w,) + face[j:]
                    q = row[j](pe)
                    inv = inv_of.get(f)
                    if inv is None:
                        inv_of[f] = right_mul(inverse(q))
                        reached.append((f, q))
                        stack.append((f, q))
                    else:
                        # a closed cycle: its voltage lies in the connection group
                        gens.add(inv(q))
        out.append(TightComponent(root, tuple(sorted(reached)), closure(gens)))
    return tuple(out)


def tight_components(g: Hypergraph) -> tuple[TightComponent, ...]:
    """The ~ classes with their connection groups, by representative; kept on ``g``."""
    if g._components is None:
        object.__setattr__(g, "_components", _gain_components(g))
    return g._components


def plain_component(g: Hypergraph, x: Oriented) -> frozenset[Oriented]:
    """All oriented edges reachable from x by single-vertex replacements."""
    x = tuple(x)
    if not g.has_edge(x) or len(set(x)) != g.r:
        raise ValueError(f"{x!r} is not an oriented edge")
    e = tuple(sorted(x))
    comp, pe = next((c, p) for c in tight_components(g) for f, p in c.potentials if f == e)
    # x is the image under u of the orientation of e inside the representative's
    # plain component, so its own plain component is that component moved by u
    u = compose(reorder_perm(e, x), inverse(pe))
    return frozenset(
        apply_to_tuple(compose(u, compose(h, pf)), f)
        for f, pf in comp.potentials
        for h in comp.tc
    )


def is_hom_free(g: Hypergraph, k: int) -> bool:
    """No homomorphic cycle image with stretch residue ``k`` exists.

    Residue 0 means cycles of length divisible by the arity; any edge at all
    admits those, so only the edgeless graph qualifies.  Other residues reduce
    to every connection group avoiding the k-th power of the rotation.
    """
    k %= g.r
    if k == 0:
        return not g.edges
    pi = perm_power(cyc(g.r), k)
    return all(avoids(c.tc, pi) for c in tight_components(g))


def component_index(g: Hypergraph) -> tuple[dict, dict]:
    """``g``'s face index, and per edge its potential and its class's group and
    generators, read off ``tight_components``: what ``join_edge`` reads."""
    faces = {(face := f[:i] + f[i + 1 :]): g.completions(face) for f in g.edges for i in range(g.r)}
    entries = {}
    for c in tight_components(g):
        comp = (c.tc, minimal_generators(c.tc))
        entries.update((f, (pf, comp)) for f, pf in c.potentials)
    return faces, entries


def join_edge(index, e: Edge, pis, grow: bool = False):
    """Is ``g + e`` free of every ``pi`` in ``pis``, given the index of a free ``g``?

    The index is ``component_index(g)`` or one this grew.  The classes that
    meet a face of ``e`` merge into the first one met.  None when the merged
    group is S_r or meets a ``pi``'s cycle type (residue 0's identity always
    does); else True, or with ``grow`` the index of ``g + e``.
    """
    faces, entries = index
    r = len(e)
    ident = identity(r)
    moves = _slot_moves(r)
    base, q0 = None, ident
    moved = {}  # id(class) -> t moving its potentials into base's frame (None: base)
    gens = []
    for i in range(r):
        face = e[:i] + e[i + 1 :]
        for w in faces.get(face, ()):
            j = bisect_left(face, w)
            pf, comp = entries[face[:j] + (w,) + face[j:]]
            q = moves[j][i](pf)  # e's potential seen from that neighbour
            if base is None:
                base, q0, back = comp, q, right_mul(inverse(q))
                moved[id(comp)] = None
            elif (key := id(comp)) in moved:
                t = moved[key]
                gens.append(back(q if t is None else compose(t, q)))  # a closed cycle
            else:
                t = moved[key] = compose(q0, inverse(q))
                t_inv = inverse(t)
                gens.extend(compose(t, compose(h, t_inv)) for h in comp[1])
    if base is None:
        group, kept = {ident}, []
    else:
        group, kept = _close(ident, gens, right_mul, math.factorial(r) // 2, *base)
    if base is not None and len(kept) == len(base[1]):
        comp = base  # no new generator, and g is free
    elif group is None or not all(avoids(group, pi) for pi in pis):
        return None
    else:
        comp = (group, kept)
    if not grow:
        return True
    grown = dict(faces)
    for i, v in enumerate(e):
        face = e[:i] + e[i + 1 :]
        grown[face] = tuple(sorted((*faces.get(face, ()), v)))
    child = dict(entries)
    for f, (pf, c) in entries.items():
        if (key := id(c)) in moved:
            t = moved[key]
            child[f] = (pf if t is None else compose(t, pf), comp)
    child[e] = (q0, comp)
    return grown, child


def _walk_table(g: Hypergraph) -> tuple[list[Oriented], list[list[int]]]:
    """The windows and, per window, its successor windows' indices; kept on ``g``.

    The successors of ``x`` are the windows that begin with ``x[1:]``: in the
    sorted window list they sit together, by ascending last vertex.
    """
    if g._walks is None:
        windows = oriented_edges(g)
        extensions = {}
        for i, x in enumerate(windows):
            extensions.setdefault(x[:-1], []).append(i)
        object.__setattr__(g, "_walks", (windows, [extensions[x[1:]] for x in windows]))
    return g._walks


def _walk_bfs(succ, r: int, start: int, floor: int = 0, goal: int = -1) -> dict[int, int]:
    """Parents of the states ``window * r + residue`` reached from residue-0 state ``start``.

    Parents are kept in discovery order.  Enters no state below ``floor`` and
    ends on discovering ``goal``.
    """
    parent = {start: -1}
    level, depth = [start], 0
    while level:
        depth += 1
        residue = depth % r
        nxt = []
        for s in level:
            for j in succ[s // r]:
                t = j * r + residue
                if t >= floor and t not in parent:
                    parent[t] = s
                    if t == goal:
                        return parent
                    nxt.append(t)
        level = nxt
    return parent


def _block_search(succ, r: int, k: int, block: list[int], cut):
    """``(depth, start)`` of the least closed walk of residue ``k`` from a window of ``block``.

    One breadth-first search for all of ``block`` (ascending start windows):
    bit b of a bitset stands for ``block[b]``.  ``level[w]`` has bit b when
    start b first reaches window ``w`` at the current depth, with residue
    ``depth % r``, without entering a window below its own.  ``free[m][w]``
    holds the bits that may still enter ``w`` at a depth = m (mod r): the
    starts at or below ``w``, less those that already reached it.  Returns the
    least depth below ``cut`` and, at it, the least start that comes back to
    itself, or None.  The floor only prunes: a walk through a window below its
    start rotates to a walk from a lesser start, which wins the tie anyway.
    """
    lo, hi = block[0], block[-1]
    floor = []  # floor[w - lo]: the bits of the starts at or below w, for lo <= w <= hi
    for b, (s, nxt) in enumerate(zip(block, block[1:] + [hi + 1])):
        floor += [(2 << b) - 1] * (nxt - s)
    full = floor[-1]
    goal = {s: 1 << b for b, s in enumerate(block)}
    free = [{s: floor[s - lo] ^ bit for s, bit in goal.items()}] + [{} for _ in range(r - 1)]
    level = goal
    depth = 0
    while level and (cut is None or depth + 1 < cut):
        depth += 1
        free_m = free[depth % r]
        nxt = {}
        for w, bits in level.items():
            for t in succ[w]:
                if t >= lo:
                    allowed = free_m.get(t)
                    if allowed is None:
                        allowed = floor[t - lo] if t <= hi else full
                    new = bits & allowed
                    if new:
                        free_m[t] = allowed ^ new
                        nxt[t] = nxt.get(t, 0) | new
        level = nxt
        if depth % r == k:  # the starts whose own window came back
            hits = [s for s in level.keys() & goal.keys() if level[s] & goal[s]]
            if hits:
                return depth, min(hits)
    return None


def _closed_walk_search(g: Hypergraph, k: int):
    """Shortest closed tight walk with stretch = k (mod r) as a WalkWitness, or None."""
    r = g.r
    k %= r
    if not g.edges:
        return None
    if k == 0:
        # rotating one oriented edge through itself: x then x again
        return WalkWitness(vertices=g.edges[0] * 2, stretch=r)

    pi = perm_power(cyc(r), k)
    comps = tight_components(g)
    bad = [c for c in comps if not avoids(c.tc, pi)]
    if not bad:
        return None

    windows, succ = _walk_table(g)
    if len(bad) == len(comps):
        starts = list(range(len(windows)))
    else:
        starts = sorted(
            bisect_left(windows, x) for c in bad for e, _ in c.potentials for x in itertools.permutations(e)
        )
    best = None
    for o in range(0, len(starts), _BLOCK):
        best = _block_search(succ, r, k, starts[o : o + _BLOCK], best and best[0]) or best
    if best is None:
        return None
    depth, i = best
    # replay the winner alone: under the same floor its own search discovers the
    # goal at the block's depth, and this is the first walk that search finds
    start = i * r
    parent = _walk_bfs(succ, r, start, floor=start, goal=start + k)
    s = start + k
    appended = []
    while s != start:
        appended.append(windows[s // r][-1])
        s = parent[s]
    return WalkWitness(vertices=windows[i] + tuple(reversed(appended)), stretch=depth)


def min_closed_stretch(g: Hypergraph, k: int):
    """Least stretch of a closed tight walk with residue ``k``, or None."""
    found = _closed_walk_search(g, k)
    return found and found.stretch


def walk_distances(g: Hypergraph, x: Oriented) -> dict[tuple[Oriented, int], int]:
    """Least stretch of a tight walk from ``x`` to each reachable (window, residue).

    The state space is finite, so absence from the result decides
    non-reachability; the trivial walk puts (x, 0) at stretch 0.
    """
    x = tuple(x)
    if not g.has_edge(x) or len(set(x)) != g.r:
        raise ValueError(f"{x!r} is not an oriented edge")
    windows, succ = _walk_table(g)
    depth, out = {-1: -1}, {}
    for t, s in _walk_bfs(succ, g.r, bisect_left(windows, x) * g.r).items():
        depth[t] = out[(windows[t // g.r], t % g.r)] = depth[s] + 1
    return out


@dataclass(frozen=True)
class WalkWitness:
    """A tight walk as its full vertex sequence; stretch = len - r."""

    vertices: tuple[int, ...]
    stretch: int


def is_valid_walk(g: Hypergraph, vertices) -> bool:
    seq = tuple(vertices)
    if len(seq) < g.r:
        return False
    for i in range(len(seq) - g.r + 1):
        window = seq[i : i + g.r]
        if len(set(window)) != g.r or not g.has_edge(window):
            return False
    return True


def is_valid_closed_walk(g: Hypergraph, vertices, k=None) -> bool:
    """Closed walk of stretch len - r: the last window replays the first.

    Reading the first ``stretch`` vertices cyclically gives a homomorphic
    image of the tight cycle on ``stretch`` vertices.
    """
    seq = tuple(vertices)
    if len(seq) < 2 * g.r or not is_valid_walk(g, seq):
        return False
    if seq[: g.r] != seq[-g.r :]:
        return False
    return k is None or (len(seq) - g.r) % g.r == k % g.r


def find_hom_cycle_witness(g: Hypergraph, k: int) -> WalkWitness | None:
    """A shortest closed tight walk of residue ``k`` as an explicit vertex sequence.

    The windows of the blocking classes are the starts.  A block of up to
    ``_BLOCK`` of them, in ascending order, advances as one breadth-first
    search over (window, stretch mod r) whose entries are bitsets of starts;
    a start enters only windows at or after its own, and a shortest closed
    walk rotated to its least window is found from there.  The first depth at
    which some start's own window comes back with residue ``k`` is the block's
    minimum, and the least such start its winner; a later block must beat it
    strictly.  So the winner is the least start attaining the minimum, as with
    one search per start.  Its walk comes from replaying that start's own
    search, which enters the same states and so discovers its goal at the
    minimum: the witness is the first walk that search finds (successors by
    ascending appended vertex).
    """
    witness = _closed_walk_search(g, k)
    if witness is not None and not is_valid_closed_walk(g, witness.vertices, k):
        raise RuntimeError(f"walk search returned an invalid residue-{k} witness {witness.vertices!r}")
    return witness


def witness_to_text(w: WalkWitness) -> str:
    return f"stretch {w.stretch}\n" + " ".join(map(str, w.vertices)) + "\n"


def contains_hom_cycle_of_length(g: Hypergraph, length: int) -> bool:
    """Is there a homomorphic image of the tight cycle on ``length`` vertices?

    A closed walk of stretch s <= length with the right residue pads up to
    length in rotation steps of r, so the minimum decides.
    """
    if length <= g.r:
        raise ValueError(f"cycle length {length} must exceed arity {g.r}")
    m = min_closed_stretch(g, length % g.r)
    return m is not None and m <= length


def tc_family_leq(f: Hypergraph, g: Hypergraph) -> bool:
    """Every connection group of ``f`` embeds (up to conjugacy) in one of ``g``."""
    if f.r != g.r:
        raise ValueError(f"arity mismatch {f.r} != {g.r}")
    g_groups = [c.tc for c in tight_components(g)]
    for cf in tight_components(f):
        if not any(embeds_in(cf.tc, kg, f.r) for kg in g_groups):
            return False
    return True


def tc_nontrivial(g: Hypergraph) -> bool:
    """Some ~ class has a connection group beyond the identity."""
    return any(len(c.tc) > 1 for c in tight_components(g))
