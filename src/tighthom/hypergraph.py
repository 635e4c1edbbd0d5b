"""Uniform hypergraphs on integer vertices, and the generators used throughout.

Edges are stored as sorted tuples of distinct vertices; a ``Hypergraph`` is an
immutable value (equal iff same arity, vertex count, and edge set).  Its one
adjacency index is the face index: each sorted (r-1)-subset of an edge maps
to the ascending vertices completing it (``completions``), and membership and
codegree questions read it.  Derived data (that index, the tight components,
the walk successor table) is built on first use and kept on the instance, so
it dies with the graph.  Waypoint triple families are 3-graphs.  The text
format puts ``r n`` on the first line and one edge of ``r`` vertices per
following line; ``#`` starts a comment.  Each generator computes the number
of vertex sets it would scan or build before doing any work and refuses more
than ``GEN_MAX_SETS``.
"""

from __future__ import annotations

import itertools
import math

from .permgroup import apply_to_tuple, cycles_of

Edge = tuple[int, ...]

# most vertex sets (windows, scanned r-sets, edges, triples or arcs) a generator
# makes: all_triples(50) has 19,600, the most of the tests, demos and bench;
# godd(40, 40, r=8) would scan about 2.9e10.  Memory grows with the sets kept:
# all_triples(182), the largest admitted (988,260 triples), is built in 0.9 s
# and an epsclose audit along it takes 4.3 s more, at 149 MB peak RSS for the
# process (40 MB at n = 100), so about 150 MB per million triples (2-core
# x86_64, Python 3.11).
GEN_MAX_SETS = 1_000_000


def _admit(what: str, sets: int) -> None:
    if sets > GEN_MAX_SETS:
        raise ValueError(f"{what} makes {sets:,} vertex sets, over {GEN_MAX_SETS=:,}")


class Hypergraph:
    __slots__ = ("r", "n", "edges", "_completions", "_components", "_walks")

    def __init__(self, r: int, n: int, edges):
        if r < 1:
            raise ValueError(f"arity must be positive, got {r}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != r or len(set(t)) != r:
                raise ValueError(f"edge {e!r} is not {r} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {e!r} out of vertex range 0..{n - 1}")
            canon.add(t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        for cache in ("_completions", "_components", "_walks"):
            object.__setattr__(self, cache, None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def has_edge(self, vertices) -> bool:
        t = tuple(sorted(vertices))
        return len(t) == self.r and t[-1] in self.completions(t[:-1])

    def completions(self, face) -> tuple[int, ...]:
        """Vertices completing the sorted (r-1)-tuple ``face`` to an edge, ascending."""
        index = self._completions
        if index is None:
            index = {}
            # edges are sorted, so each face collects its completions in order
            for e in self.edges:
                for i in range(self.r):
                    index.setdefault(e[:i] + e[i + 1 :], []).append(e[i])
            index = {face: tuple(ws) for face, ws in index.items()}
            object.__setattr__(self, "_completions", index)
        return index.get(face, ())

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.r, self.n, self.edges) == (other.r, other.n, other.edges)

    def __hash__(self):
        return hash((self.r, self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph(r={self.r}, n={self.n}, edges={len(self.edges)})"


def to_text(g: Hypergraph) -> str:
    lines = [f"{g.r} {g.n}"]
    lines.extend(" ".join(map(str, e)) for e in g.edges)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append([int(tok) for tok in line.split()])
    if not rows or len(rows[0]) != 2:
        raise ValueError("expected header line 'r n'")
    (r, n), edges = rows[0], rows[1:]
    return Hypergraph(r, n, edges)


def tight_cycle(r: int, ell: int) -> Hypergraph:
    """Cycle on ``ell`` vertices whose edges are all cyclic windows of width ``r``."""
    if ell <= r:
        raise ValueError(f"cycle length {ell} must exceed arity {r}")
    _admit(f"tight cycle of length {ell}", ell)
    edges = [tuple((i + j) % ell for j in range(r)) for i in range(ell)]
    return Hypergraph(r, ell, edges)


def twisted_tight_cycle(r: int, ell: int, pi) -> Hypergraph:
    """Tight path on ``ell`` vertices closed up through the permutation ``pi``.

    Vertices 0..ell-1 carry all consecutive width-``r`` windows of the sequence
    ``0, 1, ..., ell-1, pi(0 ... r-1)``; the final window wraps onto the
    ``pi``-image of the first ``r`` vertices.
    """
    if len(pi) != r:
        raise ValueError(f"permutation arity {len(pi)} != {r}")
    cycles_of(pi)  # ValueError unless pi permutes 0..r-1
    if ell < 2 * r:
        raise ValueError(f"twisted cycle needs at least 2r = {2 * r} vertices, got {ell}")
    _admit(f"twisted cycle of length {ell}", ell + 1)
    seq = list(range(ell)) + list(apply_to_tuple(pi, tuple(range(r))))
    edges = [tuple(seq[i : i + r]) for i in range(ell + 1)]
    return Hypergraph(r, ell, edges)


def complete_oddly_bipartite(a: int, b: int, r: int = 4) -> Hypergraph:
    """All ``r``-sets meeting the first part in an odd number of vertices.

    Parts are 0..a-1 and a..a+b-1.  Only even arities are supported: for odd
    ``r`` the complement parity makes the construction symmetric-degenerate.
    """
    if r % 2 != 0:
        raise ValueError(f"odd arity {r} is unsupported here")
    if a < 0 or b < 0 or a + b < r:
        raise ValueError(f"need a + b >= r, got a={a} b={b} r={r}")
    _admit(f"godd({a}, {b}, r={r})", math.comb(a + b, r))
    edges = [
        e
        for e in itertools.combinations(range(a + b), r)
        if sum(1 for v in e if v < a) % 2 == 1
    ]
    return Hypergraph(r, a + b, edges)


def blowup(g: Hypergraph, t: int) -> Hypergraph:
    """Replace every vertex by ``t`` clones; edges take one clone per original."""
    if t < 1:
        raise ValueError(f"blowup factor must be positive, got {t}")
    _admit(f"blowup by {t} of {len(g.edges)} edges", len(g.edges) * t**g.r)
    edges = []
    for e in g.edges:
        for copies in itertools.product(range(t), repeat=g.r):
            edges.append(tuple(v * t + c for v, c in zip(e, copies)))
    return Hypergraph(g.r, g.n * t, edges)


def tournament_3graph(n: int, beats) -> Hypergraph:
    """Directed triangles of a tournament on ``n`` vertices as a 3-graph.

    ``beats`` yields the ordered pairs (u, v) with u beating v, read only after
    the size check; it must orient every pair exactly once.
    """
    _admit(f"tournament 3-graph on {n} vertices", math.comb(max(n, 0), 3))
    arcs = {(int(u), int(v)) for u, v in beats}
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad arc ({u}, {v})")
    for u, v in itertools.combinations(range(n), 2):
        if ((u, v) in arcs) == ((v, u) in arcs):
            raise ValueError(f"pair {{{u}, {v}}} must be oriented exactly once")
    edges = []
    for t in itertools.combinations(range(n), 3):
        outs = [sum(1 for h in t if (v, h) in arcs) for v in t]
        if sorted(outs) == [1, 1, 1]:
            edges.append(t)
    return Hypergraph(3, n, edges)


def rotational_tournament(n: int) -> set[tuple[int, int]]:
    """The rotational (circulant) tournament: v beats v+1, ..., v+(n-1)/2 mod n."""
    if n % 2 == 0:
        raise ValueError("rotational tournaments need odd n")
    _admit(f"rotational tournament on {n} vertices", math.comb(max(n, 0), 2))
    return {(v, (v + d) % n) for v in range(n) for d in range(1, n // 2 + 1)}


def link(g: Hypergraph, v: int) -> Hypergraph:
    """The (r-1)-graph of edges through ``v``, with ``v`` dropped.

    Vertex labels are kept, so the result still has ``n`` slots and ``v`` is
    isolated in it.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    edges = [tuple(w for w in e if w != v) for e in g.edges if v in e]
    return Hypergraph(g.r - 1, g.n, edges)


def degree(g: Hypergraph, subset) -> int:
    """Number of edges containing the given vertex or vertex set."""
    s = frozenset([subset]) if isinstance(subset, int) else frozenset(subset)
    if not 0 < len(s) < g.r:
        raise ValueError(f"degree wants between 1 and {g.r - 1} vertices, got {len(s)}")
    return sum(1 for e in g.edges if s <= set(e))


def neighborhood(g: Hypergraph, subset, within=None) -> set:
    """Completions of a vertex set to an edge.

    For an (r-1)-set the result is a set of vertices; for smaller sets it is a
    set of sorted tuples.  ``within`` optionally restricts candidate vertices.
    """
    s = frozenset([subset]) if isinstance(subset, int) else frozenset(subset)
    if not 0 < len(s) < g.r:
        raise ValueError(f"neighborhood wants between 1 and {g.r - 1} vertices")
    pool = None if within is None else frozenset(within)
    out = set()
    for e in g.edges:
        if s <= set(e):
            rest = tuple(w for w in e if w not in s)
            if pool is not None and any(w not in pool for w in rest):
                continue
            out.add(rest[0] if len(rest) == 1 else rest)
    return out


def shadow(triples) -> set[tuple[int, int]]:
    """All pairs contained in some member of a family of 3-sets."""
    out = set()
    for t in triples:
        a, b, c = sorted(t)
        out.update([(a, b), (a, c), (b, c)])
    return out


def all_triples(n: int) -> Hypergraph:
    """The complete 3-graph on 0..n-1, the default waypoint family."""
    _admit(f"complete 3-graph on {n} vertices", math.comb(max(n, 0), 3))
    return Hypergraph(3, n, itertools.combinations(range(n), 3))
