"""Accordant edge colorings and their derived triple and link colorings.

An oriented coloring assigns to every oriented edge a color from the coset
color set of a permutation ``pi`` such that (a) the assignment is
equivariant (reordering the edge acts on the color) and (b) adjacent
oriented edges (single-vertex replacements) get equal colors.  Such a
coloring exists iff every connection group avoids ``pi``, which is the
content of ``hom_free_iff_colorable_check``.  A tight component can take the
color ``g . gamma`` exactly when its connection group fixes that coset, that is
when ``g^-1 . tc . g`` lies in ``gamma``; the build reads this off the action of
the color set.

At arity 4 with ``pi`` a rotation power, the coset data of an edge's color
projects onto its four boundary triples, giving a triple coloring over the
tags pointed/blue (stabilizer cosets), circle (alternating cosets), and
red-edge/yellow-edge (block cosets); ``verify_boundary_patterns`` recognizes
exactly the triple colorings arising this way, and the link of a vertex in a
triple coloring flattens to a pair coloring suitable for triangle censuses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .hypergraph import Hypergraph, complete_oddly_bipartite
from .permgroup import (
    Color,
    ColorSet,
    Perm,
    color_set,
    cyc,
    cycle_type,
    identity,
    inverse,
    is_even,
    perm_power,
    reorder_perm,
)
from .tightconn import is_hom_free, tight_components

Edge = tuple[int, ...]


@dataclass
class OrientedColoring:
    """An equivariant, replacement-constant coloring of the oriented edges."""

    pi: Perm
    graph: Hypergraph
    colors: ColorSet
    assignment: dict[Edge, Color]

    def color_of(self, x) -> Color:
        """Color of an arbitrary orientation, derived equivariantly."""
        x = tuple(x)
        base = tuple(sorted(x))
        if base not in self.assignment:
            raise ValueError(f"{x!r} is not an edge of the colored graph")
        return self.colors.act(reorder_perm(base, x), self.assignment[base])


def _is_point_stabilizer(cls) -> int | None:
    """The slot every element of the class representative fixes, if unique."""
    fixed = [
        i
        for i in range(cls.r)
        if all(p[i] == i for p in cls.representative)
    ]
    if len(fixed) == 1 and cls.order == math.factorial(cls.r - 1):
        return fixed[0]
    return None


def _replacement_degree(g: Hypergraph, e: Edge, slot: int) -> int:
    """Edges other than the sorted edge ``e`` sharing all of it but ``e[slot]``."""
    return len(g.completions(e[:slot] + e[slot + 1 :])) - 1


def build_accordant_coloring(g: Hypergraph, pi: Perm) -> OrientedColoring | None:
    """Construct an accordant coloring, or None when some connection group blocks it.

    Per tight component: take the first maximal avoiding class (point
    stabilizers first, then class order) with a color ``(idx, g)`` that every
    element of the connection group fixes; a fixed coset ``g . gamma`` carries a
    conjugate ``g^-1 . tc . g`` of the group inside ``gamma``.  Among those
    colors, a stabilizer of slot ``p`` takes the one putting ``g[p]`` (constant on
    the coset) at the representative's highest-replacement-degree slot, and any
    other class the least.  Each edge then inherits the color moved by the
    inverse of its potential, which transports it onto the representative's
    plain component.
    """
    if len(pi) != g.r:
        raise ValueError(f"permutation arity {len(pi)} != {g.r}")
    cs = color_set(g.r, pi)
    stabilized = [_is_point_stabilizer(c) for c in cs.classes]
    ranked = sorted(range(len(cs.classes)), key=lambda i: (stabilized[i] is None, i))
    assignment: dict[Edge, Color] = {}
    for comp in tight_components(g):
        rep = comp.representative
        for idx in ranked:
            fixed = [c for c in cs.colors
                     if c[0] == idx and all(cs.act(h, c) == c for h in comp.tc)]
            if fixed:
                break
        else:
            return None
        p = stabilized[idx]
        if p is None:
            chosen = fixed[0]
        else:
            chosen = min(fixed, key=lambda c: (-_replacement_degree(g, rep, c[1][p]), c[1]))
        for e, pe in comp.potentials:
            assignment[e] = cs.act(inverse(pe), chosen)
    return OrientedColoring(pi=pi, graph=g, colors=cs, assignment=assignment)


def verify_accordant(g: Hypergraph, chi: OrientedColoring) -> bool:
    """Coverage is checked loudly; replacement-constancy decides the verdict.

    Colors of non-sorted orientations are derived through ``ColorSet.act``, a left
    action by bijections, and the replacement neighbours of ``s . x`` are ``s``
    applied to those of ``x``; so all adjacent oriented edges agree once each sorted
    edge agrees with every edge replacing one of its slots, r! times fewer checks.
    """
    if chi.graph != g:
        raise ValueError("coloring was built for a different graph")
    if set(chi.assignment) != set(g.edges):
        raise ValueError("assignment does not cover the edge set exactly")
    for e in g.edges:
        ce = chi.color_of(e)
        for i, v in enumerate(e):
            for w in g.completions(e[:i] + e[i + 1 :]):
                if w != v and chi.color_of(e[:i] + (w,) + e[i + 1 :]) != ce:
                    return False
    return True


def hom_free_iff_colorable_check(g: Hypergraph, k: int) -> tuple[bool, bool]:
    """(hom-freeness at residue k, existence of an accordant coloring for cyc^k).

    The two booleans are a theorem apart; the verified coloring is also run
    through the accordance checker before success is reported.
    """
    pi = perm_power(cyc(g.r), k)
    chi = build_accordant_coloring(g, pi)
    if chi is not None and not verify_accordant(g, chi):
        raise RuntimeError(f"built coloring for residue {k} fails the accordance check")
    return (is_hom_free(g, k), chi is not None)


# ---------------------------------------------------------------------------
# arity-4 triple colorings

FaceValue = tuple

POINTED = "pointed"
BLUE = "blue"
CIRCLE = "circle"
RED_EDGE = "red-edge"
YELLOW_EDGE = "yellow-edge"
FREE = "free"


def _classify_face(u: Edge, cls, rho: Perm) -> FaceValue:
    """Face value of the triple u[:3] inside the oriented edge u, from its coset."""
    name = cls.name
    if name == "S3":
        apex_slot = rho[0]
        if apex_slot == 3:
            return (BLUE,)
        return (POINTED, u[apex_slot])
    if name == "A4":
        return (CIRCLE, 1 if is_even(rho) else -1)
    if name == "Klein-nonnormal":
        first = {rho[0], rho[1]}
        second = {rho[2], rho[3]}
        if 3 in second:
            pair = tuple(sorted(u[s] for s in first))
            return (RED_EDGE, pair)
        pair = tuple(sorted(u[s] for s in second))
        return (YELLOW_EDGE, pair)
    raise ValueError(f"no face rule for class {name!r}")


@lru_cache(maxsize=8)
def _face_patterns(cs: ColorSet) -> tuple[dict[Color, tuple], dict[tuple, tuple[Color, ...]]]:
    """Each color's face values on the edge ``(0, 1, 2, 3)``, whose vertices are
    its slots, and the colors of each such pattern in color order.

    ``_classify_face`` reads the vertices of an edge only at slot positions, so
    any sorted edge's face values are its vertices substituted into the pattern.
    """
    slots = (0, 1, 2, 3)
    patterns: dict[Color, tuple] = {}
    colors_of: dict[tuple, tuple[Color, ...]] = {}
    for color in cs.colors:
        faces = []
        for j in range(4):
            u = slots[:j] + slots[j + 1 :] + (j,)
            idx, rho = cs.act(reorder_perm(slots, u), color)
            faces.append(_classify_face(u, cs.classes[idx], rho))
        faces = patterns[color] = tuple(faces)
        colors_of[faces] = colors_of.get(faces, ()) + (color,)
    return patterns, colors_of


def _face_values(e: Edge, color: Color, cs: ColorSet) -> tuple[FaceValue, ...]:
    """Values of the four boundary triples of the sorted edge ``e`` under ``color``."""
    out = []
    for value in _face_patterns(cs)[0][color]:
        tag = value[0]
        if tag == POINTED:
            value = (tag, e[value[1]])
        elif tag in (RED_EDGE, YELLOW_EDGE):
            value = (tag, tuple(e[s] for s in value[1]))  # ascending slots of a sorted edge
        out.append(value)
    return tuple(out)


def _face_slots(e: Edge, value: FaceValue) -> FaceValue:
    """A stored face value of the sorted edge ``e`` with each vertex replaced by its
    slot (None off the edge): the pattern of every color that induces it."""
    tag = value[0]
    if tag == POINTED:
        return (tag, *(e.index(v) if v in e else None for v in value[1:]))
    if tag in (RED_EDGE, YELLOW_EDGE):
        return (tag, *(tuple(e.index(v) if v in e else None for v in pair) for pair in value[1:]))
    return value


@dataclass
class TripleColoring4:
    """Values on all triples of 0..n-1; uncovered triples are free."""

    n: int
    k: int
    assignment: dict[tuple[int, int, int], FaceValue] = field(default_factory=dict)

    def value(self, t) -> FaceValue:
        return self.assignment[tuple(sorted(t))]


def _check_triple_residue(g: Hypergraph, k: int) -> None:
    if g.r != 4:
        raise ValueError("triple colorings need arity 4")
    if k % 4 not in (1, 2, 3):
        raise ValueError("residue must be one of 1, 2, 3")


def triple_coloring_from_accordant(chi: OrientedColoring) -> TripleColoring4:
    """Project an accordant coloring onto boundary triples.

    Accordance makes the value of a triple independent of the covering edge;
    that consistency is checked while collecting (RuntimeError otherwise).
    """
    g = chi.graph
    k = next(
        (k for k in (1, 2, 3) if cycle_type(perm_power(cyc(4), k)) == cycle_type(chi.pi)),
        None,
    )
    if k is None:
        raise ValueError("triple colorings need a rotation-power pi")
    _check_triple_residue(g, k)
    out = TripleColoring4(n=g.n, k=k)
    for e in g.edges:
        for j, value in enumerate(_face_values(e, chi.assignment[e], chi.colors)):
            t = e[:j] + e[j + 1 :]
            if out.assignment.setdefault(t, value) != value:
                raise RuntimeError(f"covering edges disagree on face {t}")
    for t in itertools.combinations(range(g.n), 3):
        out.assignment.setdefault(t, (FREE,))
    return out


def _face_matches(g: Hypergraph, tc4: TripleColoring4, cs: ColorSet):
    """Per edge of ``g``, the colors whose face values are the stored ones.

    No face value is ever free, so an edge with a free face matches nothing.
    """
    colors_of = _face_patterns(cs)[1]
    for e in g.edges:
        stored = tuple(_face_slots(e, tc4.value(e[:j] + e[j + 1 :])) for j in range(4))
        yield e, colors_of.get(stored, ())


def verify_boundary_patterns(g: Hypergraph, tc4: TripleColoring4, k: int) -> bool:
    """Does some color of cyc^k induce exactly the stored values on each edge's faces?"""
    _check_triple_residue(g, k)
    cs = color_set(4, perm_power(cyc(4), k))
    return all(matches for _, matches in _face_matches(g, tc4, cs))


def accordant_from_triple_coloring(
    g: Hypergraph, tc4: TripleColoring4, k: int
) -> OrientedColoring | None:
    """Rebuild the accordant coloring whose faces are the stored triple values.

    Face values pin the color of each edge uniquely; returns None when some
    edge matches no color.
    """
    _check_triple_residue(g, k)
    cs = color_set(4, perm_power(cyc(4), k))
    assignment: dict[Edge, Color] = {}
    for e, matches in _face_matches(g, tc4, cs):
        if not matches:
            return None
        if len(matches) != 1:
            raise RuntimeError(f"face values fail to pin the color of {e}")
        assignment[e] = matches[0]
    chi = OrientedColoring(
        pi=perm_power(cyc(4), k), graph=g, colors=cs, assignment=assignment
    )
    if not verify_accordant(g, chi):
        raise RuntimeError("coloring rebuilt from triple values fails the accordance check")
    return chi


# ---------------------------------------------------------------------------
# link colorings

GREEN = "green"
RED_1, RED_2, RED_3 = "red-1", "red-2", "red-3"
BLUE_1, BLUE_2, BLUE_3 = "blue-1", "blue-2", "blue-3"
PURPLE = "purple"


def link_coloring(tc4: TripleColoring4, w: int) -> dict[tuple[int, int], tuple]:
    """Pair coloring of the link of ``w``; directed tags carry (tail, head)."""
    if not 0 <= w < tc4.n:
        raise ValueError(f"vertex {w} out of range")
    out = {}
    for x, y in itertools.combinations(range(tc4.n), 2):
        if w in (x, y):
            continue
        t = tuple(sorted((w, x, y)))
        val = tc4.value(t)
        tag = val[0]
        if tag == POINTED:
            apex = val[1]
            if apex == w:
                out[(x, y)] = (GREEN,)
            elif apex == x:
                out[(x, y)] = (RED_1, y, x)
            else:
                out[(x, y)] = (RED_1, x, y)
        elif tag == BLUE:
            out[(x, y)] = (BLUE_1,)
        elif tag == CIRCLE:
            a, b, c = t
            succ = {a: b, b: c, c: a} if val[1] == 1 else {a: c, c: b, b: a}
            out[(x, y)] = (PURPLE, x, y) if succ[x] == y else (PURPLE, y, x)
        elif tag in (RED_EDGE, YELLOW_EDGE):
            pair = val[1]
            other = next(v for v in t if v not in pair)
            red, blue = (RED_3, BLUE_2) if tag == RED_EDGE else (RED_2, BLUE_3)
            if w in pair:
                head = next(v for v in pair if v != w)
                out[(x, y)] = (red, other, head)
            else:
                out[(x, y)] = (blue,)
        else:
            out[(x, y)] = (FREE,)
    return out


def simplify_link_coloring(link: dict) -> dict:
    """Merge the numbered reds and blues into plain red/blue."""
    out = {}
    for pair, tag in link.items():
        if tag[0] in (RED_1, RED_2, RED_3):
            out[pair] = ("red", tag[1], tag[2])
        elif tag[0] in (BLUE_1, BLUE_2, BLUE_3):
            out[pair] = ("blue",)
        else:
            out[pair] = tag
    return out


def redgreen_vertex(tc4: TripleColoring4) -> int:
    """A vertex whose link has at least twice as many red-1 pairs as green pairs.

    Each pointed triple contributes one green pair (at its apex) and two
    red-1 pairs (at its base vertices), so summing red-1 minus twice green
    over all vertices gives zero and some vertex is nonnegative.
    """
    if tc4.n < 1:
        raise ValueError("need at least one vertex")
    for w in range(tc4.n):
        green = red1 = 0
        for tag in link_coloring(tc4, w).values():
            if tag[0] == GREEN:
                green += 1
            elif tag[0] == RED_1:
                red1 += 1
        if red1 >= 2 * green:
            return w
    raise AssertionError("counting forces some vertex to qualify")


def godd_canonical_coloring(a: int, b: int) -> OrientedColoring:
    """The standard coloring of the odd-intersection bipartite graph: every
    edge pointed at its minority-side vertex, within-part triples blue."""
    g = complete_oddly_bipartite(a, b)
    cs = color_set(4, cyc(4))
    s3_idx = next(i for i, c in enumerate(cs.classes) if c.name == "S3")
    assignment: dict[Edge, Color] = {}
    for e in g.edges:
        in_a = sum(1 for v in e if v < a)
        sigma = identity(4) if in_a == 1 else (3, 0, 1, 2)
        assignment[e] = cs.color(s3_idx, sigma)
    return OrientedColoring(pi=cyc(4), graph=g, colors=cs, assignment=assignment)
