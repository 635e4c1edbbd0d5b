import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighthom import coloring as col
from tighthom import permgroup as pg
from tighthom import tightconn as tcn
from tighthom.hypergraph import (
    Hypergraph,
    complete_oddly_bipartite,
    tight_cycle,
    twisted_tight_cycle,
)
from tighthom.permgroup import all_perms, apply_to_tuple, cyc, identity, perm_power

from oracles import o_accordant, o_compose, o_conjugators, o_inverse
from strategies import hypergraphs


def complete4(n):
    return Hypergraph(4, n, itertools.combinations(range(n), 4))


# Deterministic fixtures exercising each maximal class:
# the odd-bipartite graph colors through point stabilizers, the tight
# 6-cycle through the non-normal Klein class, and the overlay of that cycle
# with a swap-twisted 8-cycle through the alternating class.
def union_graph():
    return Hypergraph(
        4, 8, tight_cycle(4, 6).edges + twisted_tight_cycle(4, 8, (1, 0, 3, 2)).edges
    )


def test_canonical_odd_bipartite_coloring_is_reproduced():
    for a, b in [(3, 3), (4, 4), (4, 3), (5, 4)]:
        g = complete_oddly_bipartite(a, b)
        built = col.build_accordant_coloring(g, cyc(4))
        canon = col.godd_canonical_coloring(a, b)
        assert built is not None
        assert built.assignment == canon.assignment
        assert col.verify_accordant(g, built)


def test_class_selection_per_fixture():
    chi = col.build_accordant_coloring(complete_oddly_bipartite(4, 4), cyc(4))
    assert {chi.colors.classes[i].name for i, _ in chi.assignment.values()} == {"S3"}
    chi6 = col.build_accordant_coloring(tight_cycle(4, 6), cyc(4))
    assert {chi6.colors.classes[i].name for i, _ in chi6.assignment.values()} == {
        "Klein-nonnormal"
    }
    chiu = col.build_accordant_coloring(union_graph(), cyc(4))
    assert {chiu.colors.classes[i].name for i, _ in chiu.assignment.values()} == {"A4"}


def test_coloring_blocked_when_group_hits_pi():
    assert col.build_accordant_coloring(complete4(5), cyc(4)) is None
    assert col.build_accordant_coloring(tight_cycle(4, 6), perm_power(cyc(4), 2)) is None
    # nonempty graphs never color against the identity, empty ones trivially do
    assert col.build_accordant_coloring(complete4(5), identity(4)) is None
    empty = Hypergraph(4, 5, [])
    chi = col.build_accordant_coloring(empty, identity(4))
    assert chi is not None and chi.assignment == {}


@pytest.mark.parametrize(
    "g,k",
    [
        (complete_oddly_bipartite(4, 4), 1),
        (complete_oddly_bipartite(4, 4), 2),
        (complete_oddly_bipartite(3, 3), 3),
        (complete4(5), 1),
        (complete4(5), 0),
        (tight_cycle(4, 6), 1),
        (tight_cycle(4, 6), 2),
        (union_graph(), 1),
        (union_graph(), 2),
        (Hypergraph(4, 4, []), 0),
        (tight_cycle(2, 5), 1),
        (tight_cycle(3, 7), 2),
    ],
)
def test_hom_free_iff_colorable(g, k):
    hom_free, colorable = col.hom_free_iff_colorable_check(g, k)
    assert hom_free == colorable


def test_single_edge_coloring_points_at_slot_zero():
    g = Hypergraph(4, 4, [(0, 1, 2, 3)])
    chi = col.build_accordant_coloring(g, cyc(4))
    tc4 = col.triple_coloring_from_accordant(chi)
    assert tc4.value((1, 2, 3)) == (col.BLUE,)
    for t in [(0, 1, 2), (0, 1, 3), (0, 2, 3)]:
        assert tc4.value(t) == (col.POINTED, 0)


def test_odd_bipartite_triples_point_at_minority():
    a = b = 4
    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(a, b))
    for t in itertools.combinations(range(a + b), 3):
        in_a = sum(1 for v in t if v < a)
        if in_a in (0, 3):
            assert tc4.value(t) == (col.BLUE,)
        elif in_a == 2:
            assert tc4.value(t) == (col.POINTED, max(t))
        else:
            assert tc4.value(t) == (col.POINTED, min(t))


def test_klein_fixture_faces_are_edge_tags():
    tc4 = col.triple_coloring_from_accordant(
        col.build_accordant_coloring(tight_cycle(4, 6), cyc(4))
    )
    tags = Counter(v[0] for v in tc4.assignment.values())
    assert tags == {col.RED_EDGE: 9, col.YELLOW_EDGE: 9, col.FREE: 2}
    for v in tc4.assignment.values():
        if v[0] in (col.RED_EDGE, col.YELLOW_EDGE):
            assert len(v[1]) == 2 and v[1] == tuple(sorted(v[1]))


def test_alternating_fixture_faces_are_circles():
    g = union_graph()
    tc4 = col.triple_coloring_from_accordant(col.build_accordant_coloring(g, cyc(4)))
    covered = [v for v in tc4.assignment.values() if v != (col.FREE,)]
    assert covered and all(v[0] == col.CIRCLE and v[1] in (1, -1) for v in covered)


@pytest.mark.parametrize("make", [lambda: complete_oddly_bipartite(4, 4), lambda: tight_cycle(4, 6), union_graph])
def test_triple_round_trip(make):
    g = make()
    chi = col.build_accordant_coloring(g, cyc(4))
    tc4 = col.triple_coloring_from_accordant(chi)
    assert col.verify_boundary_patterns(g, tc4, 1)
    assert col.verify_boundary_patterns(g, tc4, 3)
    back = col.accordant_from_triple_coloring(g, tc4, 1)
    assert back is not None
    assert back.assignment == chi.assignment
    assert col.triple_coloring_from_accordant(back).assignment == tc4.assignment


def test_odd_bipartite_patterns_pass_every_residue():
    g = complete_oddly_bipartite(4, 4)
    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(4, 4))
    for k in (1, 2, 3):
        assert col.verify_boundary_patterns(g, tc4, k)


def test_klein_patterns_fail_the_squared_rotation():
    g = tight_cycle(4, 6)
    tc4 = col.triple_coloring_from_accordant(col.build_accordant_coloring(g, cyc(4)))
    assert not col.verify_boundary_patterns(g, tc4, 2)


def test_free_face_fails_verification():
    g = complete_oddly_bipartite(3, 3)
    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(3, 3))
    tc4.assignment[(0, 3, 4)] = (col.FREE,)
    assert not col.verify_boundary_patterns(g, tc4, 1)
    assert col.accordant_from_triple_coloring(g, tc4, 1) is None


def test_corrupted_face_has_no_matching_color():
    g = complete_oddly_bipartite(3, 3)
    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(3, 3))
    tc4.assignment[(0, 3, 4)] = (col.POINTED, 4)  # minority rule wants 0 here
    assert col.accordant_from_triple_coloring(g, tc4, 1) is None


def test_pattern_inventory_per_residue():
    e = (0, 1, 2, 3)
    cs1 = col.color_set(4, cyc(4))
    patterns1 = {col._face_values(e, c, cs1) for c in cs1.colors}
    assert len(patterns1) == 12  # colors are pinned by their face values
    shapes1 = {tuple(sorted(v[0] for v in p)) for p in patterns1}
    assert shapes1 == {
        ("blue", "pointed", "pointed", "pointed"),
        ("circle", "circle", "circle", "circle"),
        ("red-edge", "red-edge", "yellow-edge", "yellow-edge"),
    }
    cs2 = col.color_set(4, perm_power(cyc(4), 2))
    patterns2 = {col._face_values(e, c, cs2) for c in cs2.colors}
    assert len(patterns2) == 4
    for p in patterns2:
        apexes = {v[1] for v in p if v[0] == col.POINTED}
        assert len(apexes) == 1 and sum(1 for v in p if v == (col.BLUE,)) == 1


def test_verify_accordant_detects_bad_assignments():
    g = tight_cycle(4, 6)
    chi = col.build_accordant_coloring(g, cyc(4))
    e0, e1 = chi.assignment, dict(chi.assignment)
    broken = col.OrientedColoring(pi=chi.pi, graph=g, colors=chi.colors, assignment=e1)
    keys = list(e1)
    e1[keys[0]], e1[keys[1]] = e1[keys[1]], e1[keys[0]]
    if e1[keys[0]] != e0[keys[0]]:
        assert not col.verify_accordant(g, broken)
    missing = dict(e0)
    del missing[keys[0]]
    with pytest.raises(ValueError):
        col.verify_accordant(
            g, col.OrientedColoring(pi=chi.pi, graph=g, colors=chi.colors, assignment=missing)
        )


def test_verify_accordant_matches_oracle():
    rng = random.Random(11)
    verdicts = Counter()
    for i in range(200):
        r = 2 + i % 4
        n = rng.randint(r + 1, 7)
        pool = list(itertools.combinations(range(n), r))
        g = Hypergraph(r, n, rng.sample(pool, rng.randint(1, min(len(pool), 15))))
        for k in range(1, r):
            chi = col.build_accordant_coloring(g, perm_power(cyc(r), k))
            if chi is None:
                continue
            assert col.verify_accordant(g, chi) and o_accordant(g.edges, r, chi.color_of)
            e = rng.choice(g.edges)
            others = [c for c in chi.colors.colors if c != chi.assignment[e]]
            changed = col.OrientedColoring(
                pi=chi.pi, graph=g, colors=chi.colors, assignment={**chi.assignment, e: rng.choice(others)}
            )
            verdict = col.verify_accordant(g, changed)
            assert verdict == o_accordant(g.edges, r, changed.color_of)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]  # both outcomes are refereed
    chi = col.build_accordant_coloring(tight_cycle(4, 6), cyc(4))
    with pytest.raises(ValueError, match="built for a different graph"):
        col.verify_accordant(tight_cycle(4, 7), chi)


def _conjugator_rule_assignment(g, pi):
    """The coloring by the conjugator rule, from the definitions: per component the
    first maximal avoiding class (point stabilizers first) holding a conjugate
    ``sigma^-1 . tc . sigma``, a stabilizer of slot ``p`` taking the ``sigma`` whose
    ``sigma[p]`` has the most replacement neighbours at the representative, then
    the least ``sigma``; each edge gets the least member of ``pe^-1 . sigma . class``."""
    classes = pg.maximal_avoiding_classes(g.r, pi)

    def stabilized_slot(cls):
        fixed = [i for i in range(g.r) if all(h[i] == i for h in cls.representative)]
        return fixed[0] if len(fixed) == 1 and cls.order == math.factorial(g.r - 1) else None

    def degree(e, slot):
        rest = set(e) - {e[slot]}
        return sum(1 for f in g.edges if f != e and rest <= set(f))

    ranked = sorted(range(len(classes)), key=lambda i: (stabilized_slot(classes[i]) is None, i))
    assignment = {}
    for comp in tcn.tight_components(g):
        for idx in ranked:
            cls = classes[idx]
            sigmas = [o_inverse(s) for s in o_conjugators(comp.tc, cls.representative)]
            if sigmas:
                break
        else:
            return None
        p = stabilized_slot(cls)
        if p is None:
            sigma = min(sigmas)
        else:
            sigma = min(sigmas, key=lambda s: (-degree(comp.representative, s[p]), s))
        for e, pe in comp.potentials:
            x = o_compose(o_inverse(pe), sigma)
            assignment[e] = (idx, min(o_compose(x, h) for h in cls.representative))
    return assignment


def test_build_matches_the_conjugator_rule():
    rng = random.Random(29)
    graphs = [tight_cycle(6, 14)]
    for i in range(200):
        r = 2 + i % 4
        n = rng.randint(r + 1, 7)
        pool = list(itertools.combinations(range(n), r))
        graphs.append(Hypergraph(r, n, rng.sample(pool, rng.randint(1, min(len(pool), 15)))))
    verdicts = Counter()
    for g in graphs:
        for k in range(1, g.r):
            pi = perm_power(cyc(g.r), k)
            chi = col.build_accordant_coloring(g, pi)
            want = _conjugator_rule_assignment(g, pi)
            assert (chi and chi.assignment) == want
            verdicts[want is not None] += 1
    assert verdicts[True] and verdicts[False]  # both outcomes are refereed


@settings(max_examples=25)
@given(hypergraphs(r_values=(3, 4), max_n=6), st.integers(min_value=1, max_value=3))
def test_equivariance_of_derived_colors(g, k):
    k %= g.r
    if k == 0:
        k = 1
    chi = col.build_accordant_coloring(g, perm_power(cyc(g.r), k))
    if chi is None or not g.edges:
        return
    for e in g.edges[:4]:
        base = chi.color_of(e)
        for s in all_perms(g.r):
            assert chi.color_of(apply_to_tuple(s, e)) == chi.colors.act(s, base)


def test_link_of_odd_bipartite_vertex():
    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(4, 4))
    link = col.link_coloring(tc4, 0)
    tags = Counter(v[0] for v in link.values())
    assert tags == {col.BLUE_1: 3, col.GREEN: 6, col.RED_1: 12}
    for (x, y), v in link.items():
        if v[0] == col.RED_1:
            tail, head = v[1], v[2]
            assert tail < 4 <= head  # directed into the second part
        if v[0] == col.GREEN:
            assert x >= 4 and y >= 4
    simple = col.simplify_link_coloring(link)
    assert Counter(v[0] for v in simple.values()) == {"blue": 3, "green": 6, "red": 12}


def test_link_of_klein_fixture():
    tc4 = col.triple_coloring_from_accordant(
        col.build_accordant_coloring(tight_cycle(4, 6), cyc(4))
    )
    link = col.link_coloring(tc4, 0)
    tags = Counter(v[0] for v in link.values())
    assert set(tags) <= {col.RED_2, col.RED_3, col.BLUE_2, col.BLUE_3, col.FREE}
    for v in link.values():
        if v[0] in (col.RED_2, col.RED_3):
            assert v[1] != v[2]


def test_redgreen_vertex():
    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(4, 4))
    w = col.redgreen_vertex(tc4)
    link = col.link_coloring(tc4, w)
    tags = Counter(v[0] for v in link.values())
    assert tags[col.RED_1] >= 2 * tags[col.GREEN]
    assert w == 0  # scan returns the first qualifying vertex


def test_triple_coloring_depends_on_the_cycle_type_of_pi_only():
    g = complete_oddly_bipartite(3, 3)
    via_cyc, via_cyc3 = (col.triple_coloring_from_accordant(col.build_accordant_coloring(g, pi))
                         for pi in (cyc(4), perm_power(cyc(4), 3)))
    assert via_cyc == via_cyc3
    with pytest.raises(ValueError, match="need arity 4"):
        col.triple_coloring_from_accordant(
            col.build_accordant_coloring(Hypergraph(3, 3, [(0, 1, 2)]), cyc(3))
        )


def test_triple_coloring_rejects_bad_inputs():
    with pytest.raises(ValueError):
        col.triple_coloring_from_accordant(
            col.build_accordant_coloring(Hypergraph(3, 3, [(0, 1, 2)]), cyc(3))
        )
    chi = col.build_accordant_coloring(complete_oddly_bipartite(3, 3), cyc(4))
    with pytest.raises(ValueError):
        col.verify_boundary_patterns(chi.graph, col.TripleColoring4(n=6), 0)
    with pytest.raises(ValueError):
        col.link_coloring(col.TripleColoring4(n=6), 6)
