import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighthom import tightconn as tcn
from tighthom.hypergraph import (
    Hypergraph,
    blowup,
    complete_oddly_bipartite,
    tight_cycle,
)
from tighthom.permgroup import all_perms, apply_to_tuple, closure, cyc, cycle_type, perm_power

from oracles import (
    o_closed_stretch_upper_bound,
    o_closed_walk_witness,
    o_graph_odd_closed_walk,
    o_min_closed_stretch,
    o_plain_component,
    o_reachable_stretches,
    o_tight_components,
    o_walk_levels,
)
from strategies import hypergraphs


def complete_graph(n, r):
    return Hypergraph(r, n, itertools.combinations(range(n), r))


# Frozen against the level-set oracle in oracles.py (residue -> least stretch).
# C9_7 is frozen against the witness oracle; the blow-up of C5_4 has C5_4's
# minima, since it contains C5_4 and maps onto it.
MIN_STRETCH = {
    "C9_4": (tight_cycle(4, 9), {0: 4, 1: 9, 2: 18, 3: 27}),
    "C7_3": (tight_cycle(3, 7), {0: 3, 1: 7, 2: 14}),
    "K5_4": (complete_graph(5, 4), {0: 4, 1: 5, 2: 10, 3: 15}),
    "K3_2": (complete_graph(3, 2), {0: 2, 1: 3}),
    "C5_2": (tight_cycle(2, 5), {0: 2, 1: 5}),
    "C6_2": (tight_cycle(2, 6), {0: 2, 1: None}),
    "godd33": (complete_oddly_bipartite(3, 3), {0: 4, 1: None, 2: None, 3: None}),
    "godd44": (complete_oddly_bipartite(4, 4), {0: 4, 1: None, 2: None, 3: None}),
    "C9_7": (tight_cycle(7, 9), {0: 7, 1: 36, 2: 9, 3: 45, 4: 18, 5: 54, 6: 27}),
    "C5_4x2": (blowup(tight_cycle(4, 5), 2), {0: 4, 1: 5, 2: 10, 3: 15}),
}


@pytest.mark.parametrize("name", sorted(MIN_STRETCH))
def test_min_closed_stretch_frozen(name):
    g, expected = MIN_STRETCH[name]
    for k, want in expected.items():
        assert tcn.min_closed_stretch(g, k) == want, (name, k)


@pytest.mark.parametrize("name", sorted(MIN_STRETCH))
def test_witnesses_match_minima(name):
    g, expected = MIN_STRETCH[name]
    for k, want in expected.items():
        w = tcn.find_hom_cycle_witness(g, k)
        if want is None:
            assert w is None
        else:
            assert w.stretch == want
            assert len(w.vertices) == want + g.r
            assert tcn.is_valid_closed_walk(g, w.vertices, k)


def test_empty_graph():
    g = Hypergraph(3, 5, [])
    assert tcn.tight_components(g) == ()
    assert tcn.is_hom_free(g, 0) and tcn.is_hom_free(g, 1)
    assert tcn.min_closed_stretch(g, 0) is None
    assert tcn.find_hom_cycle_witness(g, 2) is None
    assert not tcn.tc_nontrivial(g)


def test_residue_zero_is_edgelessness():
    assert not tcn.is_hom_free(complete_graph(3, 2), 0)
    assert tcn.min_closed_stretch(complete_graph(3, 2), 0) == 2
    w = tcn.find_hom_cycle_witness(tight_cycle(4, 9), 0)
    assert w.stretch == 4 and tcn.is_valid_closed_walk(g=tight_cycle(4, 9), vertices=w.vertices, k=0)


def test_contains_hom_cycle_of_length():
    c9 = tight_cycle(4, 9)
    assert not tcn.contains_hom_cycle_of_length(c9, 5)
    assert tcn.contains_hom_cycle_of_length(c9, 9)
    assert tcn.contains_hom_cycle_of_length(c9, 13)
    assert tcn.contains_hom_cycle_of_length(c9, 8)  # residue 0, stretch 4 rotation
    assert not tcn.contains_hom_cycle_of_length(c9, 6)
    assert not tcn.contains_hom_cycle_of_length(complete_oddly_bipartite(4, 4), 9)
    assert tcn.contains_hom_cycle_of_length(complete_oddly_bipartite(4, 4), 8)
    with pytest.raises(ValueError):
        tcn.contains_hom_cycle_of_length(c9, 4)


def test_godd_connection_groups():
    # with four vertices per part, each class's group is the full symmetric
    # group on the three same-part slots; with three it collapses to identity
    comps = tcn.tight_components(complete_oddly_bipartite(4, 4))
    assert len(comps) == 2
    for c in comps:
        assert len(c.tc) == 6
        fixed = [i for i in range(4) if all(p[i] == i for p in c.tc)]
        assert len(fixed) == 1
    comps33 = tcn.tight_components(complete_oddly_bipartite(3, 3))
    assert len(comps33) == 2
    for c in comps33:
        assert c.tc == frozenset({(0, 1, 2, 3)})


def test_plain_component_rejects_non_edges():
    g = complete_oddly_bipartite(4, 4)
    with pytest.raises(ValueError):
        tcn.plain_component(g, (0, 1, 2, 3))  # even first-part intersection
    with pytest.raises(ValueError):
        tcn.plain_component(g, (0, 0, 4, 5))


@settings(max_examples=50)
@given(hypergraphs(max_n=7))
def test_components_match_oracle(g):
    got = [(c.representative, c.size, c.edge_supports(), c.tc) for c in tcn.tight_components(g)]
    assert got == o_tight_components(g.edges, g.n, g.r)
    for e in g.edges:
        for x in (e, e[::-1]):
            assert tcn.plain_component(g, x) == o_plain_component(g.edges, g.n, g.r, x)


def test_residue_zero_reach_is_the_plain_component():
    # a tight walk of stretch divisible by r reaches exactly the start's plain component
    rng = random.Random(31)
    for i in range(45):
        r = 2 + i % 3
        n = rng.randint(r + 1, 7)
        pool = list(itertools.combinations(range(n), r))
        g = Hypergraph(r, n, rng.sample(pool, rng.randint(1, min(len(pool), 12))))
        plain = {}
        for x in tcn.oriented_edges(g):
            if x not in plain:
                comp = o_plain_component(g.edges, g.n, g.r, x)
                plain.update(dict.fromkeys(comp, comp))
            assert {y for y, m in tcn.walk_distances(g, x) if m == 0} == plain[x]


@settings(max_examples=12)
@given(hypergraphs(r_values=(5, 6), max_n=8, max_edges=4))
def test_wide_arity_components_match_oracle(g):
    got = [(c.representative, c.size, c.edge_supports(), c.tc) for c in tcn.tight_components(g)]
    assert got == o_tight_components(g.edges, g.n, g.r)


ONE_GRAPH = Hypergraph(1, 3, [(0,), (2,)])


def test_one_graph_components():
    (comp,) = tcn.tight_components(ONE_GRAPH)
    assert comp.representative == (0,)
    assert comp.potentials == (((0,), (0,)), ((2,), (0,)))
    assert comp.tc == frozenset({(0,)})
    assert [tcn.is_hom_free(ONE_GRAPH, k) for k in range(3)] == [False, False, False]


def _pinned_graphs():
    yield tight_cycle(4, 9)
    yield tight_cycle(6, 14)
    yield tight_cycle(7, 9)
    yield complete_oddly_bipartite(5, 5)
    yield ONE_GRAPH
    rng = random.Random(2411)
    for i in range(20):
        r = 2 + i % 4
        n = rng.randint(r + 1, 8)
        pool = list(itertools.combinations(range(n), r))
        yield Hypergraph(r, n, rng.sample(pool, rng.randint(1, min(len(pool), 25))))


# The oracle tests accept any potential in the right coset of the group; this
# pins the ones the depth-first search gives, so a kernel change that keeps the
# groups but moves a potential shows: sha256 of repr of the list below.
POTENTIALS_DIGEST = "eca1cf10a2927959f1df8802be0a9f97f8c33f68bb79563e4482fad294252a95"


def test_potentials_are_pinned():
    pinned = []
    for g in _pinned_graphs():
        for c in tcn.tight_components(g):
            pinned.append((c.representative, c.potentials, sorted(c.tc)))
            plain = o_plain_component(g.edges, g.n, g.r, c.representative)
            for e, p in c.potentials:
                assert apply_to_tuple(p, e) in plain
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == POTENTIALS_DIGEST


def test_join_edge_matches_whole_graph_components():
    # grow random graphs one edge at a time in random order: each verdict is the
    # whole graph's, and each grown index carries, per class, one group and
    # potentials that land its edges in one plain component with that group
    rng = random.Random(21)
    verdicts = []
    for _ in range(300):
        r = rng.randint(2, 6)
        n = rng.randint(r, 8)
        ks = rng.sample(range(1, r), rng.randint(1, r - 1))
        pis = [perm_power(cyc(r), k) for k in ks]
        pool = list(itertools.combinations(range(n), r))
        rng.shuffle(pool)
        acc, index = [], ({}, {})
        for e in pool[: rng.randint(1, 16)]:
            grown = tcn.join_edge(index, e, pis, grow=True)
            verdicts.append(grown is not None)
            g = Hypergraph(r, n, acc + [e])
            assert (grown is not None) == all(tcn.is_hom_free(g, k) for k in ks)
            assert (tcn.join_edge(index, e, pis) is True) == (grown is not None)
            if grown is None:
                continue
            acc.append(e)
            index = grown
            faces, entries = index
            assert faces == {face: g.completions(face) for face in faces}
            for c in tcn.tight_components(g):
                (group, _), = {id(entries[f][1]): entries[f][1] for f in c.edge_supports()}.values()
                assert len(group) == len(c.tc)
                assert sorted(map(cycle_type, group)) == sorted(map(cycle_type, c.tc))
                x = apply_to_tuple(entries[c.representative][0], c.representative)
                plain = o_plain_component(g.edges, n, r, x)
                assert all(apply_to_tuple(entries[f][0], f) in plain for f in c.edge_supports())
                assert set(group) == {h for h in all_perms(r) if apply_to_tuple(h, x) in plain}
    assert len(verdicts) > 1000 and not all(verdicts)


@pytest.mark.parametrize("r,ell", [(4, 9), (4, 10), (5, 12), (6, 14), (7, 9)])
def test_tight_cycle_is_one_class(r, ell):
    # walking once around the cycle rotates the window by ell slots
    (comp,) = tcn.tight_components(tight_cycle(r, ell))
    assert comp.tc == closure([perm_power(cyc(r), ell)])
    assert comp.size == math.factorial(r) * ell


def test_complete_graph_group_is_everything():
    comps = tcn.tight_components(complete_graph(6, 4))
    assert len(comps) == 1
    assert comps[0].tc == frozenset(all_perms(4))
    assert comps[0].size == len(tcn.oriented_edges(complete_graph(6, 4)))


def test_is_hom_free_frozen_cases():
    for k in (1, 2, 3):
        assert tcn.is_hom_free(complete_oddly_bipartite(4, 4), k)
        assert not tcn.is_hom_free(complete_graph(5, 4), k)
    assert not tcn.is_hom_free(tight_cycle(4, 9), 1)
    assert not tcn.is_hom_free(tight_cycle(4, 9), 2)
    assert tcn.is_hom_free(tight_cycle(2, 6), 1)
    # residues are read mod r
    assert tcn.is_hom_free(complete_oddly_bipartite(4, 4), 5)


def test_hom_freeness_survives_blowup():
    base = complete_oddly_bipartite(3, 3)
    blown = blowup(base, 2)
    for k in (1, 2, 3):
        assert tcn.is_hom_free(blown, k) == tcn.is_hom_free(base, k)
    tri = blowup(complete_graph(3, 2), 3)
    assert tcn.min_closed_stretch(tri, 1) == 3


def test_tc_family_leq_and_nontrivial():
    pentagon = tight_cycle(2, 5)
    square = tight_cycle(2, 4)
    assert tcn.tc_nontrivial(pentagon)
    assert not tcn.tc_nontrivial(square)
    assert tcn.tc_family_leq(square, pentagon)
    assert not tcn.tc_family_leq(pentagon, square)
    assert tcn.tc_family_leq(Hypergraph(2, 3, []), square)
    assert not tcn.tc_family_leq(pentagon, Hypergraph(2, 3, []))
    with pytest.raises(ValueError):
        tcn.tc_family_leq(pentagon, complete_graph(5, 3))


@settings(max_examples=40)
@given(hypergraphs(max_n=6))
def test_min_stretch_matches_oracle(g):
    for k in range(g.r):
        assert tcn.min_closed_stretch(g, k) == o_min_closed_stretch(
            g.edges, g.n, g.r, k
        )


def assert_witnesses_match_oracle(g):
    for k in range(g.r):
        w = tcn.find_hom_cycle_witness(g, k)
        got = None if w is None else (w.stretch, w.vertices)
        assert got == o_closed_walk_witness(g.edges, g.n, g.r, k), k


@settings(max_examples=40)
@given(hypergraphs(max_n=6))
def test_witnesses_match_oracle(g):
    assert_witnesses_match_oracle(g)


@pytest.mark.parametrize("r,ell", [(4, 5), (4, 9), (4, 13), (5, 12), (6, 14), (7, 9)])
def test_tight_cycle_witnesses_match_oracle(r, ell):
    assert_witnesses_match_oracle(tight_cycle(r, ell))


def _block_cases():
    rng = random.Random(16)
    for i in range(24):
        r = 2 + i % 4
        n = rng.randint(r + 2, 8 if r < 5 else 7)
        edges = set(rng.sample(list(itertools.combinations(range(n), r)), rng.randint(1, 3)))
        if r < 4 or i % 8 == 2:
            # a tight cycle on some of the vertices blocks a residue, often beside
            # free components, so the start windows have gaps
            order = rng.sample(range(n), rng.randint(r + 1, r + 2))
            edges |= {tuple(sorted(order[(j + t) % len(order)] for t in range(r))) for j in range(len(order))}
        g = Hypergraph(r, n, edges)
        yield g, [o_min_closed_stretch(g.edges, g.n, g.r, k) for k in range(r)]
    # 312 and 1,440 windows, so the default block splits them too; minima frozen
    # from the level-set oracle, which takes 13 s and 122 s on them
    yield tight_cycle(4, 13), [4, 13, 26, 39]
    yield tight_cycle(5, 12), [5, 36, 12, 48, 24]


@functools.lru_cache(maxsize=None)
def _block_referees():
    return [
        (g, minima, [o_closed_walk_witness(g.edges, g.n, g.r, k) for k in range(g.r)])
        for g, minima in _block_cases()
    ]


@pytest.mark.parametrize("block", [1, 2, 3, 7, tcn._BLOCK])
def test_block_boundaries_keep_the_witness_rule(monkeypatch, block):
    # a later block must beat the incumbent strictly, so ties across a block
    # boundary go to the least start, as in one search per start
    monkeypatch.setattr(tcn, "_BLOCK", block)
    blocked = set()
    for g, minima, witnesses in _block_referees():
        for k in range(g.r):
            w = tcn.find_hom_cycle_witness(g, k)
            assert (None if w is None else (w.stretch, w.vertices)) == witnesses[k], (g, k)
            assert tcn.min_closed_stretch(g, k) == minima[k], (g, k)
            blocked.add(w is not None)
    assert blocked == {True, False}


@pytest.mark.parametrize("r, stretches", [(5, (6, 12, 18, 24)), (6, (7, 14, 21, 28, 35))])
def test_complete_graph_stretches_frozen(r, stretches):
    # the complete r-graph on r + 1 vertices: residue k closes after k(r + 1)
    g = complete_graph(r + 1, r)
    for k, want in enumerate(stretches, start=1):
        w = tcn.find_hom_cycle_witness(g, k)
        assert w.stretch == want, k
        assert tcn.is_valid_closed_walk(g, w.vertices, k)


@settings(max_examples=60)
@given(hypergraphs(r_values=(2,), min_n=2, max_n=7))
def test_graph_case_is_bipartiteness(g):
    assert tcn.is_hom_free(g, 1) == (not o_graph_odd_closed_walk(g.edges, g.n))


@settings(max_examples=30)
@given(hypergraphs(max_n=6))
def test_upper_bound_brackets_minimum(g):
    for k in range(g.r):
        lo = tcn.min_closed_stretch(g, k)
        hi = o_closed_stretch_upper_bound(g.edges, g.n, g.r, k)
        assert (lo is None) == (hi is None)
        if lo is not None:
            assert lo <= hi
            assert hi % g.r == k % g.r


@settings(max_examples=25)
@given(hypergraphs(max_n=6, max_edges=8))
def test_walk_distances_match_level_sets_and_rotation_criterion(g):
    if not g.edges:
        return
    starts = tcn.oriented_edges(g)[:6]
    cap = 3 * g.r * len(g.edges)
    for x in starts:
        dist = tcn.walk_distances(g, x)
        levels = o_walk_levels(g.edges, g.n, g.r, x)
        comp = tcn.plain_component(g, x)
        for y in tcn.oriented_edges(g):
            for m in range(g.r):
                reached = (y, m) in dist
                oracle = any(
                    s % g.r == m
                    for s in o_reachable_stretches(levels, g.r, y, cap)
                )
                criterion = apply_to_tuple(perm_power(cyc(g.r), m), y) in comp
                assert reached == oracle == criterion


def test_min_stretch_within_linear_cap():
    for name, (g, expected) in MIN_STRETCH.items():
        for k, want in expected.items():
            if want is not None and g.edges:
                assert want <= 3 * g.r * len(g.edges), name


def test_witness_postcondition_is_checked(monkeypatch):
    monkeypatch.setattr(tcn, "is_valid_closed_walk", lambda *args, **kwargs: False)
    with pytest.raises(RuntimeError):
        tcn.find_hom_cycle_witness(tight_cycle(4, 9), 1)


def test_witness_determinism():
    g = complete_graph(5, 4)
    a = tcn.find_hom_cycle_witness(g, 1)
    b = tcn.find_hom_cycle_witness(g, 1)
    assert a == b
    assert tcn.witness_to_text(a).startswith("stretch 5\n")


@settings(max_examples=30)
@given(hypergraphs(max_n=6), st.integers(min_value=0, max_value=3))
def test_witness_iff_minimum(g, k):
    k %= g.r
    w = tcn.find_hom_cycle_witness(g, k)
    m = tcn.min_closed_stretch(g, k)
    assert (w is None) == (m is None)
    if w is not None:
        assert w.stretch == m
