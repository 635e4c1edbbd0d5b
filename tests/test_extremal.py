"""Search, degree cleanup, closeness audit, and walk construction."""

import itertools
import math
import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import o_max_hom_free, o_plain_component, o_prune_low_codegree, o_walk_through
from strategies import hypergraphs
from tighthom import extremal, tightconn
from tighthom.extremal import (
    _canonical_form,
    _reverse_walk_distances,
    brute_force_ex_hom,
    build_walk_through_T,
    check_eps_close,
    delete_to_residue_free,
    min_degree_refine,
    prune_low_codegree,
    refine_triple_set,
    verify_short_connection_bound,
)
from tighthom.hypergraph import (
    Hypergraph,
    all_triples,
    complete_oddly_bipartite,
    tight_cycle,
    twisted_tight_cycle,
)
from tighthom.tightconn import (
    is_hom_free,
    is_valid_closed_walk,
    is_valid_walk,
    min_closed_stretch,
    oriented_edges,
    plain_component,
    walk_distances,
)


def complete4(n):
    return Hypergraph(4, n, itertools.combinations(range(n), 4))


def union_fixture():
    return Hypergraph(4, 8, tight_cycle(4, 6).edges + twisted_tight_cycle(4, 8, (1, 0, 3, 2)).edges)


# ---------------------------------------------------------------------------
# exhaustive search


def test_search_single_edge_domain():
    res = brute_force_ex_hom(4, 4, {1})
    assert res.max_edges == 1
    assert res.witnesses == (Hypergraph(4, 4, [(0, 1, 2, 3)]),)
    assert res.residues == frozenset({1})
    assert res.complete and not res.canonical
    assert res.explored >= 1


@pytest.mark.parametrize(
    "n,r,ks",
    [
        (4, 4, (1,)), (5, 4, (1,)), (5, 4, (1, 3)), (5, 4, (2,)), (4, 3, (1, 2)), (5, 2, (1,)),
        (5, 3, (1,)), (5, 3, (1, 2)), (6, 5, (1,)), (6, 5, (2, 4)), (7, 6, (1,)), (7, 6, (2, 3)),
    ],
)
def test_search_matches_naive_enumeration(n, r, ks):
    best, extremal_sets = o_max_hom_free(n, r, ks)
    res = brute_force_ex_hom(n, r, set(ks))
    assert res.max_edges == best
    assert tuple(w.edges for w in res.witnesses) == extremal_sets


def test_search_bipartite_turan_on_five():
    # the maximizers are the labeled K_{n//2, n - n//2}; n = 7 walks a 21-edge pool
    for n in (5, 7):
        res = brute_force_ex_hom(n, 2, {1})
        assert res.max_edges == n * n // 4
        assert len(res.witnesses) == math.comb(n, n // 2)
        assert {w.edges for w in res.witnesses} == {
            tuple(sorted((min(u, v), max(u, v)) for u in side for v in range(n) if v not in side))
            for side in itertools.combinations(range(n), n // 2)
        }
        assert all(is_hom_free(w, 1) for w in res.witnesses)


def test_plain_search_work_is_pinned():
    # the include/exclude tree is cut on its first two edges, each subtree with its
    # own bound; a search that shares one bound explores fewer candidates and must
    # edit this pin
    res = brute_force_ex_hom(6, 4, {1})
    assert res.max_edges == 10
    assert res.explored == 2791
    # the six stars: every 4-set through one vertex, the odd bipartite graph whose
    # singleton side is that vertex
    assert [w.edges for w in res.witnesses] == [
        tuple(e for e in itertools.combinations(range(6), 4) if v in e) for v in range(6)
    ]


def test_search_canonical_five_vertices():
    plain = brute_force_ex_hom(5, 4, {1})
    canon = brute_force_ex_hom(5, 4, {1}, canonical=True)
    assert canon.max_edges == plain.max_edges == 4
    assert canon.canonical and canon.complete
    assert len(canon.witnesses) == 1
    assert all(is_hom_free(w, 1) for w in canon.witnesses)


def test_search_canonical_six_agrees_with_plain():
    canon = brute_force_ex_hom(6, 4, {1}, canonical=True)
    plain = brute_force_ex_hom(6, 4, {1})
    assert canon.max_edges == plain.max_edges == 10
    # one isomorphism class; its labeled copies place the singleton side 6 ways
    assert len(canon.witnesses) == 1
    assert len(plain.witnesses) == 6
    plain_sets = {w.edges for w in plain.witnesses}
    assert all(w.edges in plain_sets for w in canon.witnesses)


def test_search_canonical_cap():
    with pytest.raises(ValueError):
        brute_force_ex_hom(9, 4, {1}, canonical=True)


@pytest.mark.parametrize("canonical", [False, True])
def test_search_builds_its_pool_once(monkeypatch, canonical):
    calls, colex = [], extremal._colex_edges

    def counted(n, r):
        calls.append((n, r))
        return colex(n, r)

    monkeypatch.setattr(extremal, "_colex_edges", counted)
    brute_force_ex_hom(6, 4, {1}, canonical=canonical)
    assert calls == [(6, 4)]


@pytest.mark.parametrize("canonical", [False, True])
def test_search_refuses_oversized_pool_before_building_it(monkeypatch, canonical):
    def unasked(*args):
        raise AssertionError("the search did work before refusing")

    monkeypatch.setattr(extremal, "_colex_edges", unasked)
    monkeypatch.setattr(extremal, "is_hom_free", unasked)
    monkeypatch.setattr(extremal, "component_index", unasked)
    monkeypatch.setattr(extremal, "join_edge", unasked)
    monkeypatch.setattr(tightconn, "tight_components", unasked)
    for n, r, ks in [(100, 4, {1}), (9, 4, {1}), (12, 4, {1}), (11, 6, {1, 2, 3, 4, 5})]:
        message = (
            f"canonical search is capped at 8 vertices, got {n}" if canonical
            else f"pool of {math.comb(n, r)} edges exceeds SEARCH_MAX_PLAIN_POOL=28"
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            brute_force_ex_hom(n, r, ks, canonical=canonical)
        assert time.perf_counter() - start < 1


def test_search_refuses_pools_over_the_plain_ceiling():
    # a 126-edge include/exclude tree would run for hours
    start = time.perf_counter()
    with pytest.raises(ValueError, match="pool of 126 edges exceeds SEARCH_MAX_PLAIN_POOL=28"):
        brute_force_ex_hom(9, 4, {1})
    assert time.perf_counter() - start < 1


def test_search_residue_zero_forces_empty():
    res = brute_force_ex_hom(5, 4, {0})
    assert res.max_edges == 0
    assert res.witnesses == (Hypergraph(4, 5, []),)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        brute_force_ex_hom(5, 2, set())
    with pytest.raises(ValueError):
        brute_force_ex_hom(-1, 2, {1})
    with pytest.raises(ValueError, match="arity 7"):
        brute_force_ex_hom(7, 7, {1}, canonical=True)


def test_canonical_form_is_relabeling_invariant():
    g = complete_oddly_bipartite(4, 2)
    base = _canonical_form(g.n, g.edges)
    rng = random.Random(3)
    for _ in range(10):
        relab = list(range(g.n))
        rng.shuffle(relab)
        edges = [tuple(sorted(relab[v] for v in e)) for e in g.edges]
        assert _canonical_form(g.n, edges) == base


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_search_witnesses_are_sound(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    r = data.draw(st.integers(min_value=2, max_value=min(4, n)))
    ks = data.draw(st.sets(st.integers(min_value=0, max_value=r - 1), min_size=1))
    res = brute_force_ex_hom(n, r, ks)
    assert res.witnesses
    assert res.max_edges <= math.comb(n, r)
    for w in res.witnesses:
        assert len(w.edges) == res.max_edges
        assert all(is_hom_free(w, k) for k in ks)
    assert list(res.witnesses) == sorted(res.witnesses, key=lambda w: w.edges)


# ---------------------------------------------------------------------------
# degree refinement


def test_min_degree_refine_cascades_on_odd_bipartite():
    live, removed = min_degree_refine(complete_oddly_bipartite(5, 5), Fraction(1, 2), 0.1)
    assert live == frozenset()
    assert removed == (0, 1, 2, 3, 5, 4, 6, 7, 8, 9)


def test_min_degree_refine_keeps_dense_graphs():
    k6 = Hypergraph(2, 6, itertools.combinations(range(6), 2))
    assert min_degree_refine(k6, Fraction(1, 2), 0.1) == (frozenset(range(6)), ())
    assert min_degree_refine(complete4(12), 0.7, 0.1) == (frozenset(range(12)), ())


def test_min_degree_refine_drops_a_path_end():
    p3 = Hypergraph(2, 3, [(0, 1), (1, 2)])
    assert min_degree_refine(p3, 1, 0.5) == (frozenset({1, 2}), (0,))


def test_min_degree_refine_rejects_bad_constants():
    g = complete4(6)
    with pytest.raises(ValueError):
        min_degree_refine(g, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        min_degree_refine(g, 2, 0.1)
    with pytest.raises(ValueError):
        min_degree_refine(g, Fraction(1, 2), 0)


# ---------------------------------------------------------------------------
# codegree pruning


def test_prune_keeps_complete_graph():
    assert prune_low_codegree(complete4(8), 0.3) == (complete4(8), 0)


def test_prune_erases_thin_graphs():
    assert prune_low_codegree(tight_cycle(4, 9), Fraction(2, 9)) == (Hypergraph(4, 9, []), 9)
    single = Hypergraph(4, 5, [(0, 1, 2, 3)])
    assert prune_low_codegree(single, 0.3) == (Hypergraph(4, 5, []), 1)
    assert prune_low_codegree(single, 0) == (single, 0)


def test_prune_is_idempotent():
    pruned, _ = prune_low_codegree(union_fixture(), Fraction(1, 8))
    assert prune_low_codegree(pruned, Fraction(1, 8)) == (pruned, 0)


@given(
    hypergraphs(r_values=(1, 2, 3, 4), max_n=7),
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
)
def test_prune_matches_oracle(g, eps):
    pruned, deleted = prune_low_codegree(g, eps)
    assert (pruned.edges, deleted) == o_prune_low_codegree(g.edges, g.r, eps * g.n)
    assert (pruned.r, pruned.n) == (g.r, g.n)


def test_prune_rejects_negative_eps():
    with pytest.raises(ValueError):
        prune_low_codegree(complete4(5), -1)


@pytest.mark.parametrize("seed", range(6))
def test_prune_bound_and_codegree_guarantee(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    eps = rng.choice([Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)])
    edges = [e for e in itertools.combinations(range(n), 4) if rng.random() < 0.4]
    g = Hypergraph(4, n, edges)
    pruned, deleted = prune_low_codegree(g, eps)
    assert deleted == len(g.edges) - len(pruned.edges)
    assert deleted <= eps * n * math.comb(n, 3)
    codeg = {}
    for e in pruned.edges:
        for sub in itertools.combinations(e, 3):
            codeg[sub] = codeg.get(sub, 0) + 1
    assert all(d > eps * n for d in codeg.values())


# ---------------------------------------------------------------------------
# short connections


def test_short_connection_bound_on_pruned_complete_graph():
    pruned, _ = prune_low_codegree(complete4(8), 0.3)
    assert verify_short_connection_bound(pruned, 0.3)


def test_short_connection_bound_on_dense_pair_graph():
    k12 = Hypergraph(2, 12, itertools.combinations(range(12), 2))
    # bound 5 / 0.8^2 is below 8, well above the two or three hops needed
    assert verify_short_connection_bound(k12, 0.8)


def test_short_connection_vacuous_on_empty():
    assert verify_short_connection_bound(Hypergraph(4, 6, []), 0.5)


def test_short_connection_rejects_unpruned_input():
    with pytest.raises(ValueError):
        verify_short_connection_bound(Hypergraph(4, 5, [(0, 1, 2, 3)]), 0.3)
    with pytest.raises(ValueError):
        verify_short_connection_bound(Hypergraph(4, 6, []), 0)


def _pruned_inputs():
    """Codegree fixpoints, most with several plain components."""
    rng = random.Random(34)
    yield union_fixture(), Fraction(1, 16)
    yield tight_cycle(4, 9), Fraction(1, 16)
    yield tight_cycle(3, 7), Fraction(1, 8)
    two_k4 = [e for part in (range(4), range(4, 8)) for e in itertools.combinations(part, 2)]
    yield Hypergraph(2, 8, two_k4), Fraction(1, 4)
    for r, n, p in ((2, 8, 0.3), (2, 9, 0.3), (3, 6, 0.3), (3, 7, 0.5)):
        edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
        eps = Fraction(1, n + 1)
        yield prune_low_codegree(Hypergraph(r, n, edges), eps)[0], eps


def test_short_connection_audits_each_plain_component_once(monkeypatch):
    # reverse distances far past every bound here send each component to the
    # quadratic pass, whose walk searches start from each audited window in turn
    starts = []

    def recording(g, x):
        starts.append(tuple(x))
        return walk_distances(g, x)

    monkeypatch.setattr(extremal, "walk_distances", recording)
    monkeypatch.setattr(extremal, "_reverse_walk_distances",
                        lambda g, x: defaultdict(lambda: 10**12))
    for g, eps in _pruned_inputs():
        starts.clear()
        assert verify_short_connection_bound(g, eps)
        done, pos = set(), 0
        while pos < len(starts):
            # each component starts from the least window outside the earlier ones
            rep = starts[pos]
            assert rep == min(x for x in oriented_edges(g) if x not in done)
            comp = o_plain_component(g.edges, g.n, g.r, rep)
            assert sorted(starts[pos + 1 : pos + 1 + len(comp)]) == sorted(comp)
            done |= comp
            pos += 1 + len(comp)
        assert done == set(oriented_edges(g))


def test_reverse_walk_distances_mirror_forward():
    g = union_fixture()
    targets = sorted({min(plain_component(g, x)) for x in oriented_edges(g)})
    for rep in targets:
        rev = _reverse_walk_distances(g, rep)
        comp = plain_component(g, rep)
        for y in sorted(comp):
            assert rev[(y, 0)] == walk_distances(g, y)[(rep, 0)]


# ---------------------------------------------------------------------------
# residue-freeing deletion


def test_delete_to_residue_free_degenerate_scale():
    # far below the meaningful length scale the pruning simply clears the graph
    pruned, deleted = delete_to_residue_free(complete_oddly_bipartite(3, 3), 9)
    assert pruned == Hypergraph(4, 6, [])
    assert deleted == 6


def test_delete_to_residue_free_keeps_robust_graphs():
    k55 = Hypergraph(2, 10, [(a, b) for a in range(5) for b in range(5, 10)])
    pruned, deleted = delete_to_residue_free(k55, 101)
    assert (pruned, deleted) == (k55, 0)
    assert is_hom_free(pruned, 1)

    godd = complete_oddly_bipartite(5, 5)
    pruned, deleted = delete_to_residue_free(godd, 10**6 + 1)
    assert (pruned, deleted) == (godd, 0)


def test_delete_to_residue_free_preconditions():
    with pytest.raises(ValueError):
        delete_to_residue_free(complete4(6), 4)
    with pytest.raises(ValueError):
        delete_to_residue_free(complete4(8), 9)
    k55 = Hypergraph(2, 10, [(a, b) for a in range(5) for b in range(5, 10)])
    with pytest.raises(ValueError):
        delete_to_residue_free(k55, 100)


def test_delete_to_residue_free_eps_is_exact(monkeypatch):
    # eps must be the least multiple of 2^-32 with eps^r (length - k) >= r(2r+1)
    chosen = []
    monkeypatch.setattr(extremal, "prune_low_codegree", lambda g, eps: (chosen.append(eps), (g, 0))[1])
    for r in (2, 3, 4):
        for length in [*range(r + 1, 300), 10**6 + 1, 10**12 + 7, 10**30 + 3]:
            chosen.clear()
            delete_to_residue_free(Hypergraph(r, r + 1, []), length)
            (eps,) = chosen
            rest = length - length % r
            assert (eps * 2**32).denominator == 1
            assert eps**r * rest >= r * (2 * r + 1), (r, length)
            assert (eps - Fraction(1, 2**32)) ** r * rest < r * (2 * r + 1), (r, length)


@pytest.mark.parametrize("seed", range(4))
def test_delete_to_residue_free_random_subgraphs(seed):
    rng = random.Random(seed)
    base = complete_oddly_bipartite(4, 4)
    edges = [e for e in base.edges if rng.random() < 0.5]
    g = Hypergraph(4, 8, edges)
    length = 10**5 + 1
    pruned, deleted = delete_to_residue_free(g, length)
    assert is_hom_free(pruned, 1)
    assert deleted <= 2 * 4 * 8**4 / length ** (1 / 4)
    eps = Fraction(float((4 * 9 / (length - 1)) ** (1 / 4)))
    assert deleted <= eps * 8 * math.comb(8, 3)


# ---------------------------------------------------------------------------
# closeness audit


def test_eps_close_exact_odd_bipartite():
    report = check_eps_close(complete_oddly_bipartite(5, 5), range(5), range(5, 10), all_triples(10), 0)
    assert report.is_close
    assert report.epsilon == 0
    assert report.violations_1 == () and report.violations_2 == () and report.violations_3 == ()
    assert report.remark_applies
    assert report.remark_violations_2 == () and report.remark_violations_3 == ()


def test_eps_close_flags_one_missing_edge():
    g = complete_oddly_bipartite(5, 5)
    missing = Hypergraph(4, 10, [e for e in g.edges if e != (0, 1, 2, 5)])
    report = check_eps_close(missing, range(5), range(5, 10), all_triples(10), 0)
    assert not report.is_close
    assert report.violations_1 == ((0, 1, 2), (0, 1, 5), (0, 2, 5), (1, 2, 5))
    assert report.violations_2 == () and report.violations_3 == ()


def test_eps_close_empty_triples_fail_vertex_condition():
    report = check_eps_close(complete_oddly_bipartite(5, 5), range(5), range(5, 10), Hypergraph(3, 10, []), 0.5)
    assert report.violations_1 == () and report.violations_2 == ()
    assert report.violations_3 == tuple((v, tag) for v in range(10) for tag in ("A", "B"))
    assert not report.is_close


def test_eps_close_remark_gate_and_thresholds():
    g28 = complete_oddly_bipartite(2, 8)
    report = check_eps_close(g28, range(2), range(2, 10), all_triples(10), 0.5)
    assert not report.remark_applies

    clique = Hypergraph(3, 10, itertools.combinations(range(6), 3))
    report = check_eps_close(complete_oddly_bipartite(5, 5), range(5), range(5, 10), clique, 0.3)
    assert report.remark_applies
    assert (0, 1) in report.remark_violations_2
    assert 9 in report.remark_violations_3


def test_eps_close_validates_input():
    g = complete_oddly_bipartite(5, 5)
    t = all_triples(10)
    with pytest.raises(ValueError):
        check_eps_close(g, range(6), range(5, 10), t, 0)
    with pytest.raises(ValueError):
        check_eps_close(g, range(4), range(5, 10), t, 0)
    with pytest.raises(ValueError):
        check_eps_close(g, range(5), range(5, 10), all_triples(9), 0)
    with pytest.raises(ValueError):
        check_eps_close(g, range(5), range(5, 10), t, 2)
    with pytest.raises(ValueError):
        check_eps_close(tight_cycle(3, 7), range(3), range(3, 7), all_triples(7), 0)
    with pytest.raises(ValueError):
        check_eps_close(g, range(5), range(5, 10), g, 0)  # waypoints are not a 3-graph


def perturbed_host():
    g = complete_oddly_bipartite(12, 12)
    rng = random.Random(7)
    dropped = rng.sample(sorted(g.edges), 5)
    return Hypergraph(4, 24, set(g.edges) - set(dropped))


def test_eps_close_tolerates_five_deletions_at_one_tenth():
    sub = perturbed_host()
    t = all_triples(24)
    assert check_eps_close(sub, range(12), range(12, 24), t, 0.1).is_close
    tighter = check_eps_close(sub, range(12), range(12, 24), t, 0.09)
    assert not tighter.is_close
    # each deleted edge leaves three waypoint triples one extension short
    assert len(tighter.violations_1) == 15


# ---------------------------------------------------------------------------
# triple family refinement


def test_refine_triple_set_identity_on_uniform_family():
    keep, refined = refine_triple_set(all_triples(50), 1, 0.06, 0.25)
    assert keep == frozenset(range(50))
    assert refined == all_triples(50)


def test_refine_triple_set_trims_thin_vertex_and_poor_pair():
    deleted = {(0, 1, z) for z in range(7, 19)}
    t = Hypergraph(3, 20, (tri for tri in itertools.combinations(range(19), 3) if tri not in deleted))
    keep, refined = refine_triple_set(t, 0.9, 0.4, 0.5)
    assert keep == frozenset(range(19))
    assert len(refined.edges) == 952
    assert not refined.has_edge((0, 1, 2)) and not refined.has_edge((0, 1, 6))
    assert refined.has_edge((0, 2, 3))
    assert refined.completions((0, 1)) == ()


def test_refine_triple_set_preconditions():
    t = all_triples(50)
    with pytest.raises(ValueError):
        refine_triple_set(t, 1, 0.06, 0.6)  # delta^4 > eps
    with pytest.raises(ValueError):
        refine_triple_set(t, Fraction(1, 100), 0.06, 0.25)  # delta > 8 alpha
    with pytest.raises(ValueError):
        refine_triple_set(all_triples(3), 1, 0.06, 0.25)  # n too small
    with pytest.raises(ValueError):
        refine_triple_set(Hypergraph(3, 50, [(0, 1, 2)]), 1, 0.06, 0.25)  # too sparse
    heavy = Hypergraph(3, 12, itertools.combinations(range(12), 3))
    with pytest.raises(ValueError):
        refine_triple_set(heavy, 0.5, 0.06, 0.25)  # a pair degree above alpha n
    with pytest.raises(ValueError):
        refine_triple_set(complete4(6), 1, 0.06, 0.25)  # waypoints are not a 3-graph


# ---------------------------------------------------------------------------
# walks through the family


def test_walk_through_exact_odd_bipartite():
    g = complete_oddly_bipartite(6, 6)
    w = build_walk_through_T(
        g, range(6), range(6, 12), all_triples(12), 0,
        ((0, 1, 2), (3, 4, 6)), ("B", "A", "A", "A", "B", "A"),
    )
    assert w.vertices == (0, 1, 2, 6, 0, 1, 2, 6, 0, 3, 4, 6)
    assert w.stretch == 8
    assert is_valid_walk(g, w.vertices)
    t = all_triples(12)
    assert all(t.has_edge(w.vertices[i - 2 : i + 1]) for i in range(2, len(w.vertices) - 6))


def test_walk_routes_through_an_extra_edge():
    host = Hypergraph(4, 12, complete_oddly_bipartite(6, 6).edges + ((0, 1, 2, 3),))
    w = build_walk_through_T(
        host, range(6), range(6, 12), all_triples(12), 0,
        ((1, 0, 3), (0, 3, 2)), (2, "B", "A", "A", "A", "B", 1),
    )
    assert w.vertices == (1, 0, 3, 2, 6, 0, 3, 2, 6, 1, 0, 3, 2)
    assert w.stretch == 9
    assert is_valid_closed_walk(host, w.vertices, 1)
    # the single even edge flips residue-1 freeness of the host
    assert not is_hom_free(host, 1)
    assert is_hom_free(complete_oddly_bipartite(6, 6), 1)
    assert min_closed_stretch(host, 1) == 5


def test_walk_through_perturbed_host():
    sub = perturbed_host()
    w = build_walk_through_T(
        sub, range(12), range(12, 24), all_triples(24), 0.1,
        ((0, 12, 1), (2, 3, 4)), ("A", "A", "B", 5, "A", "A", "B"),
    )
    assert w.vertices == (0, 12, 1, 2, 0, 12, 5, 1, 0, 12, 2, 3, 4)
    assert w.stretch == 9
    assert is_valid_walk(sub, w.vertices)


def test_walk_returns_none_when_no_routing_exists():
    g = complete_oddly_bipartite(6, 6)
    w = build_walk_through_T(
        g, range(6), range(6, 12), all_triples(12), 0,
        ((0, 1, 2), (3, 4, 6)), (0, "B", "A", "A", "A", "B"),
    )
    assert w is None


def test_walk_preconditions():
    g = complete_oddly_bipartite(6, 6)
    t = all_triples(12)
    a, b = range(6), range(6, 12)
    ends = ((0, 1, 2), (3, 4, 6))
    with pytest.raises(ValueError):
        build_walk_through_T(g, a, b, t, 0.2, ends, ("B", "A", "A", "A", "B", "A"))
    missing = Hypergraph(4, 12, [e for e in g.edges if e != (0, 1, 2, 6)])
    with pytest.raises(ValueError):
        build_walk_through_T(missing, a, b, t, 0, ends, ("B", "A", "A", "A", "B", "A"))
    small = Hypergraph(3, 12, [tri for tri in itertools.combinations(range(12), 3) if tri != (0, 1, 2)])
    with pytest.raises(ValueError):
        build_walk_through_T(g, a, b, small, 0, ends, ("B", "A", "A", "A", "B", "A"))
    with pytest.raises(ValueError):
        build_walk_through_T(g, a, b, t, 0, ends, ("B", "A", "A", "A", "B"))
    with pytest.raises(ValueError):
        build_walk_through_T(g, a, b, t, 0, ends, ("B", "A", "C", "A", "B", "A"))
    with pytest.raises(ValueError):
        build_walk_through_T(g, a, b, t, 0, ends, ("B", "A", 99, "A", "B", "A"))
    with pytest.raises(ValueError):
        build_walk_through_T(g, a, b, t, 0, ends, ("A", "A", "A", "A", "B", "B"))


def test_walk_state_search_settles_dead_ends_quickly():
    # no walk exists, and a search that forgets failed (position, last three)
    # states retries them for about a minute before saying so
    g = complete_oddly_bipartite(6, 6)
    start = time.perf_counter()
    w = build_walk_through_T(
        g, range(6), range(6, 12), all_triples(12), 0,
        ((3, 2, 9), (8, 11, 7)), ("A", "A", "A", "B", "A", "A", "A", "B", "A", "A", "A"),
    )
    assert w is None
    assert time.perf_counter() - start < 1


def _walk_draw(rng):
    """A godd(a, a) host with a few extra edges, endpoints and a 6-8 entry pattern.

    Sides follow the odd-window rule mostly, so both walks and dead ends turn up;
    some entries are explicit vertices.
    """
    a = rng.choice((4, 5))
    n = 2 * a
    base = complete_oddly_bipartite(a, a)
    spare = [e for e in itertools.combinations(range(n), 4) if not base.has_edge(e)]
    g = Hypergraph(4, n, base.edges + tuple(rng.sample(spare, rng.randrange(4))))
    sides = [rng.choice("AB") for _ in range(3)]
    for _ in range(rng.randrange(6, 9) + 3):
        odd = "B" if sides[-3:].count("A") % 2 else "A"
        sides.append(odd if rng.random() < 0.85 else rng.choice("AB"))
    part = {"A": range(a), "B": range(a, n)}
    ends = (_distinct_triple(rng, part, sides[:3]), _distinct_triple(rng, part, sides[-3:]))
    pattern = [rng.choice(part[s]) if rng.random() < 0.15 else s for s in sides[3:-3]]
    return g, (range(a), range(a, n)), ends, pattern


def _distinct_triple(rng, part, labels):
    """Three distinct vertices, the j-th drawn from the part labelled ``labels[j]``."""
    out = []
    for s in labels:
        out.append(rng.choice([v for v in part[s] if v not in out]))
    return tuple(out)


def test_walk_matches_the_product_oracle():
    compared, found = 0, 0
    for seed in range(160):
        g, (a_side, b_side), ends, pattern = _walk_draw(random.Random(seed))
        t = all_triples(g.n)
        try:
            w = build_walk_through_T(g, a_side, b_side, t, Fraction(1, 10), ends, pattern)
        except ValueError as exc:
            assert "even A-count" in str(exc)
            continue
        expected = o_walk_through(g.edges, t.edges, a_side, b_side, ends, pattern)
        assert (w and w.vertices) == expected, (seed, ends, pattern)
        compared += 1
        found += w is not None
    assert compared >= 100
    assert 0 < found < compared


def test_walk_matches_the_product_oracle_on_thinned_waypoints():
    # on the hosts above every triple is a waypoint; here a pair-disjoint set of
    # triples among the low vertices of each part is dropped, which costs each
    # pair at most one third, so the audit at 1/10 still passes on 24 vertices
    g = perturbed_host()
    low = {"A": range(6), "B": range(12, 18)}
    everything = all_triples(24)
    compared, rerouted = 0, 0
    for seed in range(40):
        rng = random.Random(seed)
        dropped, used = set(), set()
        for tri in rng.sample(list(itertools.combinations([*low["A"], *low["B"]], 3)), 120):
            pairs = set(itertools.combinations(tri, 2))
            if used.isdisjoint(pairs):
                dropped.add(tri)
                used |= pairs
        t = Hypergraph(3, 24, set(everything.edges) - dropped)
        sides = [rng.choice("AB") for _ in range(3)]
        for _ in range(9):
            sides.append("B" if sides[-3:].count("A") % 2 else "A")
        start, end = _distinct_triple(rng, low, sides[:3]), _distinct_triple(rng, low, sides[9:])
        if not (t.has_edge(start) and t.has_edge(end)):
            continue
        labelled = set(rng.sample(range(6), 3))
        pattern = [s if j in labelled else rng.choice(low[s]) for j, s in enumerate(sides[3:9])]
        w = build_walk_through_T(g, range(12), range(12, 24), t, Fraction(1, 10), (start, end), pattern)
        expected = o_walk_through(g.edges, t.edges, range(12), range(12, 24), (start, end), pattern)
        assert (w and w.vertices) == expected, (seed, start, end, pattern)
        compared += 1
        rerouted += expected != o_walk_through(
            g.edges, everything.edges, range(12), range(12, 24), (start, end), pattern
        )
    assert compared >= 20
    assert rerouted
