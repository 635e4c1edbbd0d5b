import itertools
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tighthom import hypergraph as hg
from tighthom.permgroup import cyc, identity

from strategies import hypergraphs


def test_constructor_canonicalizes():
    g = hg.Hypergraph(3, 5, [(2, 1, 0), (0, 1, 2), (4, 3, 2)])
    assert g.edges == ((0, 1, 2), (2, 3, 4))
    assert g.has_edge((1, 2, 0))
    assert not g.has_edge((0, 1, 3))
    assert g == hg.Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
    assert hash(g) == hash(hg.Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)]))


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        hg.Hypergraph(3, 5, [(0, 1)])
    with pytest.raises(ValueError):
        hg.Hypergraph(3, 5, [(0, 1, 1)])
    with pytest.raises(ValueError):
        hg.Hypergraph(3, 5, [(0, 1, 5)])
    with pytest.raises(ValueError):
        hg.Hypergraph(0, 5, [])
    with pytest.raises(AttributeError):
        hg.Hypergraph(3, 5, []).n = 7


def test_tight_cycle_shape():
    c9 = hg.tight_cycle(4, 9)
    assert c9.n == 9 and len(c9.edges) == 9
    assert c9.has_edge((0, 1, 2, 3)) and c9.has_edge((6, 7, 8, 0))
    assert not c9.has_edge((0, 1, 2, 4))
    pentagon = hg.tight_cycle(2, 5)
    assert pentagon.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    with pytest.raises(ValueError):
        hg.tight_cycle(4, 4)


def test_twisted_cycle_with_identity_is_tight_cycle():
    for r, ell in [(2, 4), (3, 7), (4, 8), (4, 9)]:
        assert hg.twisted_tight_cycle(r, ell, identity(r)) == hg.tight_cycle(r, ell)


def test_twisted_cycle_rotated_wrap():
    g = hg.twisted_tight_cycle(4, 8, cyc(4))
    # five straight windows, then the wrap re-enters through (3,0,1,2)
    assert g.has_edge((5, 6, 7, 3))
    assert g.has_edge((6, 7, 3, 0))
    assert g.has_edge((7, 3, 0, 1))
    assert not g.has_edge((5, 6, 7, 0))
    assert len(g.edges) == 8
    with pytest.raises(ValueError):
        hg.twisted_tight_cycle(4, 7, cyc(4))
    # a repeated slot is no permutation, whatever the length
    with pytest.raises(ValueError, match="not a permutation"):
        hg.twisted_tight_cycle(4, 9, (0, 0, 1, 2))


def test_oddly_bipartite_counts():
    def expected(a, b):
        return sum(
            len(list(itertools.combinations(range(a), i)))
            * len(list(itertools.combinations(range(b), 4 - i)))
            for i in (1, 3)
        )

    for a, b in [(3, 3), (4, 4), (5, 6)]:
        g = hg.complete_oddly_bipartite(a, b)
        assert g.n == a + b
        assert len(g.edges) == expected(a, b)
        for e in g.edges:
            assert sum(1 for v in e if v < a) % 2 == 1
    assert len(hg.complete_oddly_bipartite(3, 3).edges) == 6
    with pytest.raises(ValueError):
        hg.complete_oddly_bipartite(3, 3, r=3)
    with pytest.raises(ValueError):
        hg.complete_oddly_bipartite(2, 1)


def test_blowup_counts_and_membership():
    g = hg.blowup(hg.tight_cycle(2, 3), 2)
    assert g.n == 6
    assert len(g.edges) == 12
    assert g.has_edge((0, 2)) and g.has_edge((1, 3))
    assert not g.has_edge((0, 1))  # clones of one vertex stay non-adjacent
    with pytest.raises(ValueError):
        hg.blowup(g, 0)


def test_tournament_triangles():
    arcs = hg.rotational_tournament(5)
    g = hg.tournament_3graph(5, arcs)
    assert g.n == 5
    assert len(g.edges) == 5  # regular tournament: (n^3 - n)/24
    transitive = {(u, v) for u, v in itertools.combinations(range(4), 2)}
    assert hg.tournament_3graph(4, transitive).edges == ()
    with pytest.raises(ValueError):
        hg.tournament_3graph(3, {(0, 1), (1, 0), (1, 2), (2, 0)})
    with pytest.raises(ValueError):
        hg.rotational_tournament(4)


def _never_consumed():
    raise AssertionError("arcs were read before the size check")
    yield


def test_generators_refuse_oversized_inputs_up_front():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"godd\(40, 40, r=8\) makes 28,987,537,150 vertex sets, over GEN_MAX_SETS=1,000,000"):
        hg.complete_oddly_bipartite(40, 40, 8)
    with pytest.raises(ValueError, match="GEN_MAX_SETS"):
        hg.blowup(hg.tight_cycle(4, 5), 100)  # 5 * 100**4 edges
    with pytest.raises(ValueError, match="GEN_MAX_SETS"):
        hg.tournament_3graph(10**6, _never_consumed())
    with pytest.raises(ValueError, match="GEN_MAX_SETS"):
        hg.rotational_tournament(10**9 + 1)
    with pytest.raises(ValueError, match="GEN_MAX_SETS"):
        hg.all_triples(183)
    with pytest.raises(ValueError, match="GEN_MAX_SETS"):
        hg.tight_cycle(4, 10**12)
    with pytest.raises(ValueError, match="GEN_MAX_SETS"):
        hg.twisted_tight_cycle(4, 10**6, cyc(4))  # 10**6 + 1 windows
    assert time.perf_counter() - start < 1
    # all_triples(182) is the largest complete 3-graph admitted; the largest the
    # tests, demos and bench build is all_triples(50)
    assert math.comb(182, 3) <= hg.GEN_MAX_SETS


def test_link_degree_neighborhood():
    g = hg.complete_oddly_bipartite(4, 4)
    lk = hg.link(g, 0)
    assert lk.r == 3
    assert len(lk.edges) == 16
    assert hg.degree(g, 0) == 16
    assert hg.degree(g, (4, 5, 6)) == 4
    # a triple meeting the first part evenly extends by the whole first part
    assert hg.neighborhood(g, (4, 5, 6)) == {0, 1, 2, 3}
    assert hg.neighborhood(g, (0, 1, 4)) == {2, 3}
    assert hg.neighborhood(g, (4, 5, 6), within=(0, 1)) == {0, 1}
    # completing {4,5} from the second part needs exactly one first-part vertex
    assert hg.neighborhood(g, (4, 5)) == {(a, b) for a in range(4) for b in (6, 7)}
    with pytest.raises(ValueError):
        hg.degree(g, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        hg.link(g, 8)


def test_shadow():
    assert hg.shadow([(0, 1, 2)]) == {(0, 1), (0, 2), (1, 2)}
    assert len(hg.shadow(hg.all_triples(4).edges)) == 6
    assert hg.shadow([]) == set()


def test_triple_set_membership():
    ts = hg.Hypergraph(3, 5, [(2, 1, 0), (1, 2, 3)])
    assert ts.has_edge((0, 1, 2))
    assert ts.has_edge((3, 2, 1))
    assert not ts.has_edge((0, 1, 3))
    assert len(ts.edges) == 2
    assert len(hg.all_triples(5).edges) == 10
    with pytest.raises(ValueError):
        hg.Hypergraph(3, 3, [(0, 1, 3)])


@given(hypergraphs())
def test_text_round_trip(g):
    assert hg.from_text(hg.to_text(g)) == g


def test_text_comments_and_errors():
    g = hg.from_text("# generated\n2 4\n0 1\n# middle\n2 3\n")
    assert g == hg.Hypergraph(2, 4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        hg.from_text("just nonsense")
    with pytest.raises(ValueError):
        hg.from_text("")


@given(hypergraphs(r_values=(3,), max_n=6))
def test_triples_text_round_trip(g):
    # a triple file is a 3-graph text file, loaded by from_text
    back = hg.from_text(hg.to_text(g))
    assert back == g
    assert all(back.has_edge(t) == (t in g.edges) for t in itertools.combinations(range(g.n), 3))


@given(
    hypergraphs(r_values=(1, 2, 3, 4), max_n=6),
    st.lists(st.lists(st.integers(min_value=-2, max_value=8), max_size=6), max_size=40),
)
def test_has_edge_matches_edge_set(g, probes):
    edge_set = set(g.edges)
    edge_probes = [list(e) for e in g.edges] + [list(e[:-1]) + [e[0]] for e in g.edges]
    for x in probes + edge_probes:
        assert g.has_edge(x) == (tuple(sorted(x)) in edge_set)
