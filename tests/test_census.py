import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighthom import census as cen
from tighthom.hypergraph import (
    complete_oddly_bipartite,
    rotational_tournament,
    tight_cycle,
)


def naive_triangle_counts(c: cen.EdgeColoring2):
    """O(n^3) reference: classify every triple by its three pair values."""
    tg = tp = tc = 0
    for x, y, z in itertools.combinations(range(c.n), 3):
        vals = {frozenset(p): c.value(*p) for p in ((x, y), (x, z), (y, z))}
        if all(v == (cen.GREEN,) for v in vals.values()):
            tg += 1
        if all(v[0] == cen.PURPLE for v in vals.values()):
            heads = [v[2] for v in vals.values()]
            if sorted(heads) == sorted((x, y, z)):  # each vertex entered once
                tp += 1
        for apex in (x, y, z):
            base = tuple(v for v in (x, y, z) if v != apex)
            if vals[frozenset(base)] == (cen.BLUE,) and all(
                vals[frozenset((b, apex))] == (cen.RED, b, apex) for b in base
            ):
                tc += 1
    return tg, tp, tc


def all_colorings(n):
    pairs = list(itertools.combinations(range(n), 2))
    options = [
        [(cen.BLUE,), (cen.GREEN,), (cen.RED, u, v), (cen.RED, v, u),
         (cen.PURPLE, u, v), (cen.PURPLE, v, u)]
        for u, v in pairs
    ]
    for choice in itertools.product(*options):
        yield cen.EdgeColoring2(n=n, colors=dict(zip(pairs, choice)))


def test_all_green_k4():
    c = cen.EdgeColoring2(4, {p: (cen.GREEN,) for p in itertools.combinations(range(4), 2)})
    census = cen.count_triangle_types(c)
    assert census.t_green == 4
    assert census.gamma == 1 and census.alpha == census.beta == census.delta == 0


def test_rotational_five_tournament():
    c = cen.purple_tournament_coloring(5, rotational_tournament(5))
    census = cen.count_triangle_types(c)
    assert census.t_purple == 5
    assert census.delta == Fraction(1, 2)
    lhs, rhs, ok = cen.goodman_check(c)
    assert ok and lhs == 20
    report = cen.check_color_inequalities(census, 5)
    assert report.all_ok
    assert report.purple_refined_ok  # 24*5 == 5^3 - 5, the sharp form is tight
    assert not cen.check_color_inequalities(census, 4).purple_refined_ok


def test_transitive_tournament_goodman():
    beats = {(i, j) for i, j in itertools.permutations(range(6), 2) if i < j}
    c = cen.purple_tournament_coloring(6, beats)
    census = cen.count_triangle_types(c)
    assert census.t_purple == 0
    _, _, ok = cen.goodman_check(c)
    assert ok
    assert cen.check_color_inequalities(census, 6).all_ok


def test_cherry_coloring_counts():
    c = cen.cherry_coloring(3, 3)
    census = cen.count_triangle_types(c)
    assert (census.t_cherry, census.t_green, census.t_purple) == (9, 1, 0)
    assert census.alpha == Fraction(9, 30) and census.beta == Fraction(3, 15)
    report = cen.check_color_inequalities(census, 6)
    assert report.all_ok
    assert census.t_green + census.t_purple + census.t_cherry <= report.f_bound


def test_cherry_alt_is_decided_exactly():
    # (2*sqrt(3) - 3) * n^3 / 6 exceeds this count by about 1.04e-4; the same
    # bound evaluated in floats rounds to below the count.
    n, tc = 20514, 667_748_441_371
    census = cen.TriangleCensus(n, 0, 0, tc, Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    assert cen.check_color_inequalities(census, n).cherry_alt_ok
    census = cen.TriangleCensus(n, 0, 0, tc + 1, Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    assert not cen.check_color_inequalities(census, n).cherry_alt_ok


def test_goodman_requires_purity():
    with pytest.raises(ValueError):
        cen.goodman_check(cen.cherry_coloring(2, 2))


def test_coloring_validation():
    with pytest.raises(ValueError):
        cen.EdgeColoring2(3, {(0, 1): (cen.BLUE,), (0, 2): (cen.GREEN,)})
    with pytest.raises(ValueError):
        cen.EdgeColoring2(2, {(0, 1): (cen.RED, 0, 2)})
    with pytest.raises(ValueError):
        cen.EdgeColoring2(2, {(0, 1): (cen.BLUE, 0, 1)})
    with pytest.raises(ValueError):
        cen.EdgeColoring2(2, {(0, 1): ("mauve",)})


def test_text_round_trip():
    c = cen.random_edge_coloring(7, 11)
    assert cen.edge_coloring_from_text(cen.edge_coloring_to_text(c)) == c


@pytest.mark.parametrize("seed", range(12))
def test_random_census_matches_naive_and_passes(seed):
    c = cen.random_edge_coloring(5 + seed % 4, seed)
    census = cen.count_triangle_types(c)
    assert (census.t_green, census.t_purple, census.t_cherry) == naive_triangle_counts(c)
    assert 2 * census.alpha + census.beta + census.gamma + 2 * census.delta == 1
    report = cen.check_color_inequalities(census, c.n)
    assert report.all_ok
    assert report.triangles_total <= report.f_bound


def test_exhaustive_n3_census():
    for c in all_colorings(3):
        census = cen.count_triangle_types(c)
        assert (census.t_green, census.t_purple, census.t_cherry) == naive_triangle_counts(c)
        assert cen.check_color_inequalities(census, 3).all_ok


def test_edge_coloring_from_link():
    from tighthom import coloring as col

    tc4 = col.triple_coloring_from_accordant(col.godd_canonical_coloring(4, 4))
    w = col.redgreen_vertex(tc4)
    link = col.simplify_link_coloring(col.link_coloring(tc4, w))
    c = cen.edge_coloring_from_link(link, 8, w)
    census = cen.count_triangle_types(c)
    assert census.alpha == Fraction(12, 42)
    assert census.t_cherry == 3 * 4  # blue pairs in A against every apex in B
    assert cen.check_color_inequalities(census, 7).all_ok


def test_free_link_pair_is_rejected():
    with pytest.raises(ValueError):
        cen.edge_coloring_from_link({(1, 2): ("free",)}, 3, 0)


def test_eval_g_and_f_values():
    assert cen.eval_f(0.25, 0.25, 0.25, 0) == 0.5
    assert cen.eval_g(0, 0.3, 0) == 0
    assert cen.eval_g(0, 0, 0) == 0
    assert cen.eval_g(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)) == 0.5
    with pytest.raises(ValueError):
        cen.eval_g(-0.1, 0, 0)
    with pytest.raises(ValueError):
        cen.eval_f(0, 0, 0, -1e-9)


def test_f_below_half_when_delta_large():
    # once a fifth of the pairs are purple in each direction, f drops under 1/2
    d = 0.18
    for a in (0.0, 0.1, 0.2, 0.3):
        for g in (0.0, 0.05, 0.1, 0.2):
            b = 1 - 2 * a - g - 2 * d
            if b < 0 or g > a:
                continue
            assert cen.eval_f(a, b, g, d) < 0.5


def test_maximizer_finds_the_extremal_point():
    best, point, cert = cen.maximize_f_on_R(Fraction(1, 40))
    assert 0.5 - 1e-6 <= best <= 0.5 + 1e-9
    target = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(0))
    assert max(abs(float(p - t)) for p, t in zip(point, target)) <= 1e-2
    assert cert["evaluations"] > 0 and cert["gap"] >= 0
    assert best <= cert["upper_bound"]


def test_maximizer_gap_shrinks_with_step():
    _, _, coarse = cen.maximize_f_on_R(Fraction(1, 20), refinements=1)
    _, _, fine = cen.maximize_f_on_R(Fraction(1, 40), refinements=1)
    assert fine["gap"] <= coarse["gap"]


def test_maximizer_respects_regions():
    best, _, _ = cen.maximize_f_on_R(
        Fraction(1, 40), region=lambda a, b, g, d: g + 2 * d <= Fraction(1, 10)
    )
    assert best < 0.5
    best_slice, point, _ = cen.maximize_f_on_R(
        Fraction(1, 40), region=lambda a, b, g, d: g == a
    )
    assert best_slice >= 0.5 - 1e-6
    assert abs(float(point[1]) - 0.25) <= 1e-2
    with pytest.raises(ValueError):
        cen.maximize_f_on_R(Fraction(1, 40), region=lambda a, b, g, d: False)
    with pytest.raises(ValueError):
        cen.maximize_f_on_R(0)


def test_e_opt_small_values():
    assert cen.e_opt(4) == (1, [(3, 1)])
    assert cen.e_opt(5) == (4, [(4, 1)])
    assert cen.e_opt(6) == (10, [(5, 1)])
    assert cen.e_opt(8) == (40, [(6, 2)])
    with pytest.raises(ValueError):
        cen.e_opt(-1)


def test_e_opt_bounds_up_to_200():
    for n in range(201):
        top, splits = cen.e_opt(n)
        assert n**4 - 6 * n**3 <= 48 * top <= n**4
        for a, b in splits:
            assert a + b == n and a >= b


def test_e_opt_matches_generated_graphs():
    for n in (5, 6, 8, 9):
        top, splits = cen.e_opt(n)
        a, b = splits[0]
        assert len(complete_oddly_bipartite(a, b).edges) == top


def test_degree_spread():
    assert cen.degree_spread(tight_cycle(4, 9)) == 0
    assert cen.degree_spread(complete_oddly_bipartite(4, 4)) == 0
    from tighthom.hypergraph import Hypergraph

    single = Hypergraph(4, 6, [(0, 1, 2, 3)])
    assert cen.degree_spread(single) == 1 <= math.comb(6, 2)


def test_milne_check_cases():
    ok, slack = cen.milne_check((1, 1, 1), (1, 1, 1))
    assert ok and slack == 0
    ok, slack = cen.milne_check((1, 0), (0, 1))
    assert ok and slack == 1
    with pytest.raises(ValueError):
        cen.milne_check((0,), (0,))
    with pytest.raises(ValueError):
        cen.milne_check((1, -1), (1, 3))
    with pytest.raises(ValueError):
        cen.milne_check((1,), (1, 2))


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(lambda p: sum(p) > 0),
        min_size=1,
        max_size=20,
    )
)
def test_milne_always_holds(pairs):
    ok, slack = cen.milne_check([p[0] for p in pairs], [p[1] for p in pairs])
    assert ok and slack >= 0


def test_milne_stability_clean_cases():
    half = [Fraction(1, 2)] * 10
    ok, exc = cen.milne_stability_check(half, half, Fraction(1, 10))
    assert ok and exc == set()
    zero = [Fraction(0)] * 10
    ok, exc = cen.milne_stability_check(zero, zero, Fraction(1, 10))
    assert ok and exc == set()


def test_milne_stability_flags_odd_pair():
    a = [Fraction(1, 2)] * 60 + [Fraction(3, 10)]
    ok, exc = cen.milne_stability_check(a, a, Fraction(1, 10))
    assert exc == {60}
    assert ok  # one exception is within the eps*n allowance


def test_milne_stability_near_equality_forces_structure():
    # identity: sum ab = (1/4) sum (a+b) - (1/4) sum [(a+b)(1-a-b) + (a-b)^2]
    for pairs in [
        [(Fraction(1, 2), Fraction(1, 2))] * 20 + [(Fraction(0), Fraction(1, 100))] * 3,
        [(Fraction(49, 100), Fraction(51, 100))] * 30,
    ]:
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        ok, _ = cen.milne_stability_check(a, b, Fraction(1, 5))
        assert ok


def test_milne_stability_rejects_bad_ranges():
    with pytest.raises(ValueError):
        cen.milne_stability_check([Fraction(3, 4)], [Fraction(1, 2)], Fraction(1, 10))
    with pytest.raises(ValueError):
        cen.milne_stability_check([Fraction(1, 4)], [Fraction(1, 4)], 0)
