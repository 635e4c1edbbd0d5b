import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tighthom import census as cen
from tighthom.hypergraph import (
    complete_oddly_bipartite,
    rotational_tournament,
    tight_cycle,
)

from oracles import o_e_opt, o_triangle_counts


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


@pytest.mark.parametrize(
    "colors",
    [
        {(0, 1): (cen.BLUE,), (0, 2): (cen.BLUE,), (2, 1): (cen.BLUE,)},  # reversed key
        {(0, 1): (cen.BLUE,), (0, 2): (cen.BLUE,), (0, 0): (cen.BLUE,)},  # self-pair
        {(0, 1): (cen.BLUE,), (0, 2): (cen.BLUE,), (1, 3): (cen.BLUE,)},  # vertex >= n
        {(0, 1): (cen.BLUE,), (0, 2): (cen.BLUE,), (-1, 2): (cen.BLUE,)},  # negative vertex
        {(0, 1): (cen.RED, 0, 2), (0, 2): (cen.BLUE,), (1, 2): (cen.BLUE,)},  # orients (0, 2)
        {(0, 1): (cen.PURPLE, 1, 1), (0, 2): (cen.BLUE,), (1, 2): (cen.BLUE,)},
        {(0, 1): (cen.RED, [0], 1), (0, 2): (cen.BLUE,), (1, 2): (cen.BLUE,)},  # unhashable endpoint
        # a bad key outranks a bad value that comes first
        {(0, 1): ("mauve",), (0, 2): (cen.BLUE,), (2, 1): (cen.BLUE,)},
        # a tail outside the vertex range is refused, never used as a row index
        {(0, 1): (cen.RED, 5, 1), (0, 2): (cen.BLUE,), (2, 1): (cen.BLUE,)},
    ],
)
def test_coloring_validation_checks_each_key_and_value(colors):
    # the pair count is right in every case, so only the per-pair checks can refuse
    assert len(colors) == math.comb(3, 2)
    with pytest.raises(ValueError) as err:
        cen.EdgeColoring2(3, colors)
    if all(0 <= u < v < 3 for u, v in colors):
        assert "must orient that pair" in str(err.value)
    else:
        assert str(err.value) == "every unordered pair needs exactly one color"


def test_text_round_trip():
    c = cen.random_edge_coloring(7, 11)
    assert cen.edge_coloring_from_text(cen.edge_coloring_to_text(c)) == c


@pytest.mark.parametrize("seed", range(12))
def test_random_census_matches_naive_and_passes(seed):
    c = cen.random_edge_coloring(5 + seed % 4, seed)
    census = cen.count_triangle_types(c)
    assert (census.t_green, census.t_purple, census.t_cherry) == o_triangle_counts(c.n, c.colors)
    assert 2 * census.alpha + census.beta + census.gamma + 2 * census.delta == 1
    report = cen.check_color_inequalities(census, c.n)
    assert report.all_ok
    assert report.triangles_total <= report.f_bound


TAGS = (cen.BLUE, cen.GREEN, cen.RED, cen.PURPLE)


@st.composite
def pair_colorings(draw):
    """Colorings of n <= 14 vertices over a drawn subset of the tags (often one)."""
    n = draw(st.integers(2, 14))
    tags = sorted(draw(st.sets(st.sampled_from(TAGS), min_size=1)))
    pairs = list(itertools.combinations(range(n), 2))
    choices = draw(
        st.lists(
            st.tuples(st.sampled_from(tags), st.booleans()),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    colors = {}
    for (u, v), (tag, forward) in zip(pairs, choices):
        colors[(u, v)] = (tag,) if tag in (cen.BLUE, cen.GREEN) else (
            (tag, u, v) if forward else (tag, v, u)
        )
    return cen.EdgeColoring2(n, colors)


@settings(max_examples=150)
@given(pair_colorings())
@example(cen.EdgeColoring2(2, {(0, 1): (cen.GREEN,)}))
@example(cen.EdgeColoring2(2, {(0, 1): (cen.PURPLE, 1, 0)}))
@example(cen.EdgeColoring2(6, {p: (cen.GREEN,) for p in itertools.combinations(range(6), 2)}))
@example(cen.EdgeColoring2(6, {p: (cen.BLUE,) for p in itertools.combinations(range(6), 2)}))
@example(cen.EdgeColoring2(6, {(u, v): (cen.RED, v, u) for u, v in itertools.combinations(range(6), 2)}))
@example(cen.purple_tournament_coloring(7, rotational_tournament(7)))
@example(cen.cherry_coloring(5, 4))
def test_bitset_census_matches_oracle(c):
    census = cen.count_triangle_types(c)
    assert (census.t_green, census.t_purple, census.t_cherry) == o_triangle_counts(c.n, c.colors)
    pairs = math.comb(c.n, 2)
    tags = [val[0] for val in c.colors.values()]
    assert census.alpha * 2 * pairs == tags.count(cen.RED)
    assert census.beta * pairs == tags.count(cen.BLUE)
    assert census.gamma * pairs == tags.count(cen.GREEN)
    assert census.delta * 2 * pairs == tags.count(cen.PURPLE)


@pytest.mark.parametrize("n", range(3, 122, 2))
def test_rotational_tournament_has_the_most_cyclic_triangles(n):
    census = cen.count_triangle_types(cen.purple_tournament_coloring(n, rotational_tournament(n)))
    assert census.t_purple == (n**3 - n) // 24


def test_exhaustive_n3_census():
    for c in all_colorings(3):
        census = cen.count_triangle_types(c)
        assert (census.t_green, census.t_purple, census.t_cherry) == o_triangle_counts(c.n, c.colors)
        assert cen.check_color_inequalities(census, 3).all_ok


def _census_record(c):
    s = cen.count_triangle_types(c)
    try:
        goodman = cen.goodman_check(c)
    except ValueError as err:
        goodman = str(err)
    densities = (str(s.alpha), str(s.beta), str(s.gamma), str(s.delta))
    return (s.n, s.t_green, s.t_purple, s.t_cherry, *densities, goodman)


# sha256 of repr([_census_record(c)]) over the colorings below, in that order,
# captured before the census index moved into the coloring's validating pass
CENSUS_PIN = "cadffc6f24e6d594a5e3085ed2ffe3a8a378ade9d4e6b8cdc0389c3f8d1f1aba"


def test_census_is_pinned():
    colorings = [cen.random_edge_coloring(n, 1000 * n + k) for n in range(2, 41) for k in range(2)]
    for n in range(3, 62, 2):
        colorings.append(cen.purple_tournament_coloring(n, rotational_tournament(n)))
        colorings.append(cen.purple_tournament_coloring(n, itertools.combinations(range(n), 2)))
    colorings += [cen.cherry_coloring(a, b) for a in range(7) for b in range(7) if a + b >= 2]
    records = [_census_record(c) for c in colorings]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CENSUS_PIN


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


LOW_PURPLE, FAR_PURPLE = Fraction(1, 10), Fraction(18, 100)
PIN_REGIONS = (
    None,
    lambda a, b, g, d: g + 2 * d <= LOW_PURPLE,
    lambda a, b, g, d: d >= FAR_PURPLE,
    lambda a, b, g, d: g == a,
)
# sha256 of repr([(repr(best), [str(x) for x in point], sorted(cert.items()))])
# over the cases below, in that order, captured before the exact-grid scan
FOPT_PIN = "63c14bdbfa5323665213c2526dedc0ab2377c31403d953a615bcb3b59d212a4e"


def test_fopt_is_pinned():
    records = []
    for step in (Fraction(1, 20), Fraction(1, 40), Fraction(3, 200), Fraction(1, 200)):
        for refinements in (0, 1, 2):
            for region in PIN_REGIONS:
                best, point, cert = cen.maximize_f_on_R(step, refinements=refinements, region=region)
                records.append((repr(best), [str(x) for x in point], sorted(cert.items())))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == FOPT_PIN


# same record format over refinement counts no caller uses by default, captured before
# the refinement passes ran the coarse scan's code
FOPT_DEEP_PIN = "22048f764e5e3a82f33add194ca8bcb4a660a27c59f95b7cdd6e32c90ab5ccd2"


def test_fopt_deep_refinements_are_pinned():
    records = []
    for step in (Fraction(1, 40), Fraction(3, 200), Fraction(1, 7), Fraction(1, 9)):
        for refinements in (3, 5, 8):
            for region in PIN_REGIONS:
                best, point, cert = cen.maximize_f_on_R(step, refinements=refinements, region=region)
                records.append((repr(best), [str(x) for x in point], sorted(cert.items())))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == FOPT_DEEP_PIN


def test_fopt_never_reports_above_one_half():
    # float f at grid points finer than FOPT_MIN_STEP rounds above the true maximum 1/2
    for step in (Fraction(1, 40), Fraction(3, 200)):
        refinements = 0
        while step / 10**refinements >= cen.FOPT_MIN_STEP:
            best, _, _ = cen.maximize_f_on_R(step, refinements=refinements)
            assert best <= 0.5
            refinements += 1
        with pytest.raises(ValueError, match="FOPT_MIN_STEP"):
            cen.maximize_f_on_R(step, refinements=refinements)


def test_fopt_reads_a_float_step_at_its_shortest_decimal():
    assert cen.maximize_f_on_R(0.025) == cen.maximize_f_on_R(Fraction(1, 40))


def test_coarse_grid_points_counts_the_scan():
    for top in range(61):
        brute = sum(
            1
            for i in range(top + 1)
            for j in range(i + 1)
            for d in range(top + 1)
            if 2 * i + j + 2 * d <= top
        )
        assert cen._coarse_grid_points(top) == brute
    for step in (Fraction(1, 20), Fraction(3, 200), Fraction(1, 7)):
        _, _, cert = cen.maximize_f_on_R(step, refinements=0)
        assert cert["evaluations"] == cen._coarse_grid_points(int(1 / step))


def test_fopt_refuses_bad_arguments_up_front():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="FOPT_MAX_GRID_POINTS"):
        cen.maximize_f_on_R(Fraction(1, 100000))
    with pytest.raises(ValueError, match="FOPT_MAX_GRID_POINTS"):
        cen.maximize_f_on_R(Fraction(1, 10**30))
    with pytest.raises(ValueError, match="refinements must be nonnegative"):
        cen.maximize_f_on_R(Fraction(1, 40), refinements=-1)
    with pytest.raises(ValueError, match=r"1/40 / 10\*\*11 is below FOPT_MIN_STEP=1/1000000000000"):
        cen.maximize_f_on_R(Fraction(1, 40), refinements=11)
    with pytest.raises(ValueError, match="FOPT_MIN_STEP"):
        cen.maximize_f_on_R(Fraction(1, 40), refinements=10**9)
    assert time.perf_counter() - start < 1
    # the finest step the tests, bench and demos use stays inside the budget
    assert cen._coarse_grid_points(200) <= cen.FOPT_MAX_GRID_POINTS


def test_random_coloring_refuses_oversized_n_up_front():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="4,999,999,950,000,000 pairs, over CENSUS_MAX_PAIRS=1,000,000"):
        cen.random_edge_coloring(10**8, 1)
    with pytest.raises(ValueError, match="CENSUS_MAX_PAIRS"):
        cen.random_edge_coloring(1415, 1)
    assert time.perf_counter() - start < 1
    # n = 1414 is the largest admitted size; the largest the tests and bench use is 120
    assert math.comb(1414, 2) <= cen.CENSUS_MAX_PAIRS


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


def test_e_opt_walk_matches_split_scan():
    # the walk from the balanced split stops at the first drop; the oracle scans
    # every split
    for n in range(401):
        assert cen.e_opt(n) == o_e_opt(n)
    start = time.perf_counter()
    top, splits = cen.e_opt(10**9)
    assert time.perf_counter() - start < 1
    assert splits == [(500027386, 499972614)]

    def count(a):
        return math.comb(a, 3) * (10**9 - a) + a * math.comb(10**9 - a, 3)

    # the count is unimodal in a >= n/2, so a strict local maximum is the maximum
    assert count(500027385) < count(500027386) == top > count(500027387)


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
    # floats are read at their shortest decimal
    assert cen.milne_check((0.1, 0.2), (0.3, 0.4)) == cen.milne_check(
        (Fraction(1, 10), Fraction(1, 5)), (Fraction(3, 10), Fraction(2, 5))
    )


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
    # read at their shortest decimals, 0.4 sits on the edge 1/2 - 0.1 and is exceptional
    assert cen.milne_stability_check([0.4], [0.4], 0.1)[1] == {0}


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
