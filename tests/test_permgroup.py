import hashlib
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tighthom import permgroup as pg

from oracles import (
    brute_force_subgroups,
    bucket_by_conjugacy,
    o_apply,
    o_closure,
    o_compose,
    o_conjugate,
    o_conjugators,
    o_greedy_generators,
    o_inverse,
)

# The eleven subgroup classes at arity 4 in deterministic order:
# (name, order, class size, avoids 4-rotation, avoids squared rotation).
S4_CLASSES = [
    ("trivial", 1, 1, True, True),
    ("S2", 2, 6, True, True),
    ("order-2-#2", 2, 3, True, False),
    ("A3", 3, 4, True, True),
    ("Klein-nonnormal", 4, 3, True, False),
    ("Klein-normal", 4, 1, True, False),
    ("order-4-#3", 4, 3, False, False),
    ("S3", 6, 4, True, True),
    ("D4", 8, 3, False, False),
    ("A4", 12, 1, True, False),
    ("S4", 24, 1, False, False),
]

# Canonical representatives pinned for the classes the rest of the package
# leans on (coset data and face classification read their slot structure).
CANONICAL_REPS = {
    "S2": ((0, 1, 2, 3), (0, 1, 3, 2)),
    "order-2-#2": ((0, 1, 2, 3), (1, 0, 3, 2)),
    "Klein-nonnormal": ((0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)),
    "Klein-normal": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    "order-4-#3": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1)),
    "S3": (
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3),
        (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1),
    ),
}

# Class counts per arity match the OEIS references A000638 / A005432.
CLASS_COUNTS = {2: 2, 3: 4, 4: 11, 5: 19, 6: 56}
SUBGROUP_TOTALS = {2: 2, 3: 6, 4: 30, 5: 156, 6: 1455}

# sha256 of repr([(representative, class_size, name), ...]) over the full class
# list: representatives and names reach coset colors and CLI output, so any
# change to either must show here.
ENUMERATION_DIGESTS = {
    5: "fd2444bc1edc5cce07795fd406a21eeee895b06ec0bd31550d80720295e4cfff",
    6: "2aa1cd476703c9c032b34a15eaed15d717d67221c839e3aacf73170ec56f0ba5",
}

# color_set(r, cyc^k) pinned for every rotation power: sha256 of repr(colors)
# and of repr([act(s, c) for s in all_perms(r) for c in colors]).
COLOR_SET_DIGESTS = {
    (2, 1): (
        "5fac856d03e34fb5d49eb6e6b9363e2276e8b1d256b9e6388391dc83ea5e18c3",
        "4a6cccd66f041498db02e3d757105e7d0157362ef6b64f091f471153ead39b41",
    ),
    (3, 1): (
        "85167fd66c7634e418cc8976b9258cf81329739134a57c03e6084170401c57b0",
        "3fac864c10169135a80333f7923c9b11c9880ecb100abf68a7e66eedd95b29aa",
    ),
    (3, 2): (
        "85167fd66c7634e418cc8976b9258cf81329739134a57c03e6084170401c57b0",
        "3fac864c10169135a80333f7923c9b11c9880ecb100abf68a7e66eedd95b29aa",
    ),
    (4, 1): (
        "d811bdd060578d6aa1bbe446fcbf37013ffa9f5a6f2110452522936ad597cae1",
        "98220de3d2fc349b8ae5a2565b22eeca01ca26b86277f76319659439b2c8687d",
    ),
    (4, 2): (
        "7c38e8fb5428ef1f2449e76b3633358fa576f53a28f91bb13c42ad9a0cb27a6b",
        "f1137795c0319f156411e701426d16b44aaa4b28310a06bdf97249c416436628",
    ),
    (4, 3): (
        "d811bdd060578d6aa1bbe446fcbf37013ffa9f5a6f2110452522936ad597cae1",
        "98220de3d2fc349b8ae5a2565b22eeca01ca26b86277f76319659439b2c8687d",
    ),
    (5, 1): (
        "e572ef4495bdf0881f2b635ce30706d4a42a6a229057964644664edf20486218",
        "d19f93969d3586b6db74567a8e2c71e17ce80347d66bf8c51aed9763a613b4e8",
    ),
    (5, 2): (
        "e572ef4495bdf0881f2b635ce30706d4a42a6a229057964644664edf20486218",
        "d19f93969d3586b6db74567a8e2c71e17ce80347d66bf8c51aed9763a613b4e8",
    ),
    (5, 3): (
        "e572ef4495bdf0881f2b635ce30706d4a42a6a229057964644664edf20486218",
        "d19f93969d3586b6db74567a8e2c71e17ce80347d66bf8c51aed9763a613b4e8",
    ),
    (5, 4): (
        "e572ef4495bdf0881f2b635ce30706d4a42a6a229057964644664edf20486218",
        "d19f93969d3586b6db74567a8e2c71e17ce80347d66bf8c51aed9763a613b4e8",
    ),
    (6, 1): (
        "33161f4bf8986dd21a1754876ccd314490defad1d6fa257cbc34aa6671d2d96d",
        "39bd39e760054d735b6578f19758b1933eb5ffef5a75cf4afa4b526a9a1f1a49",
    ),
    (6, 2): (
        "72e3e5999d8c1549783edca03b3caedfbc94636fd2fd7f42f095c7ffaad8100e",
        "d4c8f713a9f19ef23af8fed761c67a1359ae108d7a8815782700ce9621ad8a7b",
    ),
    (6, 3): (
        "807641b3912a6101654c56ca0a8f830be5684086af36f3054bc473fb1aae4654",
        "db4b2e58db95bfb5082c570b928c99e4da406bb795c31927fb365c5ac3aa6c06",
    ),
    (6, 4): (
        "72e3e5999d8c1549783edca03b3caedfbc94636fd2fd7f42f095c7ffaad8100e",
        "d4c8f713a9f19ef23af8fed761c67a1359ae108d7a8815782700ce9621ad8a7b",
    ),
    (6, 5): (
        "33161f4bf8986dd21a1754876ccd314490defad1d6fa257cbc34aa6671d2d96d",
        "39bd39e760054d735b6578f19758b1933eb5ffef5a75cf4afa4b526a9a1f1a49",
    ),
}

perms4 = st.sampled_from(pg.all_perms(4))


@st.composite
def generator_lists(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    perm = st.permutations(list(range(r))).map(tuple)
    return draw(st.lists(perm, min_size=1, max_size=4))


@given(generator_lists())
def test_closure_matches_oracle(gens):
    assert pg.closure(gens) == o_closure(gens)


def test_closure_fixed_cases():
    # <(1 2), cyc> is the whole group, reached through the half-order shortcut
    assert pg.closure([pg.parse_perm("(1 2)", 6), pg.cyc(6)]) == frozenset(pg.all_perms(6))
    assert pg.closure([pg.cyc(7)]) == frozenset(pg.perm_power(pg.cyc(7), e) for e in range(7))
    assert pg.closure([pg.identity(1)]) == {(0,)}


def _random_gens(rng, r, count):
    return [tuple(rng.sample(range(r), r)) for _ in range(count)]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_index_tables_match_compose_and_inverse(r):
    perms = pg.all_perms(r)
    index, mul, inv, (c, s) = pg._index_tables(r)
    assert index == {p: i for i, p in enumerate(perms)}
    assert (perms[c], perms[s]) == (pg.cyc(r), (1, 0) + tuple(range(2, r)))
    for a, p in enumerate(perms):
        assert [perms[x] for x in mul[a]] == [o_compose(p, q) for q in perms]
        assert perms[inv[a]] == o_inverse(p)


def test_close_extends_a_start_group_to_the_oracle_closure():
    rng = random.Random(12)
    for r in (3, 4, 5):
        full = math.factorial(r)
        index, mul, _, _ = pg._index_tables(r)
        for _ in range(40):
            start_gens = _random_gens(rng, r, rng.randint(1, 2))
            extra = _random_gens(rng, r, rng.randint(1, 3))
            start = o_closure(start_gens)
            want = o_closure(start_gens + extra)
            members, kept = pg._close(pg.identity(r), extra, pg.right_mul, full, start, start_gens)
            assert (members or frozenset(pg.all_perms(r))) == want
            assert kept == o_greedy_generators(extra, start_gens)
            # the index form grows by left multiplication along the table
            members, _ = pg._close(index[pg.identity(r)], [index[g] for g in extra],
                                   lambda g: mul[g].__getitem__, full,
                                   {index[p] for p in start}, [index[g] for g in start_gens])
            assert {pg.all_perms(r)[i] for i in members or range(full)} == want


def test_kept_generators_are_each_outside_the_span_so_far():
    rng = random.Random(13)
    for r in (2, 3, 4, 5):
        for _ in range(40):
            gens = _random_gens(rng, r, rng.randint(1, 5))
            group = o_closure(gens)
            assert pg.closure(gens) == group
            _, kept = pg._close(pg.identity(r), gens, pg.right_mul, math.factorial(r))
            assert kept == o_greedy_generators(gens)
            minimal = pg.minimal_generators(group)
            assert o_closure(minimal) == group
            assert list(minimal) == (o_greedy_generators(sorted(group)) or [pg.identity(r)])


def test_identity_compose_inverse():
    for p in pg.all_perms(4):
        assert pg.compose(p, pg.identity(4)) == p
        assert pg.compose(pg.identity(4), p) == p
        assert pg.compose(p, pg.inverse(p)) == pg.identity(4)
        assert pg.compose(pg.inverse(p), p) == pg.identity(4)


@given(perms4, perms4, st.permutations(list("abcd")))
def test_apply_is_an_action(p, q, letters):
    x = tuple(letters)
    assert pg.apply_to_tuple(p, pg.apply_to_tuple(q, x)) == pg.apply_to_tuple(
        pg.compose(p, q), x
    )


@given(perms4, st.permutations(list("abcd")))
def test_apply_matches_oracle(p, letters):
    x = tuple(letters)
    assert pg.apply_to_tuple(p, x) == o_apply(p, x)


def test_cyc_rotates_right():
    assert pg.apply_to_tuple(pg.cyc(4), ("a", "b", "c", "d")) == ("d", "a", "b", "c")
    assert pg.perm_power(pg.cyc(3), 3) == pg.identity(3)
    assert pg.perm_power(pg.cyc(5), 2) == pg.compose(pg.cyc(5), pg.cyc(5))


@given(perms4, perms4)
def test_cycle_type_is_conjugacy_invariant(p, s):
    conj = pg.compose(s, pg.compose(p, pg.inverse(s)))
    assert pg.cycle_type(conj) == pg.cycle_type(p)


@given(perms4)
def test_format_parse_round_trip(p):
    assert pg.parse_perm(pg.format_perm(p), 4) == p


def test_parse_named_forms():
    assert pg.parse_perm("id", 4) == (0, 1, 2, 3)
    assert pg.parse_perm("cyc", 4) == pg.cyc(4)
    assert pg.parse_perm("cyc^2", 4) == pg.compose(pg.cyc(4), pg.cyc(4))
    assert pg.parse_perm("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert pg.parse_perm("(1 2 3 4)", 4) == pg.parse_perm("cyc", 4)
    with pytest.raises(ValueError):
        pg.parse_perm("(1 5)", 4)
    with pytest.raises(ValueError):
        pg.parse_perm("(1 2)(2 3)", 4)


def test_arity_bounds():
    with pytest.raises(ValueError):
        pg.enumerate_subgroup_classes(1)
    with pytest.raises(ValueError):
        pg.enumerate_subgroup_classes(7)


def test_s4_class_table_is_frozen():
    classes = pg.enumerate_subgroup_classes(4)
    rot = pg.cyc(4)
    rot2 = pg.perm_power(rot, 2)
    got = [
        (
            c.name,
            c.order,
            c.class_size,
            pg.avoids(c.representative, rot),
            pg.avoids(c.representative, rot2),
        )
        for c in classes
    ]
    assert got == S4_CLASSES


def test_s4_canonical_representatives_are_frozen():
    classes = {c.name: c for c in pg.enumerate_subgroup_classes(4)}
    for name, rep in CANONICAL_REPS.items():
        assert classes[name].representative == rep


def test_class_counts_match_literature():
    for r, count in CLASS_COUNTS.items():
        classes = pg.enumerate_subgroup_classes(r)
        assert len(classes) == count
        assert sum(c.class_size for c in classes) == SUBGROUP_TOTALS[r]


@pytest.mark.parametrize("r", [5, 6])
def test_enumeration_is_pinned(r):
    classes = pg.enumerate_subgroup_classes(r)
    text = repr([(c.representative, c.class_size, c.name) for c in classes])
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_DIGESTS[r]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_enumeration_against_brute_force(r):
    oracle_subs = brute_force_subgroups(r)
    oracle_classes = bucket_by_conjugacy(oracle_subs, r)
    classes = pg.enumerate_subgroup_classes(r)
    assert len(classes) == len(oracle_classes)

    perms = pg.all_perms(r)
    covered = set()
    for c in classes:
        orbit = {o_conjugate(c.representative, s) for s in perms}
        assert len(orbit) == c.class_size
        conjugates = {frozenset(perms[i] for i in x) for x in c.conjugates}
        assert conjugates == orbit
        covered |= conjugates
    assert covered == oracle_subs

    oracle_shapes = sorted(
        (len(next(iter(cls))), len(cls)) for cls in oracle_classes
    )
    ours = sorted((c.order, c.class_size) for c in classes)
    assert ours == oracle_shapes


def test_stored_conjugates_are_conjugation_orbits_at_arity_5():
    perms = pg.all_perms(5)
    for c in pg.enumerate_subgroup_classes(5):
        orbit = {o_conjugate(c.representative, s) for s in perms}
        assert {frozenset(perms[i] for i in x) for x in c.conjugates} == orbit


@pytest.mark.parametrize("r", [5, 6])
def test_stored_conjugates_fill_each_class(r):
    perms = pg.all_perms(r)
    for c in pg.enumerate_subgroup_classes(r):
        assert len(c.conjugates) == c.class_size
        assert frozenset(perms.index(p) for p in c.representative) in c.conjugates


def test_representatives_are_subgroups_in_canonical_form():
    for r in (2, 3, 4):
        for c in pg.enumerate_subgroup_classes(r):
            members = c.elements
            assert pg.identity(r) in members
            for a in members:
                assert pg.inverse(a) in members
                for b in members:
                    assert pg.compose(a, b) in members
            orbit = {o_conjugate(members, s) for s in pg.all_perms(r)}
            least = min(orbit, key=lambda g: tuple(sorted(g)))
            assert c.representative == tuple(sorted(least))
            assert set(pg.closure(c.generators())) == set(members)


def test_classes_sorted_by_order_then_elements():
    for r in (2, 3, 4, 5):
        classes = pg.enumerate_subgroup_classes(r)
        keys = [(c.order, c.representative) for c in classes]
        assert keys == sorted(keys)


def test_avoiding_identity_is_impossible():
    for r in (2, 3, 4):
        for c in pg.enumerate_subgroup_classes(r):
            assert not pg.avoids(c.representative, pg.identity(r))
        assert pg.maximal_avoiding_classes(r, pg.identity(r)) == ()
        assert pg.color_set(r, pg.identity(r)).colors == ()


# deferred, so a broken enumeration fails this test instead of hanging collection
@given(perms4, st.deferred(lambda: st.sampled_from(pg.enumerate_subgroup_classes(4))))
def test_avoids_is_conjugation_invariant(s, cls):
    rot = pg.cyc(4)
    assert pg.avoids(o_conjugate(cls.representative, s), rot) == pg.avoids(
        cls.representative, rot
    )


def test_maximal_avoiding_class_names():
    assert {c.name for c in pg.maximal_avoiding_classes(2, pg.cyc(2))} == {"trivial"}
    assert {c.name for c in pg.maximal_avoiding_classes(3, pg.cyc(3))} == {"S2"}
    rot = pg.cyc(4)
    assert {c.name for c in pg.maximal_avoiding_classes(4, rot)} == {
        "S3",
        "A4",
        "Klein-nonnormal",
    }
    assert {c.name for c in pg.maximal_avoiding_classes(4, pg.perm_power(rot, 2))} == {
        "S3"
    }
    # the cube of the rotation is conjugate to the rotation itself
    assert pg.maximal_avoiding_classes(4, pg.perm_power(rot, 3)) == (
        pg.maximal_avoiding_classes(4, rot)
    )


def _one_perm_per_cycle_type(r):
    out = {}
    for p in pg.all_perms(r):
        out.setdefault(pg.cycle_type(p), p)
    return list(out.values())


NON_ROTATION_CASES = (
    [(r, p) for r in (4, 5) for p in _one_perm_per_cycle_type(r)]
    + [(6, pg.perm_power(pg.cyc(6), k)) for k in (1, 2, 3)]
    + [(6, pg.parse_perm("(1 2)", 6))]
)


@pytest.mark.parametrize(
    "r, pi", NON_ROTATION_CASES, ids=[f"{r}:{pg.format_perm(p)}" for r, p in NON_ROTATION_CASES]
)
def test_maximal_avoiding_matches_embedding_definition(r, pi):
    avoiding = [c for c in pg.enumerate_subgroup_classes(r) if pg.avoids(c.representative, pi)]
    want = tuple(
        c for c in avoiding
        if not any(d.order > c.order and o_conjugators(c.representative, d.representative)
                   for d in avoiding)
    )
    assert pg.maximal_avoiding_classes(r, pi) == want


def test_color_counts():
    assert len(pg.color_set(2, pg.cyc(2)).colors) == 2
    assert len(pg.color_set(3, pg.cyc(3)).colors) == 3
    assert len(pg.color_set(4, pg.cyc(4)).colors) == 12
    assert len(pg.color_set(4, pg.perm_power(pg.cyc(4), 2)).colors) == 4


def test_colors_partition_into_cosets():
    cs = pg.color_set(4, pg.cyc(4))
    for idx, c in enumerate(cs.classes):
        reps = [rep for i, rep in cs.colors if i == idx]
        assert len(reps) == math.factorial(4) // c.order
        seen = set()
        for rep in reps:
            coset = frozenset(pg.compose(rep, h) for h in c.representative)
            assert rep == min(coset)
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == math.factorial(4)


@given(perms4, perms4)
def test_color_action_composes(s, t):
    cs = pg.color_set(4, pg.cyc(4))
    for color in cs.colors[::5]:
        assert cs.act(s, cs.act(t, color)) == cs.act(pg.compose(s, t), color)
        assert cs.act(s, color) in cs.colors


def test_embeds_in():
    classes = {c.name: c for c in pg.enumerate_subgroup_classes(4)}
    assert pg.embeds_in(classes["S2"].representative, classes["S3"].representative, 4)
    assert pg.embeds_in(
        classes["order-2-#2"].representative,
        classes["Klein-nonnormal"].representative,
        4,
    )
    assert not pg.embeds_in(
        classes["A3"].representative, classes["Klein-nonnormal"].representative, 4
    )


def test_embeds_in_matches_definition():
    classes = pg.enumerate_subgroup_classes(4)
    verdicts = set()
    for small in classes:
        for big in classes:
            want = bool(o_conjugators(small.representative, big.representative))
            assert pg.embeds_in(small.representative, big.representative, 4) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_color_set_is_shared():
    assert pg.color_set(4, pg.cyc(4)) is pg.color_set(4, pg.cyc(4))
    assert pg.maximal_avoiding_classes(5, pg.cyc(5)) is pg.maximal_avoiding_classes(5, pg.cyc(5))
    cs = pg.color_set(4, pg.cyc(4))
    twin = pg.ColorSet(cs.r, cs.pi, cs.classes, cs.colors, cosets=())
    assert twin == cs and hash(twin) == hash(cs)


@pytest.mark.parametrize("r, k", sorted(COLOR_SET_DIGESTS))
def test_color_set_is_pinned(r, k):
    cs = pg.color_set(r, pg.perm_power(pg.cyc(r), k))
    acts = [cs.act(s, c) for s in pg.all_perms(r) for c in cs.colors]
    digests = tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (cs.colors, acts))
    assert digests == COLOR_SET_DIGESTS[(r, k)]


NOT_PERMUTATIONS = """
from tighthom import permgroup as pg
for call in (
    lambda: pg.perm_power((0, 0, 1, 2), 2),
    lambda: pg.avoids([(0, 1, 2, 3)], (1, 1, 2, 3)),
    lambda: pg.maximal_avoiding_classes(4, (0, 0, 0, 0)),
    lambda: pg.cycles_of((1, 0, 3)),
    lambda: pg.cycles_of((1, -1, 2)),
):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("a non-permutation was accepted")
"""


def test_non_permutations_raise_instead_of_hanging():
    proc = subprocess.run(
        [sys.executable, "-c", NOT_PERMUTATIONS], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr


def test_class_by_name():
    assert pg.class_by_name(4, "S3").order == 6
    with pytest.raises(KeyError):
        pg.class_by_name(4, "nope")
