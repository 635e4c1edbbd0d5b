"""Permutations of coordinate slots, their subgroups up to conjugacy, and coset colors.

A permutation of arity ``r`` is a plain tuple ``p`` of length ``r`` with
``p[i]`` the image of slot ``i``.  Acting on an ``r``-tuple ``x`` moves the
entry in slot ``j`` to slot ``p[j]``, so ``apply_to_tuple(cyc(r), x)`` is the
right rotation ``(x[-1], x[0], ..., x[-2])``.  Cycle types and powers are
memoized per permutation (bounded), so ``avoids`` is one lookup per element.

Subgroups of the full symmetric group on ``r`` slots are enumerated up to
conjugacy.  Each class gets a canonical representative (the conjugate whose
sorted element tuple is lexicographically least), a deterministic position in
the class list (sorted by order, then by that tuple), and a stable name.
Classes found in no table get the fallback name ``order-k-#j``.

Every subgroup is closed by one kernel, ``_close``: coset extension (Dimino;
Seress, Permutation Group Algorithms) over a list of generators, from the
identity or from a starting group given with its generators.  Each generator
not yet in the group extends it by whole cosets of the group built so far,
and the loop stops before a coset would take the group past half of S_r,
which makes it S_r.  ``closure`` acts on tuples by right multiplication; the
enumeration acts on indices into ``all_perms(r)`` by left multiplication
along a table.

The class lattice conjugates in two breadth-first orbits.  Subgroups are
conjugated in ``_conjugation_orbit``, the orbit of an index-set subgroup
under the generators ``cyc(r)`` and (1 2) of S_r, which returns each
conjugate with one conjugating element and the stabilizer's Schreier
generators.  Each class keeps its conjugates, so "c embeds in d" between
classes is a subset test against d's representative; ``embeds_in``, for
arbitrary groups, tries every element of S_r.  The enumeration extends each
new group as it was found, with the generators it was built from (a join
extends a group by a cyclic seed's generator) and its normalizer's: the
Schreier generators thinned by ``_close``.  Joins of conjugate groups land in
the same classes, so no group is moved onto its class's representative.
Elements are conjugated in the enumeration itself: the orbit of a seed's
generating element under the normalizer's generators names, through each
element's cyclic seed, the seeds whose joins land in the same class, and
those are skipped.

A "color set" for a permutation ``pi`` is the disjoint union of the left
coset spaces of the maximal ``pi``-avoiding classes; colors are the atoms
that edge colorings elsewhere in this package take values in.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

Perm = tuple[int, ...]

MAX_ARITY = 6


def identity(r: int) -> Perm:
    return tuple(range(r))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right action composition: apply ``q`` first, then ``p``."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def right_mul(p: Perm):
    """``compose(x, p)`` as ``right_mul(p)(x)``: one C-level call, a tuple at every arity."""
    return operator.itemgetter(*p) if len(p) > 1 else tuple


def apply_to_tuple(p: Perm, x: tuple) -> tuple:
    """Move the entry in slot ``j`` to slot ``p[j]``."""
    if len(p) != len(x):
        raise ValueError(f"arity mismatch: perm of {len(p)} applied to tuple of {len(x)}")
    out = [None] * len(x)
    for j, v in enumerate(x):
        out[p[j]] = v
    return tuple(out)


def reorder_perm(base: tuple, target: tuple) -> Perm:
    """The permutation moving ``base`` onto its reordering ``target``."""
    return tuple(target.index(v) for v in base)


def cyc(r: int) -> Perm:
    """The rotation sending slot i to slot i+1 (mod r)."""
    return tuple((i + 1) % r for i in range(r))


@lru_cache(maxsize=1024)  # rotation powers are asked for once per verdict
def perm_power(p: Perm, e: int) -> Perm:
    r = len(p)
    out = identity(r)
    e %= order_of(p)
    for _ in range(e):
        out = compose(p, out)
    return out


def order_of(p: Perm) -> int:
    return math.lcm(*(len(c) for c in cycles_of(p)))


def cycles_of(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles, each starting at its least slot, sorted by that slot.

    ValueError if ``p`` is not a permutation: following it from a slot must
    meet only new slots in range until it returns to that slot.
    """
    n = len(p)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            if not 0 <= j < n or seen[j]:
                raise ValueError(f"{p!r} is not a permutation")
            cycle.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cycle))
    return tuple(out)


@lru_cache(maxsize=8192)  # S_1..S_7 fit (5,913 perms); larger groups cannot grow it past the bound
def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths, fixed points included; conjugacy invariant."""
    return tuple(sorted(len(c) for c in cycles_of(p)))


def is_even(p: Perm) -> bool:
    return (len(p) - len(cycles_of(p))) % 2 == 0


def format_perm(p: Perm) -> str:
    """Cycle notation with 1-based slots, fixed points dropped; identity is 'id'."""
    parts = ["(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles_of(p) if len(c) > 1]
    return "".join(parts) if parts else "id"


def parse_perm(text: str, r: int) -> Perm:
    """Parse 'id', 'cyc', 'cyc^k', or 1-based cycle notation like '(1 2)(3 4)'."""
    s = text.strip()
    if s == "id":
        return identity(r)
    if s == "cyc":
        return cyc(r)
    if s.startswith("cyc^"):
        return perm_power(cyc(r), int(s[4:]))
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"cannot parse permutation {text!r}")
    out = list(range(r))
    for body in s[1:-1].split(")("):
        slots = [int(tok) - 1 for tok in body.replace(",", " ").split()]
        if len(slots) < 2 or len(set(slots)) != len(slots):
            raise ValueError(f"bad cycle in {text!r}")
        if any(not 0 <= i < r for i in slots):
            raise ValueError(f"slot out of range 1..{r} in {text!r}")
        for a, b in zip(slots, slots[1:] + slots[:1]):
            if out[a] != a:
                raise ValueError(f"overlapping cycles in {text!r}")
            out[a] = b
    return tuple(out)


@lru_cache(maxsize=None)
def all_perms(r: int) -> tuple[Perm, ...]:
    return tuple(itertools.permutations(range(r)))


def _close(ident, gens, act, full_size: int, start=None, start_gens=()):
    """The group ``gens`` generate, grown by whole cosets, and the generators kept.

    Growth starts from ``start``, a closed group that ``start_gens`` generate,
    or from the trivial group ``{ident}``.  ``act(g)`` is multiplication by
    ``g`` on one fixed side, so ``map(act(y), H)`` is the coset of ``H``
    holding ``y``.  A generator already in the group so far is skipped; each
    other one is kept, and the group so far, ``H``, is extended by coset
    representatives from ``ident`` (Dimino; Butler, Fundamental Algorithms for
    Permutation Groups): a representative times a kept generator that falls
    outside the group brings in its whole coset of ``H`` and becomes a
    representative, so each new element costs one product.  The kept
    generators, ``start_gens`` first, alone generate the group.  A subgroup
    with more than half of the ``full_size`` elements of S_r is S_r itself
    (Lagrange), so the loop stops before building a coset that would take the
    group past half, and the group comes back as None.
    """
    if start is None:
        members, kept, steps = {ident}, [], []
    else:
        members, kept, steps = set(start), [*start_gens], [*map(act, start_gens)]
    for g in gens:
        if g in members:
            continue
        kept.append(g)
        steps.append(act(g))
        old = [*members]
        reps = [ident]
        for x in reps:
            for s in steps:
                y = s(x)
                if y not in members:
                    if 2 * (len(members) + len(old)) > full_size:
                        return None, kept
                    members.update(map(act(y), old))
                    reps.append(y)
    return members, kept


def closure(perms) -> frozenset[Perm]:
    """Subgroup generated by ``perms`` (the trivial group if all are the identity)."""
    gens = [tuple(p) for p in perms]
    if not gens:
        raise ValueError("need at least one permutation to infer arity")
    r = len(gens[0])
    members, _ = _close(identity(r), gens, right_mul, math.factorial(r))
    return frozenset(itertools.permutations(range(r)) if members is None else members)


def minimal_generators(group) -> tuple[Perm, ...]:
    """A small deterministic generating set: the generators ``_close`` keeps from the
    sorted elements, each one not in the span of those before it."""
    elements = sorted(group)
    r = len(elements[0])
    _, gens = _close(identity(r), elements, right_mul, math.factorial(r))
    return tuple(gens) if gens else (identity(r),)


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups: its canonical representative and all conjugates."""

    r: int
    representative: tuple[Perm, ...]
    class_size: int
    name: str
    conjugates: frozenset[frozenset[int]] = field(compare=False, repr=False)  # over all_perms(r)

    @property
    def order(self) -> int:
        return len(self.representative)

    @property
    def elements(self) -> frozenset[Perm]:
        return frozenset(self.representative)

    def generators(self) -> tuple[Perm, ...]:
        return minimal_generators(self.representative)


def _check_arity(r: int) -> None:
    if not 2 <= r <= MAX_ARITY:
        raise ValueError(f"arity {r} outside supported range 2..{MAX_ARITY}")


@lru_cache(maxsize=None)
def _index_tables(r: int):
    """Index tables over all_perms(r): ``mul[a][b]`` is ``compose(a, b)``, ``inv``
    the inverses, and the generators ``cyc(r)`` and (1 2) of S_r.

    Rows are filled breadth-first over the two generators: the row of ``a . s``
    is the row of ``a`` read through the row of ``s``.
    """
    perms = all_perms(r)
    index = {p: i for i, p in enumerate(perms)}
    swap = (1, 0) + tuple(range(2, r))
    sym_gens = (index[cyc(r)], index[swap])
    gen_rows = [(s, [index[compose(perms[s], b)] for b in perms]) for s in sym_gens]
    id_idx = index[identity(r)]
    mul = [None] * len(perms)
    mul[id_idx] = list(range(len(perms)))
    frontier = [id_idx]
    for a in frontier:
        row = mul[a]
        for s, row_s in gen_rows:
            b = row[s]
            if mul[b] is None:
                mul[b] = list(map(row.__getitem__, row_s))
                frontier.append(b)
    inv = [row.index(id_idx) for row in mul]
    return index, mul, inv, sym_gens


def _conjugation_orbit(r: int, group: frozenset[int]) -> tuple[dict, list[int]]:
    """The conjugates of ``group`` in S_r, breadth-first over its two generators,
    each mapped to one ``t`` with ``t . group . t^-1`` equal to it, and the
    stabilizer's Schreier generators ``t_K^-1 . g . t_H``, one per step that
    meets a known conjugate."""
    index, mul, inv, gens = _index_tables(r)
    orbit = {group: index[identity(r)]}
    schreier = []
    frontier = [group]
    for h_group in frontier:
        t = orbit[h_group]
        for g in gens:
            row, g_inv = mul[g], inv[g]
            k_group = frozenset([mul[row[h]][g_inv] for h in h_group])
            u = row[t]
            t_k = orbit.get(k_group)
            if t_k is None:
                orbit[k_group] = u
                frontier.append(k_group)
            elif t_k != u:
                schreier.append(mul[inv[t_k]][u])
    return orbit, schreier


def _class_name(r: int, canonical: tuple[Perm, ...], class_size: int) -> str | None:
    order = len(canonical)
    if order == 1:
        return "trivial"
    # Every element fixes the slots no element moves, so the group lies in the
    # symmetric group on the m moved slots: order m! makes it all of that group,
    # and order m!/2 (m >= 3) its alternating group, its one subgroup of index 2.
    m = len({i for p in canonical for i in range(r) if p[i] != i})
    if order == math.factorial(m):
        return f"S{m}"
    if m >= 3 and 2 * order == math.factorial(m):
        return f"A{m}"
    if r == 4 and order == 8:
        return "D4"
    if r == 4 and order == 4 and all(order_of(p) <= 2 for p in canonical):
        return "Klein-nonnormal" if class_size > 1 else "Klein-normal"
    return None


@lru_cache(maxsize=None)
def enumerate_subgroup_classes(r: int) -> tuple[SubgroupClass, ...]:
    """All subgroup conjugacy classes of the slot permutations, deterministically ordered.

    Seeds with cyclic subgroups and extends the first group found in each class
    by the seeds' generators until no new class appears; a new group's
    conjugation orbit marks its class as seen and is kept on it.
    """
    _check_arity(r)
    perms = all_perms(r)
    index, mul, inv, _ = _index_tables(r)
    id_idx = index[identity(r)]
    full = len(perms)

    step = lambda g: mul[g].__getitem__  # left multiplication by g

    def close(gens, start=None, start_gens=()) -> tuple[frozenset[int], list[int]]:
        members, kept = _close(id_idx, gens, step, full, start, start_gens)
        return frozenset(range(full)) if members is None else frozenset(members), kept

    seeds: dict[frozenset[int], int] = {}
    cyclic = [id_idx] * full  # each element's cyclic seed, by that seed's first generator
    for g in range(full):
        if g != id_idx:
            cyclic[g] = seeds.setdefault(close([g])[0], g)

    seen: set[frozenset[int]] = set()
    found: list[tuple[tuple[Perm, ...], frozenset[frozenset[int]]]] = []
    queue: list[tuple[frozenset[int], list[int], list[int]]] = []

    def register(group: frozenset[int], gens: list[int]) -> None:
        if group in seen:
            return
        orbit, schreier = _conjugation_orbit(r, group)
        seen.update(orbit)
        found.append((min(tuple(sorted(perms[i] for i in g)) for g in orbit), frozenset(orbit)))
        queue.append((group, gens, _close(id_idx, schreier, step, full)[1]))

    register(frozenset({id_idx}), [])
    while queue:
        group, gens, normalizer_gens = queue.pop()
        # Joining with a seed conjugated by the normalizer of group lands in the
        # conjugacy class of the un-conjugated join, so one seed per
        # normalizer-orbit suffices: the seeds of the conjugates of its
        # generator under the normalizer's generators.
        conj = [(mul[n], inv[n]) for n in normalizer_gens]
        skip: set[int] = set()
        for seed, g in seeds.items():
            if g in skip or seed <= group:
                continue
            orbit = {g}
            frontier = [g]
            for x in frontier:
                for row, n_inv in conj:
                    y = mul[row[x]][n_inv]
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            skip.update(map(cyclic.__getitem__, frontier))
            register(*close([g], group, gens))

    by_order: dict[int, int] = {}
    classes = []
    for canonical, conjugates in sorted(found, key=lambda item: (len(item[0]), item[0])):
        by_order[len(canonical)] = by_order.get(len(canonical), 0) + 1
        name = _class_name(r, canonical, len(conjugates))
        if name is None:
            name = f"order-{len(canonical)}-#{by_order[len(canonical)]}"
        classes.append(SubgroupClass(r=r, representative=canonical, class_size=len(conjugates),
                                     name=name, conjugates=conjugates))
    return tuple(classes)


def avoids(group, pi: Perm) -> bool:
    """True iff no conjugate of ``pi`` lies in ``group`` (no matching cycle type)."""
    members = list(group)
    if any(len(h) != len(pi) for h in members):
        raise ValueError("arity mismatch between group and permutation")
    return cycle_type(pi) not in map(cycle_type, members)


def embeds_in(small, big, r: int) -> bool:
    """True iff some conjugate ``s . small . s^-1`` is contained in ``big``.

    None exists unless ``|small|`` divides ``|big|`` (Lagrange), checked first;
    then every ``s`` in S_r is tried.
    """
    big_set = frozenset(big)
    if len(big_set) % len(frozenset(small)) != 0:
        return False
    for s in all_perms(r):
        s_inv = inverse(s)
        if all(compose(s, compose(h, s_inv)) in big_set for h in small):
            return True
    return False


@lru_cache(maxsize=None)
def maximal_avoiding_classes(r: int, pi: Perm) -> tuple[SubgroupClass, ...]:
    """Classes avoiding ``pi`` that embed in no larger avoiding class, in class order."""
    _check_arity(r)
    if len(pi) != r:
        raise ValueError(f"permutation arity {len(pi)} != {r}")
    index = _index_tables(r)[0]
    avoiding = [(c, frozenset(map(index.__getitem__, c.representative)))
                for c in enumerate_subgroup_classes(r) if avoids(c.representative, pi)]
    # c embeds in d iff one of c's conjugates is a subset of d's representative
    return tuple(
        c for c, _ in avoiding
        if not any(d.order > c.order and any(x <= members for x in c.conjugates)
                   for d, members in avoiding)
    )


Color = tuple[int, Perm]


@dataclass(frozen=True)
class ColorSet:
    """Disjoint union of the left coset spaces of the maximal avoiding classes.

    A color is a pair (class index, least member of a left coset of that
    class); acting on a color by a permutation keeps the class index and moves
    the coset.  ``cosets[idx]`` maps every permutation to the least member of
    its coset, and is left out of comparison and hashing.
    """

    r: int
    pi: Perm
    classes: tuple[SubgroupClass, ...]
    colors: tuple[Color, ...]
    cosets: tuple[dict[Perm, Perm], ...] = field(compare=False, repr=False)

    def color(self, idx: int, g: Perm) -> Color:
        """The color of the coset ``g . gamma`` of class ``idx``."""
        return (idx, self.cosets[idx][g])

    def act(self, s: Perm, color: Color) -> Color:
        idx, rep = color
        return self.color(idx, compose(s, rep))


@lru_cache(maxsize=None)
def color_set(r: int, pi: Perm) -> ColorSet:
    """One lexicographic pass over S_r per class meets each coset first at its least member."""
    classes = maximal_avoiding_classes(r, pi)
    colors = []
    cosets = []
    for idx, c in enumerate(classes):
        least: dict[Perm, Perm] = {}
        for g in all_perms(r):
            if g not in least:
                colors.append((idx, g))
                least.update((compose(g, h), g) for h in c.representative)
        cosets.append(least)
    return ColorSet(r=r, pi=pi, classes=classes, colors=tuple(colors), cosets=tuple(cosets))


def class_by_name(r: int, name: str) -> SubgroupClass:
    for c in enumerate_subgroup_classes(r):
        if c.name == name:
            return c
    raise KeyError(f"no subgroup class named {name!r} at arity {r}")
