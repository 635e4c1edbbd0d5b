"""Permutations of coordinate slots, their subgroups up to conjugacy, and coset colors.

A permutation of arity ``r`` is a plain tuple ``p`` of length ``r`` with
``p[i]`` the image of slot ``i``.  Acting on an ``r``-tuple ``x`` moves the
entry in slot ``j`` to slot ``p[j]``, so ``apply_to_tuple(cyc(r), x)`` is the
right rotation ``(x[-1], x[0], ..., x[-2])``.

Subgroups of the full symmetric group on ``r`` slots are enumerated up to
conjugacy.  Each class gets a canonical representative (the conjugate whose
sorted element tuple is lexicographically least), a deterministic position in
the class list (sorted by order, then by that tuple), and a stable name.
Classes found in no table get the fallback name ``order-k-#j``.

A "color set" for a permutation ``pi`` is the disjoint union of the left
coset spaces of the maximal ``pi``-avoiding classes; colors are the atoms
that edge colorings elsewhere in this package take values in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    """Disjoint cycles, each starting at its least slot, sorted by that slot."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cycle))
    return tuple(out)


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


def closure(perms) -> frozenset[Perm]:
    """Subgroup generated by ``perms`` (the trivial group if all are the identity).

    Breadth-first over right multiplication by the generators, skipping any
    already in the group so far: each kept one doubles it, so few are kept.
    """
    gens = [tuple(p) for p in perms]
    if not gens:
        raise ValueError("need at least one permutation to infer arity")
    members = {identity(len(gens[0]))}
    kept: list[Perm] = []
    for g in gens:
        if g in members:
            continue
        kept.append(g)
        frontier = list(members)
        while frontier:
            fresh = []
            for a in frontier:
                for s in kept:
                    c = compose(a, s)
                    if c not in members:
                        members.add(c)
                        fresh.append(c)
            frontier = fresh
    return frozenset(members)


def conjugate_group(group, s: Perm) -> frozenset[Perm]:
    s_inv = inverse(s)
    return frozenset(compose(s, compose(h, s_inv)) for h in group)


def minimal_generators(group) -> tuple[Perm, ...]:
    """A small deterministic generating set, greedy over sorted elements."""
    elements = sorted(group)
    r = len(elements[0])
    gens: list[Perm] = []
    span = {identity(r)}
    for p in elements:
        if p not in span:
            gens.append(p)
            span = set(closure(gens))
            if len(span) == len(elements):
                break
    return tuple(gens) if gens else (identity(r),)


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups, held by its canonical representative."""

    r: int
    representative: tuple[Perm, ...]
    class_size: int
    name: str

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
    """Index-based multiplication/inverse/conjugation tables over all_perms(r)."""
    perms = all_perms(r)
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[compose(a, b)] for b in perms] for a in perms]
    inv = [index[inverse(p)] for p in perms]
    return index, mul, inv


def _close_indices(seed, mul, full_size: int) -> frozenset[int]:
    """Close a set of permutation indices under the multiplication table.

    A proper subgroup has order at most full_size/2, so any closure that
    grows past that is the whole group.
    """
    members = set(seed)
    worklist = list(members)
    half = full_size // 2
    i = 0
    while i < len(worklist):
        a = worklist[i]
        i += 1
        row = mul[a]
        j = 0
        while j < len(worklist):
            b = worklist[j]
            j += 1
            c = row[b]
            if c not in members:
                members.add(c)
                worklist.append(c)
            c = mul[b][a]
            if c not in members:
                members.add(c)
                worklist.append(c)
        if len(members) > half:
            return frozenset(range(full_size))
    return frozenset(members)


def _class_name(r: int, canonical: tuple[Perm, ...], class_size: int) -> str | None:
    order = len(canonical)
    if order == 1:
        return "trivial"
    moved = sorted({i for p in canonical for i in range(r) if p[i] != i})
    m = len(moved)
    if order == math.factorial(m):
        sym = {p for p in all_perms(r) if all(p[i] == i for i in range(r) if i not in moved)}
        if set(canonical) == sym:
            return f"S{m}"
    if m >= 3 and 2 * order == math.factorial(m):
        alt = {p for p in all_perms(r)
               if all(p[i] == i for i in range(r) if i not in moved) and is_even(p)}
        if set(canonical) == alt:
            return f"A{m}"
    if r == 4 and order == 8:
        return "D4"
    if r == 4 and order == 4 and all(order_of(p) <= 2 for p in canonical):
        return "Klein-nonnormal" if class_size > 1 else "Klein-normal"
    return None


@lru_cache(maxsize=None)
def enumerate_subgroup_classes(r: int) -> tuple[SubgroupClass, ...]:
    """All subgroup conjugacy classes of the slot permutations, deterministically ordered.

    Seeds with cyclic subgroups and repeatedly joins class representatives with
    the seeds, closing under composition, until no new class appears; classes
    are deduped by conjugation orbit.
    """
    _check_arity(r)
    perms = all_perms(r)
    index, mul, inv = _index_tables(r)
    id_idx = index[identity(r)]

    full = len(perms)
    seeds = []
    seen_seeds = set()
    for g in range(full):
        if g == id_idx:
            continue
        s = _close_indices({id_idx, g}, mul, full)
        if s not in seen_seeds:
            seen_seeds.add(s)
            seeds.append(s)

    def conj(group, s: int) -> frozenset[int]:
        s_inv = inv[s]
        row = mul[s]
        return frozenset(mul[row[h]][s_inv] for h in group)

    seen: set[frozenset[int]] = set()
    found: list[tuple[frozenset[int], int]] = []
    queue: list[frozenset[int]] = []

    def register(group: frozenset[int]) -> None:
        if group in seen:
            return
        orbit = {conj(group, s) for s in range(full)}
        seen.update(orbit)
        canonical = min(orbit, key=lambda g: tuple(sorted(perms[i] for i in g)))
        found.append((canonical, len(orbit)))
        queue.append(canonical)

    register(frozenset({id_idx}))
    while queue:
        rep = queue.pop()
        # Joining with a seed conjugated by the normalizer of rep lands in the
        # conjugacy class of the un-conjugated join, so one seed per
        # normalizer-orbit suffices.
        normalizer = [s for s in range(full) if conj(rep, s) == rep]
        skip: set[frozenset[int]] = set()
        for seed in seeds:
            if seed <= rep or seed in skip:
                continue
            if len(normalizer) > 1:
                skip.update(conj(seed, s) for s in normalizer)
            register(_close_indices(rep | seed, mul, full))

    raw = sorted(
        ((tuple(sorted(perms[i] for i in grp)), size) for grp, size in found),
        key=lambda item: (len(item[0]), item[0]),
    )
    by_order: dict[int, int] = {}
    classes = []
    for canonical, size in raw:
        by_order[len(canonical)] = by_order.get(len(canonical), 0) + 1
        name = _class_name(r, canonical, size)
        if name is None:
            name = f"order-{len(canonical)}-#{by_order[len(canonical)]}"
        classes.append(SubgroupClass(r=r, representative=canonical, class_size=size, name=name))
    return tuple(classes)


def avoids(group, pi: Perm) -> bool:
    """True iff no conjugate of ``pi`` lies in ``group`` (no matching cycle type)."""
    members = list(group)
    if any(len(h) != len(pi) for h in members):
        raise ValueError("arity mismatch between group and permutation")
    target = cycle_type(pi)
    return all(cycle_type(h) != target for h in members)


def embeds_in(small, big, r: int) -> bool:
    """True iff some conjugate of ``small`` is contained in ``big``."""
    big_set = frozenset(big)
    if len(big_set) % len(frozenset(small)) != 0:
        return False
    for s in all_perms(r):
        if all(compose(s, compose(h, inverse(s))) in big_set for h in small):
            return True
    return False


def maximal_avoiding_classes(r: int, pi: Perm) -> tuple[SubgroupClass, ...]:
    """Classes avoiding ``pi`` that embed in no larger avoiding class, in class order."""
    _check_arity(r)
    if len(pi) != r:
        raise ValueError(f"permutation arity {len(pi)} != {r}")
    avoiding = [c for c in enumerate_subgroup_classes(r) if avoids(c.representative, pi)]
    out = []
    for c in avoiding:
        dominated = any(
            d.order > c.order and embeds_in(c.representative, d.representative, r)
            for d in avoiding
        )
        if not dominated:
            out.append(c)
    return tuple(out)


def coset_rep(g: Perm, gamma) -> Perm:
    """Lexicographically least member of the left coset ``g . gamma``."""
    return min(compose(g, h) for h in gamma)


Color = tuple[int, Perm]


@dataclass(frozen=True)
class ColorSet:
    """Disjoint union of the left coset spaces of the maximal avoiding classes.

    A color is a pair (class index, canonical coset representative); acting on
    a color by a permutation keeps the class index and moves the coset.
    """

    r: int
    pi: Perm
    classes: tuple[SubgroupClass, ...]
    colors: tuple[Color, ...]

    def act(self, s: Perm, color: Color) -> Color:
        idx, rep = color
        return (idx, coset_rep(compose(s, rep), self.classes[idx].representative))


def color_set(r: int, pi: Perm) -> ColorSet:
    classes = maximal_avoiding_classes(r, pi)
    colors = []
    for idx, c in enumerate(classes):
        gamma = c.representative
        reps = sorted({coset_rep(g, gamma) for g in all_perms(r)})
        colors.extend((idx, rep) for rep in reps)
    return ColorSet(r=r, pi=pi, classes=classes, colors=tuple(colors))


def class_by_name(r: int, name: str) -> SubgroupClass:
    for c in enumerate_subgroup_classes(r):
        if c.name == name:
            return c
    raise KeyError(f"no subgroup class named {name!r} at arity {r}")
