"""Triangle census over four-color pair colorings, and the bounds it feeds.

A pair coloring assigns every unordered pair of vertices one of four tags:
directed red, undirected blue, undirected green, or directed purple. The
census counts green triangles, purple directed 3-cycles, and cherries (a
blue base whose endpoints both point red at a common apex), converts the
tag frequencies to exact rational densities, and checks the six bounds
those counts satisfy. It counts on per-vertex int bitset rows that a
coloring builds in the one pass that validates its pairs. The same
densities drive the scalar objectives ``eval_g`` / ``eval_f`` and a
float grid maximizer with a Lipschitz bound, one grid scan per pass,
alongside the closed-form extremal count ``e_opt`` and a few small exact
checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .hypergraph import Hypergraph

RED = "red"
BLUE = "blue"
GREEN = "green"
PURPLE = "purple"

Pair = tuple[int, int]

# shared undirected values, accepted by identity in the coloring check
_BLUE = (BLUE,)
_GREEN = (GREEN,)

# derivative budget of f along the scanned coordinates (alpha, gamma, delta)
# with beta eliminated: 9 + 4.5 + 9, see maximize_f_on_R
_SCAN_LIPSCHITZ = 22.5

# largest coarse grid maximize_f_on_R scans: step 1/200 has 117,912 points, 1/400 915,823
FOPT_MAX_GRID_POINTS = 1_000_000

# most pairs random_edge_coloring builds, about 160 bytes each: n = 1414 fits, the bench uses 120
CENSUS_MAX_PAIRS = 1_000_000

# finest final step maximize_f_on_R accepts: below it, float f at grid points
# about 1e-14 apart rounds above the true maximum 1/2
FOPT_MIN_STEP = Fraction(1, 10**12)


def as_fraction(x) -> Fraction:
    """Exact rational; a float is read at its shortest decimal, so ``0.1`` is one tenth.

    Strings such as '3/200' or '0.18' parse exactly; a zero denominator is a ValueError.
    """
    if isinstance(x, float):
        return Fraction(str(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


@dataclass(frozen=True)
class EdgeColoring2:
    """A four-tag coloring of all vertex pairs; directed tags carry (tail, head).

    The pass that validates the pairs also builds the census index, kept on the
    instance and out of equality and repr: per-vertex int bitset rows of green
    neighbours, red out-neighbours, purple out- and in-neighbours, then the
    green and blue keys and the purple values (the stored tuples themselves).
    """

    n: int
    colors: dict[Pair, tuple]
    _index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.colors) != math.comb(max(self.n, 0), 2):
            raise ValueError("every unordered pair needs exactly one color")
        green, rout, pout, pin = ([0] * self.n for _ in range(4))
        greens, blues, purples = [], [], []
        # with the count right, keys 0 <= u < v < n are all C(n,2) pairs; a bad key wins
        problem = None
        for key, val in self.colors.items():
            u, v = key
            if not 0 <= u < v < self.n:
                raise ValueError("every unordered pair needs exactly one color")
            if problem:
                continue
            tag = val[0]
            if val is not _BLUE and val is not _GREEN:
                if tag in (BLUE, GREEN):
                    if val != (tag,):
                        problem = f"undirected tag {tag} takes no endpoints"
                elif tag in (RED, PURPLE):
                    if len(val) != 3 or not (val[1] == u and val[2] == v or val[1] == v and val[2] == u):
                        problem = f"directed tag on {(u, v)} must orient that pair"
                else:
                    problem = f"unknown tag {tag!r}"
                if problem:
                    continue
            # the value passed its checks, so a directed one holds u and v in some order
            if tag == GREEN:
                green[u] |= 1 << v
                green[v] |= 1 << u
                greens.append(key)
            elif tag == BLUE:
                blues.append(key)
            elif tag == RED:
                rout[val[1]] |= 1 << val[2]
            else:
                pout[val[1]] |= 1 << val[2]
                pin[val[2]] |= 1 << val[1]
                purples.append(val)
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "_index", (green, rout, pout, pin, greens, blues, purples))

    def value(self, u: int, v: int) -> tuple:
        return self.colors[(u, v) if u < v else (v, u)]


def edge_coloring_to_text(c: EdgeColoring2) -> str:
    lines = [str(c.n)]
    for (u, v), val in sorted(c.colors.items()):
        lines.append(" ".join(str(x) for x in (u, v) + val))
    return "\n".join(lines) + "\n"


def edge_coloring_from_text(text: str) -> EdgeColoring2:
    """Parse the text form; ValueError on a missing header or a malformed line."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 1:
        raise ValueError("expected header line 'n'")
    n = int(rows[0][0])
    colors = {}
    for parts in rows[1:]:
        if len(parts) not in (3, 5):
            raise ValueError(f"expected 'u v tag [tail head]', got {' '.join(parts)!r}")
        u, v, tag = int(parts[0]), int(parts[1]), parts[2]
        val = (tag,) if len(parts) == 3 else (tag, int(parts[3]), int(parts[4]))
        colors[(u, v)] = val
    return EdgeColoring2(n=n, colors=colors)


def random_edge_coloring(n: int, seed) -> EdgeColoring2:
    """Uniform choice among the six tags (two orientations each for red, purple)."""
    if (pairs := math.comb(max(n, 0), 2)) > CENSUS_MAX_PAIRS:
        raise ValueError(f"random coloring on {n} vertices has {pairs:,} pairs, over {CENSUS_MAX_PAIRS=:,}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    colors = {}
    for u, v in itertools.combinations(range(n), 2):
        roll = rng.randrange(6)
        if roll == 0:
            colors[(u, v)] = _BLUE
        elif roll == 1:
            colors[(u, v)] = _GREEN
        elif roll < 4:
            colors[(u, v)] = (RED, u, v) if roll == 2 else (RED, v, u)
        else:
            colors[(u, v)] = (PURPLE, u, v) if roll == 4 else (PURPLE, v, u)
    return EdgeColoring2(n=n, colors=colors)


def cherry_coloring(a: int, b: int) -> EdgeColoring2:
    """Two cliques: blue inside the first part, green inside the second,
    red directed from the first part into the second."""
    colors = {}
    for u, v in itertools.combinations(range(a + b), 2):
        if v < a:
            colors[(u, v)] = _BLUE
        elif u >= a:
            colors[(u, v)] = _GREEN
        else:
            colors[(u, v)] = (RED, u, v)
    return EdgeColoring2(n=a + b, colors=colors)


def purple_tournament_coloring(n: int, beats) -> EdgeColoring2:
    """All-purple coloring oriented by a tournament's beats relation."""
    beats = set(beats)
    colors = {}
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) in beats:
            colors[(u, v)] = (PURPLE, u, v)
        elif (v, u) in beats:
            colors[(u, v)] = (PURPLE, v, u)
        else:
            raise ValueError(f"tournament orients neither ({u},{v}) nor ({v},{u})")
    return EdgeColoring2(n=n, colors=colors)


def edge_coloring_from_link(link: dict, n: int, w: int) -> EdgeColoring2:
    """Compact a simplified link coloring at ``w`` onto vertices 0..n-2.

    ``link`` maps pairs of vertices other than ``w`` to red/blue/green/purple
    values as produced by ``coloring.simplify_link_coloring``; free pairs are
    not allowed here.
    """
    relabel = {v: v - (v > w) for v in range(n) if v != w}
    colors = {}
    for (u, v), val in link.items():
        key = tuple(sorted((relabel[u], relabel[v])))
        if val[0] in (RED, PURPLE):
            colors[key] = (val[0], relabel[val[1]], relabel[val[2]])
        elif val[0] in (BLUE, GREEN):
            colors[key] = val
        else:
            raise ValueError(f"link pair {(u, v)} has no pair-coloring tag: {val!r}")
    return EdgeColoring2(n=n - 1, colors=colors)


@dataclass(frozen=True)
class TriangleCensus:
    """Counts of the three triangle types plus exact tag densities.

    Densities are normalized so that directed tags count each orientation:
    2*alpha*C(n,2) red pairs, beta*C(n,2) blue, gamma*C(n,2) green,
    2*delta*C(n,2) purple, whence 2*alpha + beta + gamma + 2*delta = 1.
    """

    n: int
    t_green: int
    t_purple: int
    t_cherry: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self):
        if 2 * self.alpha + self.beta + self.gamma + 2 * self.delta != 1:
            raise ValueError("densities must satisfy 2a + b + c + 2d = 1")
        top = math.comb(self.n, 3)
        for t in (self.t_green, self.t_purple, self.t_cherry):
            if not 0 <= t <= top:
                raise ValueError("triangle counts must lie in [0, C(n,3)]")


def count_triangle_types(c: EdgeColoring2) -> TriangleCensus:
    """Exact counts of green triangles, purple 3-cycles, and cherries.

    A cherry is a blue pair {y, z} with both y and z pointing red at a
    common third vertex.
    """
    if c.n < 2:
        raise ValueError("densities need at least one pair, so n >= 2")
    green, rout, pout, pin, greens, blues, purples = c._index
    # rows of the coloring's census index: a triangle on a pair is a bit of the AND of two
    # rows, and each green triangle and each purple 3-cycle is seen from all three sides
    t_green = sum((green[u] & green[v]).bit_count() for u, v in greens) // 3
    t_cherry = sum((rout[y] & rout[z]).bit_count() for y, z in blues)
    t_purple = sum((pout[v] & pin[u]).bit_count() for _, u, v in purples) // 3

    pairs = math.comb(c.n, 2)
    return TriangleCensus(
        n=c.n,
        t_green=t_green,
        t_purple=t_purple,
        t_cherry=t_cherry,
        alpha=Fraction(pairs - len(greens) - len(blues) - len(purples), 2 * pairs),
        beta=Fraction(len(blues), pairs),
        gamma=Fraction(len(greens), pairs),
        delta=Fraction(len(purples), 2 * pairs),
    )


@dataclass(frozen=True)
class InequalityItem:
    name: str
    ok: bool
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class InequalityReport:
    n: int
    items: tuple[InequalityItem, ...]
    cherry_alt_ok: bool  # the sharper 2*sqrt(3)-3 constant, reported only
    purple_refined_ok: bool  # t_purple <= (n^3 - n)/24, reported only
    f_bound: float
    triangles_total: int

    @property
    def all_ok(self) -> bool:
        return all(item.ok for item in self.items)

    def to_record(self, census: TriangleCensus) -> dict:
        return {
            "n": self.n,
            "counts": {
                "green": census.t_green,
                "purple": census.t_purple,
                "cherry": census.t_cherry,
            },
            "densities": {
                "alpha": str(census.alpha),
                "beta": str(census.beta),
                "gamma": str(census.gamma),
                "delta": str(census.delta),
            },
            "inequalities": {
                item.name: {"ok": item.ok, "slack": item.slack} for item in self.items
            },
            "cherry_alt_ok": self.cherry_alt_ok,
            "purple_refined_ok": self.purple_refined_ok,
            "f_bound": self.f_bound,
            "all_ok": self.all_ok,
        }


def check_color_inequalities(census: TriangleCensus, n: int) -> InequalityReport:
    """Evaluate the six triangle bounds exactly; slacks are informational floats.

    Pass/fail comes from cleared rational forms (squares remove the half
    powers), so no check depends on floating point.
    """
    tg, tp, tc = census.t_green, census.t_purple, census.t_cherry
    a, b, g, d = census.alpha, census.beta, census.gamma, census.delta
    n3 = n**3
    n6 = n**6
    scale = n3 / 6

    ok1 = (6 * tg) ** 2 <= g**3 * n6
    ok2 = (6 * tp) ** 2 <= 4 * d**3 * n6
    ok3 = (6 * tc) ** 2 <= 9 * a**2 * b * n6
    ok4 = 1200 * tc <= 93 * n3
    ok5 = 24 * tp + 6 * (tg + tc) <= n3
    if a + b > 0:
        ok6 = 6 * (a + b) * tc <= 3 * a * b * n3
        rhs6 = float(3 * a * b / (a + b)) * scale
    else:
        ok6 = tc == 0
        rhs6 = 0.0

    af, bf, gf, df = float(a), float(b), float(g), float(d)
    items = (
        InequalityItem("green_tri", ok1, tg, gf * math.sqrt(gf) * scale),
        InequalityItem("purple_tri", ok2, tp, 2 * df * math.sqrt(df) * scale),
        InequalityItem("cherry_sqrt", ok3, tc, 3 * af * math.sqrt(bf) * scale),
        InequalityItem("cherry_const", ok4, tc, 0.465 * scale),
        InequalityItem("combined", ok5, tp + (tg + tc) / 4, scale / 4),
        InequalityItem("cherry_harmonic", ok6, tc, rhs6),
    )
    return InequalityReport(
        n=n,
        items=items,
        cherry_alt_ok=(6 * tc + 3 * n3) ** 2 <= 12 * n6,  # tc <= (2*sqrt(3) - 3) * n^3/6
        purple_refined_ok=24 * tp <= n3 - n,
        f_bound=eval_f(a, b, g, d) * scale,
        triangles_total=tg + tp + tc,
    )


def goodman_check(c: EdgeColoring2) -> tuple[int, int, bool]:
    """For an all-purple coloring: sum of indeg*outdeg against 3T + transitive count."""
    _, _, pout, pin, _, _, purples = c._index
    if len(purples) != len(c.colors):
        raise ValueError("the degree identity applies to all-purple colorings")
    lhs = sum(out.bit_count() * into.bit_count() for out, into in zip(pout, pin))
    t = count_triangle_types(c).t_purple
    rhs = 3 * t + (math.comb(c.n, 3) - t)
    return lhs, rhs, lhs == rhs


def _require_nonnegative(**named):
    for name, x in named.items():
        if x < 0:
            raise ValueError(f"{name} must be nonnegative, got {x}")


def eval_g(alpha, beta, gamma) -> float:
    """gamma^(3/2) + min(0.465, 3ab/(a+b), 3a*sqrt(b)).

    Evaluated in binary floating point, round to nearest; half powers use
    x*sqrt(x) so the quarter/half arguments of the extremal point come out
    exact. The harmonic term is 0 by convention when alpha + beta = 0.
    """
    if alpha < 0 or beta < 0 or gamma < 0:
        _require_nonnegative(alpha=alpha, beta=beta, gamma=gamma)
    a, b, g = float(alpha), float(beta), float(gamma)
    harmonic = 0.0 if a + b == 0 else 3 * a * b / (a + b)
    return g * math.sqrt(g) + min(0.465, harmonic, 3 * a * math.sqrt(b))


def eval_f(alpha, beta, gamma, delta) -> float:
    """min(2*delta^(3/2) + g, 1/4 + 3/4*g) for g = eval_g(alpha, beta, gamma)."""
    if delta < 0:
        _require_nonnegative(delta=delta)
    g = eval_g(alpha, beta, gamma)
    d = float(delta)
    return min(2 * d * math.sqrt(d) + g, 0.25 + 0.75 * g)


def _coarse_grid_points(top: int) -> int:
    """#{(i, j, d) >= 0 : j <= i, 2i + j + 2d <= top}, the coarse scan at step 1/top, in closed form."""
    return (top**3 + 12 * top**2 + (39 * top + 64 if top % 2 else 48 * top + 100)) // 72


def _scan(unit, box, region, best, best_point, evaluations):
    """Scan the points (i, j, d)*unit of ``box`` (index ranges for alpha, gamma, delta, in that
    order) with j <= i and 2i + j + 2d <= 1/unit; the first strict maximum of f wins."""
    top = math.floor(1 / unit)
    (ilo, ihi), (jlo, jhi), (dlo, dhi) = box
    mlo = 2 * ilo + jlo + 2 * dlo
    # each axis and the remainder 1 - m*unit are exact multiples with their floats computed once
    exact = [[k * unit for k in range(lo, hi + 1)] for lo, hi in box]
    exact.append([1 - m * unit for m in range(mlo, min(top, 2 * ihi + jhi + 2 * dhi) + 1)])
    xa, xg, xd, xr = exact
    fa, fg, fd, fr = ([float(x) for x in axis] for axis in exact)
    # indices are offsets from the box corner, so the remainder's is 2i + j + 2d
    for i in range(ihi - ilo + 1):
        a, ea, free = fa[i], xa[i], top - 2 * (ilo + i)
        for j in range(min(jhi, ilo + i, free) - jlo + 1):
            g, eg, m0 = fg[j], xg[j], 2 * i + j
            for d in range(min(dhi, (free - jlo - j) // 2) - dlo + 1):
                m = m0 + 2 * d
                if region is not None and not region(ea, xr[m], eg, xd[d]):
                    continue
                f = eval_f(a, fr[m], g, fd[d])
                evaluations += 1
                if f > best:
                    best = f
                    best_point = (ea, xr[m], eg, xd[d])
    return best, best_point, evaluations


def maximize_f_on_R(step, refinements: int = 2, region=None):
    """Grid-maximize f over {a,b,c,d >= 0, 2a+b+c+2d = 1, c <= a}.

    Scans (alpha, gamma, delta) at the given resolution with beta eliminated,
    then runs the same scan ``refinements`` times, each at a tenth of the last
    step over one last step around the incumbent. The certificate's upper
    bound comes from the full coarse scan only: any feasible point has a grid
    point within ``step`` below it in each coordinate, and f moves at most
    22.5*step across that box (derivative budget 3 per density coordinate,
    1.5 in gamma, doubled through beta for alpha and delta). ``region``
    optionally restricts the scan to points where region(a, b, g, d) is true;
    the certificate then covers only that subregion. A coarse grid over
    ``FOPT_MAX_GRID_POINTS`` or a final step under ``FOPT_MIN_STEP`` is
    refused up front; a float step is read at its shortest decimal.

    Returns (best value, best point as exact fractions, certificate dict).
    """
    step = as_fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if step > Fraction(1, 4):
        raise ValueError("step above 1/4 cannot see the interior")
    if refinements < 0:
        raise ValueError(f"refinements must be nonnegative, got {refinements}")
    top = int(1 / step)
    if (points := _coarse_grid_points(top)) > FOPT_MAX_GRID_POINTS:
        raise ValueError(f"step {step} scans {points:,} coarse grid points, over {FOPT_MAX_GRID_POINTS=:,}")
    # any() stops at the first pass below the floor, within 13 passes as step <= 1/4
    if any(step / 10**k < FOPT_MIN_STEP for k in range(refinements + 1)):
        raise ValueError(f"final step {step} / 10**{refinements} is below {FOPT_MIN_STEP=!s}")

    best, best_point, evaluations = _scan(step, ((0, top // 2),) * 3, region, -1.0, None, 0)
    if best_point is None:
        raise ValueError("region excludes every grid point")
    upper = best + _SCAN_LIPSCHITZ * float(step)

    cur = step
    for _ in range(refinements):
        prev, cur = cur, cur / 10
        a0, _, g0, d0 = best_point
        box = tuple((max(0, math.ceil((x - prev) / cur)), math.floor((x + prev) / cur)) for x in (a0, g0, d0))
        best, best_point, evaluations = _scan(cur, box, region, best, best_point, evaluations)

    certificate = {
        "step": str(step),
        "final_step": str(cur),
        "evaluations": evaluations,
        "lipschitz": _SCAN_LIPSCHITZ,
        "upper_bound": upper,
        "gap": upper - best,
    }
    return best, best_point, certificate


def e_opt(n: int) -> tuple[int, list[tuple[int, int]]]:
    """max over a+b=n of C(a,3)*b + a*C(b,3), with every maximizing split a >= b.

    At a = n/2 + x the count is an even quartic in x with x^4 coefficient -1/3,
    strictly concave in x^2, so it rises and then falls as a grows from
    n - n//2: the walk stops at the first drop, about sqrt(3n)/2 steps on.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def count(a: int) -> int:
        return math.comb(a, 3) * (n - a) + a * math.comb(n - a, 3)

    a = n - n // 2
    top, splits = count(a), [(a, n - a)]
    while a < n and (nxt := count(a + 1)) >= top:
        a += 1
        if nxt > top:
            top, splits = nxt, []
        splits.append((a, n - a))
    return top, splits


def degree_spread(g: Hypergraph) -> int:
    """Largest gap between two vertex degrees (isolated vertices count)."""
    degs = {v: 0 for v in range(g.n)}
    for e in g.edges:
        for v in e:
            degs[v] += 1
    return max(degs.values()) - min(degs.values()) if degs else 0


def milne_check(a, b) -> tuple[bool, Fraction]:
    """(sum a_i b_i/(a_i+b_i)) * (sum a_i+b_i) <= (sum a_i)(sum b_i), exactly.

    Returns the (always true) verdict together with the exact slack.
    """
    a = [as_fraction(x) for x in a]
    b = [as_fraction(x) for x in b]
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if any(x < 0 for x in a + b):
        raise ValueError("entries must be nonnegative")
    if any(x + y == 0 for x, y in zip(a, b)):
        raise ValueError("each pair needs a_i + b_i > 0")
    lhs = sum(x * y / (x + y) for x, y in zip(a, b)) * sum(x + y for x, y in zip(a, b))
    rhs = sum(a) * sum(b)
    return lhs <= rhs, rhs - lhs


def milne_stability_check(a, b, eps) -> tuple[bool, set[int]]:
    """Near-equality forces all but eps*n pairs close to (1/2,1/2) or (0,0).

    If sum a_i b_i >= (1/4) sum (a_i+b_i) - eps^3 n, at most eps*n indices may
    fall outside {both in (1/2-eps, 1/2+eps)} union {both in [0, eps)}. The
    exceptional set is returned either way. The conclusion is provable for
    eps up to about 1/5; beyond that the statement itself can fail.
    """
    a = [as_fraction(x) for x in a]
    b = [as_fraction(x) for x in b]
    eps = as_fraction(eps)
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if any(x < 0 for x in a + b) or any(x + y > 1 for x, y in zip(a, b)):
        raise ValueError("each pair needs 0 <= a_i + b_i <= 1")
    n = len(a)
    lo, hi = Fraction(1, 2) - eps, Fraction(1, 2) + eps
    exceptional = {
        i
        for i, (x, y) in enumerate(zip(a, b))
        if not ((lo < x < hi and lo < y < hi) or (x < eps and y < eps))
    }
    hypothesis = sum(x * y for x, y in zip(a, b)) >= sum(
        x + y for x, y in zip(a, b)
    ) / 4 - eps**3 * n
    return (not hypothesis) or len(exceptional) <= eps * n, exceptional
