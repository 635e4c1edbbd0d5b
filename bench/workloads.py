"""The four benchmark workloads.

A workload sets up its inputs once, then yields the ops of one pass. An op is
a thunk of library calls, timed on its own, and a check run right after it,
outside the timed region. A check returns the op's answer record (or None
when the answer depends on the seed) and the problems it found; run.py
compares each record's digest with golden.json.

Why each workload exists, and which layer metrics should move it, is in
bench/README.md.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass
class Op:
    key: str
    kind: str
    run: Callable
    check: Callable  # result -> (record or None, [problem, ...])


class Workload:
    name = ""
    # op kinds whose latencies feed ops_per_s and op_p50/p99
    stat_kinds: tuple[str, ...] = ()
    # passes repeat until this many stat ops ran, so that p99 has 10 beyond it
    min_ops = 0

    def setup(self, lib, seed: int, outdir: str) -> None:
        raise NotImplementedError

    def before_pass(self, lib) -> None:
        """Untimed preparation each pass needs, such as clearing memo tables."""

    def ops(self, lib, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def finish(self, results) -> tuple[dict, list]:
        """Workload figures and cross-op problems from one checked pass.

        ``results`` holds (op, seconds, record, error) tuples in run order.
        Problems are (op index, message) pairs.
        """
        return {}, []


def _seconds_of(results, pred) -> float:
    return sum(dt for op, dt, _, _ in results if pred(op))


# ---------------------------------------------------------------------------
# certify-stream

STREAM_POOL_SEED = 2411


def draw_stream_pool(size: int):
    """Small random r-graphs drawn the way acceptance test 11 draws them."""
    rng = random.Random(STREAM_POOL_SEED)
    pool = []
    for _ in range(size):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 6)
        choices = list(itertools.combinations(range(n), r))
        m = rng.randint(0, min(len(choices), 9))
        pool.append((r, n, rng.sample(choices, m)))
    return pool


def _certify(lib, r, n, edges):
    g = lib.hg.Hypergraph(r, n, edges)
    answers = []
    for k in range(r):
        if lib.tcn.is_hom_free(g, k):
            chi = lib.col.build_accordant_coloring(g, lib.pg.perm_power(lib.pg.cyc(r), k))
            answers.append((k, True, chi, chi is not None and lib.col.verify_accordant(g, chi)))
        else:
            w = lib.tcn.find_hom_cycle_witness(g, k)
            answers.append((k, False, w, w is not None and lib.tcn.is_valid_closed_walk(g, w.vertices, k)))
    return answers


def _check_certify(r, n, edges, answers):
    edge_set = {tuple(sorted(e)) for e in edges}
    problems = []
    verdicts = []
    for k, free, found, library_ok in answers:
        if found is None:
            # the two routes disagree: a free residue needs a coloring, a blocked one a witness
            problems.append(f"k={k}: {'no coloring' if free else 'no witness'} for a {'free' if free else 'blocked'} residue")
        elif not library_ok:
            problems.append(f"k={k}: the library's own verifier rejects its answer")
        elif free and set(found.assignment) != edge_set:
            problems.append(f"k={k}: coloring does not cover exactly the edges")
        elif not free and not (
            found.stretch == len(found.vertices) - r
            and checks.closed_walk_ok(edge_set, r, found.vertices, k)
        ):
            problems.append(f"k={k}: witness is not a closed walk of residue {k}")
        verdicts.append([k, free, None if free or found is None else found.stretch])
    return [r, n, len(edge_set), verdicts], problems


class CertifyStream(Workload):
    """Every residue of every small graph, decided and certified both ways.

    The pool of graphs is drawn from a fixed seed so that each run does the
    same work; the workload seed relabels each graph's vertices and orders
    the stream. Verdicts and shortest witness stretches do not depend on the
    labels, so one golden record per pool graph holds for every seed.
    """

    name = "certify-stream"
    stat_kinds = ("graph",)
    min_ops = 1000

    def __init__(self, pool_size: int = 500):
        self.pool_size = pool_size

    def setup(self, lib, seed, outdir):
        self.seed = seed
        self.pool = draw_stream_pool(self.pool_size)

    def ops(self, lib, pass_index):
        rng = random.Random(f"{self.name}/{self.seed}/{pass_index}")
        order = list(range(len(self.pool)))
        rng.shuffle(order)
        out = []
        for i in order:
            r, n, edges = self.pool[i]
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [tuple(perm[v] for v in e) for e in edges]
            out.append(
                Op(
                    key=str(i),
                    kind="graph",
                    run=functools.partial(_certify, lib, r, n, relabeled),
                    check=functools.partial(_check_certify, r, n, relabeled),
                )
            )
        return out


# ---------------------------------------------------------------------------
# dense-hosts

DENSE_JOBS = (
    ("check:godd5", ("check", "godd5", "--k", "all")),
    ("tc:godd5", ("tc", "godd5")),
    ("check:godd6", ("check", "godd6", "--k", "all")),
    ("tc:godd6", ("tc", "godd6")),
    ("check:godd7", ("check", "godd7", "--k", "all")),
    ("tc:godd7", ("tc", "godd7")),
    ("color:godd6", ("color", "godd6", "--k", "1", "--roundtrip")),
    ("check:c4_9", ("check", "c4_9", "--k", "all")),
    ("check:c4_13", ("check", "c4_13", "--k", "all")),
    ("groups:r6", ("groups", None, "--r", "6", "--avoid", "cyc", "--colors")),
    ("color:c6_14", ("color", "c6_14", "--k", "1")),
)


def _hosts(hg):
    return {
        "godd5": hg.complete_oddly_bipartite(5, 5),
        "godd6": hg.complete_oddly_bipartite(6, 6),
        "godd7": hg.complete_oddly_bipartite(7, 7),
        "c4_9": hg.tight_cycle(4, 9),
        "c4_13": hg.tight_cycle(4, 13),
        "c6_14": hg.tight_cycle(6, 14),
    }


def _cli(lib, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(list(argv) + ["--format", "records"])
    return code, buf.getvalue()


class DenseHosts(Workload):
    """CLI verbs on a few large fixed hosts, each pass from cold memo tables."""

    name = "dense-hosts"
    stat_kinds = ("job",)

    def __init__(self, jobs=None):
        self.jobs = DENSE_JOBS if jobs is None else tuple(j for j in DENSE_JOBS if j[0] in jobs)

    def setup(self, lib, seed, outdir):
        hostdir = os.path.join(outdir, "hosts")
        os.makedirs(hostdir, exist_ok=True)
        self.graphs = _hosts(lib.hg)
        self.paths = {}
        for name, g in self.graphs.items():
            path = os.path.join(hostdir, f"{name}.hg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lib.hg.to_text(g))
            self.paths[name] = path
        # a CLI process starts with every memo table empty
        self.clear_memos = [
            obj.cache_clear
            for mod in (lib.pg, lib.hg, lib.tcn, lib.col, lib.cen, lib.ext, lib.cli)
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear")
        ]

    def before_pass(self, lib):
        for clear in self.clear_memos:
            clear()

    def ops(self, lib, pass_index):
        out = []
        for key, (verb, host, *rest) in self.jobs:
            argv = [verb] + (["--input", self.paths[host]] if host else []) + rest
            check = functools.partial(self._check, lib, key, host, pass_index == 0)
            out.append(Op(key, "job", functools.partial(_cli, lib, argv), check))
        return out

    def _check(self, lib, key, host, deep, result):
        """Checks of the printed answer; ``deep`` also re-verifies colorings.

        Later passes must print the same bytes as the first (golden digest),
        so the costly coloring verification runs on the first pass only.
        """
        code, text = result
        if code != 0:
            return text, [f"exit code {code}"]
        records = [json.loads(line) for line in text.splitlines()]
        verb = key.split(":")[0]
        problems = []
        g = self.graphs.get(host)
        if verb == "check" and host.startswith("godd"):
            if [(rec["k"], rec["hom_free"]) for rec in records] != [(1, True), (2, True), (3, True)]:
                problems.append("an oddly bipartite host is not hom-free for k=1..3")
        elif verb == "check":
            blocked = g.n % g.r
            edge_set = set(g.edges)
            for rec in records:
                if rec["k"] == blocked:
                    w = rec["witness"]
                    if rec["hom_free"] or w is None:
                        problems.append(f"tight cycle not blocked at k={blocked}")
                    elif not (
                        w["stretch"] == len(w["vertices"]) - g.r
                        and checks.closed_walk_ok(edge_set, g.r, w["vertices"], blocked)
                    ):
                        problems.append(f"invalid witness at k={blocked}")
        elif verb == "tc":
            if sum(rec["size"] for rec in records) != math.factorial(g.r) * len(g.edges):
                problems.append("components do not partition the oriented edges")
        elif verb == "color":
            problems.extend(self._check_coloring(lib, g, records, key, deep))
        elif verb == "groups":
            if not records or len(lib.pg.enumerate_subgroup_classes(6)) != 56:
                problems.append("S6 does not have 56 subgroup classes")
        return text, problems

    @staticmethod
    def _check_coloring(lib, g, records, key, deep):
        """The printed coloring is one that verify_accordant accepts."""
        head = records[0]
        if not head.get("colorable"):
            return ["no coloring"]
        if key == "color:godd6" and records[-1] != {"roundtrip_ok": True}:
            return ["triple round trip failed"]
        if not deep:
            return []
        chi = lib.col.build_accordant_coloring(g, lib.pg.perm_power(lib.pg.cyc(g.r), int(head["k"])))
        if chi is None or not lib.col.verify_accordant(g, chi):
            return ["coloring does not verify"]
        printed = {tuple(rec["edge"]): (rec["class"], rec["coset"]) for rec in records if "edge" in rec}
        expect = {}
        for e in g.edges:
            idx, rep = chi.color_of(e)
            expect[e] = (chi.colors.classes[idx].name, lib.pg.format_perm(rep))
        return [] if printed == expect else ["printed coloring differs from the verified one"]

    def finish(self, results):
        figures = {
            f"{verb}_s": _seconds_of(results, lambda op, v=verb: op.key.startswith(v + ":"))
            for verb in ("check", "tc", "color", "groups")
        }
        return figures, []


# ---------------------------------------------------------------------------
# extremal-search

SEARCHES = (
    ("plain:6,4,1", (6, 4, (1,), False)),
    ("canonical:6,4,1", (6, 4, (1,), True)),
    ("canonical:6,3,12", (6, 3, (1, 2), True)),
)


def _search(lib, n, r, residues, canonical):
    return lib.ext.brute_force_ex_hom(n, r, set(residues), canonical=canonical)


class ExtremalSearch(Workload):
    """Exhaustive hom-free edge maximization at n=6, plain and canonical."""

    name = "extremal-search"
    stat_kinds = ("search",)

    def __init__(self, searches=None):
        self.searches = SEARCHES if searches is None else tuple(s for s in SEARCHES if s[0] in searches)

    def setup(self, lib, seed, outdir):
        self.lib = lib

    def ops(self, lib, pass_index):
        return [
            Op(key, "search", functools.partial(_search, lib, *spec), functools.partial(self._check, spec))
            for key, spec in self.searches
        ]

    def _check(self, spec, res):
        n, r, residues, canonical = spec
        record = [res.max_edges, res.explored, [[list(e) for e in w.edges] for w in res.witnesses]]
        problems = []
        if not res.complete or not res.witnesses:
            problems.append("search incomplete or without witnesses")
        for w in res.witnesses:
            if len(w.edges) != res.max_edges or not all(self.lib.tcn.is_hom_free(w, k) for k in residues):
                problems.append("a witness is not a hom-free graph of the reported size")
                break
        if r == 4 and res.max_edges != checks.e_opt_value(n):
            problems.append(f"ex_hom({n}) = {res.max_edges}, expected e_opt({n}) = {checks.e_opt_value(n)}")
        return record, problems

    def finish(self, results):
        figures = {
            "search_plain_s": _seconds_of(results, lambda op: op.key.startswith("plain:")),
            "search_canonical_s": _seconds_of(results, lambda op: op.key.startswith("canonical:")),
        }
        maxima = {}
        for op, _, record, _ in results:
            if record is not None:
                maxima.setdefault(op.key.split(":")[1], set()).add(record[0])
        problems = [
            (i, "plain and canonical maxima disagree")
            for i, (op, _, _, _) in enumerate(results)
            if len(maxima.get(op.key.split(":")[1], ())) > 1
        ]
        return figures, problems


# ---------------------------------------------------------------------------
# density-census

TARGET = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(0))

FOPT_JOBS = (
    ("fopt:1/40", Fraction(1, 40), None),
    ("fopt:1/200", Fraction(1, 200), None),
    ("fopt:1/200:gamma+2delta<=1/10", Fraction(1, 200), "low-purple"),
    ("fopt:1/200:delta>=18/100", Fraction(1, 200), "far-purple"),
)

REGIONS = {
    None: None,
    "low-purple": lambda a, b, g, d: g + 2 * d <= Fraction(1, 10),
    "far-purple": lambda a, b, g, d: d >= Fraction(18, 100),
}


def _fopt(lib, step, region):
    return lib.cen.maximize_f_on_R(step, refinements=2, region=REGIONS[region])


def _check_fopt(region, result):
    best, point, cert = result
    record = [repr(best), [str(x) for x in point], {k: str(v) for k, v in sorted(cert.items())}]
    problems = []
    if cert["upper_bound"] < best:
        problems.append("certificate upper bound below the maximum")
    if region is None:
        if abs(best - 0.5) > 1e-6 or max(abs(x - y) for x, y in zip(point, TARGET)) > Fraction(1, 100):
            problems.append(f"maximum {best!r} at {point} is not 1/2 at (1/4,1/4,1/4,0)")
    elif not best < 0.5:
        problems.append(f"side region reaches {best!r} >= 1/2")
    return record, problems


def _census_random(lib, n, seed):
    c = lib.cen.random_edge_coloring(n, seed)
    counts = lib.cen.count_triangle_types(c)
    return c, counts, lib.cen.check_color_inequalities(counts, n), None


def _census_tournament(lib, n):
    c = lib.cen.purple_tournament_coloring(n, lib.hg.rotational_tournament(n))
    counts = lib.cen.count_triangle_types(c)
    return c, counts, lib.cen.check_color_inequalities(counts, n), lib.cen.goodman_check(c)


def _check_census(tournament, result):
    c, counts, report, goodman = result
    found = (counts.t_green, counts.t_purple, counts.t_cherry)
    problems = []
    if not report.all_ok:
        problems.append("a triangle bound fails")
    if checks.triangle_counts(c.n, c.colors) != found:
        problems.append(f"census {found} differs from the recount")
    if 2 * counts.alpha + counts.beta + counts.gamma + 2 * counts.delta != 1:
        problems.append("densities do not sum to 1")
    if not tournament:
        return None, problems
    lhs, rhs, ok = goodman
    if not ok or counts.t_purple != checks.cyclic_triangles_regular(c.n):
        problems.append("Goodman identity or cyclic triangle count fails")
    return [c.n, *found, lhs, rhs], problems


class DensityCensus(Workload):
    """Triangle censuses of pair colorings, and the certified density maximum."""

    name = "density-census"
    stat_kinds = ("census",)
    min_ops = 1000

    def __init__(self, sizes=range(5, 121), repeats: int = 4, tournaments=range(5, 122, 2), fopt=None):
        self.sizes = tuple(sizes)
        self.repeats = repeats
        self.tournaments = tuple(tournaments)
        self.fopt_jobs = FOPT_JOBS if fopt is None else tuple(j for j in FOPT_JOBS if j[0] in fopt)

    def setup(self, lib, seed, outdir):
        self.seed = seed

    def ops(self, lib, pass_index):
        rng = random.Random(f"{self.name}/{self.seed}/{pass_index}")
        census = [
            Op("random", "census", functools.partial(_census_random, lib, n, rng.randrange(2**32)),
               functools.partial(_check_census, False))
            for _ in range(self.repeats)
            for n in self.sizes
        ]
        census += [
            Op(f"tournament:{n}", "census", functools.partial(_census_tournament, lib, n),
               functools.partial(_check_census, True))
            for n in self.tournaments
        ]
        rng.shuffle(census)
        fopt = [
            Op(key, "fopt", functools.partial(_fopt, lib, step, region), functools.partial(_check_fopt, region))
            for key, step, region in self.fopt_jobs
        ]
        return fopt + census

    def finish(self, results):
        figures = {"fopt_s": _seconds_of(results, lambda op: op.kind == "fopt")}
        for op, _, record, _ in results:
            if op.key == "fopt:1/40" and record is not None:
                figures["fopt_gap"] = float(record[2]["gap"])
        return figures, []


WORKLOADS = {w.name: w for w in (CertifyStream, DenseHosts, ExtremalSearch, DensityCensus)}
