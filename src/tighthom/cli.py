"""The ``tighthom`` command line.

Every verb wraps one library operation family and prints either human-readable
lines (``--format text``, the default) or line-delimited JSON records
(``--format records``) with sorted keys, so scripted runs parse losslessly.

Exit codes: 0 on success, 1 when ``--assert`` is set and the mathematical
answer is negative (not hom-free, no coloring, inequality failure, not close,
no walk), 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import census as cen
from . import coloring as col
from . import extremal as ext
from . import hypergraph as hg
from . import permgroup as pg
from . import tightconn as tcn


def _parse_vertices(text: str) -> tuple[int, ...]:
    """Comma list with inclusive ranges: '0-5,8' -> (0, 1, 2, 3, 4, 5, 8)."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if "-" in token[1:]:
            lo, hi = token.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif token:
            out.append(int(token))
    return tuple(out)


def _parse_residues(text: str, r: int) -> tuple[int, ...]:
    if text == "all":
        return tuple(range(1, r))
    return tuple(int(tok) for tok in text.split(","))


def _parse_pattern(text: str) -> tuple:
    out = []
    for token in text.split(","):
        token = token.strip()
        out.append(token if token in ("A", "B") else int(token))
    return tuple(out)


def _load_graph(path: str) -> hg.Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return hg.from_text(fh.read())


def _load_triples(source: str, n: int) -> hg.Hypergraph:
    return hg.all_triples(n) if source == "all" else _load_graph(source)


def _fmt_value(value) -> str:
    return ":".join(str(part) for part in value)


# ---------------------------------------------------------------------------
# verb handlers; each returns (text lines, records, negative answer)


def _cmd_groups(args):
    lines: list[str] = []
    records: list[dict] = []
    r = args.r
    if args.avoid is None:
        rot = pg.cyc(r)
        square = pg.perm_power(rot, 2)
        for cls in pg.enumerate_subgroup_classes(r):
            flags = (pg.avoids(cls.elements, rot), pg.avoids(cls.elements, square))
            lines.append(
                f"{cls.name:<16} order={cls.order:<3} class_size={cls.class_size:<3} "
                f"avoids_cyc={str(flags[0]).lower()} avoids_cyc2={str(flags[1]).lower()}"
            )
            records.append({"name": cls.name, "order": cls.order, "class_size": cls.class_size,
                            "avoids_cyc": flags[0], "avoids_cyc2": flags[1]})
        return lines, records, False
    pi = pg.parse_perm(args.avoid, r)
    classes = pg.maximal_avoiding_classes(r, pi)
    for cls in classes:
        lines.append(f"{cls.name:<16} order={cls.order:<3} class_size={cls.class_size}")
        records.append({"name": cls.name, "order": cls.order, "class_size": cls.class_size})
    if args.colors:
        cs = pg.color_set(r, pi)
        lines.append(f"colors: {len(cs.colors)}")
        for idx, rep in cs.colors:
            lines.append(f"color {cs.classes[idx].name} {pg.format_perm(rep)}")
            records.append({"class_index": idx, "class_name": cs.classes[idx].name,
                            "coset_rep": pg.format_perm(rep)})
    return lines, records, False


def _require(args, kind, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"gen {kind} needs --{name}")


def _tournament_arcs(n: int, seed):
    """Arcs of the rotational tournament, or of a seeded random one; lazy, so
    ``tournament_3graph`` refuses an oversized ``n`` before any is made."""
    if seed is None:
        yield from hg.rotational_tournament(n)
        return
    rng = random.Random(seed)
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v) if rng.random() < 0.5 else (v, u)


def _cmd_gen(args):
    kind = args.kind
    if kind == "tight-cycle":
        _require(args, kind, "ell")
        g = hg.tight_cycle(args.r, args.ell)
    elif kind == "twisted":
        _require(args, kind, "ell", "pi")
        g = hg.twisted_tight_cycle(args.r, args.ell, pg.parse_perm(args.pi, args.r))
    elif kind == "godd":
        _require(args, kind, "a", "b")
        g = hg.complete_oddly_bipartite(args.a, args.b, args.r)
    elif kind == "blowup":
        _require(args, kind, "input", "t")
        g = hg.blowup(_load_graph(args.input), args.t)
    else:
        _require(args, kind, "n")
        g = hg.tournament_3graph(args.n, _tournament_arcs(args.n, args.seed))
    text = hg.to_text(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return [f"wrote {g.r}-graph on {g.n} vertices with {len(g.edges)} edges to {args.output}"], [
            {"r": g.r, "n": g.n, "edges": len(g.edges), "path": args.output}
        ], False
    lines = text.rstrip("\n").split("\n")
    records = [{"r": g.r, "n": g.n, "edges": [list(e) for e in g.edges]}]
    return lines, records, False


def _cmd_check(args):
    g = _load_graph(args.input)
    lines = []
    records = []
    negative = False
    for k in _parse_residues(args.k, g.r):
        free = tcn.is_hom_free(g, k)
        lines.append(f"k={k} hom-free: {str(free).lower()}")
        rec = {"k": k, "hom_free": free, "witness": None}
        if not free:
            negative = True
            w = tcn.find_hom_cycle_witness(g, k)
            lines.append(f"k={k} witness stretch={w.stretch}: " + " ".join(map(str, w.vertices)))
            rec["witness"] = {"stretch": w.stretch, "vertices": list(w.vertices)}
        records.append(rec)
    return lines, records, negative


def _cmd_tc(args):
    g = _load_graph(args.input)
    lines = []
    records = []
    for comp in tcn.tight_components(g):
        gens = [pg.format_perm(p) for p in sorted(pg.minimal_generators(comp.tc))]
        lines.append(
            f"component rep={' '.join(map(str, comp.representative))} "
            f"size={comp.size} group_order={len(comp.tc)} generators=[{', '.join(gens)}]"
        )
        records.append(
            {
                "representative": list(comp.representative),
                "size": comp.size,
                "group_order": len(comp.tc),
                "generators": gens,
            }
        )
    return lines, records, False


def _cmd_color(args):
    if args.roundtrip:
        args.triple = True
    g = _load_graph(args.input)
    pi = pg.perm_power(pg.cyc(g.r), args.k)
    chi = col.build_accordant_coloring(g, pi)
    if chi is None:
        return [f"no accordant coloring for k={args.k}"], [
            {"k": args.k, "colorable": False}
        ], True
    lines = [f"accordant coloring for k={args.k} with {len(chi.colors.colors)} colors"]
    records = [{"k": args.k, "colorable": True, "colors": len(chi.colors.colors)}]
    for e in g.edges:
        idx, rep = chi.color_of(e)
        lines.append(
            f"edge {' '.join(map(str, e))} class={chi.colors.classes[idx].name} "
            f"coset={pg.format_perm(rep)}"
        )
        records.append(
            {
                "edge": list(e),
                "class": chi.colors.classes[idx].name,
                "coset": pg.format_perm(rep),
            }
        )
    if args.triple:
        tc4 = col.triple_coloring_from_accordant(chi)
        for tri in sorted(tc4.assignment):
            lines.append(f"triple {' '.join(map(str, tri))} value={_fmt_value(tc4.value(tri))}")
            records.append({"triple": list(tri), "value": list(tc4.value(tri))})
        if args.roundtrip:
            back = col.accordant_from_triple_coloring(g, tc4, args.k)
            ok = back is not None and back.assignment == chi.assignment
            lines.append(f"round-trip: {'ok' if ok else 'failed'}")
            records.append({"roundtrip_ok": ok})
            if not ok:
                return lines, records, True
    return lines, records, False


def _cmd_census(args):
    if bool(args.input) == (args.random_n is not None):
        raise ValueError("census needs exactly one of --input or --random-n")
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            coloring = cen.edge_coloring_from_text(fh.read())
    else:
        coloring = cen.random_edge_coloring(args.random_n, args.seed)
    counts = cen.count_triangle_types(coloring)
    report = cen.check_color_inequalities(counts, coloring.n)
    lines = [
        f"n={coloring.n} green={counts.t_green} purple={counts.t_purple} cherry={counts.t_cherry}",
        f"alpha={counts.alpha} beta={counts.beta} gamma={counts.gamma} delta={counts.delta}",
    ]
    for item in report.items:
        lines.append(f"{item.name}: {'ok' if item.ok else 'FAIL'} slack={item.slack:.6g}")
    lines.append(f"f_bound={report.f_bound:.6g} all_ok={str(report.all_ok).lower()}")
    if 2 * counts.delta == 1:  # every pair is purple
        lhs, rhs, ok = cen.goodman_check(coloring)
        lines.append(f"goodman: lhs={lhs} rhs={rhs} {'ok' if ok else 'FAIL'}")
    return lines, [report.to_record(counts)], not report.all_ok


def _region_predicate(args):
    g2d_max = cen.as_fraction(args.gamma2delta_max) if args.gamma2delta_max else None
    d_min = cen.as_fraction(args.delta_min) if args.delta_min else None
    if g2d_max is None and d_min is None:
        return None

    def region(alpha, beta, gamma, delta):
        if g2d_max is not None and gamma + 2 * delta > g2d_max:
            return False
        return d_min is None or delta >= d_min

    return region


def _cmd_fopt(args):
    best, point, certificate = cen.maximize_f_on_R(
        cen.as_fraction(args.step), refinements=args.refinements, region=_region_predicate(args)
    )
    names = ("alpha", "beta", "gamma", "delta")
    lines = [
        f"max={best!r} at " + " ".join(f"{k}={v}" for k, v in zip(names, point)),
        f"step={certificate['step']} final_step={certificate['final_step']} "
        f"evaluations={certificate['evaluations']}",
        f"upper_bound={certificate['upper_bound']!r} gap={certificate['gap']!r}",
    ]
    records = [
        {
            "max": best,
            "argmax": {k: str(v) for k, v in zip(names, point)},
            "certificate": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in certificate.items()},
        }
    ]
    return lines, records, False


def _cmd_eopt(args):
    lines = []
    records = []
    start = 4 if args.upto else args.n
    for m in range(start, args.n + 1):
        top, splits = cen.e_opt(m)
        lines.append(f"e_opt({m}) = {top} splits: " + " ".join(f"({a},{b})" for a, b in splits))
        records.append({"n": m, "e_opt": top, "splits": [list(s) for s in splits]})
    return lines, records, False


def _cmd_search(args):
    residues = set(_parse_residues(args.k, args.r))
    result = ext.brute_force_ex_hom(args.n, args.r, residues, canonical=args.canonical)
    lines = [
        f"max_edges={result.max_edges} witnesses={len(result.witnesses)} "
        f"explored={result.explored} canonical={str(result.canonical).lower()}"
    ]
    records = [
        {
            "n": result.n,
            "r": result.r,
            "residues": sorted(result.residues),
            "max_edges": result.max_edges,
            "witnesses": len(result.witnesses),
            "explored": result.explored,
            "canonical": result.canonical,
            "complete": result.complete,
        }
    ]
    for w in result.witnesses:
        lines.append("witness: " + "; ".join(" ".join(map(str, e)) for e in w.edges))
        records.append({"witness": [list(e) for e in w.edges]})
    return lines, records, False


def _cmd_prune(args):
    g = _load_graph(args.input)
    pruned, deleted = ext.prune_low_codegree(g, cen.as_fraction(args.eps))
    lines = [f"deleted {deleted} of {len(g.edges)} edges; fixpoint has {len(pruned.edges)} edges"]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(hg.to_text(pruned))
        lines.append(f"wrote fixpoint to {args.output}")
    else:
        lines.extend(hg.to_text(pruned).rstrip("\n").split("\n"))
    records = [
        {
            "deleted": deleted,
            "remaining": len(pruned.edges),
            "edges": [list(e) for e in pruned.edges],
        }
    ]
    return lines, records, False


def _cmd_epsclose(args):
    g = _load_graph(args.input)
    t = _load_triples(args.triples, g.n)
    eps = cen.as_fraction(args.eps)
    report = ext.check_eps_close(g, _parse_vertices(args.a), _parse_vertices(args.b), t, eps)
    lines = [f"eps-close: {str(report.is_close).lower()} (eps={report.epsilon})"]
    for tri in report.violations_1:
        lines.append("violation extension " + " ".join(map(str, tri)))
    for pair, tag in report.violations_2:
        lines.append(f"violation pair {pair[0]} {pair[1]} side={tag}")
    for v, tag in report.violations_3:
        lines.append(f"violation vertex {v} side={tag}")
    if report.remark_applies:
        lines.append(
            f"remark: pairs={len(report.remark_violations_2)} vertices={len(report.remark_violations_3)}"
        )
    records = [
        {
            "eps": str(report.epsilon),
            "is_close": report.is_close,
            "violations_1": [list(t_) for t_ in report.violations_1],
            "violations_2": [[list(p), tag] for p, tag in report.violations_2],
            "violations_3": [[v, tag] for v, tag in report.violations_3],
            "remark_applies": report.remark_applies,
            "remark_violations_2": [list(p) for p in report.remark_violations_2],
            "remark_violations_3": list(report.remark_violations_3),
        }
    ]
    return lines, records, not report.is_close


def _cmd_walk(args):
    g = _load_graph(args.input)
    t = _load_triples(args.triples, g.n)
    witness = ext.build_walk_through_T(
        g,
        _parse_vertices(args.a),
        _parse_vertices(args.b),
        t,
        cen.as_fraction(args.eps),
        (_parse_vertices(args.start), _parse_vertices(args.end)),
        _parse_pattern(args.pattern),
    )
    if witness is None:
        return ["no walk found"], [{"found": False}], True
    lines = [f"walk stretch={witness.stretch}: " + " ".join(map(str, witness.vertices))]
    records = [{"found": True, "stretch": witness.stretch, "vertices": list(witness.vertices)}]
    return lines, records, False


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tighthom",
        description="Tight-cycle homomorphism avoidance: groups, colorings, censuses, search.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--input", required=True)
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--assert", dest="strict", action="store_true")
    parts = argparse.ArgumentParser(add_help=False)
    parts.add_argument("--a", required=True, help="part A, e.g. 0-5")
    parts.add_argument("--b", required=True, help="part B, e.g. 6-11")
    parts.add_argument("--triples", default="all", help="'all' or a triple file")
    parts.add_argument("--eps", required=True)

    def add(name, handler, *parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "records"), default="text")
        return p

    p = add("groups", _cmd_groups, help="subgroup classes and maximal avoiding families")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--avoid", help="permutation to avoid: id, cyc, cyc^k, or (1 2 3 4)")
    p.add_argument("--colors", action="store_true", help="also list the coset color set")

    p = add("gen", _cmd_gen, help="write a generated hypergraph")
    p.add_argument("kind", choices=("tight-cycle", "twisted", "godd", "blowup", "tournament3"))
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--ell", type=int)
    p.add_argument("--pi")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, help="random tournament; omit for the rotational one")
    p.add_argument("--input")
    p.add_argument("--output")

    p = add("check", _cmd_check, graph_in, strict, help="hom-freeness per residue, with witnesses")
    p.add_argument("--k", default="all", help="residue list or 'all'")

    add("tc", _cmd_tc, graph_in, help="tight components and their connection groups")

    p = add("color", _cmd_color, graph_in, strict, help="build an accordant coloring for cyc^k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--triple", action="store_true", help="derive the triple coloring (arity 4)")
    p.add_argument("--roundtrip", action="store_true", help="verify the triple round-trip")

    p = add("census", _cmd_census, strict, help="triangle census and inequality report")
    p.add_argument("--input", help="edge-coloring file")
    p.add_argument("--random-n", type=int, help="random coloring size")
    p.add_argument("--seed", type=int, default=0)

    p = add("fopt", _cmd_fopt, help="float grid scan of the density bound, with a Lipschitz bound")
    p.add_argument("--step", default="1/40", help="grid step as a fraction")
    p.add_argument("--refinements", type=int, default=2)
    p.add_argument("--gamma2delta-max", help="restrict to gamma + 2 delta <= X")
    p.add_argument("--delta-min", help="restrict to delta >= X")

    p = add("eopt", _cmd_eopt, help="largest oddly bipartite edge count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--upto", action="store_true", help="print all values from 4 to n")

    p = add("search", _cmd_search, help="exhaustive hom-free edge maximization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", default="all")
    p.add_argument("--canonical", action="store_true")

    p = add("prune", _cmd_prune, graph_in, help="codegree pruning to a fixpoint")
    p.add_argument("--eps", required=True)
    p.add_argument("--output")

    add("epsclose", _cmd_epsclose, graph_in, parts, strict,
        help="closeness audit against odd bipartite")

    p = add("walk", _cmd_walk, graph_in, parts, strict, help="tight walk through a triple family")
    p.add_argument("--start", required=True, help="ordered start triple, e.g. 1,0,3")
    p.add_argument("--end", required=True, help="ordered end triple")
    p.add_argument("--pattern", required=True, help="comma tokens: vertex, A, or B")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lines, records, negative = args.handler(args)
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "records":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 1 if negative and getattr(args, "strict", False) else 0


if __name__ == "__main__":
    sys.exit(main())
