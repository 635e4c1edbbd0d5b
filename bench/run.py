"""Benchmark runner for tighthom: one workload, one process, one thread.

Run from the repository root:

    python3 bench/run.py --workload certify-stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass over the same inputs
and reports the per-layer metrics. The last line of output is one JSON
object: correct, attempted, failed and metrics. The exit code is 1 when any
op raised or failed a check, 2 when the library cannot be found.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 11
MODULES = {
    "pg": "permgroup",
    "hg": "hypergraph",
    "tcn": "tightconn",
    "col": "coloring",
    "cen": "census",
    "ext": "extremal",
    "cli": "cli",
}

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class LibraryMissing(Exception):
    pass


def import_fresh() -> types.SimpleNamespace:
    """Import tighthom from this checkout's src/, dropping any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "tighthom", "__init__.py")):
        raise LibraryMissing(f"no tighthom package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "tighthom" or m.startswith("tighthom.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(
        **{short: importlib.import_module(f"tighthom.{mod}") for short, mod in MODULES.items()}
    )
    if not os.path.abspath(lib.pg.__file__).startswith(SRC + os.sep):
        raise LibraryMissing(f"tighthom was imported from {lib.pg.__file__}, not {SRC}")
    return lib


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(workload, lib, pass_index: int, golden: dict | None, tracer=None, probe=None):
    """Run and check one pass; returns (wall, raw wall, results, failed ops, figures, records).

    Each op is timed alone and checked right after, outside its timed region
    and with the tracer paused; the pass's wall time is the sum of its op
    times. With a speed probe, op times are scaled to the reference speed.
    ``results`` holds (op, seconds, record, error) tuples. With ``golden``
    None the answers are checked but not compared with golden.json.
    """
    workload.before_pass(lib)
    ops = workload.ops(lib, pass_index)
    expected = None if golden is None else golden.get(workload.name, {})
    results = []
    raw_wall = 0.0
    failed: dict[int, str] = {}
    records: dict[str, str] = {}
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
                tracer.enabled = True
            mark = probe.mark() if probe is not None else 0
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            raw_wall += t1 - t0
            dt = probe.scaled(mark, t0, t1) if probe is not None else t1 - t0
            if tracer is not None:
                tracer.enabled = False
            record, problems = None, [err] if err else []
            if err is None:
                try:
                    record, problems = op.check(out)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            del out
            if record is not None:
                records[op.key] = checks.digest(record)
                if expected is not None and expected.get(op.key) != records[op.key]:
                    problems.append("answer differs from the golden record")
            if problems:
                failed[i] = "; ".join(problems)
            results.append((op, dt, record, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    figures, cross = workload.finish(results)
    for i, message in cross:
        failed.setdefault(i, message)
    for i, message in sorted(failed.items()):
        print(f"FAILED {workload.name} pass {pass_index} op {i} [{results[i][0].key}]: {message}", file=sys.stderr)
    wall = sum(dt for _, dt, _, _ in results)
    return wall, raw_wall, results, failed, figures, records


def run_workload(workload, seed: int, seconds: float, trace: bool, golden: dict):
    """Set up, run passes, and return (result object, summary lines, golden records)."""
    os.makedirs(OUTDIR, exist_ok=True)
    probe = None if trace else SpeedProbe()
    if probe is not None:
        probe.start()
    try:
        return _measure(workload, seed, seconds, trace, golden, probe)
    finally:
        if probe is not None:
            probe.stop()


def _measure(workload, seed, seconds, trace, golden, probe):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark() if probe is not None else 0
        t0 = time.perf_counter()
        lib = import_fresh()
        workload.setup(lib, seed, OUTDIR)
        t1 = time.perf_counter()
        setup_times.append(probe.scaled(mark, t0, t1) if probe is not None else t1 - t0)

    walls, raw_walls, latencies, figures_per_pass = [], [], [], []
    attempted = failed = 0
    records: dict[str, str] = {}
    tracer = Tracer() if trace else None
    begun = time.perf_counter()
    longest = 0.0
    pass_index = 0
    while True:
        # a traced run repeats the untraced pass's inputs with the wrappers on
        traced = trace and pass_index == 1
        p0 = time.perf_counter()
        wall, raw_wall, results, bad, figures, recs = run_pass(
            workload, lib, 0 if trace else pass_index, golden, tracer if traced else None, probe
        )
        longest = max(longest, time.perf_counter() - p0)
        walls.append(wall)
        raw_walls.append(raw_wall)
        figures_per_pass.append(figures)
        records.update(recs)
        attempted += len(results)
        failed += len(bad)
        latencies += [dt for op, dt, _, _ in results if op.kind in workload.stat_kinds]
        pass_index += 1
        if trace:
            if pass_index == 2:
                break
        elif len(latencies) >= workload.min_ops and time.perf_counter() - begun + longest > seconds:
            break

    stat_ops = len(latencies)
    lines = [f"workload {workload.name} seed {seed} passes {len(walls)} ops {attempted} failed {failed}"]
    if trace:
        metrics = tracer.metrics()
        metrics["census.fopt_gap"] = figures_per_pass[1].get("fopt_gap", 0.0)
        metrics["trace.overhead_frac"] = walls[1] / walls[0] - 1
        tracer.write(os.path.join(OUTDIR, f"spans-{workload.name}-seed{seed}.jsonl"))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "ops_per_s": stat_ops / sum(latencies),
            "op_p50_ms": percentile(latencies, 0.50) * 1e3,
            "op_p99_ms": percentile(latencies, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        for name in sorted(figures_per_pass[0]):
            value = statistics.median(f[name] for f in figures_per_pass)
            lines.append(f"  {name:<36} {value!r} {'1' if name == 'fopt_gap' else 's'}")
        lines.append(f"  {'stat_ops':<36} {stat_ops} count")
        lines.append(f"  {'wall_s_raw':<36} {statistics.median(raw_walls)!r} s")
        lines.append(f"  {'machine_slowdown':<36} {probe.slowdown()!r} 1")
    lines.append(f"  {'failed_frac':<36} {failed / attempted!r} 1")
    for name, value in metrics.items():
        lines.append(f"  {name:<36} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines, records


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    return "1" if name in ("census.fopt_gap", "trace.overhead_frac") else "count"


PER_LAYER_UNITS = {
    name: _per_layer_unit(name) for name in [*Tracer().metrics(), "census.fopt_gap", "trace.overhead_frac"]
}



def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines:
            print(f"{name}: no output, exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; passes run while the next one fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's answer digests in bench/golden.json (refused if any op fails)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    workload = WORKLOADS[args.workload]()
    try:
        result, lines, records = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), None if args.write_golden else golden
        )
    except LibraryMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.write_golden:
        if result["failed"]:
            print("error: not writing golden records from a run with failed ops", file=sys.stderr)
            return 1
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
        golden[workload.name] = records
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        lines.append(f"  wrote {len(records)} golden records for {workload.name}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
