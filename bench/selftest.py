"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs small versions of the four workloads twice each, traced, and requires
that no op fails and that every work count repeats exactly. Then corrupts one
expected answer and requires the run to count a failed op. Exits 0 when all
of this holds; takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import CertifyStream, DenseHosts, DensityCensus, ExtremalSearch

COUNTS = (
    "tightconn.oriented_states",
    "tightconn.witness_stretch_sum",
    "tightconn.tight_components.calls",
    "hypergraph.has_edge.calls",
    "coloring.edges_colored",
    "extremal.explored",
    "extremal.witnesses",
    "census.fopt_evaluations",
)

# counts each small workload must make nonzero, so a dead counter shows
MUST_COUNT = {
    "certify-stream": ("tightconn.oriented_states", "tightconn.witness_stretch_sum", "coloring.edges_colored"),
    "dense-hosts": ("tightconn.oriented_states", "coloring.edges_colored", "hypergraph.has_edge.calls"),
    "extremal-search": ("extremal.explored", "extremal.witnesses", "tightconn.oriented_states"),
    "density-census": ("census.fopt_evaluations",),
}


def small_workloads():
    return (
        CertifyStream(pool_size=80),
        DenseHosts(jobs=("tc:godd5", "check:c4_9", "color:godd6")),
        ExtremalSearch(searches=("canonical:6,4,1",)),
        DensityCensus(sizes=range(5, 41, 5), repeats=2, tournaments=(5, 7, 9), fopt=("fopt:1/40",)),
    )


def main() -> int:
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    errors = []
    for first, second in zip(small_workloads(), small_workloads()):
        results = [run.run_workload(w, run.DEFAULT_SEED, 0, True, golden)[0] for w in (first, second)]
        counts = [{k: r["metrics"][k]["value"] for k in COUNTS} for r in results]
        print(f"{first.name}: failed {[r['failed'] for r in results]} counts {counts[0]}")
        if any(r["failed"] for r in results):
            errors.append(f"{first.name}: ops failed on correct code")
        if counts[0] != counts[1]:
            errors.append(f"{first.name}: work counts differ between runs: {counts}")
        dead = [k for k in MUST_COUNT[first.name] if not counts[0][k]]
        if dead:
            errors.append(f"{first.name}: counters stayed at zero: {dead}")

    corrupted = json.loads(json.dumps(golden))
    corrupted["certify-stream"]["0"] = "0" * 16
    small = CertifyStream(pool_size=80)
    small.min_ops = 0
    result = run.run_workload(small, run.DEFAULT_SEED, 0, False, corrupted)[0]
    print(f"corrupted golden: failed {result['failed']} of {result['attempted']}")
    if not (result["failed"] >= 1 and not result["correct"]):
        errors.append("a corrupted expected answer did not raise failed_frac")

    for message in errors:
        print(f"SELFTEST FAIL: {message}")
    print("SELFTEST PASS" if not errors else f"SELFTEST FAIL ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
