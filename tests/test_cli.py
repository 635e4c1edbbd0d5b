"""Golden-file tests for the command line, one block per verb."""

import itertools
import json
import subprocess
import sys

import pytest

from tighthom.census import edge_coloring_to_text, purple_tournament_coloring
from tighthom.hypergraph import (
    Hypergraph,
    blowup,
    rotational_tournament,
    tight_cycle,
    to_text,
    tournament_3graph,
    twisted_tight_cycle,
)


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == expect, f"argv={argv}\nstdout={proc.stdout}\nstderr={proc.stderr}"
    return proc.stdout


GROUPS_TABLE = """\
trivial          order=1   class_size=1   avoids_cyc=true avoids_cyc2=true
S2               order=2   class_size=6   avoids_cyc=true avoids_cyc2=true
order-2-#2       order=2   class_size=3   avoids_cyc=true avoids_cyc2=false
A3               order=3   class_size=4   avoids_cyc=true avoids_cyc2=true
Klein-nonnormal  order=4   class_size=3   avoids_cyc=true avoids_cyc2=false
Klein-normal     order=4   class_size=1   avoids_cyc=true avoids_cyc2=false
order-4-#3       order=4   class_size=3   avoids_cyc=false avoids_cyc2=false
S3               order=6   class_size=4   avoids_cyc=true avoids_cyc2=true
D4               order=8   class_size=3   avoids_cyc=false avoids_cyc2=false
A4               order=12  class_size=1   avoids_cyc=true avoids_cyc2=false
S4               order=24  class_size=1   avoids_cyc=false avoids_cyc2=false
"""


def test_groups_table_golden():
    assert run_cli("groups", "--r", "4") == GROUPS_TABLE


def test_groups_maximal_avoiding():
    out = run_cli("groups", "--r", "4", "--avoid", "cyc")
    assert out == (
        "Klein-nonnormal  order=4   class_size=3\n"
        "S3               order=6   class_size=4\n"
        "A4               order=12  class_size=1\n"
    )
    out = run_cli("groups", "--r", "4", "--avoid", "cyc^2")
    assert out == "S3               order=6   class_size=4\n"


def test_groups_color_count():
    out = run_cli("groups", "--r", "4", "--avoid", "cyc", "--colors")
    assert "colors: 12" in out
    out = run_cli("groups", "--r", "4", "--avoid", "cyc^2", "--colors")
    assert "colors: 4" in out


def test_gen_matches_library(tmp_path):
    path = tmp_path / "c6.hg"
    run_cli("gen", "tight-cycle", "--r", "4", "--ell", "6", "--output", str(path))
    assert path.read_text() == to_text(tight_cycle(4, 6))

    out = run_cli("gen", "twisted", "--r", "4", "--ell", "8", "--pi", "(1 2)(3 4)")
    assert out == to_text(twisted_tight_cycle(4, 8, (1, 0, 3, 2)))

    out = run_cli("gen", "tournament3", "--n", "5")
    assert out == to_text(tournament_3graph(5, rotational_tournament(5)))
    seeded = run_cli("gen", "tournament3", "--n", "6", "--seed", "3")
    assert seeded == run_cli("gen", "tournament3", "--n", "6", "--seed", "3")

    base = tmp_path / "c3.hg"
    run_cli("gen", "tight-cycle", "--r", "2", "--ell", "3", "--output", str(base))
    out = run_cli("gen", "blowup", "--input", str(base), "--t", "2")
    assert out == to_text(blowup(tight_cycle(2, 3), 2))


def test_gen_missing_flag_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", "gen", "tight-cycle", "--r", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "needs --ell" in proc.stderr


def test_check_residues_and_witness(tmp_path):
    path = tmp_path / "c6.hg"
    run_cli("gen", "tight-cycle", "--r", "4", "--ell", "6", "--output", str(path))
    out = run_cli("check", "--input", str(path), "--k", "all")
    assert out == (
        "k=1 hom-free: true\n"
        "k=2 hom-free: false\n"
        "k=2 witness stretch=6: 0 1 2 3 4 5 0 1 2 3\n"
        "k=3 hom-free: true\n"
    )
    run_cli("check", "--input", str(path), "--k", "1", "--assert", expect=0)
    run_cli("check", "--input", str(path), "--k", "2", "--assert", expect=1)

    records = run_cli("check", "--input", str(path), "--k", "2", "--format", "records")
    rec = json.loads(records)
    assert rec == {
        "k": 2,
        "hom_free": False,
        "witness": {"stretch": 6, "vertices": [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]},
    }


def test_tc_components(tmp_path):
    path = tmp_path / "c6.hg"
    run_cli("gen", "tight-cycle", "--r", "4", "--ell", "6", "--output", str(path))
    out = run_cli("tc", "--input", str(path))
    assert out == "component rep=0 1 2 3 size=144 group_order=2 generators=[(1 3)(2 4)]\n"

    godd = tmp_path / "g44.hg"
    run_cli("gen", "godd", "--a", "4", "--b", "4", "--output", str(godd))
    lines = run_cli("tc", "--input", str(godd)).splitlines()
    assert len(lines) == 2
    assert all("group_order=6" in line for line in lines)


def test_color_roundtrip_and_failure(tmp_path):
    godd = tmp_path / "g44.hg"
    run_cli("gen", "godd", "--a", "4", "--b", "4", "--output", str(godd))
    out = run_cli("color", "--input", str(godd), "--k", "1", "--roundtrip").splitlines()
    assert out[0] == "accordant coloring for k=1 with 12 colors"
    assert out[-1] == "round-trip: ok"
    assert sum(1 for line in out if line.startswith("edge ")) == 32
    assert sum(1 for line in out if line.startswith("triple ")) == 56

    k5 = tmp_path / "k5.hg"
    k5.write_text(to_text(Hypergraph(4, 5, itertools.combinations(range(5), 4))))
    out = run_cli("color", "--input", str(k5), "--k", "1", "--assert", expect=1)
    assert out == "no accordant coloring for k=1\n"


CENSUS_SEED11 = """\
n=8 green=0 purple=2 cherry=0
alpha=1/7 beta=3/28 gamma=1/7 delta=13/56
green_tri: ok slack=4.60757
purple_tri: ok slack=17.0889
cherry_sqrt: ok slack=11.9708
cherry_const: ok slack=39.68
combined: ok slack=19.3333
cherry_harmonic: ok slack=15.6735
f_bound=33.7671 all_ok=true
"""


def test_census_random_golden():
    assert run_cli("census", "--random-n", "8", "--seed", "11") == CENSUS_SEED11
    rec = json.loads(run_cli("census", "--random-n", "8", "--seed", "11", "--format", "records"))
    assert rec["all_ok"] is True
    assert rec["densities"] == {"alpha": "1/7", "beta": "3/28", "gamma": "1/7", "delta": "13/56"}


def test_census_goodman_on_purple_tournament(tmp_path):
    path = tmp_path / "t5.ec"
    path.write_text(edge_coloring_to_text(purple_tournament_coloring(5, rotational_tournament(5))))
    out = run_cli("census", "--input", str(path))
    assert "goodman: lhs=20 rhs=20 ok" in out
    run_cli("census", "--input", str(path), "--assert", expect=0)


@pytest.mark.parametrize("text", ["", "4\n0 1 green\n0 2\n"])
def test_census_malformed_input_exits_2(tmp_path, text):
    path = tmp_path / "bad.ec"
    path.write_text(text)
    run_cli("census", "--input", str(path), expect=2)


def test_census_needs_exactly_one_source():
    subprocess_args = [sys.executable, "-m", "tighthom.cli", "census"]
    proc = subprocess.run(subprocess_args, capture_output=True, text=True)
    assert proc.returncode == 2


FOPT_DEFAULT = """\
max=0.5 at alpha=1/4 beta=1/4 gamma=1/4 delta=0
step=1/40 final_step=1/4000 evaluations=6265
upper_bound=1.0625 gap=0.5625
"""


def test_fopt_golden_and_restricted_regimes():
    assert run_cli("fopt", "--step", "1/40") == FOPT_DEFAULT
    low = run_cli("fopt", "--step", "1/40", "--gamma2delta-max", "1/10").splitlines()[0]
    assert low.startswith("max=0.49501332998564")
    far = run_cli("fopt", "--step", "1/40", "--delta-min", "0.18").splitlines()[0]
    assert far.startswith("max=0.44833833492075")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fopt", "--step", "1/0"), "'1/0' has a zero denominator"),
        (("fopt", "--step", "1/40", "--delta-min", "1/0"), "'1/0' has a zero denominator"),
        (("fopt", "--step", "1/40", "--gamma2delta-max", "1/0"), "'1/0' has a zero denominator"),
        (("fopt", "--step", "1/40", "--refinements", "-1"), "refinements must be nonnegative"),
        (("fopt", "--step", "1/100000"), "coarse grid points, over FOPT_MAX_GRID_POINTS=1,000,000"),
        (("fopt", "--step", "1/40", "--refinements", "12"), "final step 1/40 / 10**12 is below FOPT_MIN_STEP="),
        (("fopt", "--step", "1/40", "--refinements", "1000000000"), "is below FOPT_MIN_STEP=1/1000000000000"),
        (("census", "--random-n", "100000000"), "pairs, over CENSUS_MAX_PAIRS=1,000,000"),
        (("gen", "godd", "--a", "40", "--b", "40", "--r", "8"), "over GEN_MAX_SETS=1,000,000"),
        (("gen", "tournament3", "--n", "1000000", "--seed", "1"), "over GEN_MAX_SETS=1,000,000"),
        (("gen", "tournament3", "--n", "1001"), "over GEN_MAX_SETS=1,000,000"),
    ],
)
def test_fopt_bad_arguments_exit_2(argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_eps_zero_denominator_exits_2(tmp_path):
    path = tmp_path / "c9.hg"
    run_cli("gen", "tight-cycle", "--r", "4", "--ell", "9", "--output", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", "prune", "--input", str(path), "--eps", "2/0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: '2/0' has a zero denominator\n"


EOPT_UPTO8 = """\
e_opt(4) = 1 splits: (3,1)
e_opt(5) = 4 splits: (4,1)
e_opt(6) = 10 splits: (5,1)
e_opt(7) = 20 splits: (5,2) (6,1)
e_opt(8) = 40 splits: (6,2)
"""


def test_eopt_golden():
    assert run_cli("eopt", "--n", "8", "--upto") == EOPT_UPTO8
    assert run_cli("eopt", "--n", "8") == EOPT_UPTO8.splitlines(keepends=True)[-1]


def test_search_golden_and_budget():
    out = run_cli("search", "--n", "5", "--r", "4", "--k", "1")
    assert out.splitlines()[0] == "max_edges=4 witnesses=5 explored=19 canonical=false"
    assert out.count("witness: ") == 5

    canon = run_cli("search", "--n", "6", "--r", "4", "--k", "1", "--canonical")
    assert canon.splitlines()[0] == "max_edges=10 witnesses=1 explored=655 canonical=true"

    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", "search", "--n", "9", "--r", "4", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "pool of 126 edges exceeds SEARCH_MAX_PLAIN_POOL=28" in proc.stderr


def test_search_refuses_arity_above_max():
    # every candidate would close a connection group inside S_9; the full
    # search at this size takes tens of seconds and about 100 MB
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", "search", "--n", "10", "--r", "9"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert "arity 9" in proc.stderr


@pytest.mark.parametrize("mode", [(), ("--canonical",)])
def test_search_refuses_oversized_pool_at_once(mode):
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", "search", "--n", "100", "--r", "4", "--k", "1", *mode],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: canonical search is capped at 8 vertices, got 100\n" if mode
        else "error: pool of 3921225 edges exceeds SEARCH_MAX_PLAIN_POOL=28\n"
    )


def test_search_runs_in_process():
    # no verb starts worker processes, so none pays for importing multiprocessing
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tighthom.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    run_cli("search", "--n", "5", "--r", "4", "--k", "1", "--jobs", "2", expect=2)
    run_cli("search", "--n", "5", "--r", "4", "--k", "1", "--budget", "5", expect=2)


def test_search_records_roundtrip():
    out = run_cli("search", "--n", "5", "--r", "4", "--k", "1", "--format", "records")
    lines = out.splitlines()
    assert [json.dumps(json.loads(line), sort_keys=True) for line in lines] == lines
    head = json.loads(lines[0])
    assert head["max_edges"] == 4 and head["residues"] == [1]


def test_prune_writes_fixpoint(tmp_path):
    path = tmp_path / "c9.hg"
    out_path = tmp_path / "pruned.hg"
    run_cli("gen", "tight-cycle", "--r", "4", "--ell", "9", "--output", str(path))
    out = run_cli("prune", "--input", str(path), "--eps", "2/9", "--output", str(out_path))
    assert out.splitlines()[0] == "deleted 9 of 9 edges; fixpoint has 0 edges"
    assert out_path.read_text() == "4 9\n"


def test_epsclose_and_walk(tmp_path):
    godd = tmp_path / "g66.hg"
    run_cli("gen", "godd", "--a", "6", "--b", "6", "--output", str(godd))
    out = run_cli("epsclose", "--input", str(godd), "--a", "0-5", "--b", "6-11", "--eps", "0")
    assert out == "eps-close: true (eps=0)\nremark: pairs=0 vertices=0\n"

    text = godd.read_text().splitlines()
    dented = tmp_path / "dented.hg"
    dented.write_text("\n".join(text[:-1]) + "\n")
    out = run_cli(
        "epsclose", "--input", str(dented), "--a", "0-5", "--b", "6-11", "--eps", "0",
        "--assert", expect=1,
    )
    assert out.splitlines()[0] == "eps-close: false (eps=0)"

    out = run_cli(
        "walk", "--input", str(godd), "--a", "0-5", "--b", "6-11", "--eps", "0",
        "--start", "0,1,2", "--end", "3,4,6", "--pattern", "B,A,A,A,B,A",
    )
    assert out == "walk stretch=8: 0 1 2 6 0 1 2 6 0 3 4 6\n"

    out = run_cli(
        "walk", "--input", str(godd), "--a", "0-5", "--b", "6-11", "--eps", "0",
        "--start", "0,1,2", "--end", "3,4,6", "--pattern", "0,B,A,A,A,B",
        "--assert", expect=1,
    )
    assert out == "no walk found\n"


def test_walk_pattern_longer_than_the_stack(tmp_path):
    # 1,200 positions: one stack frame per position would overflow the interpreter
    godd = tmp_path / "g66.hg"
    run_cli("gen", "godd", "--a", "6", "--b", "6", "--output", str(godd))
    pattern = ",".join("A" if i % 4 == 1 else "B" for i in range(1200))
    out = run_cli(
        "walk", "--input", str(godd), "--a", "0-5", "--b", "6-11", "--eps", "0",
        "--start", "0,6,7", "--end", "11,5,10", "--pattern", pattern,
    )
    assert out.startswith("walk stretch=1202: 0 6 7 8 0 6 7 8 ")


def test_default_triples_refuse_oversized_hosts(tmp_path):
    # --triples all builds the complete 3-graph on the host's vertex set
    wide = tmp_path / "wide.hg"
    wide.write_text("4 183\n0 1 2 3\n")
    for argv in (
        ("epsclose", "--input", str(wide), "--a", "0-91", "--b", "92-182", "--eps", "0"),
        ("walk", "--input", str(wide), "--a", "0-91", "--b", "92-182", "--eps", "0",
         "--start", "0,1,2", "--end", "3,4,92", "--pattern", "B,A,A,A,B,A"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "tighthom.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: complete 3-graph on 183 vertices makes 1,004,731 vertex sets,"
            " over GEN_MAX_SETS=1,000,000\n"
        )


def test_unknown_verb_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tighthom.cli", "frobnicate"], capture_output=True, text=True
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("groups", "--r", "4"),
        ("eopt", "--n", "6", "--upto"),
        ("fopt", "--step", "1/20", "--refinements", "1"),
    ],
)
def test_records_mode_is_lossless(argv):
    out = run_cli(*argv, "--format", "records")
    lines = out.splitlines()
    assert lines
    assert [json.dumps(json.loads(line), sort_keys=True) for line in lines] == lines
