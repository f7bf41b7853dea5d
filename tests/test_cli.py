import csv
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cutquery import Cut, deterministic_min_cut, generate, read_edge_list, st_min_cut_known
from cutquery.cli import CSV_COLUMNS, main
from cutquery.scaling import (
    BENCH_DEGREE,
    BENCH_SIZES,
    bench_graph,
    bench_run,
    check_cut,
    csv_row,
    fitted_exponent,
)

ROOT = Path(__file__).resolve().parent.parent
SCALING_SCRIPT = ROOT / "scripts" / "run_scaling.py"
SURVIVAL_SCRIPT = ROOT / "scripts" / "run_survival.py"


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, env=env
    )


def load_scaling_script():
    spec = importlib.util.spec_from_file_location("run_scaling", SCALING_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("CUTQUERY_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cutquery.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_gen_barbell_edge_count(tmp_path):
    out = tmp_path / "g.el"
    got = run_cli(["gen", "--kind", "barbell", "--clique", "5", "--out", str(out)])
    assert got.returncode == 0
    g = read_edge_list(out)
    assert g.m == 21  # 2*C(5,2) + 1


def test_global_mincut_verify_on_barbell(tmp_path):
    out = tmp_path / "g.el"
    run_cli(["gen", "--kind", "barbell", "--clique", "5", "--out", str(out)])
    got = run_cli(
        ["global-mincut", "--algo", "v2", "--in", str(out), "--seed", "1", "--verify"]
    )
    assert got.returncode == 0
    row = next(csv.DictReader(io.StringIO(got.stdout), fieldnames=CSV_COLUMNS))
    assert row["cut_value"] == "1"
    assert row["correct"] == "1"


def test_bad_flags_exit_two(tmp_path):
    got = run_cli(["global-mincut", "--algo", "v3", "--in", "nowhere.el"])
    assert got.returncode == 2
    got = run_cli(["gen", "--kind", "nonsense", "--out", str(tmp_path / "x.el")])
    assert got.returncode == 2
    got = run_cli(["st-mincut", "--in", "missing.el", "--source", "0", "--sink", "1"])
    assert got.returncode == 2  # unreadable input is a usage problem


@pytest.mark.parametrize("scale", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["global-mincut", "--algo", "v2"],
        ["st-mincut", "--source", "0", "--sink", "7"],
        ["sparsify"],
    ],
)
def test_bad_scale_exits_two_without_traceback(tmp_path, command, scale):
    out = tmp_path / "g.el"
    run_cli(["gen", "--kind", "cycle", "--n", "8", "--out", str(out)])
    got = run_cli([*command, "--in", str(out), "--scale-constants", scale])
    assert got.returncode == 2, got.stdout
    assert "Traceback" not in got.stderr
    assert "scale" in got.stderr


def test_csv_rows_are_reproducible(tmp_path):
    out = tmp_path / "g.el"
    run_cli(["gen", "--kind", "gnp", "--n", "16", "--p", "0.4", "--seed", "3", "--out", str(out)])
    args = ["global-mincut", "--algo", "v1", "--in", str(out), "--seed", "9", "--verify"]
    a = run_cli(args).stdout
    b = run_cli(args).stdout
    strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines() if r]
    assert strip(a) == strip(b)  # identical except the wall-clock field


# one run of each measured subcommand on gnp(40, 0.3) drawn at seed 3, with
# its exit code and its row up to wall_ms; a change to any budget, check or
# column shows here (at n = 40 no row here moves with the seed, so this pins
# no random stream)
PINNED_ROWS = [
    (["learn", "--seed", "1", "--verify"], 0, "learn-splits,1,,,572,1607,,,1"),
    (["learn", "--strategy", "pairs", "--seed", "0", "--verify"], 0, "learn-pairs,0,,,820,820,,,1"),
    (["learn", "--abort-above", "5", "--seed", "0", "--verify"], 1, "learn-splits,0,,,31,47,,,0"),
    (
        ["global-mincut", "--algo", "v1", "--seed", "9", "--verify"],
        0,
        "global-v1,9,1/4,1.0,820,2380,7,7,1",
    ),
    (
        ["global-mincut", "--algo", "v2", "--seed", "9", "--verify"],
        0,
        "global-v2,9,1/4,1.0,572,1687,7,7,1",
    ),
    (
        ["st-mincut", "--source", "0", "--sink", "39", "--seed", "2", "--verify"],
        0,
        "st,2,,1.0,572,1687,10,10,1",
    ),
    (
        ["st-mincut", "--source", "3", "--sink", "7", "--seed", "2"]
        + ["--scale-constants", "0.001", "--epsilon", "0.2"],
        0,
        "st,2,1/5,0.001,572,1687,7,,",
    ),
    (["sparsify", "--seed", "3"], 0, "sparsify,3,1/4,1.0,572,1647,,,"),
]


def test_cli_rows_match_pinned_values(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CUTQUERY_SEED", raising=False)
    graph = tmp_path / "g.el"
    gen = ["gen", "--kind", "gnp", "--n", "40", "--p", "0.3", "--seed", "3", "--out", str(graph)]
    assert main(gen) == 0
    capsys.readouterr()
    for argv, code, row in PINNED_ROWS:
        assert main([argv[0], "--in", str(graph), *argv[1:]]) == code, argv
        out = capsys.readouterr().out
        assert out.rsplit(",", 1)[0] == f"g.el,40,230,{row}", argv


# the random streams: on gnp(80, 0.3) drawn at seed 4, at scale 2e-4, these
# rows move with the run seed (by one total call), and at seed 3 each moves
# when its subcommand's `make_rng` label changes
STREAM_ROWS = [
    (["global-mincut", "--algo", "v2", "--verify"], "global-v2,3,1/4,0.0002,2259,6689,10,10,1"),
    (["st-mincut", "--source", "0", "--sink", "79", "--verify"], "st,3,,0.0002,2259,6688,26,26,1"),
    (["sparsify"], "sparsify,3,1/4,0.0002,2259,6609,,,"),
]


def test_cli_rows_pin_the_random_streams(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CUTQUERY_SEED", raising=False)
    graph = tmp_path / "g.el"
    gen = ["gen", "--kind", "gnp", "--n", "80", "--p", "0.3", "--seed", "4", "--out", str(graph)]
    assert main(gen) == 0
    capsys.readouterr()
    for argv, row in STREAM_ROWS:
        run = [argv[0], "--in", str(graph), *argv[1:], "--seed", "3", "--scale-constants", "2e-4"]
        assert main(run) == 0, argv
        out = capsys.readouterr().out
        assert out.rsplit(",", 1)[0] == f"g.el,80,946,{row}", argv


def test_st_mincut_cli(tmp_path):
    out = tmp_path / "p.el"
    run_cli(["gen", "--kind", "gnp", "--n", "14", "--p", "0.5", "--seed", "5", "--out", str(out)])
    got = run_cli(
        [
            "st-mincut", "--in", str(out),
            "--source", "0", "--sink", "13",
            "--seed", "2", "--verify",
        ]
    )
    assert got.returncode == 0
    row = next(csv.DictReader(io.StringIO(got.stdout), fieldnames=CSV_COLUMNS))
    assert row["algo"] == "st"
    assert row["correct"] == "1"


def test_learn_strategies_and_verify(tmp_path):
    out = tmp_path / "c.el"
    run_cli(["gen", "--kind", "cycle", "--n", "12", "--out", str(out)])
    for strategy in ("splits", "pairs"):
        got = run_cli(["learn", "--in", str(out), "--strategy", strategy, "--verify"])
        assert got.returncode == 0, got.stderr
        row = next(csv.DictReader(io.StringIO(got.stdout), fieldnames=CSV_COLUMNS))
        assert row["correct"] == "1"
    # the halving strategy needs far fewer distinct queries than pair probing
    splits = run_cli(["learn", "--in", str(out), "--strategy", "splits"]).stdout
    pairs = run_cli(["learn", "--in", str(out), "--strategy", "pairs"]).stdout
    q = lambda text: int(next(csv.DictReader(io.StringIO(text), fieldnames=CSV_COLUMNS))["distinct_queries"])
    assert q(splits) < q(pairs)


def test_sparsify_writes_weighted_graph(tmp_path):
    src = tmp_path / "g.el"
    dst = tmp_path / "h.wel"
    run_cli(["gen", "--kind", "gnp", "--n", "12", "--p", "0.5", "--seed", "7", "--out", str(src)])
    got = run_cli(
        ["sparsify", "--in", str(src), "--epsilon", "0.3", "--out", str(dst), "--seed", "3"]
    )
    assert got.returncode == 0
    header = dst.read_text().splitlines()[0].split()
    assert header[0] == "12"


def test_csv_file_accumulates_with_single_header(tmp_path):
    out = tmp_path / "g.el"
    log = tmp_path / "runs.csv"
    run_cli(["gen", "--kind", "cycle", "--n", "8", "--out", str(out)])
    for seed in ("1", "2"):
        run_cli(
            ["global-mincut", "--algo", "v2", "--in", str(out), "--seed", seed, "--csv", str(log)]
        )
    rows = log.read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 3


def test_env_var_supplies_default_seed(tmp_path):
    out = tmp_path / "g.el"
    run_cli(["gen", "--kind", "cycle", "--n", "8", "--out", str(out)])
    a = run_cli(["global-mincut", "--in", str(out)], env_extra={"CUTQUERY_SEED": "77"})
    b = run_cli(["global-mincut", "--in", str(out), "--seed", "77"])
    strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines() if r]
    assert strip(a.stdout) == strip(b.stdout)


def test_bad_seed_env_exits_two_without_traceback(tmp_path):
    out = tmp_path / "g.el"
    got = run_cli(
        ["gen", "--kind", "cycle", "--n", "5", "--out", str(out)],
        env_extra={"CUTQUERY_SEED": "abc"},
    )
    assert got.returncode == 2, got.stdout
    assert "Traceback" not in got.stderr
    assert got.stderr.startswith("error:") and "CUTQUERY_SEED" in got.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, given, missing",
    [
        ("gnp", [], "'n'"),
        ("gnp", ["--n", "10"], "'p'"),
        ("planted_cut", ["--n", "12"], "'k'"),
        ("barbell", [], "'clique'"),
    ],
)
def test_gen_missing_parameter_exits_two_without_traceback(tmp_path, kind, given, missing):
    out = tmp_path / "g.el"
    got = run_cli(["gen", "--kind", kind, *given, "--out", str(out)])
    assert got.returncode == 2, got.stdout
    assert "Traceback" not in got.stderr
    assert got.stderr.startswith("error:") and missing in got.stderr
    assert not out.exists()


def test_negative_vertex_count_exits_two_without_traceback(tmp_path):
    bad = tmp_path / "neg.el"
    bad.write_text("-1 0\n")
    got = run_cli(["learn", "--in", str(bad), "--verify"])
    assert got.returncode == 2, got.stdout
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    assert "negative vertex count" in got.stderr


def test_bad_edge_list_line_exits_two_naming_it(tmp_path):
    # a weighted row fed to the plain reader used to report "expected 1
    # edges, found 1"
    bad = tmp_path / "w.el"
    bad.write_text("3 1\n0 1 5\n")
    got = run_cli(["global-mincut", "--in", str(bad)])
    assert got.returncode == 2, got.stdout
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    assert got.stderr == f"error: {bad}:2: expected two integers, found '0 1 5'\n"


def test_verification_mismatch_exits_one(tmp_path, monkeypatch):
    # learning with a cap low enough to abort counts as a failed verification
    out = tmp_path / "k.el"
    run_cli(["gen", "--kind", "gnp", "--n", "10", "--p", "0.9", "--seed", "1", "--out", str(out)])
    got = run_cli(["learn", "--in", str(out), "--abort-above", "3", "--verify"])
    assert got.returncode == 1


def test_negative_abort_above_exits_two_without_traceback(tmp_path):
    out = tmp_path / "g.el"
    run_cli(["gen", "--kind", "cycle", "--n", "8", "--out", str(out)])
    got = run_cli(["learn", "--in", str(out), "--abort-above", "-1"])
    assert got.returncode == 2, got.stdout
    assert "Traceback" not in got.stderr
    assert "abort_above" in got.stderr
    assert "aborted" not in got.stderr


def test_pair_learner_with_abort_above_exits_two_without_traceback(tmp_path):
    # the pair learner has no budget, so a cap given to it must not be ignored
    out = tmp_path / "g.el"
    run_cli(["gen", "--kind", "cycle", "--n", "8", "--out", str(out)])
    got = run_cli(["learn", "--in", str(out), "--strategy", "pairs", "--abort-above", "3"])
    assert got.returncode == 2, got.stdout
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    assert got.stderr.startswith("error:") and "--abort-above" in got.stderr


def test_fitted_exponent_on_synthetic_counts():
    sizes = [64, 128, 256, 512]
    quad = [n * n for n in sizes]
    lin = [7 * n for n in sizes]
    assert abs(fitted_exponent(sizes, quad) - 2.0) < 1e-9
    assert abs(fitted_exponent(sizes, lin) - 1.0) < 1e-9
    assert fitted_exponent([64], [10]) != fitted_exponent([64], [10])  # nan


def test_bench_tiny_ladder_runs(tmp_path):
    # the scaling script is the front end over bench_run
    log = tmp_path / "bench.csv"
    got = run_script(
        SCALING_SCRIPT,
        ["--suite", "global", "--sizes", "24,32", "--trials", "1", "--seed", "5", "--csv", str(log)]
    )
    assert got.returncode == 0, got.stderr
    lines = [r for r in got.stdout.splitlines() if r.startswith("fitted exponent")]
    assert any("global-v2" in ln for ln in lines)
    assert any("global-v1" in ln for ln in lines)
    assert any("baseline-pairs" in ln for ln in lines)
    # every checked runner reports its correct answers; the baseline has none
    assert [ln.rsplit("  ", 1)[-1] for ln in lines if "correct" in ln] == ["correct 2/2"] * 2
    assert not any("baseline-pairs" in ln and "correct" in ln for ln in lines)
    rows = list(csv.DictReader(open(log)))
    assert {r["algo"] for r in rows} == {"baseline-pairs", "global-v2", "global-v1"}
    for r in rows:
        assert int(r["distinct_queries"]) > 0


def test_scaling_script_exits_one_on_a_wrong_answer(monkeypatch, capsys):
    script = load_scaling_script()
    g = generate("cycle", {"n": 6}, 0)

    def stub(**_):
        rows = [
            csv_row("c", g, "baseline-pairs", 0, distinct_queries=15, total_calls=15),
            csv_row("c", g, "st", 0, distinct_queries=9, total_calls=9, correct=1),
            csv_row("c", g, "st", 0, distinct_queries=9, total_calls=9, correct=0),
        ]
        return {"rows": rows, "exponents": {"baseline-pairs": 2.0, "st": 1.0}}

    monkeypatch.setattr(script, "bench_run", stub)
    assert script.main(["--sizes", "6"]) == 1
    out = capsys.readouterr().out
    assert "fitted exponent st              1.000  correct 1/2" in out
    assert "fitted exponent baseline-pairs  2.000\n" in out


def test_bench_rows_carry_checked_answers():
    rows = bench_run(sizes=(16, 24), reps=2, seed=1, degree=3.0)["rows"]
    assert {r["algo"] for r in rows} == {"baseline-pairs", "global-v2", "global-v1", "st"}
    for r in rows:
        if r["algo"] == "baseline-pairs":
            assert (r["cut_value"], r["ref_value"], r["correct"]) == ("", "", "")
            continue
        g = generate("gnp", {"n": r["n"], "p": 3.0 / r["n"]}, int(r["seed"])).to_weighted()
        if r["algo"] == "st":
            ref = st_min_cut_known(g, 0, g.n - 1).value
        else:
            ref = deterministic_min_cut(g).value
        assert (r["ref_value"], r["cut_value"], r["correct"]) == (ref, ref, 1), r


def test_check_cut_flags_each_wrong_answer():
    g = generate("cycle", {"n": 6}, 0)  # every min cut and min 0-3 cut has value 2
    half = frozenset({0, 1, 2})
    assert check_cut(g, Cut(half, 2)) == {"cut_value": 2, "ref_value": 2, "correct": 1}
    assert check_cut(g, Cut(half, 2), (0, 3))["correct"] == 1
    assert check_cut(g, Cut(frozenset({0, 2}), 4))["correct"] == 0  # not the min cut
    assert check_cut(g, Cut(frozenset({0, 2}), 2))["correct"] == 0  # side cuts 4
    assert check_cut(g, Cut(half, 2), (3, 0))["correct"] == 0  # side holds t, not s
    assert check_cut(g, Cut(half, 2), (0, 1))["correct"] == 0  # side holds s and t


def test_bench_run_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'foo'"):
        bench_run(sizes=(16,), reps=1, suite="foo")


def test_bench_instances_have_no_isolated_vertex():
    # the default ladder at seed 0, three reps: the first draws of one
    # n = 512 and two n = 1024 instances have an isolated vertex, which every
    # global pipeline would answer from its degree pass, so they are redrawn;
    # each instance regenerates from the seed it reports
    redrawn = set()
    for n in BENCH_SIZES:
        for rep in range(3):
            g, derive = bench_graph(n, rep)
            assert min(g.degrees()) > 0
            assert g.edges == generate("gnp", {"n": n, "p": BENCH_DEGREE / n}, derive).edges
            if derive != n * 101 + rep:
                redrawn.add((n, rep))
    assert redrawn == {(512, 2), (1024, 0), (1024, 1)}
    # at expected degree 2 most first draws have one; every row's seed
    # column names the redrawn instance it ran
    rows = bench_run(sizes=(16, 24), reps=2, seed=3, degree=2.0, suite="st")["rows"]
    first = [3 * 1000003 + r["n"] * 101 + int(r["instance"].rsplit("-r", 1)[1]) for r in rows]
    assert any(int(r["seed"]) != f for r, f in zip(rows, first))
    for r in rows:
        g = generate("gnp", {"n": r["n"], "p": 2.0 / r["n"]}, int(r["seed"]))
        assert min(g.degrees()) > 0 and g.m == r["m"]
    for n, degree in ((1, BENCH_DEGREE), (16, 0.0)):
        with pytest.raises(ValueError, match="isolated vertex"):
            bench_graph(n, 0, degree=degree)
    got = run_script(SCALING_SCRIPT, ["--sizes", "1"])
    assert got.returncode == 2 and got.stdout == ""
    assert got.stderr.startswith("error:") and "Traceback" not in got.stderr


def test_scaling_csv_matches_the_cli_csv_format(tmp_path, capsys):
    # both writers end lines with \n alone and share one header line
    graph, cli_log, ladder_log = tmp_path / "g.el", tmp_path / "cli.csv", tmp_path / "ladder.csv"
    assert main(["gen", "--kind", "cycle", "--n", "8", "--out", str(graph)]) == 0
    assert main(["learn", "--in", str(graph), "--csv", str(cli_log)]) == 0
    argv = ["--suite", "st", "--sizes", "16", "--trials", "1", "--csv", str(ladder_log)]
    assert load_scaling_script().main(argv) == 0
    capsys.readouterr()
    ladder, cli = ladder_log.read_bytes(), cli_log.read_bytes()
    assert b"\r" not in ladder and b"\r" not in cli
    assert ladder.split(b"\n")[0] == cli.split(b"\n")[0] == ",".join(CSV_COLUMNS).encode()
    assert len(ladder.splitlines()) == 3  # the header, the baseline and st


@pytest.mark.parametrize(
    "script, args, message",
    [
        (SCALING_SCRIPT, ["--sizes", "16,x"], "--sizes"),
        (SCALING_SCRIPT, ["--trials", "0"], "--trials"),
        (SCALING_SCRIPT, ["--trials", "-1"], "--trials"),
        (SCALING_SCRIPT, ["--sizes", "16", "--trials", "1", "--csv", "/dev/null/rows.csv"], "rows.csv"),
        (SURVIVAL_SCRIPT, ["--n", "3"], "four vertices"),
        (SURVIVAL_SCRIPT, ["--trials", "0"], "--trials"),
    ],
    ids=[
        "scaling-sizes",
        "scaling-trials-0",
        "scaling-trials-neg",
        "scaling-csv",
        "survival-n",
        "survival-trials",
    ],
)
def test_scripts_reject_bad_input_with_exit_two(script, args, message):
    # exit 1 is the scaling script's wrong answer; bad input is a usage error
    got = run_script(script, args)
    assert got.returncode == 2 and got.stdout == ""
    assert got.stderr.startswith("error:") and len(got.stderr.splitlines()) == 1
    assert message in got.stderr and "Traceback" not in got.stderr
