"""Command-line driver: determinism, exit codes, output formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tasim import cli, tas_det
from tasim.tas_det import tas_register_widths
from tasim.verify import SearchBudgetExceeded


def test_simulate_stdout_json_lines(capsys):
    rc = cli.main(["simulate", "--object", "sifter", "--n", "4", "--trials", "3",
                   "--seed", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"seed", "wins", "loses", "max_steps", "checker"}
        assert rec["seed"] == 5 + i
        assert rec["checker"] == "ok"
        assert rec["wins"] + rec["loses"] == 4


def test_simulate_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--object", "tas_det", "--n", "3", "--trials", "4",
            "--seed", "9", "--schedule", "random"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes()  # non-empty


def test_env_defaults_and_flag_precedence(tmp_path, monkeypatch, capsys):
    out = tmp_path / "env.jsonl"
    monkeypatch.setenv("SEED", "77")
    monkeypatch.setenv("OUT", str(out))
    assert cli.main(["simulate", "--object", "sifter", "--n", "3", "--trials", "1"]) == 0
    rec = json.loads(out.read_text())
    assert rec["seed"] == 77
    # explicit flags beat the environment
    assert cli.main(["simulate", "--object", "sifter", "--n", "3", "--trials", "1",
                     "--seed", "2", "--out", "-"]) == 0
    rec2 = json.loads(capsys.readouterr().out.strip())
    assert rec2["seed"] == 2


def test_all_objects_run_one_trial(capsys):
    for obj, n in (("sifter", 3), ("snapshot", 3), ("tas_det", 3),
                   ("tas_rand", 3), ("wrapped", 2)):
        rc = cli.main(["simulate", "--object", obj, "--n", str(n), "--trials", "1",
                       "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0, (obj, out)
        assert json.loads(out)["checker"] == "ok"


def test_module_runs_as_a_process():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("OUT", None)  # OUT would redirect the JSON line away from stdout
    argv = "simulate --object sifter --n 3 --trials 1 --seed 0".split()
    proc = subprocess.run([sys.executable, "-m", "tasim.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["checker"] == "ok"


def test_violation_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(cli.TRIALS, "sifter", lambda *a: (2, 1, 5, "2 winners over bound"))
    rc = cli.main(["simulate", "--object", "sifter", "--n", "3", "--trials", "1"])
    capsys.readouterr()
    assert rc == 1


def test_snapshot_op_trials_drain_by_the_solo_bound(monkeypatch):
    # tas_det drains with tas_det.solo_op_bound(n) object ops; a bound too
    # small for a solo finish stops the run with drain's error instead of a line
    monkeypatch.setattr(tas_det, "solo_op_bound", lambda n: 1)
    with pytest.raises(RuntimeError, match="solo burst"):
        cli.main("simulate --object tas_det --n 7 --trials 2 --seed 3".split())


def test_snapshot_search_budget_is_reported(monkeypatch, capsys):
    def over_budget(*args):
        raise SearchBudgetExceeded("budget")

    monkeypatch.setattr(cli, "check_linearizable", over_budget)
    rc = cli.main(["simulate", "--object", "snapshot", "--n", "3", "--trials", "1"])
    rec = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert rec["checker"] == "unknown: search budget exceeded"


@pytest.mark.parametrize("obj", ["tas_rand", "wrapped"])
def test_live_step_cap_is_reported(obj, monkeypatch, capsys):
    monkeypatch.setattr(cli, "LIVE_CAP", 5)
    rc = cli.main(["simulate", "--object", obj, "--n", "3", "--trials", "1"])
    rec = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert rec["checker"] == "step cap exceeded"
    # the line reports what ran: the largest per-process step count
    args = cli.build_parser().parse_args(["simulate", "--object", obj, "--n", "3"])
    steps = cli.TRIALS[obj](3, args, 0).steps
    assert sum(steps) == 5
    assert rec["max_steps"] == max(steps) > 0


def test_wrapped_run_below_the_solo_bound_stops_at_its_cap(capsys):
    # b = 1 leaves no solo window long enough to finish, so the trial runs
    # to its cap of 1000*n*n*b slots, far below LIVE_CAP
    rc = cli.main(["simulate", "--object", "wrapped", "--n", "8", "--b", "1", "--trials", "1"])
    rec = json.loads(capsys.readouterr().out)
    assert rc == 1 and rec["checker"] == "step cap exceeded"
    args = cli.build_parser().parse_args(["simulate", "--object", "wrapped", "--b", "1"])
    steps = cli.TRIALS["wrapped"](8, args, 0).steps
    assert sum(steps) == 1000 * 8 * 8 * 1 < cli.LIVE_CAP
    assert rec["max_steps"] == max(steps)


def _exit_code(argv):
    # argparse rejects an invocation by raising SystemExit
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


BAD_INVOCATIONS = [
    "simulate --object tas_rand --n 3 --schedule rr",
    "simulate --object nonesuch",
    "nonesuch",
    "simulate --object sifter --trials 0",
    "simulate --object sifter --n 0",
    "simulate --object sifter --n -2",
    "simulate --object sifter --schedule solo --burst 0",
    "simulate --object wrapped --b 0",
    "simulate --object tas_rand --beta 4",
    "sweep --object tas_det --n-list ,",
    "sweep --object tas_det --n-list 4 --trials 0",
    "sweep --object tas_det --n-list 0,4",
    "sweep --object tas_det --n-list a",
]


def test_bad_invocations_exit_2(capsys):
    for argv in BAD_INVOCATIONS:
        assert _exit_code(argv.split()) == 2, argv
    capsys.readouterr()


@pytest.mark.parametrize("obj", ["sifter", "snapshot", "tas_det", "tas_rand"])
def test_block_length_is_refused_for_unwrapped_objects(obj, capsys):
    # only a wrapped trial reads --b; any other object would ignore it
    assert _exit_code(["simulate", "--object", obj, "--b", "4"]) == 2
    captured = capsys.readouterr()
    assert f"--b sets the wrapped block length; {obj} has no blocks" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_unwritable_output_exits_2_before_any_trial(flag, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(cli.TRIALS, "sifter", lambda *a: ran.append(a))
    path = str(tmp_path / "missing" / "x")
    rc = cli.main(["simulate", "--object", "sifter", "--trials", "1", flag, path])
    captured = capsys.readouterr()
    assert rc == 2
    assert ran == []
    assert path in captured.err and "No such file or directory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("schedule", ["rr", "solo"])
@pytest.mark.parametrize("obj", ["sifter", "tas_det"])
def test_seedless_schedules_repeat_one_execution(obj, schedule, capsys):
    # rr and solo ignore the seed, and these objects draw nothing else from it
    argv = ["simulate", "--object", obj, "--n", "5", "--trials", "3", "--seed", "3",
            "--schedule", schedule]
    assert cli.main(argv) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec.pop("seed") for rec in recs] == [3, 4, 5]
    assert recs[0] == recs[1] == recs[2]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("tasim ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(line.split()[1:])


def test_bad_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SEED", "abc")
    for argv in ("simulate --object sifter --trials 1", "sweep --object tas_det --n-list 4"):
        assert _exit_code(argv.split()) == 2, argv
        assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_negative_seed_runs(capsys):
    argv = "simulate --object sifter --trials 1 --seed -1".split()
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == -1


def test_steps_percentile_is_nearest_rank():
    xs = list(range(1, 11))
    assert cli._steps_percentile(xs, 0.99) == 10
    assert cli._steps_percentile(xs, 0.5) == 5
    assert cli._steps_percentile(xs, 0.0) == 1


def test_trace_export(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = cli.main(["simulate", "--object", "tas_det", "--n", "3", "--trials", "1",
                   "--seed", "4", "--trace", str(trace)])
    capsys.readouterr()
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert len(lines) > 50
    for line in lines[:20]:
        rec = json.loads(line)
        assert set(rec) == {"t", "pid", "op", "reg", "val"}
        assert rec["op"] in ("R", "W")


def test_snapshot_trace_is_trial_zeros_run(tmp_path, capsys):
    # trial 0 at n=3, seed 0 runs the scripts [[scan, scan], [update(1, 2)],
    # [scan]], so its trace holds one cell write: pid 1's, to register 1
    trace = tmp_path / "snap.jsonl"
    rc = cli.main(["simulate", "--object", "snapshot", "--n", "3", "--trials", "2",
                   "--seed", "0", "--trace", str(trace)])
    capsys.readouterr()
    assert rc == 0
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    cell_writes = [(r["pid"], r["reg"]) for r in recs if r["op"] == "W" and r["reg"] < 2]
    assert cell_writes == [(1, 1)]


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--object", "tas_rand", "--n-list", "4,8", "--trials", "3",
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,register_count,mean_steps,p99_steps,backstop_fraction"
    assert len(rows) == 3
    for row, n in zip(rows[1:], (4, 8)):
        cells = row.split(",")
        assert int(cells[0]) == n
        assert int(cells[1]) > 0
        assert float(cells[2]) > 0
        assert int(cells[3]) >= 0
        assert 0.0 <= float(cells[4]) <= 1.0


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--object", "tas_det", "--n-list", "2,3", "--trials", "3", "--seed", "1"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_tas_det_counts_snapshot_ops(tmp_path):
    # tas_det sweeps at snapshot-op granularity, as simulate does; at register
    # level under a uniform schedule n=16 finishes no trial within 10^8 steps
    out = tmp_path / "det.csv"
    rc = cli.main(["sweep", "--object", "tas_det", "--n-list", "16,64", "--trials", "2",
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,register_count,mean_steps,p99_steps,backstop_fraction"
    assert len(rows) == 3
    for row, n in zip(rows[1:], (16, 64)):
        cells = row.split(",")
        assert int(cells[0]) == n
        assert int(cells[1]) == len(tas_register_widths(n))
        assert float(cells[2]) >= 1.0 and int(cells[3]) >= 1
        assert float(cells[4]) == 0.0  # the deterministic object has no backstop
