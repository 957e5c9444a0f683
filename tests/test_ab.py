"""The A/B runner: its summary (medians, quartiles and pair wins per metric)
and the trees it runs."""
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("_tools_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

_DECLARED = [{"name": "wall_s", "better": "lower", "bound": 0.22},
             {"name": "ok_rate", "better": "higher", "bound": 0.01}]


def _pairs(base_wall, change_wall, base_ok, change_ok):
    return [{"first": "base", "base": {"wall_s": b, "ok_rate": bo},
             "change": {"wall_s": c, "ok_rate": co}}
            for b, c, bo, co in zip(base_wall, change_wall, base_ok, change_ok)]


def test_wins_follow_each_metrics_better_direction():
    pairs = _pairs([10, 12, 11, 13], [8, 9, 12, 13], [1, 1, 0.5, 1], [1, 0.5, 1, 1])
    summary = ab.summarize(pairs, _DECLARED)
    # Lower wall time wins; the fourth pair is a tie.
    assert (summary["wall_s"]["change_wins"], summary["wall_s"]["base_wins"]) == (2, 1)
    # Higher ok_rate wins.
    assert (summary["ok_rate"]["change_wins"], summary["ok_rate"]["base_wins"]) == (1, 1)


def test_medians_and_quartiles_of_each_side():
    pairs = _pairs([4, 1, 3, 2, 5], [2, 2, 2, 2, 2], [1] * 5, [1] * 5)
    wall = ab.summarize(pairs, _DECLARED)["wall_s"]
    assert wall["base"] == {"median": 3, "q1": 2, "q3": 4}
    assert wall["change"] == {"median": 2, "q1": 2, "q3": 2}
    assert wall["relative"] == pytest.approx(2 / 3 - 1)


def test_change_ref_is_exported_from_its_commit(tmp_path, monkeypatch):
    # CI clones shallowly, so both sides name HEAD.
    head = ab._git("rev-parse", "HEAD")
    tracked = sorted(ab._git("ls-tree", "-r", "--name-only", "HEAD").splitlines())
    committed = subprocess.run(["git", "-C", str(ab.ROOT), "show", "HEAD:src/ifrsim/markov.py"],
                               capture_output=True, check=True).stdout
    declared = json.loads((ab.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []

    def run_benchmark(tree, workload, seed):
        files = sorted(str(path.relative_to(tree)) for path in tree.rglob("*") if path.is_file())
        runs.append((tree.name, files, (tree / "src/ifrsim/markov.py").read_bytes()))
        return {"env": {"src_sha256": "-"}, "digest": "-", "passes": 1,
                "metrics": {metric["name"]: 1.0 for metric in declared}}

    monkeypatch.setattr(ab, "run_benchmark", run_benchmark)
    monkeypatch.setattr(ab, "run_cli", lambda tree, argv: 1.0)
    monkeypatch.setattr(ab, "_compile", lambda tree: None)
    monkeypatch.setattr(ab, "PAIRS", 2)
    monkeypatch.setattr(ab, "RECORD_DIR", tmp_path)
    status = ab._git("status", "--porcelain", "--untracked-files=all", "--ignored")
    assert ab.main(["HEAD", "--change", "HEAD", "--workload", "markov-oracle",
                    "--label", "change-ref"]) == 0
    record = json.loads((tmp_path / "BENCH_change-ref.json").read_text())
    assert record["change"] == {"ref": "HEAD", "commit": head}
    assert record["base"] == {"ref": "HEAD", "commit": head}
    assert len(record["startup"]) == len(ab.readme_commands())
    # Both sides are the committed tree, not this checkout's files.
    assert sorted(name for name, _, _ in runs) == ["base", "base", "change", "change"]
    assert all(files == tracked and source == committed for _, files, source in runs)
    assert ab._git("status", "--porcelain", "--untracked-files=all", "--ignored") == status


def test_startup_is_each_sides_minimum_over_fresh_runs(monkeypatch, capsys):
    commands = ab.readme_commands()
    assert commands and ["sim", "samples/workload.asm", "samples/decode_stuckat.flt"] in commands
    trees = {"base": Path("base"), "change": Path("change")}
    calls = []

    def run_cli(tree, argv):
        calls.append((tree.name, argv))
        # The change side is 0.01 s faster; each tree's later runs are faster.
        runs = sum(name == tree.name and args == argv for name, args in calls)
        return 1.0 - 0.01 * runs - 0.01 * (tree.name == "change")

    monkeypatch.setattr(ab, "run_cli", run_cli)
    times = ab.startup_times(trees)
    assert list(times) == [" ".join(["ifrsim", *argv]) for argv in commands]
    runs = ab.STARTUP_RUNS
    assert len(calls) == 2 * runs * len(commands)
    # The sides take turns to run first.
    first = [calls[i][0] for i in range(0, 2 * runs, 2)]
    assert first == ["base", "change"] * (runs // 2) + ["base"] * (runs % 2)
    for entry in times.values():
        assert entry["base"] == pytest.approx(1.0 - 0.01 * runs)
        assert entry["change"] == pytest.approx(0.99 - 0.01 * runs)
        assert entry["relative"] == pytest.approx(entry["change"] / entry["base"] - 1)
        # Every run is kept, in order, and each side's spread is that of its
        # runs: 1 - 0.01·k for the base's k-th run, 0.01 less for the change.
        for side, shift in (("base", 0.0), ("change", 0.01)):
            assert entry["runs"][side] == pytest.approx(
                [1.0 - shift - 0.01 * k for k in range(1, runs + 1)])
            middle = 1.0 - shift - 0.01 * (runs + 1) / 2
            quarter = 0.01 * (runs - 1) / 4
            assert entry["spread"][side] == pytest.approx(
                {"median": middle, "q1": middle - quarter, "q3": middle + quarter})
    # Each line prints both sides' minimum, then their median and quartiles.
    ab._print_startup(times)
    line = capsys.readouterr().out.splitlines()[2]
    assert line.split()[:8] == ["0.9300", "0.9600", "[0.9450,", "0.9750]",
                                "0.9200", "0.9500", "[0.9350,", "0.9650]"]


def test_run_benchmark_reads_the_timed_pass_count(tmp_path):
    # A stand-in for perfbench/run.py that prints the lines the runner reads.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('env ' + json.dumps({'src_sha256': 'abc'}))\n"
        "print('digest core-long 0123')\n"
        "print('samples 6 operations x 963 timed passes')\n"
        "print('wall_s   0.005 s')\n"
        "print(json.dumps({'correct': True, 'metrics': {'wall_s': {'value': 0.005}}}))\n")
    run = ab.run_benchmark(tmp_path, "core-long", 1)
    assert run == {"env": {"src_sha256": "abc"}, "digest": "0123", "passes": 963,
                   "metrics": {"wall_s": 0.005}}


def test_each_pair_records_the_timed_passes_of_both_sides(tmp_path, monkeypatch, capsys):
    declared = json.loads((ab.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": 0, "change": 0}

    def run_benchmark(tree, workload, seed):
        # The change side runs more passes; each side's count grows by run.
        runs[tree.name] += 1
        passes = (700 if tree.name == "base" else 950) + runs[tree.name]
        return {"env": {"src_sha256": "-"}, "digest": "-", "passes": passes,
                "metrics": {metric["name"]: 1.0 for metric in declared}}

    monkeypatch.setattr(ab, "run_benchmark", run_benchmark)
    monkeypatch.setattr(ab, "run_cli", lambda tree, argv: 1.0)
    monkeypatch.setattr(ab, "_compile", lambda tree: None)
    monkeypatch.setattr(ab, "PAIRS", 3)
    monkeypatch.setattr(ab, "RECORD_DIR", tmp_path)
    assert ab.main(["HEAD", "--change", "HEAD", "--workload", "core-long",
                    "--label", "passes"]) == 0
    pairs = json.loads((tmp_path / "BENCH_passes.json").read_text())[
        "workloads"]["core-long"]["1"]["pairs"]
    assert [pair["passes"] for pair in pairs] == [
        {"base": 700 + n, "change": 950 + n} for n in (1, 2, 3)]
    assert "median timed passes 702 base, 952 change" in capsys.readouterr().out


def test_a_metric_worse_than_its_bound_is_flagged(tmp_path, monkeypatch, capsys):
    # peak_rss_mb's bound is 5%: +6% on seed 1 is beyond it, +4% on seed 2 is
    # not, and the 30% fall in wall_s on both is a gain.
    declared = json.loads((ab.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rss = {1: 1.06, 2: 1.04}

    def run_benchmark(tree, workload, seed):
        metrics = {metric["name"]: 1.0 for metric in declared}
        if tree.name == "change":
            metrics.update(peak_rss_mb=rss[seed], wall_s=0.7)
        return {"env": {"src_sha256": "-"}, "digest": "-", "passes": 1, "metrics": metrics}

    monkeypatch.setattr(ab, "run_benchmark", run_benchmark)
    monkeypatch.setattr(ab, "run_cli", lambda tree, argv: 1.0)
    monkeypatch.setattr(ab, "_compile", lambda tree: None)
    monkeypatch.setattr(ab, "PAIRS", 2)
    monkeypatch.setattr(ab, "RECORD_DIR", tmp_path)
    assert ab.main(["HEAD", "--change", "HEAD", "--workload", "markov-stiff", "--seed", "1",
                    "--seed", "2", "--label", "bound"]) == 0
    seeds = json.loads((tmp_path / "BENCH_bound.json").read_text())["workloads"]["markov-stiff"]
    flagged = {seed: sorted(name for name, entry in seeds[seed]["summary"].items()
                            if entry["beyond_bound"]) for seed in seeds}
    assert flagged == {"1": ["peak_rss_mb"], "2": []}
    marked = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.endswith("BEYOND BOUND")]
    assert marked == ["peak_rss_mb"]


def test_sigterm_removes_both_trees_and_leaves_no_child_running(tmp_path):
    # Stopped while it exports or compiles the trees, the tool kills its
    # child, removes its temporary directory and exits non-zero. It runs in
    # a session of its own, so that its children share its process group.
    temp = tmp_path / "tmp"
    temp.mkdir()
    argv = [sys.executable, str(_PATH), "HEAD", "--change", "HEAD", "--workload", "markov-oracle",
            "--label", "sigterm"]
    proc = subprocess.Popen(argv, cwd=ab.ROOT, env=dict(os.environ, TMPDIR=str(temp)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not list(temp.glob("ifrsim-ab-*/change")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) != 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert list(temp.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
