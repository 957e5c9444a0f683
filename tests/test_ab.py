"""The A/B runner: its summary (medians, quartiles and pair wins per metric)
and the trees it runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("_tools_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

_DECLARED = [{"name": "wall_s", "better": "lower"}, {"name": "ok_rate", "better": "higher"}]


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
        return {"env": {"src_sha256": "-"}, "digest": "-",
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


def test_startup_is_each_sides_minimum_over_fresh_runs(monkeypatch):
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
