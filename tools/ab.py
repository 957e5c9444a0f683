"""A/B benchmark runner: a base commit against a change, in alternating pairs.

Run from the root of a source checkout:

    python3 tools/ab.py BASE_REF --workload fault-campaign --seed 1 --label my-change
    python3 tools/ab.py BASE_REF --change CHANGE_REF --workload core-long --label old-pair

The base is `BASE_REF` exported with `git archive` into a temporary
directory. The change is `CHANGE_REF` exported the same way, or without
`--change` a copy of this checkout as it stands, uncommitted edits and files
git does not ignore included. An export leaves no worktree registered in the
repository, even when a run is cut short. Both sides run
from copies in one temporary directory: run from the checkout itself,
unchanged code read 0.7-0.9% slower on markov-stiff over 10 pairs (2-CPU
x86_64, Python 3.11). Both trees are byte-compiled first, since a missing
or stale `.pyc` inflates `setup_s`. Then each of 10 pairs runs
`perfbench/run.py` once on each tree, with the run length it sets, base
first in even pairs and change first in odd ones, one benchmark process at
a time.

For each end-to-end metric of BENCHMARK.json it prints, per workload and
seed, the median and quartiles of each side and how many pairs each side
won, and each side's median count of timed passes: a faster side runs more
passes in the same time, and `peak_rss_mb` can follow that count. It also
times each `ifrsim` line of README.md's command block as `python -m
ifrsim.cli ...` in fresh interpreters, alternating the trees one process at
a time, and keeps each side's minimum of 7 runs: the CLI's startup time. It
writes the per-pair numbers, pass counts included, and the startup times
with both commits and the environment line to `BENCH_<label>.json` at the
root of the checkout. Exits 1 if a benchmark run or a README command fails,
or a benchmark reports a wrong output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_DIR = ROOT  # where BENCH_<label>.json is written
RUN_TIMEOUT_S = 900
PAIRS = 10
STARTUP_RUNS = 7  # fresh-interpreter runs per README command and tree


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(ref: str, into: Path) -> Path:
    """The tree of `ref`, written into the new directory `into` by
    `git archive`."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _copy_checkout(into: Path) -> Path:
    """This checkout's files as they stand, tracked or not ignored, copied
    into the new directory `into`."""
    into.mkdir()
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file may have been deleted
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, into / name)
    return into


def _compile(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "perfbench"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)


def run_benchmark(tree: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py` run on `tree`: its environment line, digest,
    timed-pass count and end-to-end metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    fields = dict(line.split(" ", 1) for line in lines[:-1]
                  if line.startswith(("env ", "digest ", "samples ")))
    # "samples N operations x P timed passes"
    return {"env": json.loads(fields["env"]), "digest": fields["digest"].split()[-1],
            "passes": int(fields["samples"].split()[3]),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def readme_commands() -> list[list[str]]:
    """The arguments of each `ifrsim` line in README.md's command block."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [line.split()[1:] for line in lines if line.startswith("ifrsim ")]


def run_cli(tree: Path, argv: list[str]) -> float:
    """Wall seconds of one `python -m ifrsim.cli ARGV` run from `tree`, in a
    fresh interpreter that imports the package from `tree/src`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ifrsim.cli", *argv], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: ifrsim {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return elapsed


def startup_times(trees: dict[str, Path]) -> dict:
    """Per README command, each side's minimum wall time over STARTUP_RUNS
    runs, the sides alternating which runs first, and the change's minimum
    relative to the base's."""
    times = {}
    for argv in readme_commands():
        runs = {side: [] for side in trees}
        for index in range(STARTUP_RUNS):
            for side in (trees if index % 2 == 0 else reversed(trees)):
                runs[side].append(run_cli(trees[side], argv))
        best = {side: min(values) for side, values in runs.items()}
        times[" ".join(["ifrsim", *argv])] = {**best,
                                             "relative": best["change"] / best["base"] - 1}
    return times


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric: each side's median and quartiles over `pairs`
    (each {"base": metrics, "change": metrics}), the change of the median
    relative to the base's, and the pairs each side won in the metric's
    `better` direction."""
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [pair["base"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        wins = [sign * (c - b) for b, c in zip(base, change)]
        entry = {"base": _spread(base), "change": _spread(change),
                 "change_wins": sum(w > 0 for w in wins), "base_wins": sum(w < 0 for w in wins)}
        median = entry["base"]["median"]
        entry["relative"] = entry["change"]["median"] / median - 1 if median else None
        summary[name] = entry
    return summary


def _print_summary(workload: str, seed: int, summary: dict, pairs: list[dict]) -> None:
    passes = {side: statistics.median(pair["passes"][side] for pair in pairs)
              for side in ("base", "change")}
    print(f"{workload} seed {seed}, {len(pairs)} pairs; median timed passes "
          f"{passes['base']:g} base, {passes['change']:g} change:")
    print(f"  {'metric':12s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f" {'rel':>8s} {'wins c/b':>9s}")
    for name, entry in summary.items():
        cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
                 for s in (entry["base"], entry["change"])]
        relative = "" if entry["relative"] is None else f"{entry['relative']:+.1%}"
        print(f"  {name:12s} {cells[0]:>32s} {cells[1]:>32s} {relative:>8s}"
              f" {entry['change_wins']:>4d}/{entry['base_wins']:<4d}")


def _print_startup(times: dict) -> None:
    print(f"startup, minimum of {STARTUP_RUNS} fresh runs:")
    print(f"  {'base s':>8s} {'change s':>8s} {'rel':>7s}  command")
    for command, entry in times.items():
        print(f"  {entry['base']:8.4f} {entry['change']:8.4f} {entry['relative']:+7.1%}  {command}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE_REF")
    parser.add_argument("--change", metavar="CHANGE_REF",
                        help="export the change side from this commit (default: this "
                             "checkout as it stands)")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; may be repeated")
    parser.add_argument("--seed", type=int, action="append",
                        help="a workload seed; may be repeated (default 1)")
    parser.add_argument("--label", required=True, help="names the BENCH_<label>.json file")
    args = parser.parse_args(argv)
    seeds = args.seed or [1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    if not set(args.workload) <= known:
        parser.error(f"unknown workload; BENCHMARK.json names {sorted(known)}")

    base_commit = _git("rev-parse", f"{args.base}^{{commit}}")
    if args.change:
        change = {"ref": args.change, "commit": _git("rev-parse", f"{args.change}^{{commit}}")}
    else:
        change = {"ref": "checkout", "commit": _git("rev-parse", "HEAD"),
                  "uncommitted_changes": bool(_git("status", "--porcelain",
                                                   "--untracked-files=no"))}
    record = {"label": args.label, "command": ["tools/ab.py", *(argv or sys.argv[1:])],
              "base": {"ref": args.base, "commit": base_commit}, "change": change,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ifrsim-ab-") as scratch:
        trees = {"base": _export(base_commit, Path(scratch) / "base"),
                 "change": (_export(change["commit"], Path(scratch) / "change") if args.change
                            else _copy_checkout(Path(scratch) / "change"))}
        for tree in trees.values():
            _compile(tree)
        record["startup"] = startup_times(trees)
        _print_startup(record["startup"])
        for workload in args.workload:
            for seed in seeds:
                pairs = []
                for index in range(PAIRS):
                    order = ("base", "change") if index % 2 == 0 else ("change", "base")
                    runs = {side: run_benchmark(trees[side], workload, seed)
                            for side in order}
                    pairs.append({"first": order[0],
                                  "passes": {side: runs[side]["passes"] for side in runs},
                                  **{side: runs[side]["metrics"]
                                     for side in ("base", "change")}})
                    print(f"{workload} seed {seed} pair {index + 1}/{PAIRS} done",
                          flush=True)
                summary = summarize(pairs, spec["end_to_end"])
                _print_summary(workload, seed, summary, pairs)
                record["environment"] = runs["change"]["env"]
                record["workloads"].setdefault(workload, {})[str(seed)] = {
                    "digests": {side: runs[side]["digest"] for side in ("base", "change")},
                    "src_sha256": {side: runs[side]["env"]["src_sha256"]
                                   for side in ("base", "change")},
                    "pairs": pairs, "summary": summary}
    out = RECORD_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"ab: {exc}", file=sys.stderr)
        sys.exit(1)
