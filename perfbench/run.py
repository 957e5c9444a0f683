"""Benchmark of ifrsim: four workloads over the repairable core and the
Markov leg.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload core-long --seed 1 --seconds 15 --trace 0

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics (calls and seconds at each layer boundary, exact
simulator counts, and `trace.overhead_s`). The last line of stdout is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the lines before it give the environment, the determinism digest and a
readable table.

One run builds the inputs, runs one warm-up pass whose outputs are checked,
then runs whole passes until they have taken `--seconds`; with
`--trace 0` the set-ups run between them, outside that time. Every pass must
reproduce the warm-up pass's digest. A wrong output exits 1; a checkout
without `src/ifrsim` exits 2.

End-to-end times are in reference seconds (see refclock.py): each
operation's time is scaled by the reference kernel timed around it, and
an operation's latency is the median over the passes. `wall_s` is the sum
of those latencies, one pass. `setup_s` is the median of SETUP_REPEATS
set-ups, spread between the passes, each in a fresh interpreter that has
loaded NumPy and times importing ifrsim and building the inputs against
its own reference clock. Per-layer times are raw seconds from the fastest
traced pass.

`failed` counts the operations of a pass that raised an unexpected error;
the run then ends after that pass with exit 1. A `SolverError` is the
solver's documented refusal to return a bracket wider than its tolerance:
it is checked as correct output, and it lowers `ok_rate`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import layertrace
import refclock

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("core-long", "fault-campaign", "markov-stiff", "markov-oracle")
SETUP_REPEATS = 15


def _fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_ifrsim():
    """Import ifrsim from this checkout's `src`, then the workloads."""
    if not (ROOT / "src" / "ifrsim" / "__init__.py").is_file() \
            or not (ROOT / "samples" / "workload.asm").is_file():
        _fail(f"{ROOT} is not an ifrsim checkout (no src/ifrsim or samples)", 2)
    sys.path.insert(0, str(ROOT / "src"))
    import ifrsim
    if Path(ifrsim.__file__).resolve().parent != ROOT / "src" / "ifrsim":
        _fail(f"imported ifrsim from {ifrsim.__file__}, not from this checkout", 2)
    # Flips lasting past the permanent threshold are sampled on purpose.
    warnings.filterwarnings("ignore", message=r"fault \d+: transient flip")
    import workloads
    return workloads


def _setup_child(args) -> None:
    """Import ifrsim and build the inputs, as the first thing this fresh
    interpreter does after loading NumPy, and print the reference seconds
    that took, timed against this process's own reference clock."""
    with refclock.RefClock() as clock:
        start = perf_counter()
        workload = _import_ifrsim().WORKLOADS[args.workload](args.seed, args.tiny)
        end = perf_counter()
        clock.tick()
    workload.close()
    print(repr(clock.work(start, end)))


def _setup_once(args, clock: refclock.RefClock) -> float:
    """Reference seconds of one set-up in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    with clock.paused():
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if child.returncode != 0:
        _fail(f"set-up process exited {child.returncode}: {child.stderr.strip()[-500:]}", 1)
    return float(child.stdout.split()[-1])


def _environment() -> dict:
    import mpmath
    import numpy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
           "git_commit": None}
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        env["git_commit"] = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ifrsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


class OperationsFailed(Exception):
    """Operations of a pass raised an unexpected error."""


class Passes:
    """Whole passes over a workload's operations."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = [[] for _ in workload.ops]  # reference seconds, one per pass
        self.fastest = math.inf  # raw seconds of the fastest untraced pass
        self.count = self.attempted = self.refused = self.failed = 0
        self.digest = None
        self.outputs = None

    def run(self, clock: refclock.RefClock | None = None, traced: bool = False) -> float:
        """One pass; returns its raw wall time. The first pass is the
        warm-up: it sets the digest every later pass must reproduce. With a
        running `clock`, each operation's reference seconds are recorded.
        Raises OperationsFailed after a pass in which operations raised."""
        outputs, spans = [], []
        begin = perf_counter()
        for op in self.workload.ops:
            start = perf_counter()
            try:
                outputs.append(op())
            except Exception:
                traceback.print_exc()
                self.failed += 1
                outputs.append(None)
            spans.append((start, perf_counter()))
        wall = perf_counter() - begin
        if self.failed:
            self.attempted += len(outputs)
            raise OperationsFailed(f"{self.failed} of {len(outputs)} operations raised")
        digest = self.workload.digest(outputs)
        if self.digest is None:
            self.digest, self.outputs = digest, outputs
            return wall
        if digest != self.digest:
            from workloads import CheckFailed
            raise CheckFailed("a pass gave other outputs than the warm-up pass")
        self.attempted += len(outputs)
        self.refused += sum(map(self.workload.refused, outputs))
        if not traced:
            self.count += 1
            self.fastest = min(self.fastest, wall)
        if clock is not None:
            clock.tick()
            for values, (start, end) in zip(self.latencies, spans):
                values.append(clock.work(start, end))
        return wall


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args, passes: Passes) -> dict:
    setups = []
    with refclock.RefClock(passes.workload.ref_slope) as clock:
        spent = 0.0
        while spent < args.seconds:
            spent += passes.run(clock)
            if len(setups) < SETUP_REPEATS:
                setups.append(_setup_once(args, clock))
        while len(setups) < SETUP_REPEATS:
            setups.append(_setup_once(args, clock))
    kernel_ms = statistics.median(e - s for s, e in zip(clock.starts, clock.ends)) * 1e3
    print(f"refclock median kernel {kernel_ms:.3f} ms, slope {clock.slope}")
    per_op = [statistics.median(values) for values in passes.latencies]
    wall = sum(per_op)
    p95 = statistics.quantiles(per_op, n=20, method="inclusive")[-1] \
        if len(per_op) > 1 else per_op[0]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(wall, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": _metric(1.0 - passes.refused / passes.attempted, "ratio"),
        "op_ms_p50": _metric(statistics.median(per_op) * 1e3, "ms"),
        "op_ms_p95": _metric(p95 * 1e3, "ms"),
    }


_EXTRA = ("q_sum", "solver_failures", "mc_trials", "reference_steps")
_TIMED = ("hw.encode_bus", "hw.parity_check", "hw.switch_route", "hw.trc_compare",
          "faults.apply_faults", "faults.apply_vector_faults", "faults.update_stress",
          "isa.decode_word", "isa.execute_result", "isa.encode_instruction",
          "markov.death_probability")


def _observers(tracer: layertrace.Tracer, extra: dict) -> None:
    """Counts taken from the arguments and results of traced calls."""

    def bracket(args, kwargs, result, exc):
        model = args[0]
        mission_time = args[1] if len(args) > 1 else kwargs["mission_time"]
        extra["q_sum"] += max(model.outgoing_rate(s) for s in model.states) * mission_time
        extra["solver_failures"] += exc is not None

    def monte_carlo(args, kwargs, result, exc):
        extra["mc_trials"] += args[2] if len(args) > 2 else kwargs["trials"]

    def reference(args, kwargs, result, exc):
        extra["reference_steps"] += result[1] if result is not None else 0

    tracer.observe("markov.death_probability", bracket)
    tracer.observe("markov.monte_carlo_death_probability", monte_carlo)
    tracer.observe("isa.run_reference", reference)


def _per_layer(args, passes: Passes, tracer, extra, setup_stats, sim) -> dict:
    """Alternate untraced and traced passes; the per-layer figures come from
    the fastest traced pass."""
    traced = []

    def traced_pass():
        for key in _EXTRA:
            extra[key] = 0
        tracer.install()
        try:
            wall = passes.run(traced=True)
        finally:
            tracer.uninstall()
        traced.append((wall, tracer.reset(), dict(extra)))

    begin = perf_counter()
    while not traced or perf_counter() - begin < args.seconds:
        passes.run()
        traced_pass()
    wall, stats, counts = min(traced, key=lambda t: t[0])
    zero = layertrace.Stat()

    def layer(name: str, field: str = "s", setup: bool = False) -> float:
        value = getattr(stats.get(name, zero), field)
        if setup:
            value += getattr(setup_stats.get(name, zero), field)
        return value

    metrics = {}

    def put(name, value, unit):
        metrics[name] = _metric(value, unit)

    put("pipeline.run_core.calls", layer("pipeline.run_core", "calls"), "count")
    put("pipeline.run_core.s", layer("pipeline.run_core"), "s")
    put("pipeline.self_s", layer("pipeline.run_core", "self_s"), "s")
    put("pipeline.controller_step.calls", layer("pipeline.controller_step", "calls"), "count")
    put("pipeline.controller_step.s", layer("pipeline.controller_step"), "s")
    put("pipeline.cycles", sim.get("cycles", 0), "count")
    committed, cycles = sim.get("committed", 0), sim.get("completed_cycles", 0)
    put("pipeline.ipc", committed / cycles if cycles else 0.0, "instr/cycle")
    put("pipeline.events.permanent", sim.get("permanent", 0), "count")
    put("pipeline.events.transient", sim.get("transient", 0), "count")
    for outcome in ("completed", "golden", "sdc", "dead", "exhausted"):
        put(f"pipeline.outcome.{outcome}", sim.get(outcome, 0), "count")
    for name in _TIMED:
        put(f"{name}.calls", layer(name, "calls"), "count")
        put(f"{name}.s", layer(name), "s")
    put("faults.parse_scenario.s", layer("faults.parse_scenario", setup=True), "s")
    put("isa.run_reference.s", layer("isa.run_reference"), "s")
    put("isa.run_reference.steps", counts["reference_steps"], "count")
    put("isa.assemble.s", layer("isa.assemble", setup=True), "s")
    put("markov.q_sum", counts["q_sum"], "jumps")
    put("markov.solver_failures", counts["solver_failures"], "count")
    put("markov.monte_carlo.calls", layer("markov.monte_carlo_death_probability", "calls"),
        "count")
    put("markov.monte_carlo.s", layer("markov.monte_carlo_death_probability"), "s")
    put("markov.mc_trials", counts["mc_trials"], "count")
    put("markov.parse_model.s", layer("markov.parse_model", setup=True), "s")
    put("formulas.s", sum(s.s for n, s in stats.items() if n.startswith("formulas.")), "s")
    put("report.render.calls", layer("report.render", "calls"), "count")
    put("report.render.s", layer("report.render"), "s")
    put("cli.self_s", layer("cli.main", "self_s"), "s")
    put("trace.overhead_s", wall - passes.fastest, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        _setup_child(args)
        return 0

    workloads = _import_ifrsim()
    tracer = extra = None
    if args.trace:
        tracer, extra = layertrace.Tracer(), {key: 0 for key in _EXTRA}
        _observers(tracer, extra)
        tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_stats = tracer.reset() if tracer is not None else {}

    passes = Passes(workload)
    try:
        passes.run()
        sim = workload.check(passes.outputs)
        if args.trace:
            metrics = _per_layer(args, passes, tracer, extra, setup_stats, sim)
        else:
            metrics = _end_to_end(args, passes)
    except (workloads.CheckFailed, OperationsFailed) as exc:
        what = "output check failed" if isinstance(exc, workloads.CheckFailed) else "run failed"
        print(f"perfbench: {what}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(passes.attempted, 1),
                          "failed": max(passes.failed, 1), "metrics": {}}))
        return 1
    finally:
        workload.close()

    print("env " + json.dumps(_environment(), sort_keys=True))
    print(f"digest {args.workload} {passes.digest}")
    if "classes" in sim:
        print("classes " + json.dumps(sim["classes"], sort_keys=True))
    print(f"samples {len(workload.ops)} operations x {passes.count} timed passes")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": passes.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
