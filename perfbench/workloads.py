"""The benchmark's four workloads.

Each workload class builds its inputs from the seed in `__init__`:
generated text parsed by ifrsim's own `assemble`, `parse_scenario` and
`parse_model`. That is the part timed as `setup_s`. It then offers:

* `ops`: one zero-argument callable per operation; a pass calls each once
  and keeps its output;
* `refused(output)`: whether the program declined the operation (a
  `SolverError`) rather than answer it;
* `digest(outputs)`: the determinism digest of one pass;
* `check(outputs)`: raises `CheckFailed` on a wrong output and returns the
  exact simulator counts of one pass;
* `close()`: removes what the workload wrote;
* `ref_slope`: the slope of the reference clock its times are scaled by
  (see refclock.py).

ifrsim is reached only through module attributes at call time
(`pipeline.run_core`, `cli.main`, ...), so the tracer's wrappers see every
call.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from functools import partial
from pathlib import Path

import gen
from ifrsim import cli, faults, formulas, hw, isa, markov, pipeline

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = Path(__file__).resolve().parent / "_out"

MISSION_T = 1000.0  # hours


class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sim_stats(report) -> dict:
    """The simulated statistics a speed-only change must leave unchanged."""
    return {
        "outcome": report.outcome.value,
        "total_cycles": report.total_cycles,
        "events": [(e.fault_id, e.stage.value, e.classified, e.detect_cycle, e.end_cycle,
                    e.swap_complete_cycle, e.resume_cycle, e.refill_cycles)
                   for e in report.events],
        "stress": {f"{k.value}.{c.value}": (s.on_cycles, s.off_cycles, s.powering_cycles)
                   for (k, c), s in report.stress.blocks.items()},
        "final_power": {f"{k.value}.{c.value}": p.value
                        for (k, c), p in report.final_power.items()},
    }


def _golden(program, report) -> tuple[bool, int]:
    """A completed run equals the reference interpreter run for at most
    `total_cycles` steps: every committed instruction takes a cycle."""
    ref_state, steps = isa.run_reference(program, report.total_cycles)
    return ref_state.halted and report.final_state == ref_state, steps


def _core_stats(reports_golden) -> dict:
    """Exact per-pass simulator counts for the traced run."""
    stats = {"cycles": 0, "committed": 0, "completed_cycles": 0, "permanent": 0,
             "transient": 0, "completed": 0, "golden": 0, "sdc": 0, "dead": 0,
             "exhausted": 0}
    for report, golden, steps in reports_golden:
        stats["cycles"] += report.total_cycles
        stats["permanent"] += sum(e.classified == "permanent" for e in report.events)
        stats["transient"] += sum(e.classified == "transient" for e in report.events)
        if report.outcome is pipeline.Outcome.COMPLETED:
            stats["completed"] += 1
            stats["golden" if golden else "sdc"] += 1
            if golden:
                stats["committed"] += steps
                stats["completed_cycles"] += report.total_cycles
        else:
            stats[report.outcome.value] += 1
    return stats


class Workload:
    name: str
    ops: list
    ref_slope = 1.0

    def refused(self, output) -> bool:
        return False

    def close(self) -> None:
        pass


class CoreLong(Workload):
    """A few long loop kernels, each run fault-free and with an early
    permanent single-bit stuck-at on one stage's main copy."""

    name = "core-long"

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        shape = (6, 3, 2) if tiny else (16, 16, 8)
        self.config = pipeline.CoreConfig()
        fault_free = faults.parse_scenario("")
        self.runs = []  # (program, scenario, faulted stage or None)
        for _ in range(1 if tiny else 3):
            program = isa.assemble(gen.loop_program(rng, *shape))
            stage = rng.choice(("predecode", "decode", "execute"))
            if stage == "predecode":
                # Only (bit, value) pairs that some loop instruction word
                # disagrees with; the prologue and HALT are fetched once.
                words = [isa.encode_instruction(i) for i in program.instructions[4:-1]]
                exposed = [(bit, value) for bit in range(36) for value in (0, 1)
                           if any(_bus_bit(w, bit) != value for w in words)]
                bit, value = rng.choice(exposed)
            else:
                bit, value = rng.randrange(32), rng.randrange(2)
            line = f"@{rng.randrange(1, 31)} PERM {stage}.main stuckat {bit} {value}"
            self.runs.append((program, fault_free, None))
            self.runs.append((program, faults.parse_scenario(line), stage))
        self.ops = [partial(self._run, program, scenario) for program, scenario, _ in self.runs]

    def _run(self, program, scenario):
        return pipeline.run_core(program, self.config, scenario)

    def digest(self, outputs) -> str:
        return _digest([_sim_stats(r) for r in outputs])

    def check(self, outputs) -> dict:
        checked = []
        for (program, _, stage), report in zip(self.runs, outputs):
            _require(report.outcome is pipeline.Outcome.COMPLETED,
                     f"core-long run ended {report.outcome.value}")
            golden, steps = _golden(program, report)
            _require(golden, "core-long run differs from the reference interpreter")
            permanent = [e.stage.value for e in report.permanent_events]
            if stage is None:
                _require(not report.events, "fault-free core-long run recorded events")
            else:
                _require(permanent == [stage],
                         f"stuck-at on {stage} gave permanent events {permanent}")
            checked.append((report, golden, steps))
        return _core_stats(checked)


def _bus_bit(word: int, bit: int) -> int:
    if bit < hw.BUS_DATA_BITS:
        return (word >> bit) & 1
    return (hw.parity_encode(word) >> (bit - hw.BUS_DATA_BITS)) & 1


class FaultCampaign(Workload):
    """Many short single-fault runs over `samples/workload.asm` and a few
    generated loop kernels; each operation is one `run_core` plus, when the
    run completes, its golden check against `run_reference`."""

    name = "fault-campaign"

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        self.config = pipeline.CoreConfig()
        sources = [((ROOT / "samples" / "workload.asm").read_text(), 1 if tiny else 8)]
        for _ in range(1 if tiny else 3):
            sources.append((gen.loop_program(rng, 8, 4, 2), 1 if tiny else 3))
        self.runs = []  # (program, cycle budget, kind, scenario)
        for text, per_stratum in sources:
            program = isa.assemble(text)
            _, steps = isa.run_reference(program, pipeline.DEFAULT_MAX_CYCLES)
            # Fault-free runs take under 2 cycles per instruction and a swap
            # about 100 cycles; the budget ends runs a corrupted branch traps.
            budget = 3 * steps + 300
            for kind, line in gen.campaign_sites(rng, per_stratum, steps):
                self.runs.append((program, budget, kind, faults.parse_scenario(line)))
        self.ops = [partial(self._run, program, budget, scenario)
                    for program, budget, _, scenario in self.runs]

    def _run(self, program, budget, scenario):
        report = pipeline.run_core(program, self.config, scenario, max_cycles=budget)
        if report.outcome is pipeline.Outcome.COMPLETED:
            return (report, *_golden(program, report))
        return report, False, 0

    def _histogram(self, outputs) -> dict:
        hist: dict = {}
        for (_, _, kind, _), (report, golden, _) in zip(self.runs, outputs):
            outcome = report.outcome.value
            label = ("golden" if golden else "sdc") if outcome == "completed" else outcome
            hist[f"{kind}.{label}"] = hist.get(f"{kind}.{label}", 0) + 1
        return hist

    def digest(self, outputs) -> str:
        return _digest({"runs": [_sim_stats(r) for r, _, _ in outputs],
                        "classes": self._histogram(outputs)})

    def check(self, outputs) -> dict:
        for (_, _, kind, scenario), (report, golden, _) in zip(self.runs, outputs):
            # A single-bit stuck-at or flip always breaks byte parity, so the
            # core must stall it out; only delay faults may corrupt silently.
            if kind != "delay" and report.outcome is pipeline.Outcome.COMPLETED:
                fault = scenario.faults[0]
                _require(golden, f"{kind} fault {fault} completed with a state "
                                 "that differs from the reference interpreter")
        stats = _core_stats(outputs)
        stats["classes"] = self._histogram(outputs)
        return stats


class MarkovStiff(Workload):
    """3-state repair chains with the repair rate mu over the decades
    1..1e3 per hour plus the in-field swap rate (85 cycles at 100 MHz),
    each solved once by `death_probability` with no Monte Carlo."""

    name = "markov-stiff"
    MU_DECADES = (1.0, 10.0, 100.0, 1e3, 4.2e9)

    def __init__(self, seed: int, tiny: bool):
        # The seed draws the failure rate only: the series length follows
        # the repair rate, so fixed decades keep the work equal across seeds.
        lam = 10 ** random.Random(seed).uniform(-4, -3)
        decades = (1.0, 1e3) if tiny else self.MU_DECADES
        self.models = [markov.parse_model(gen.repair_chain(lam, mu)) for mu in decades]
        self.ops = [partial(self._solve, model) for model in self.models]

    @staticmethod
    def _solve(model):
        try:
            bracket = markov.death_probability(model, MISSION_T)
        except markov.SolverError:
            return None
        return bracket.lower, bracket.upper

    def refused(self, output) -> bool:
        return output is None

    def digest(self, outputs) -> str:
        return _digest([None if b is None else [b[0].hex(), b[1].hex()] for b in outputs])

    def check(self, outputs) -> dict:
        for model, bracket in zip(self.models, outputs):
            if bracket is None:
                continue  # the solver refused rather than return a loose bracket
            exact = _expm_death_probability(model, MISSION_T)
            lower, upper = bracket
            _require(lower <= exact <= upper,
                     f"bracket [{lower!r}, {upper!r}] misses the mpmath value {exact!r} "
                     f"(mu={model.constants['mu']!r})")
            _require(upper - lower <= markov.DEFAULT_TOL * upper * (1 + 1e-9),
                     f"bracket [{lower!r}, {upper!r}] is wider than tol")
        return {}


def _expm_death_probability(model, mission_time: float) -> float:
    """Death probability from a 50-digit `mpmath.expm` of Q*T."""
    import mpmath

    with mpmath.workdps(50):
        index = {s: i for i, s in enumerate(model.states)}
        q = mpmath.zeros(len(model.states))
        for tr in model.transitions:
            rate = mpmath.mpf(tr.rate)
            q[index[tr.source], index[tr.target]] += rate
            q[index[tr.source], index[tr.source]] -= rate
        p = mpmath.expm(q * mission_time)
        row = index[model.initial]
        return float(sum(p[row, index[d]] for d in model.death_states))


class MarkovOracle(Workload):
    """In-process `cli.main` calls: `compare`, `markov --builtin` sweeps with
    Monte Carlo columns for all four builtins, a constant sweep of
    `samples/twostate.model`, and one `formulas` table; each writes its CSV
    under the benchmark's scratch directory."""

    name = "markov-oracle"
    BUILTINS = ("simplex", "tmr", "standby", "ifr-pipeline")
    # Fitted over 150 s of passes while the kernel moved between 1.2 and
    # 2.1 ms: pass time followed the mean kernel time at a slope of 0.78,
    # and of the slopes 0.5, 0.6, 0.75 and 1 scaling at 0.75 left the
    # smallest pass-to-pass spread.
    ref_slope = 0.75

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        # A narrow rate range keeps the Monte Carlo work, which grows with
        # the number of transitions a trial takes, equal across seeds.
        self.lo = 3e-5 * rng.uniform(0.98, 1.02)
        self.hi = self.lo * 100
        lo, hi = repr(self.lo), repr(self.hi)
        mc_seed = str(rng.randrange(2 ** 31))
        trials = "20000" if tiny else "500000"
        SCRATCH.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="oracle-", dir=SCRATCH))
        self.calls = []  # (argv, csv path, sweep points)

        def call(label, points, *argv):
            path = self.scratch / f"{label}.csv"
            self.calls.append(([*argv, "--out", str(path)], path, points))

        call("compare", 9, "compare", "--sweep", lo, hi, "9", "--T", repr(MISSION_T))
        for name in self.BUILTINS:
            call(name, 3, "markov", "--builtin", name, "--sweep", lo, hi, "3",
                 "--T", repr(MISSION_T), "--mc", trials, "--seed", mc_seed)
        # Relative, so the path the CSV records does not depend on the checkout.
        model = os.path.relpath(ROOT / "samples" / "twostate.model")
        call("twostate", 5, "markov", "--model", model,
             "--sweep-const", "lambda", lo, hi, "5", "--T", repr(MISSION_T))
        call("formulas", None, "formulas", "--tmr", "--standby", "-R", "0..1:0.001")
        self.ops = [partial(self._call, argv, path) for argv, path, _ in self.calls]

    @staticmethod
    def _call(argv, path):
        return cli.main(argv), path.read_bytes()

    def digest(self, outputs) -> str:
        return hashlib.sha256(b"".join(data for _, data in outputs)).hexdigest()

    def check(self, outputs) -> dict:
        closed = {
            "simplex": lambda lam: 1.0 - formulas.reliability_from_rate(lam, MISSION_T),
            "tmr": lambda lam: 1.0 - formulas.r_tmr(math.exp(-lam * MISSION_T)),
            "standby": lambda lam: 1.0 - formulas.r_standby(math.exp(-lam * MISSION_T)),
        }
        closed["twostate"] = closed["simplex"]  # lambda on a single up -> dead edge
        for (argv, path, points), (code, data) in zip(self.calls, outputs):
            _require(code == 0, f"ifrsim {' '.join(argv)} exited {code}")
            rows = [row for row in csv.DictReader(
                line for line in io.StringIO(data.decode()) if not line.startswith("#"))]
            label = path.stem
            if label == "formulas":
                for row in rows:
                    r = float(row["R"])
                    _require(math.isclose(float(row["r_tmr"]), 3 * r * r - 2 * r ** 3,
                                          rel_tol=1e-8, abs_tol=1e-12), f"r_tmr({r})")
                    _require(math.isclose(float(row["r_standby"]), 2 * r - r * r,
                                          rel_tol=1e-8, abs_tol=1e-12), f"r_standby({r})")
                continue
            # The CSV rounds lambda to 9 digits; take the exact grid value.
            grid = markov.SweepSpec("lambda", self.lo, self.hi, points, MISSION_T).grid()
            _require(len(rows) == points, f"{label}: {len(rows)} rows for {points} points")
            for row, lam in zip(rows, grid):
                _require(math.isclose(float(row["lambda"]), lam, rel_tol=1e-8),
                         f"{label}: lambda column {row['lambda']} is not {lam!r}")
                if label == "compare":
                    for name in ("simplex", "tmr", "standby"):
                        _check_contains(float(row[f"{name}_lower"]),
                                        float(row[f"{name}_upper"]), closed[name](lam),
                                        f"compare {name} at lambda={lam}")
                    continue
                lower, upper = float(row["lower"]), float(row["upper"])
                if label in closed:
                    _check_contains(lower, upper, closed[label](lam), f"{label} at lambda={lam}")
                if "mc_estimate" in row:
                    estimate, ci99 = float(row["mc_estimate"]), float(row["mc_ci99"])
                    gap = max(lower - estimate, estimate - upper, 0.0)
                    # Twice the 99% half-width: about 5 sigma, so a correct
                    # oracle misses by chance about once in 4 million points.
                    _require(gap <= 2 * ci99 + 1e-8 * upper,
                             f"{label} Monte Carlo {estimate} +- {ci99} misses "
                             f"[{lower}, {upper}] at lambda={lam}")
        return {}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def _check_contains(lower: float, upper: float, exact: float, what: str) -> None:
    # The CSV keeps 9 significant digits, so allow half a unit in the last one.
    slack = 5e-9 * max(abs(lower), abs(upper))
    _require(lower - slack <= exact <= upper + slack,
             f"{what}: [{lower}, {upper}] misses the closed form {exact}")


WORKLOADS = {cls.name: cls for cls in (CoreLong, FaultCampaign, MarkovStiff, MarkovOracle)}
