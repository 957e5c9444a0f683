"""Command-line surface: run fault-injection simulations, evaluate the
closed-form redundancy formulas, solve and sweep Markov models, and emit
deterministic plot-ready CSV.

Exit codes: 0 success, 2 input parse/usage error, 3 solver failure,
4 simulation ended Dead, 5 golden-reference mismatch, 6 cycle budget
exhausted.

`markov`, and with it numpy, is imported only by the commands that solve
models (`markov` and `compare`), so `sim` and `formulas` start without it.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys

from . import formulas
from .faults import ScenarioError, TransientFlip, parse_scenario
from .isa import AssemblyError, assemble
from .pipeline import DEFAULT_MAX_CYCLES, CoreConfig, Outcome, matches_reference, run_core
from .report import CsvReport, TOOL_ID, fmt_float

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_DEAD = 4
EXIT_MISMATCH = 5
EXIT_EXHAUSTED = 6

DEFAULT_AUX_RATIO = 1e-3  # lambda_sw = lambda_ctrl = ratio * lambda_p for builtins

# CoreConfig's settings by name, with the type of each default (float or int).
_CONFIG_KEYS = {f.name: type(f.default) for f in dataclasses.fields(CoreConfig)}
_MAX_RANGE_POINTS = 1_000_000  # most rows a formulas range or a sweep may ask for
_MAX_MC_TRIALS = 1_000_000_000  # most Monte Carlo trials, about 20 s of sampling


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _parse_range(spec: str, *, integer: bool = False) -> list:
    """Parse 'lo..hi[:step]' or a single value. Default step spans the range
    in ten increments (or 1 for integer ranges). An integer value, or the
    span of an integer range, must fit in a float. An integer range ends at
    hi exactly, a float range within a rounding slack of 1e-12·|hi| past it."""
    try:
        if ".." not in spec:
            value = int(spec, 0) if integer else float(spec)
            float(value)  # OverflowError for an int past the float range
            return [value]
        body, _, step_text = spec.partition(":")
        lo_text, _, hi_text = body.partition("..")
        if integer:
            lo, hi = int(lo_text, 0), int(hi_text, 0)
            step = int(step_text, 0) if step_text else 1
        else:
            lo, hi = float(lo_text), float(hi_text)
            step = float(step_text) if step_text else (hi - lo) / 10.0
        if not all(map(math.isfinite, (lo, hi, step))):
            raise CliError(f"bad range {spec!r}; lo, hi and step must be finite")
        if step <= 0 or hi < lo:
            raise CliError(f"bad range {spec!r}; need lo <= hi and step > 0")
        spans = (hi - lo) / step
    except OverflowError:
        raise CliError(f"bad range {spec!r}; it reaches past the float range") from None
    except ValueError:
        raise CliError(f"bad range {spec!r}; expected 'lo..hi[:step]' or a value") from None
    if not math.isfinite(spans) or round(spans) >= _MAX_RANGE_POINTS:
        raise CliError(f"bad range {spec!r}; more than {_MAX_RANGE_POINTS:,} points")
    if integer:
        return list(range(lo, hi + 1, step))
    values = []
    for i in range(round(spans) + 1):
        value = lo + i * step
        if value > hi + abs(hi) * 1e-12 + 1e-15:
            break
        values.append(value)
    return values


def _whole_number(value, name: str) -> int:
    """`value` (a number or its text) as an exact int; ValueError unless it is
    whole, so 2.5 is refused, not cut to 2, and `1e3` must be below 2**53."""
    if isinstance(value, (int, str)):
        with contextlib.suppress(ValueError):
            return int(value)  # `16.0` or `1e3` is not integer text
    with contextlib.suppress(ValueError):
        if float(value).is_integer() and abs(float(value)) < 2**53:
            return int(float(value))
    raise ValueError(f"{name} must be a whole number, got {value}")


def _sweep_points(points) -> int:
    """A sweep's POINTS as a whole number within the range limit, checked
    before the grid is built."""
    count = _whole_number(points, "sweep POINTS")
    if count > _MAX_RANGE_POINTS:
        raise CliError(f"sweep POINTS {count:,} is more than {_MAX_RANGE_POINTS:,}")
    return count


def _read(path: str, what: str) -> str:
    """The text of a UTF-8 input file; `what` labels a read error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"{what}: {exc}") from None


def _load_config(args) -> CoreConfig:
    overrides: dict = {}
    if getattr(args, "config", None):
        for lineno, raw in enumerate(_read(args.config, "config").splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise CliError(f"config line {lineno}: expected '<key>=<value>' with key "
                               f"in {', '.join(_CONFIG_KEYS)}")
            if key in overrides:
                raise CliError(f"config line {lineno}: duplicate key {key!r}")
            overrides[key] = value.strip()
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            overrides[key] = flag
    try:
        return CoreConfig(**{key: float(v) if _CONFIG_KEYS[key] is float else _whole_number(v, key)
                             for key, v in overrides.items()})
    except ValueError as exc:
        raise CliError(f"bad configuration: {exc}") from None


def _emit(report: CsvReport, args) -> None:
    try:
        text = report.render()
    except ValueError as exc:
        raise CliError(f"cannot write the report: {exc}") from None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_sim(args) -> int:
    config = _load_config(args)
    if args.max_cycles < 1:
        raise CliError(f"--max-cycles must be at least 1, got {args.max_cycles}")
    try:
        program = assemble(_read(args.program, "program"))
    except AssemblyError as exc:
        raise CliError(f"program: {exc}") from None
    try:
        scenario = parse_scenario(_read(args.scenario, "scenario"))
    except ScenarioError as exc:
        raise CliError(f"scenario: {exc}") from None

    sim = run_core(program, config, scenario, max_cycles=args.max_cycles)
    golden = matches_reference(sim, program) if sim.outcome is Outcome.COMPLETED else None

    report = CsvReport(columns=["fault_id", "class", "stage", "detect_cycle",
                                "swap_complete_cycle", "recovery_cycles", "recovery_us"])
    report.add_meta("tool", TOOL_ID)
    report.add_meta("subcommand", "sim")
    report.add_meta("program", args.program)
    report.add_meta("scenario", args.scenario)
    for key in _CONFIG_KEYS:
        report.add_meta(key, getattr(config, key))
    report.add_meta("max_cycles", args.max_cycles)
    report.add_meta("outcome", sim.outcome.value)
    report.add_meta("total_cycles", sim.total_cycles)
    report.add_meta("golden_match", "na" if golden is None else golden)
    for (kind, copy), stress in sim.stress.blocks.items():
        report.add_meta(f"stress_{kind.value}_{copy.value}",
                        f"on:{stress.on_cycles} off:{stress.off_cycles} "
                        f"powering:{stress.powering_cycles}")
    for event in sim.events:
        cycles = event.recovery_cycles
        report.add_row(event.fault_id, event.classified, event.stage.value,
                       event.detect_cycle, event.swap_complete_cycle, cycles,
                       config.cycles_to_us(cycles) if cycles is not None else None)
    _emit(report, args)

    for event in sim.permanent_events:
        if isinstance(scenario.faults[event.fault_id].kind, TransientFlip):
            print(f"note: fault {event.fault_id}, a flip, was classified permanent: its "
                  f"errors lasted the permanent threshold ({config.permanent_threshold} "
                  "cycles)", file=sys.stderr)
    summary = (f"outcome={sim.outcome.value} cycles={sim.total_cycles} "
               f"events={len(sim.events)} golden="
               f"{'na' if golden is None else str(golden).lower()}")
    print(summary, file=sys.stderr)
    if sim.outcome is Outcome.DEAD:
        return EXIT_DEAD
    if sim.outcome is Outcome.EXHAUSTED:
        return EXIT_EXHAUSTED
    if golden is False:
        return EXIT_MISMATCH
    return EXIT_OK


# Each formulas group: its switches, and the value flags it reads (by dest)
# with their defaults. A value flag of another group is refused, not ignored.
_FORMULA_GROUPS = (
    (("tmr", "standby"), {"component_r": "0..1:0.1"}),
    (("ifr",), {"rb": 0.9, "spares": "0..3"}),
    (("ifr_pipeline",), {"rp": "0.9", "coverage": 1.0, "rsw": 1.0, "rctrl": 1.0}),
    (("availability",), {"mttf": 999.0, "mttr": 1.0}),
    (("exp",), {"rate": 1e-6, "hours": 1000.0}),
)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def cmd_formulas(args) -> int:
    chosen = [flags for switches, flags in _FORMULA_GROUPS
              if any(getattr(args, name) for name in switches)]
    if len(chosen) != 1:
        raise CliError("choose exactly one formula group per invocation: "
                       "--tmr/--standby, --ifr, --ifr-pipeline, --availability, or --exp")
    for switches, flags in _FORMULA_GROUPS:
        for dest, default in flags.items():
            if flags is not chosen[0] and getattr(args, dest) is not None:
                raise CliError(f"{_flag(dest)} applies to {'/'.join(map(_flag, switches))} only")
            if getattr(args, dest) is None:
                setattr(args, dest, default)
    # Each group gives its columns, metadata rows, grid, stderr label (None for
    # the single-row groups, whose errors print bare) and a point -> row cells.
    if args.tmr or args.standby:
        chosen = [(name, fn) for name, fn, on in (("r_tmr", formulas.r_tmr, args.tmr),
                                                  ("r_standby", formulas.r_standby, args.standby))
                  if on]
        columns, meta = ["R"] + [name for name, _ in chosen], [("grid_r", args.component_r)]
        grid, label = _parse_range(args.component_r), "R"
        cells = lambda r: [r] + [fn(r) for _, fn in chosen]
    elif args.ifr:
        columns, meta = ["spares", "r_ifr"], [("rb", fmt_float(args.rb))]
        grid, label = [int(s) for s in _parse_range(args.spares, integer=True)], "s"
        cells = lambda s: [s, formulas.r_ifr(args.rb, s)]
    elif args.ifr_pipeline:
        columns, meta = ["Rp", "coverage", "Rsw", "Rctrl", "r_ifr_pipeline"], []
        grid, label = _parse_range(args.rp), "Rp"
        cells = lambda rp: [rp, args.coverage, args.rsw, args.rctrl,
                            formulas.r_ifr_pipeline(rp, args.coverage, args.rsw, args.rctrl)]
    elif args.availability:
        columns, meta, grid, label = ["mttf", "mttr", "availability"], [], [None], None
        cells = lambda _: [args.mttf, args.mttr, formulas.availability(args.mttf, args.mttr)]
    else:
        columns, meta, grid, label = ["rate", "hours", "reliability"], [], [None], None
        cells = lambda _: [args.rate, args.hours,
                           formulas.reliability_from_rate(args.rate, args.hours)]

    report = CsvReport(columns=columns)
    report.add_meta("tool", TOOL_ID)
    report.add_meta("subcommand", "formulas")
    for key, value in meta:
        report.add_meta(key, value)
    failures = 0
    for point in grid:
        try:
            report.add_row(*cells(point))
        except ValueError as exc:
            failures += 1
            print(exc if label is None else f"{label}={point}: {exc}", file=sys.stderr)
    _emit(report, args)
    return EXIT_PARSE if failures else EXIT_OK


# The builtin models: each one's builder in `markov`, the constant its rate
# defines and whether it reads aux_ratio: ifr-pipeline alone does, taking
# rate times aux_ratio as its switch and controller rates.
_BUILTINS = {
    "simplex": ("build_simplex_model", "lambda", False),
    "tmr": ("build_tmr_model", "lambda", False),
    "standby": ("build_standby_model", "lambda", False),
    "ifr-pipeline": ("build_ifr_pipeline_model", "lambda_p", True),
}


def _builtin(name: str, aux_ratio: float, rate_flag: str):
    """`build(rate) -> model` for a builtin, whose rates come from
    `rate_flag`. The first rate goes through the builder, which checks it
    and parses the chain; every later rate rebuilds the last model with its
    rate constant changed, without parsing again."""
    from . import markov
    if not (math.isfinite(aux_ratio) and aux_ratio > 0):
        raise CliError(f"--aux-ratio must be a positive finite ratio, got {aux_ratio:g}")
    builder, constant, scales_by_aux = _BUILTINS[name]
    make = getattr(markov, builder)
    aux = (aux_ratio, aux_ratio) if scales_by_aux else ()
    model = None

    def build(lam):
        nonlocal model
        # The builder words its own refusal of a rate that is bad by itself.
        if scales_by_aux and 0 < lam < math.inf and not 0 < lam * aux_ratio < math.inf:
            raise CliError(f"{rate_flag} {lam:g} times --aux-ratio {aux_ratio:g} "
                           f"{'overflows' if lam * aux_ratio else 'underflows to 0'}")
        model = make(lam, *aux) if model is None else model.with_constant(constant, lam)
        return model
    return build


def _markov_command(command):
    """Run a command that solves models: import `markov` (and numpy), give
    `--tol` its default, and report a solver refusal as `solver error: `
    with exit 3. The model builders, `SweepSpec` and the solver raise
    ValueError for out-of-range numbers (a negative rate or mission time,
    tol outside (0, 1), a reversed or one-point sweep); report those as
    usage errors."""
    @functools.wraps(command)
    def run(args) -> int:
        from . import markov
        if args.tol is None:
            args.tol = markov.DEFAULT_TOL
        try:
            return command(args)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        except markov.SolverError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    return run


def _markov_source(args, report: CsvReport):
    """Pick the model source and what it varies: returns a `build(value) ->
    model`, the swept column name (None for a model file's single point), the
    name of the constant a value sets (None for a model file's single point),
    and the grid of values, one value for a single point."""
    from . import markov
    if args.aux_ratio is not None and args.builtin != "ifr-pipeline":
        raise CliError("--aux-ratio applies to --builtin ifr-pipeline only")
    if args.builtin:
        if args.sweep_const:
            raise CliError("--sweep-const applies to --model only; --builtin takes "
                           "--lam or --sweep")
        if args.lam is not None and args.sweep:
            raise CliError("--builtin takes --lam or --sweep, not both")
        if args.lam is None and not args.sweep:
            raise CliError("builtin single-point mode needs --lam (or use --sweep)")
        aux_ratio = DEFAULT_AUX_RATIO if args.aux_ratio is None else args.aux_ratio
        report.add_meta("model", args.builtin)
        report.add_meta("aux_ratio", fmt_float(aux_ratio))
        build = _builtin(args.builtin, aux_ratio, "--sweep" if args.sweep else "--lam")
        constant = _BUILTINS[args.builtin][1]
        if args.sweep:
            lo, hi, points = args.sweep
            return build, "lambda", constant, markov.SweepSpec(
                "lambda", lo, hi, _sweep_points(points), args.T).grid()
        return build, "lambda", constant, [args.lam]
    if args.lam is not None or args.sweep:
        raise CliError("--lam and --sweep apply to --builtin only; --model takes "
                       "--sweep-const")
    try:
        model = markov.parse_model(_read(args.model, "model"))
    except markov.ModelError as exc:
        raise CliError(f"model: {exc}") from None
    report.add_meta("model", args.model)
    if args.sweep_const:
        name, lo, hi, points = args.sweep_const
        return (functools.partial(model.with_constant, name), name, name,
                markov.SweepSpec(name, float(lo), float(hi), _sweep_points(points),
                                 args.T).grid())
    return lambda _: model, None, None, [None]


def _solve_grid(build, grid, args, trials=None, constant=None) -> list:
    """The point loop of `markov` and `compare`. At each grid value it builds
    the model once and brackets its death probability; with `trials` it then
    gives the solved points to the Monte Carlo oracle, once the whole grid is
    solved, so a grid refused at a later point costs no trials.

    Where every rate is the swept `constant` times a factor free of it, the
    model at value v dies by T with the probability that the model at the
    largest solved value, v_max, dies by T·v/v_max. Then one oracle run of
    that model serves every solved point, each counting the trials dead by
    its own T·v/v_max. Otherwise each point gets its own run of its own
    model, up to T.

    Returns, per value, the cells lower, upper and width_rel, then
    mc_estimate and mc_ci99 with `trials`; or, where the solver refuses the
    point, its SolverError."""
    from . import markov
    points, sampled = [], []
    for value in grid:
        model = build(value)
        try:
            bracket = markov.death_probability(model, args.T, args.tol)
        except markov.SolverError as exc:
            points.append(exc)
            continue
        points.append([bracket.lower, bracket.upper, bracket.relative_width])
        if trials:
            sampled.append((points[-1], model, value))
    # A model file's single point sets no constant to scale by.
    if sampled and constant is not None and sampled[-1][1].scales_with(constant):
        _, model, top = sampled[-1]
        estimates = markov.monte_carlo_death_probability(
            model, [args.T * (value / top) for _, _, value in sampled], trials, args.seed)
    else:
        estimates = [markov.monte_carlo_death_probability(model, [args.T], trials, args.seed)[0]
                     for _, model, _ in sampled]
    for (cells, _, _), estimate in zip(sampled, estimates):
        cells += [estimate.estimate, estimate.ci99]
    return points


@_markov_command
def cmd_markov(args) -> int:
    from . import markov
    if args.mc is None:
        if args.seed is not None:
            raise CliError("--seed applies to --mc only")
    elif args.mc < 1:
        raise CliError(f"--mc needs at least 1 trial, got {args.mc}")
    elif args.mc > _MAX_MC_TRIALS:
        raise CliError(f"--mc {args.mc:,} is more than {_MAX_MC_TRIALS:,} trials")
    elif args.seed is None:
        args.seed = 0
    elif args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    report = CsvReport(columns=[])
    report.add_meta("tool", TOOL_ID)
    report.add_meta("subcommand", "markov")
    report.add_meta("mission_time_hours", fmt_float(args.T))
    report.add_meta("tol", fmt_float(args.tol))
    mc_cols = ["mc_estimate", "mc_ci99"] if args.mc else []
    if args.mc:
        report.add_meta("mc_trials", args.mc)
        report.add_meta("mc_seed", args.seed)

    build, column, constant, grid = _markov_source(args, report)
    # A sweep has at least 2 points. Only a sweep has the error column; a
    # single point's refusal goes to `main`, which writes no report.
    swept = len(grid) > 1
    head = [] if column is None else [column]
    report.columns = head + ["lower", "upper", "width_rel"] + ["error"] * swept + mc_cols
    status = EXIT_OK
    for value, cells in zip(grid, _solve_grid(build, grid, args, args.mc, constant)):
        lead = [] if column is None else [value]
        if isinstance(cells, markov.SolverError):
            if not swept:
                raise cells
            status = EXIT_SOLVER
            report.add_row(*lead, None, None, None, "solver_failure", *[None] * len(mc_cols))
            print(f"{column}={value}: {cells}", file=sys.stderr)
        else:
            report.add_row(*lead, *cells[:3], *[None] * swept, *cells[3:])
    _emit(report, args)
    return status


@_markov_command
def cmd_compare(args) -> int:
    from . import markov
    lo, hi, points = args.sweep
    grid = markov.SweepSpec("lambda", lo, hi, _sweep_points(points), args.T).grid()
    curves = [_solve_grid(_builtin(name, args.aux_ratio, "--sweep"), grid, args)
              for name in _BUILTINS]

    # Column prefixes: the builtin names up to the first '-' (ifr-pipeline -> ifr).
    report = CsvReport(columns=["lambda"] + [f"{name.partition('-')[0]}_{side}"
                                             for name in _BUILTINS
                                             for side in ("lower", "upper")])
    report.add_meta("tool", TOOL_ID)
    report.add_meta("subcommand", "compare")
    report.add_meta("mission_time_hours", fmt_float(args.T))
    report.add_meta("tol", fmt_float(args.tol))
    report.add_meta("aux_ratio", fmt_float(args.aux_ratio))
    status = EXIT_OK
    for value, *row in zip(grid, *curves):
        cells = [value]
        for name, point in zip(_BUILTINS, row):
            if isinstance(point, markov.SolverError):
                status = EXIT_SOLVER
                cells.extend([None, None])
                print(f"{name} lambda={value}: {point}", file=sys.stderr)
            else:
                cells.extend(point[:2])
        report.add_row(*cells)
    _emit(report, args)
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process. Its defaults
    are immutable, since every `Namespace` it returns shares them."""
    parser = argparse.ArgumentParser(
        prog="ifrsim",
        description="Fault-injectable repairable-core simulator and "
                    "mission-reliability calculators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the CSV report to this path (default stdout)")

    p_sim = sub.add_parser("sim", help="run a program under a fault scenario")
    p_sim.add_argument("program", help="assembly source file")
    p_sim.add_argument("scenario", help="fault scenario file")
    p_sim.add_argument("--config", help="key=value config file overriding core defaults")
    for key, kind in _CONFIG_KEYS.items():
        p_sim.add_argument(_flag(key), type=kind)
    p_sim.add_argument("--max-cycles", dest="max_cycles", type=int, default=DEFAULT_MAX_CYCLES)
    common(p_sim)
    p_sim.set_defaults(func=cmd_sim)

    p_form = sub.add_parser("formulas", help="tabulate the closed-form redundancy formulas")
    p_form.add_argument("--tmr", action="store_true", help="TMR reliability over the R grid")
    p_form.add_argument("--standby", action="store_true", help="standby reliability over the R grid")
    p_form.add_argument("-R", "--component-r",
                        help="component reliability grid 'lo..hi[:step]' (default 0..1:0.1)")
    p_form.add_argument("--ifr", action="store_true", help="cold-spare reliability over a spare-count range")
    p_form.add_argument("--rb", type=float, help="block reliability for --ifr")
    p_form.add_argument("-s", "--spares", help="spare count range for --ifr")
    p_form.add_argument("--ifr-pipeline", action="store_true", dest="ifr_pipeline")
    p_form.add_argument("--rp", help="stage reliability (value or range) for --ifr-pipeline")
    p_form.add_argument("--coverage", type=float)
    p_form.add_argument("--rsw", type=float)
    p_form.add_argument("--rctrl", type=float)
    p_form.add_argument("--availability", action="store_true")
    p_form.add_argument("--mttf", type=float)
    p_form.add_argument("--mttr", type=float)
    p_form.add_argument("--exp", action="store_true",
                        help="constant-rate survival probability exp(-rate*hours)")
    p_form.add_argument("--rate", type=float, help="failures per hour for --exp")
    p_form.add_argument("--hours", type=float, help="mission time for --exp")
    common(p_form)
    p_form.set_defaults(func=cmd_formulas)

    p_markov = sub.add_parser("markov", help="solve or sweep a dependability model")
    src = p_markov.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=list(_BUILTINS))
    src.add_argument("--model", help="model description file")
    p_markov.add_argument("--lam", type=float, help="failure rate per hour for builtin models")
    p_markov.add_argument("--sweep", nargs=3, type=float, metavar=("LO", "HI", "POINTS"),
                          help="log-spaced rate sweep for builtin models")
    p_markov.add_argument("--sweep-const", nargs=4, metavar=("NAME", "LO", "HI", "POINTS"),
                          help="sweep a named constant of a model file")
    p_markov.add_argument("--T", type=float, default=1000.0, help="mission time in hours")
    # --tol's default, markov.DEFAULT_TOL, is set when the command runs.
    p_markov.add_argument("--tol", type=float,
                          help="relative bound width target (default 0.05)")
    p_markov.add_argument("--aux-ratio", dest="aux_ratio", type=float,
                          help="switch/controller failure rate as a fraction of the stage "
                               "rate for --builtin ifr-pipeline (default "
                               f"{DEFAULT_AUX_RATIO:g})")
    p_markov.add_argument("--mc", type=int, help="append a Monte Carlo oracle column with "
                                                 "this many trials")
    p_markov.add_argument("--seed", type=int,
                          help="Monte Carlo seed for --mc (default 0)")
    common(p_markov)
    p_markov.set_defaults(func=cmd_markov)

    p_cmp = sub.add_parser("compare", help="side-by-side failure-probability bounds for "
                                           "simplex, TMR, standby, and the repairable pipeline")
    p_cmp.add_argument("--sweep", nargs=3, type=float, metavar=("LO", "HI", "POINTS"),
                       default=(1e-6, 1e-2, 25))
    p_cmp.add_argument("--T", type=float, default=1000.0)
    p_cmp.add_argument("--tol", type=float)
    p_cmp.add_argument("--aux-ratio", dest="aux_ratio", type=float, default=DEFAULT_AUX_RATIO)
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
