"""Mission-reliability analysis on rate-labelled Markov dependability models.

A model is a set of named states with exponential transitions into absorbing
death states. The transient solver returns a certified [lower, upper] bracket
on the probability of having entered any death state by the mission time,
computed by uniformising the chain and truncating the Poisson-weighted jump
series: every truncated term is non-negative and the death probability of the
embedded jump chain is non-decreasing, so the tail mass yields rigorous
two-sided bounds which are tightened until the requested relative width is
met. A trajectory-sampling Monte Carlo estimator serves as an independent
oracle for the solver.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 0.05
WIDTH_FLOOR = 1e-12
MAX_SERIES_TERMS = 200_000
# Monte Carlo trials per chunk, which bounds the oracle's memory. A run of at
# most this many trials is one chunk; the pinned 20,000-trial draws need that.
MC_CHUNK = 32_768
# Bounds are nudged outward by a hair so that an analytic value computed with
# a different floating-point evaluation order still falls inside the bracket.
_FP_REL = 1e-12
_FP_ABS = 1e-15


class ModelError(ValueError):
    """Raised for malformed or invalid model descriptions."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SolverError(RuntimeError):
    """Raised when the bound width target cannot be met within the budget."""


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    rate: float
    expr: tuple  # AST, kept so a model can be rebuilt with a constant changed


@dataclass(frozen=True)
class MarkovModel:
    states: tuple[str, ...]
    initial: str
    death_states: frozenset
    transitions: tuple[Transition, ...]
    constants: dict = field(default_factory=dict)  # name -> value
    definitions: dict = field(default_factory=dict)  # name -> defining AST

    def __post_init__(self):
        if not self.states:
            raise ModelError("model has no states")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate state names")
        known = set(self.states)
        if self.initial not in known:
            raise ModelError(f"initial state {self.initial!r} is not declared")
        if self.initial in self.death_states:
            raise ModelError("initial state may not be a death state")
        for dead in self.death_states:
            if dead not in known:
                raise ModelError(f"death state {dead!r} is not declared")
        for tr in self.transitions:
            if tr.source not in known or tr.target not in known:
                raise ModelError(f"transition {tr.source}->{tr.target} uses an unknown state")
            if tr.source in self.death_states:
                raise ModelError(f"death state {tr.source!r} has an outgoing transition")
            if not math.isfinite(tr.rate) or tr.rate <= 0:
                raise ModelError(f"transition {tr.source}->{tr.target} has non-positive rate {tr.rate}")
        reached = {self.initial}
        frontier = [self.initial]
        adjacency: dict = {}
        for tr in self.transitions:
            adjacency.setdefault(tr.source, []).append(tr.target)
        while frontier:
            for nxt in adjacency.get(frontier.pop(), []):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        unreachable = [s for s in self.states if s not in reached]
        if unreachable:
            raise ModelError(f"unreachable state(s): {', '.join(unreachable)}")

    def outgoing_rate(self, state: str) -> float:
        return sum(tr.rate for tr in self.transitions if tr.source == state)

    def with_constant(self, name: str, value: float) -> "MarkovModel":
        """Rebuild the model with `name` defined as `value`; the constants
        defined from it and every rate are re-evaluated (used by sweeps)."""
        if name not in self.constants:
            raise ModelError(f"unknown constant {name!r}")
        # A model built without definitions keeps its other constants' values.
        definitions = {cname: self.definitions.get(cname, ("num", v))
                       for cname, v in self.constants.items()}
        definitions[name] = ("num", float(value))
        return _model(self.states, self.initial, self.death_states,
                      [(tr.source, tr.target, tr.expr) for tr in self.transitions],
                      definitions)


@dataclass(frozen=True)
class BoundedProbability:
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")

    @property
    def relative_width(self) -> float:
        if self.upper == 0.0:
            return 0.0
        return (self.upper - self.lower) / self.upper


@dataclass(frozen=True)
class SweepSpec:
    constant: str
    lo: float
    hi: float
    points: int
    mission_time: float
    tol: float = DEFAULT_TOL
    _grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError(f"sweep range must satisfy 0 < lo < hi, got {self.constant} "
                             f"from {self.lo:g} to {self.hi:g}")
        if self.points < 2:
            raise ValueError("sweep needs at least 2 points")
        if self.mission_time < 0:
            raise ValueError("mission time must be non-negative")
        ratio = self.hi / self.lo  # infinite for an infinite hi, too
        if not math.isfinite(ratio):
            raise ValueError(f"sweep range must be finite, got {self.constant} from "
                             f"{self.lo:g} to {self.hi:g}")
        grid = tuple(self.lo * ratio ** (i / (self.points - 1)) for i in range(self.points))
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"sweep points must be strictly increasing in {self.constant}")
        object.__setattr__(self, "_grid", grid)

    def grid(self) -> tuple[float, ...]:
        return self._grid


@dataclass(frozen=True)
class CurvePoint:
    lam: float
    lower: float
    upper: float
    error: str | None = None


# ---------------------------------------------------------------------------
# Model description language
# ---------------------------------------------------------------------------
#   CONST <name> = <value>;
#   STATE <name> [DEATH];
#   INIT <name>;
#   <from> -> <to> : <rate-expr>;
# Rate expressions combine constants and numeric literals with + and *
# (parentheses allowed). `#` starts a comment.

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                       r"|(?P<name>[A-Za-z_]\w*)"
                       r"|(?P<arrow>->)"
                       r"|(?P<sym>[=;:+*()]))")


def _tokenize(text: str):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            match = _TOKEN_RE.match(line, pos)
            if match is None:
                if line[pos:].strip():
                    raise ModelError(f"unexpected character {line[pos:].strip()[0]!r}",
                                     lineno, pos + 1)
                break
            kind = match.lastgroup
            tokens.append((kind, match.group(kind), lineno, match.start(kind) + 1))
            pos = match.end()
    return tokens


def _eval_expr(expr: tuple, definitions: dict, values: dict, trail: tuple = ()) -> float:
    """Evaluate an expression AST. A constant is evaluated from its entry in
    `definitions` on first use and kept in `values`; `trail` holds the
    constants whose definitions are being evaluated, to catch a cycle."""
    op = expr[0]
    if op == "num":
        return expr[1]
    if op == "const":
        name = expr[1]
        if name not in values:
            if name in trail:
                raise ModelError(f"constant {name!r} is defined in terms of itself")
            if name not in definitions:
                raise ModelError(f"unknown constant {name!r}")
            values[name] = _eval_expr(definitions[name], definitions, values, trail + (name,))
        return values[name]
    if op == "+":
        return (_eval_expr(expr[1], definitions, values, trail)
                + _eval_expr(expr[2], definitions, values, trail))
    if op == "*":
        return (_eval_expr(expr[1], definitions, values, trail)
                * _eval_expr(expr[2], definitions, values, trail))
    raise AssertionError(expr)


def _model(states, initial: str, death, transitions, definitions: dict) -> MarkovModel:
    """Build a validated model from `(source, target, rate-expr)` transitions
    and each constant's defining expression: the constants are evaluated in
    definition order, then the rates."""
    values: dict = {}
    for cname in definitions:
        _eval_expr(("const", cname), definitions, values)
    return MarkovModel(tuple(states), initial, frozenset(death),
                       tuple(Transition(src, dst, _eval_expr(expr, definitions, values), expr)
                             for src, dst, expr in transitions),
                       values, definitions)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None, value: str | None = None):
        token = self.peek()
        if token is None:
            raise ModelError("unexpected end of input")
        if (kind and token[0] != kind) or (value and token[1] != value):
            raise ModelError(f"expected {value or kind}, got {token[1]!r}", token[2], token[3])
        self.pos += 1
        return token

    def parse_expr(self) -> tuple:
        left = self.parse_term()
        while self.peek() and self.peek()[1] == "+":
            self.take()
            left = ("+", left, self.parse_term())
        return left

    def parse_term(self) -> tuple:
        left = self.parse_atom()
        while self.peek() and self.peek()[1] == "*":
            self.take()
            left = ("*", left, self.parse_atom())
        return left

    def parse_atom(self) -> tuple:
        token = self.peek()
        if token is None:
            raise ModelError("unexpected end of rate expression")
        if token[0] == "num":
            self.take()
            return ("num", float(token[1]))
        if token[0] == "name":
            self.take()
            return ("const", token[1])
        if token[1] == "(":
            self.take()
            inner = self.parse_expr()
            self.take(value=")")
            return inner
        raise ModelError(f"unexpected token {token[1]!r} in rate expression",
                         token[2], token[3])


def parse_model(text: str) -> MarkovModel:
    """Parse and validate a model description. Declarations may appear in any
    order; constants are resolved after the whole text is read."""
    parser = _Parser(text)
    definitions: dict = {}
    states: list[str] = []
    death: set = set()
    initial: str | None = None
    raw_transitions: list[tuple] = []

    while parser.peek() is not None:
        token = parser.peek()
        if token[0] == "name" and token[1] == "CONST":
            parser.take()
            cname = parser.take("name")
            parser.take(value="=")
            expr = parser.parse_expr()
            parser.take(value=";")
            if cname[1] in definitions:
                raise ModelError(f"duplicate constant {cname[1]!r}", cname[2], cname[3])
            definitions[cname[1]] = expr
        elif token[0] == "name" and token[1] == "STATE":
            parser.take()
            sname = parser.take("name")
            if sname[1] in states:
                raise ModelError(f"duplicate state {sname[1]!r}", sname[2], sname[3])
            states.append(sname[1])
            nxt = parser.peek()
            if nxt and nxt[0] == "name" and nxt[1] == "DEATH":
                parser.take()
                death.add(sname[1])
            parser.take(value=";")
        elif token[0] == "name" and token[1] == "INIT":
            parser.take()
            iname = parser.take("name")
            parser.take(value=";")
            if initial is not None:
                raise ModelError("INIT declared twice", iname[2], iname[3])
            initial = iname[1]
        elif token[0] == "name":
            source = parser.take("name")
            parser.take("arrow")
            target = parser.take("name")
            parser.take(value=":")
            expr = parser.parse_expr()
            parser.take(value=";")
            raw_transitions.append((source[1], target[1], expr))
        else:
            raise ModelError(f"unexpected token {token[1]!r}", token[2], token[3])

    if initial is None:
        raise ModelError("model has no INIT declaration")

    return _model(states, initial, death, raw_transitions, definitions)


# ---------------------------------------------------------------------------
# Prebuilt models
# ---------------------------------------------------------------------------

def _require_rate(name: str, value: float) -> float:
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite rate")
    return float(value)


_LAMBDA = ("const", "lambda")


def _builtin(name, states, initial, death, transitions, constants, expected_outgoing):
    model = _model(states, initial, death, transitions,
                   {cname: ("num", value) for cname, value in constants.items()})
    # Rate conservation: every operational state's outgoing rates must sum to
    # the combined failure rate of the components that can still fail there.
    for state, expected in expected_outgoing.items():
        got = model.outgoing_rate(state)
        if not math.isclose(got, expected, rel_tol=1e-12):
            raise AssertionError(f"{name}: outgoing rate of {state} is {got}, expected {expected}")
    return model


def build_simplex_model(lam: float) -> MarkovModel:
    """Single core: up -> dead at the core failure rate."""
    lam = _require_rate("lambda", lam)
    return _builtin("simplex", ("up", "dead"), "up", {"dead"},
                    [("up", "dead", _LAMBDA)],
                    {"lambda": lam}, {"up": lam})


def build_tmr_model(lam: float) -> MarkovModel:
    """Triple modular redundancy with perfect voting: the system dies when the
    second of three copies fails (majority lost)."""
    lam = _require_rate("lambda", lam)
    return _builtin("tmr", ("3up", "2up", "dead"), "3up", {"dead"},
                    [("3up", "2up", ("*", ("num", 3.0), _LAMBDA)),
                     ("2up", "dead", ("*", ("num", 2.0), _LAMBDA))],
                    {"lambda": lam}, {"3up": 3 * lam, "2up": 2 * lam})


def build_standby_model(lam: float) -> MarkovModel:
    """Two-component standby pair with perfect detection and switching. Both
    components carry the failure rate while unfailed, matching the two-unit
    closed form whose complement is (1 - exp(-lam*T))^2."""
    lam = _require_rate("lambda", lam)
    return _builtin("standby", ("2up", "1up", "dead"), "2up", {"dead"},
                    [("2up", "1up", ("*", ("num", 2.0), _LAMBDA)),
                     ("1up", "dead", _LAMBDA)],
                    {"lambda": lam}, {"2up": 2 * lam, "1up": lam})


def build_ifr_pipeline_model(lambda_p: float, lambda_sw: float,
                             lambda_ctrl: float) -> MarkovModel:
    """Repairable pipeline: state 1 has everything operational, state 2 runs
    on the spare stage set, and the switch boxes or controller failing from
    either state is immediately fatal. The outgoing rate from each operational
    state equals the summed failure rates of its unfailed components."""
    lp = _require_rate("lambda_p", lambda_p)
    lsw = _require_rate("lambda_sw", lambda_sw)
    lc = _require_rate("lambda_ctrl", lambda_ctrl)
    e_p, e_sw, e_c = ("const", "lambda_p"), ("const", "lambda_sw"), ("const", "lambda_ctrl")
    transitions = [
        ("all_up", "on_spare", e_p),
        ("all_up", "dead_switch", e_sw),
        ("all_up", "dead_ctrl", e_c),
        ("on_spare", "dead_pipeline", e_p),
        ("on_spare", "dead_switch", e_sw),
        ("on_spare", "dead_ctrl", e_c),
    ]
    total = lp + lsw + lc
    return _builtin("ifr_pipeline",
                    ("all_up", "on_spare", "dead_pipeline", "dead_switch", "dead_ctrl"),
                    "all_up", {"dead_pipeline", "dead_switch", "dead_ctrl"},
                    transitions,
                    {"lambda_p": lp, "lambda_sw": lsw, "lambda_ctrl": lc},
                    {"all_up": total, "on_spare": total})


# ---------------------------------------------------------------------------
# Transient bound solver
# ---------------------------------------------------------------------------

def death_probability(model: MarkovModel, mission_time: float,
                      tol: float = DEFAULT_TOL) -> BoundedProbability:
    """Certified bracket on the probability of having entered any death state
    by the mission time.

    Deterministic: no sampling is involved. Raises SolverError if the
    requested relative width cannot be reached within MAX_SERIES_TERMS
    series terms, or by the outwardly rounded bracket at all, or if the
    uniformization rate times the mission time overflows (the answer is
    never silently loosened).
    """
    if mission_time < 0 or not math.isfinite(mission_time):
        raise ValueError("mission time must be non-negative and finite")
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")

    index = {s: i for i, s in enumerate(model.states)}
    n = len(model.states)
    rates = np.zeros((n, n))
    for tr in model.transitions:
        rates[index[tr.source], index[tr.target]] += tr.rate
    out = rates.sum(axis=1)
    lam_max = float(out.max())
    if mission_time == 0.0 or lam_max == 0.0:
        return BoundedProbability(0.0, 0.0)
    death = np.array([s in model.death_states for s in model.states], dtype=float)

    jump = rates / lam_max
    np.fill_diagonal(jump, np.diagonal(jump) + 1.0 - out / lam_max)

    q = lam_max * mission_time
    if not math.isfinite(q):
        raise SolverError(f"uniformization rate*T = {q:.3g} is not finite")
    use_log_weights = q > 700.0

    def weight(k: int, prev: float) -> float:
        if use_log_weights:
            return math.exp(k * math.log(q) - q - math.lgamma(k + 1))
        return prev * q / k if k else math.exp(-q)

    vec = np.eye(n)[index[model.initial]]
    w = weight(0, 0.0)
    cum_w = w
    partial = 0.0  # sum of w_k * d_k; d_0 = 0 since initial is never a death state
    met = None  # the last bracket that met tol before the outward rounding
    for k in range(1, MAX_SERIES_TERMS + 1):
        vec = vec @ jump
        d_k = float(vec @ death)
        w = weight(k, w)
        cum_w += w
        partial += w * d_k
        tail = max(0.0, 1.0 - cum_w)
        lower = partial + tail * d_k  # jump-chain death mass only grows
        upper = min(1.0, partial + tail)
        if upper - lower <= tol * max(upper, WIDTH_FLOOR):
            # The outward rounding widens the bracket, so it must meet tol too.
            out_lower = max(0.0, lower * (1.0 - _FP_REL) - _FP_ABS)
            out_upper = min(1.0, upper * (1.0 + _FP_REL) + _FP_ABS)
            if out_upper - out_lower <= tol * max(out_upper, WIDTH_FLOOR):
                return BoundedProbability(out_lower, out_upper)
            if met == (lower, upper):
                # The series no longer moves the bracket: only rounding is left.
                raise SolverError(
                    f"bound width target {tol} not reachable: the outward rounding "
                    f"of [{lower:.3g}, {upper:.3g}] alone is wider")
            met = lower, upper
    raise SolverError(
        f"bound width target {tol} not reached within {MAX_SERIES_TERMS} series terms "
        f"(uniformization rate*T = {q:.3g})")


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    ci99: float
    deaths: int


def monte_carlo_death_probability(model: MarkovModel, mission_time: float,
                                  trials: int, seed: int) -> MonteCarloEstimate:
    """Trajectory-sampling oracle for the bound solver.

    Each trial races the outgoing transitions of the current state with
    independently sampled exponential holding times and records whether a
    death state is entered by the mission time. The trials run in
    consecutive chunks of MC_CHUNK that share one random stream, so memory
    is bounded by MC_CHUNK trials and the result depends only on
    `(seed, trials)`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mission_time < 0 or not math.isfinite(mission_time):
        raise ValueError("mission time must be non-negative and finite")
    rng = np.random.default_rng(seed)
    index = {s: i for i, s in enumerate(model.states)}
    outgoing: list = [[] for _ in model.states]
    for tr in model.transitions:
        outgoing[index[tr.source]].append((index[tr.target], 1.0 / tr.rate))
    targets = [np.array([t for t, _ in moves], dtype=np.int64) for moves in outgoing]
    is_death = np.array([s in model.death_states for s in model.states])
    # One row of holding times per move, reused by every round of every chunk.
    buffer = np.empty((max(map(len, outgoing)), min(trials, MC_CHUNK)))
    columns = np.arange(buffer.shape[1])

    deaths = 0
    for start in range(0, trials, MC_CHUNK):
        # A trial's state is -1 once it has died, outlived the mission or is
        # stuck in a live trap. A round visits states in index order, trials in
        # index order; the next chunk starts once this one has finished.
        state = np.full(min(MC_CHUNK, trials - start), index[model.initial], dtype=np.int64)
        clock = np.zeros(state.size)
        while mission_time > 0 and (state >= 0).any():
            for s, moves in enumerate(outgoing):
                idx = np.flatnonzero(state == s)
                if not idx.size:
                    continue
                if not moves:  # stuck in a live trap
                    state[idx] = -1
                    continue
                times = buffer[:len(moves), :idx.size]
                for row, (_, scale) in zip(times, moves):
                    rng.standard_exponential(out=row)
                    row *= scale  # as rng.exponential(scale) computes it
                if len(moves) == 1:
                    step, dest = times[0], targets[s][0]
                else:
                    choice = times.argmin(axis=0)
                    step, dest = times[choice, columns[:idx.size]], targets[s][choice]
                arrival = clock[idx] + step
                clock[idx] = arrival
                moved = arrival <= mission_time
                died = moved & is_death[dest]
                deaths += int(died.sum())
                state[idx] = np.where(moved & ~died, dest, -1)

    p = deaths / trials
    ci99 = 2.5758293035489004 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return MonteCarloEstimate(estimate=p, ci99=ci99, deaths=deaths)


def sweep(builder, spec: SweepSpec) -> tuple[CurvePoint, ...]:
    """Evaluate the death-probability bracket over a log-spaced rate grid.

    `builder` maps a rate to a model (the prebuilt constructors fit directly).
    Solver failures are annotated on their point rather than aborting the
    remaining grid.
    """
    points = []
    for lam in spec.grid():
        try:
            bracket = death_probability(builder(lam), spec.mission_time, spec.tol)
            points.append(CurvePoint(lam, bracket.lower, bracket.upper))
        except SolverError as exc:
            points.append(CurvePoint(lam, 0.0, 1.0, error=str(exc)))
    return tuple(points)

