"""Mission-reliability analysis on rate-labelled Markov dependability models.

A model is a set of named states with exponential transitions into absorbing
death states. The transient solver returns a certified [lower, upper] bracket
on the probability of having entered any death state by the mission time.
Both of its methods uniformise the chain: with Λ at least every state's
outgoing rate, P = I + Q/Λ is a non-negative stochastic jump matrix and
exp(Q·T) = Σ_k Poisson(k; Λ·T) P^k.

While q = Λ·T is at most SERIES_Q_MAX = 16 the solver truncates that
series for the initial state: every truncated term is non-negative and the
death probability of the jump chain is non-decreasing, so the tail mass
yields rigorous two-sided bounds which are tightened until the requested
relative width is met. That costs O(q) terms, so above it the solver scales
and squares instead (Moler & Van Loan, "Nineteen Dubious Ways", 2003), in
O(log q) matrix products: it bounds exp(Q·T/2^s), with q/2^s a few units,
between an entry-wise lower matrix L (the truncated series) and upper matrix
U (the series plus its Poisson tail mass on every entry), and squares both
s times, which keeps L <= exp(Q·T) <= U since all of them are non-negative.
That step's series is a polynomial in P, summed by Paterson & Stockmeyer
(SIAM J. Computing 1973) in about 2√d products for d terms.

Both methods keep one rounding account, so every bound holds exactly: P is
enclosed entry-wise by one outward pair of float matrices, each computed
product is deflated (L) or inflated (U) by a factor that covers all its
roundings, after which L loses and U gains _TINY, far above anything that
underflowed, and each scalar is rounded one float outward or covered by a
factor.

A trajectory-sampling Monte Carlo estimator serves as an independent oracle
for the solver.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 0.05
WIDTH_FLOOR = 1e-12
# Above this uniformization rate times mission time the solver scales and
# squares, and 2^4 puts the squaring step's q/2^s at exactly _STEP_Q/2 here.
# It was the cost crossover of the two methods on the 3-state repair chain
# while the step series took one product per term. Summed by Paterson &
# Stockmeyer, squaring costs about 80-90 µs per bracket at any q up to 32,
# as much as the series near q = 12 (84 against 87 µs), so the crossover has
# moved below 16. The constant stays: down to 12 it would save a few µs on
# few points, and at 8 it would change the markov_builtin_sweep golden's
# bracket cells and square the markov-oracle benchmark's q = 8.9 point.
SERIES_Q_MAX = 16.0
# Scaling and squaring: each step spans at most _STEP_Q expected jumps, and
# its series is cut where the Poisson tail mass beyond it is below _TAIL;
# a computed entry below _TINY may have underflowed.
_STEP_Q = 4.0
_TAIL = 2.0 ** -200
_TINY = 2.0 ** -900
_U = 2.0 ** -53  # unit roundoff of a float
# Monte Carlo trials per chunk, which bounds the oracle's memory. A run of at
# most this many trials is one chunk; the pinned 20,000-trial draws need that.
MC_CHUNK = 32_768


class ModelError(ValueError):
    """Raised for malformed or invalid model descriptions."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SolverError(RuntimeError):
    """Raised when the bound width target cannot be met, or q = Λ·T overflows."""


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
            if not math.isfinite(tr.rate):
                raise ModelError(f"transition {tr.source}->{tr.target} has non-finite rate {tr.rate}")
            if tr.rate <= 0:
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

    def scales_with(self, name: str) -> bool:
        """Whether every rate is `name` times an expression free of it, with
        the other constants expanded through their definitions: each rate
        expression is homogeneous of degree 1 in `name`. Then the model at
        `c·name` is this model with time sped up by c, so its death
        probability by T is this model's by c·T."""
        return all(_degree(tr.expr, name, self.definitions) == 1 for tr in self.transitions)


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


def _check_mission_time(mission_time: float) -> None:
    """The mission-time check of sweeps, the solver and the oracle."""
    if mission_time < 0 or not math.isfinite(mission_time):
        raise ValueError("mission time must be non-negative and finite")


@dataclass(frozen=True)
class SweepSpec:
    constant: str
    lo: float
    hi: float
    points: int
    mission_time: float
    _grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError(f"sweep range must satisfy 0 < lo < hi, got {self.constant} "
                             f"from {self.lo:g} to {self.hi:g}")
        if self.points < 2:
            raise ValueError("sweep needs at least 2 points")
        _check_mission_time(self.mission_time)
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


def _degree(expr: tuple, name: str, definitions: dict) -> int | None:
    """The degree in the constant `name` of every term of an expression AST,
    or None where its terms differ in degree. Another constant counts by its
    entry in `definitions`, or as degree 0 without one."""
    op = expr[0]
    if op == "num":
        return 0
    if op == "const":
        if expr[1] == name:
            return 1
        definition = definitions.get(expr[1])
        return 0 if definition is None else _degree(definition, name, definitions)
    left, right = (_degree(side, name, definitions) for side in expr[1:])
    if left is None or right is None:
        return None
    if op == "*":
        return left + right
    return left if left == right else None


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


def build_simplex_model(lam: float) -> MarkovModel:
    """Single core: up -> dead at the core failure rate."""
    return parse_model(f"CONST lambda = {_require_rate('lambda', lam)!r};\n"
                       "STATE up; STATE dead DEATH; INIT up;\n"
                       "up -> dead : lambda;\n")


def build_tmr_model(lam: float) -> MarkovModel:
    """Triple modular redundancy with perfect voting: the system dies when the
    second of three copies fails (majority lost)."""
    return parse_model(f"CONST lambda = {_require_rate('lambda', lam)!r};\n"
                       "STATE up3; STATE up2; STATE dead DEATH; INIT up3;\n"
                       "up3 -> up2 : 3 * lambda;\n"
                       "up2 -> dead : 2 * lambda;\n")


def build_standby_model(lam: float) -> MarkovModel:
    """Two-component standby pair with perfect detection and switching. Both
    components carry the failure rate while unfailed, matching the two-unit
    closed form whose complement is (1 - exp(-lam*T))^2."""
    return parse_model(f"CONST lambda = {_require_rate('lambda', lam)!r};\n"
                       "STATE up2; STATE up1; STATE dead DEATH; INIT up2;\n"
                       "up2 -> up1 : 2 * lambda;\n"
                       "up1 -> dead : lambda;\n")


def build_ifr_pipeline_model(lambda_p: float, sw_ratio: float,
                             ctrl_ratio: float) -> MarkovModel:
    """Repairable pipeline: state 1 has everything operational, state 2 runs
    on the spare stage set, and the switch boxes or controller failing from
    either state is immediately fatal. The outgoing rate from each operational
    state equals the summed failure rates of its unfailed components. The
    switch boxes fail at lambda_sw = lambda_p * sw_ratio and the controller
    at lambda_ctrl = lambda_p * ctrl_ratio, constants defined from lambda_p,
    so `with_constant("lambda_p", ...)` moves all three rates."""
    return parse_model(
        f"CONST lambda_p = {_require_rate('lambda_p', lambda_p)!r};\n"
        f"CONST lambda_sw = lambda_p * {_require_rate('sw_ratio', sw_ratio)!r};\n"
        f"CONST lambda_ctrl = lambda_p * {_require_rate('ctrl_ratio', ctrl_ratio)!r};\n"
        "STATE all_up; STATE on_spare; INIT all_up;\n"
        "STATE dead_pipeline DEATH; STATE dead_switch DEATH; STATE dead_ctrl DEATH;\n"
        "all_up -> on_spare : lambda_p;\n"
        "all_up -> dead_switch : lambda_sw;\n"
        "all_up -> dead_ctrl : lambda_ctrl;\n"
        "on_spare -> dead_pipeline : lambda_p;\n"
        "on_spare -> dead_switch : lambda_sw;\n"
        "on_spare -> dead_ctrl : lambda_ctrl;\n")


# ---------------------------------------------------------------------------
# Transient bound solver
# ---------------------------------------------------------------------------

def _meets(lower: float, upper: float, tol: float) -> bool:
    """The width target of both methods: relative width tol, or absolute
    width tol·WIDTH_FLOOR when the upper bound is below WIDTH_FLOOR."""
    return upper - lower <= tol * max(upper, WIDTH_FLOOR)


def death_probability(model: MarkovModel, mission_time: float,
                      tol: float = DEFAULT_TOL) -> BoundedProbability:
    """Certified bracket on the probability of having entered any death state
    by the mission time.

    Deterministic: no sampling is involved. Raises SolverError if the
    uniformization rate times the mission time, q, overflows, and otherwise
    whenever the requested width cannot be met (the answer is never silently
    loosened). Both methods share one jump pair and one rounding account,
    so every bound holds exactly, not just up to rounding.

    Up to SERIES_Q_MAX the series runs until the bracket meets tol. From the
    first k with k + 1 > q the Poisson mass beyond term k is at most
    w_(k+1) / (1 - q/(k+2)) (Fox & Glynn, CACM 1988); once that is below
    _TINY more terms only add rounding, and the series refuses.

    Above it, scaling and squaring has no stopping rule, so its bracket is
    as wide as its rounding: about 3.6e-12 relative for the 3-state repair
    chain at q = 1e3, growing in proportion to q to 1.5% at q = 4.2e12. A
    chain whose squaring factors alone exceed tol (the same chain at
    q = 1e18) is refused before any product.
    """
    _check_mission_time(mission_time)
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    if mission_time == 0.0 or not model.death_states:
        return BoundedProbability(0.0, 0.0)
    jump, q = _jump_pair(model, mission_time)
    if q > SERIES_Q_MAX:
        return _squared_bracket(jump, q, tol)
    return _series_bracket(jump, q, tol)


def _below(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _above(x: float) -> float:
    return math.nextafter(x, math.inf)


def _jump_pair(model: MarkovModel, mission_time: float) -> tuple[np.ndarray, float]:
    """The stacked outward (L, U) pair around the jump matrix P = I + Q/Λ,
    and q = Λ·T rounded to nearest. State 0 is the initial state; the death
    states, all absorbing, are lumped into the last. Λ is the largest
    out-rate rounded up, so the exact P is non-negative. Each entry is an
    exact sum (on the diagonal Λ minus the rates to other states) over Λ:
    `_sum_pair` encloses the sum, numpy rounds each division correctly, and
    each quotient is moved one float outward. L is clipped at 0."""
    live = [model.initial] + [s for s in model.states
                              if s != model.initial and s not in model.death_states]
    index = dict.fromkeys(model.death_states, len(live)) | {s: i for i, s in enumerate(live)}
    n = len(live) + 1
    rates: list = [[[] for _ in range(n)] for _ in range(n)]
    for tr in model.transitions:
        rates[index[tr.source]][index[tr.target]].append(tr.rate)
    try:
        lam = _above(max(math.fsum(itertools.chain(*row)) for row in rates))
    except OverflowError:  # an out-rate beyond the float range
        lam = math.inf
    q = lam * mission_time
    if not math.isfinite(q):
        raise SolverError(f"uniformization rate*T = {q:.3g} is not finite")
    for i, row in enumerate(rates):
        row[i] = [lam, *(-rate for j, cell in enumerate(row) if j != i for rate in cell)]
    sums = np.array([[_sum_pair(cell) for cell in row] for row in rates]).transpose(2, 0, 1)
    jump = np.nextafter(sums / lam, _OUTWARD)
    np.maximum(jump, 0.0, out=jump)
    jump[:, sums[1] == 0.0] = 0.0
    return jump, q


_OUTWARD = np.array([-np.inf, np.inf])[:, None, None]


def _sum_pair(terms: list) -> tuple[float, float]:
    """Floats below and above the exact sum of `terms`: math.fsum's correctly
    rounded sum, moved one float outward on the side it rounded toward. The
    sign of the sum of `terms` less that result tells the side; a single
    term is exact."""
    total = math.fsum(terms)
    if len(terms) < 2:
        return total, total
    error = math.fsum([*terms, -total])
    return (math.nextafter(total, -math.inf) if error < 0 else total,
            math.nextafter(total, math.inf) if error > 0 else total)


def _factors(rounds: int | np.ndarray) -> np.ndarray:
    """Factors for a stacked (L, U) pair that cover `rounds` roundings of a
    non-negative value, one more for the _SHIFT that follows, and the
    multiplication by the factor itself. Both are exact floats. An array of
    counts gives one pair per count, on the last axis."""
    k = rounds + 3
    return np.array([1.0 - k * _U, 1.0 + (k + k % 2) * _U])[:, None, None]


# Added to the pair after each product: anything that underflowed is far
# below _TINY, so L minus it, clipped at 0, and U plus it stay bounds.
_SHIFT = np.array([-_TINY, _TINY])[:, None, None]


def _series_bracket(jump: np.ndarray, q: float, tol: float) -> BoundedProbability:
    """The jump series for the initial state, cut once its bracket meets tol.
    The initial row is a stacked (L, U) pair carried with squaring's
    factors; the Poisson weights, their sum and the partial sums are lower
    and upper floats, each rounded outward. Death mass only grows along the
    jump chain, so the mass left adds at least tail_lo·d_lo, at most tail_hi."""
    n = jump.shape[1]
    step = jump * _factors(n)  # covers the n-term product and this scaling
    vec = np.broadcast_to(np.eye(1, n), (2, 1, n))  # the initial state, 0
    q_lo, q_hi = _below(q), _above(q)
    # exp is within an ulp, so two floats outward cover it.
    w_lo, w_hi = _below(_below(math.exp(-q_hi))), _above(_above(math.exp(-q_lo)))
    cum_lo, cum_hi = w_lo, w_hi
    part_lo = part_hi = 0.0  # sums of w_k * d_k; d_0 = 0 as state 0 is live
    for k in itertools.count(1):
        vec = np.maximum(vec @ step + _SHIFT, 0.0)
        d_lo, d_hi = vec[:, 0, -1].tolist()
        w_lo = _below(_below(w_lo * q_lo) / k)
        w_hi = _above(_above(w_hi * q_hi) / k)
        cum_lo, cum_hi = _below(cum_lo + w_lo), _above(cum_hi + w_hi)
        part_lo = _below(part_lo + _below(w_lo * d_lo))
        part_hi = _above(part_hi + _above(w_hi * min(d_hi, 1.0)))
        tail_lo, tail_hi = max(0.0, _below(1.0 - cum_hi)), _above(1.0 - cum_lo)
        if k + 1 > q_hi:
            # Doubling the bound covers its own rounding.
            w_next = _above(_above(w_hi * q_hi) / (k + 1))
            tail_hi = min(tail_hi, 2.0 * w_next / (1.0 - q_hi / (k + 2)))
        lower = max(0.0, _below(part_lo + _below(tail_lo * d_lo)))
        upper = min(1.0, _above(part_hi + tail_hi))
        if _meets(lower, upper, tol):
            return BoundedProbability(lower, upper)
        if tail_hi <= _TINY:
            # More terms would move the bracket by less than their rounding.
            raise SolverError(
                f"bound width target {tol} not reachable: the Poisson tail is spent, and "
                f"the outward rounding alone leaves [{lower!r}, {upper!r}]")


def _squared_bracket(jump: np.ndarray, q: float, tol: float) -> BoundedProbability:
    """Scaling and squaring between an entry-wise lower and upper matrix,
    carried together as one stacked (L, U) pair."""
    n = jump.shape[1]
    # r = q/2^s lies in [_STEP_Q/2, _STEP_Q); below that s is 0 and r = q.
    s = max(math.frexp(q / _STEP_Q)[1], 0)
    square = _factors(n)  # an n-term product
    rounding = -math.expm1((2.0 ** s - 1) * (math.log1p(square[0, 0, 0] - 1.0)
                                             - math.log1p(square[1, 0, 0] - 1.0)))
    if rounding > tol:
        raise SolverError(
            f"bound width target {tol} not reachable: the rounding of 2^{s} squaring "
            f"steps alone widens the bracket by {rounding:.3g} (uniformization rate*T = {q:.3g})")
    r = math.ldexp(q, -s)  # one rounding off the exact Λ·T/2^s
    r_lo, r_hi = _below(r), _above(r)

    # Cut the step's series after `terms` terms, where the Poisson tail mass
    # beyond it, at most w_(terms+1) / (1 - r/(terms+2)), is below _TAIL.
    # Doubling the bound covers its own rounding.
    weight, k = math.exp(-r_lo), 0
    while True:
        k += 1
        weight *= r_hi / k
        if k + 1 > r_hi:
            tail = 2.0 * weight / (1.0 - r_hi / (k + 1))
            if tail <= _TAIL:
                break
    terms = k - 1

    pair = _step_series(jump, r_lo, r_hi, terms)
    # exp(-r) is within an ulp, two roundings. U gains the tail mass on every
    # entry, which also covers what _SHIFT would.
    pair *= np.array([math.exp(-r_hi), math.exp(-r_lo)])[:, None, None] * _factors(3)
    pair += np.array([-_TINY, tail])[:, None, None]
    np.maximum(pair, 0.0, out=pair)

    for _ in range(s):
        pair = pair @ pair
        pair *= square
        pair += _SHIFT
        np.maximum(pair, 0.0, out=pair)

    lower, upper = np.minimum(pair[:, 0, -1], 1.0).tolist()
    if not _meets(lower, upper, tol):
        raise SolverError(
            f"bound width target {tol} not reached by {s} squarings: "
            f"[{lower!r}, {upper!r}] (uniformization rate*T = {q:.3g})")
    return BoundedProbability(lower, upper)


def _step_series(jump: np.ndarray, r_lo: float, r_hi: float, terms: int) -> np.ndarray:
    """Entry-wise bounds on the step series S = Σ_(k<=terms) r^k/k! P^k as a
    stacked (L, U) pair: L from r_lo and the lower jump matrix, U from r_hi
    and the upper one. By Paterson & Stockmeyer (SIAM J. Computing 1973),
    with m = isqrt(terms + 1), S = Σ_b A_b (P^m)^b over the blocks
    A_b = Σ_(i<m) c_(bm+i) P^i, so it takes m - 1 products for the powers
    and one per block after the first for Horner in P^m: about 2√terms,
    where Horner in P takes terms. Every coefficient and every power is
    non-negative, so the bounds on each carry through."""
    n = jump.shape[1]
    m = math.isqrt(terms + 1)
    count = -(-(terms + 1) // m)  # blocks
    # P^0 ... P^m, each a pair of bounds as in squaring: a product's n-term
    # sums take n roundings, _factors(n) covers them, and _SHIFT what
    # underflowed.
    powers = np.empty((m + 1, 2, n, n))
    powers[0] = np.eye(n)
    powers[1] = jump
    factor = _factors(n)
    for i in range(2, m + 1):
        power = np.matmul(powers[i - 1], jump, out=powers[i])
        power *= factor
        power += _SHIFT
        np.maximum(power, 0.0, out=power)

    # c_k = r^k/k! takes k divisions and k - 1 products: 2k - 1 roundings
    # (c_0 = 1 none). Term k then takes 1 in its product by P^i, m - 1 in
    # its block's sum and 1 where its block joins the Horner sum: 2k + m in
    # all. _factors(2k + m) covers them, the _SHIFT after that addition and
    # the scaling by the factor itself. Coefficients past `terms` are 0.
    coef = np.zeros((2, count * m))
    coef[:, 0] = 1.0
    coef[:, 1:terms + 1] = np.cumprod(np.array([[r_lo], [r_hi]]) / np.arange(1.0, terms + 1),
                                      axis=1)
    coef *= _factors(2 * np.arange(count * m) + m).reshape(2, -1)
    # Each block's sum pairs lower with lower and upper with upper.
    blocks = np.einsum("sbi,isjk->bsjk", coef.reshape(2, count, m), powers[:m])

    # Horner in P^m: S <- A_b + P^m·S for b = count - 2 ... 0. The product
    # takes n roundings and the addition of A_b 1: _factors(n + 1). _SHIFT
    # covers what underflowed in the product and in the block sums before
    # it: P^m's entries are about 1 at most, so those stay far below _TINY.
    # With one block, the caller's shift after exp(-r) covers its sum.
    factor = _factors(n + 1)
    pair = blocks[-1]
    for block in blocks[-2::-1]:
        pair = powers[m] @ pair
        pair *= factor
        pair += block
        pair += _SHIFT
        np.maximum(pair, 0.0, out=pair)
    return pair


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    ci99: float
    deaths: int


def monte_carlo_death_probability(model: MarkovModel, mission_times, trials: int,
                                  seed: int) -> list[MonteCarloEstimate]:
    """Trajectory-sampling oracle for the bound solver: one estimate per
    mission time of the sorted `mission_times`, of the probability of having
    entered a death state by it.

    The trials are simulated once, up to the last mission time, and each
    mission time counts the trials that died by it, so the estimates share
    their draws and never decrease. Each trial follows the chain by
    total-rate (Gillespie direct-method) sampling. The trials run in
    consecutive chunks of MC_CHUNK that share one random stream, so memory
    is bounded by MC_CHUNK trials and the result depends only on
    `(seed, trials)` and the mission times.

    A chunk's first hop is one multinomial draw: every trial starts in the
    initial state at clock 0, so it gives how many trials leave by the last
    mission time towards each live target, how many leave towards each death
    target between each two consecutive mission times, and how many stay.
    With one mission time that is one category per target, and one for
    staying. Trials sent to a death state are counted; only those sent to a
    live state draw a holding time, from the exponential truncated at the
    last mission time. Then each round visits the states in index order. The
    trials waiting in a state each draw one exponential at the state's total
    rate, and those that arrive in time draw one uniform against the
    cumulative rate shares to pick a target; no target is drawn for a state
    with one target or with only death targets. A trial that moves to a
    later state is visited again in the same round, one that moves to an
    earlier state in the next round. Trials that reach a death state are
    counted against each mission time where they are drawn; only those that
    live on are kept in arrays.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    times = list(mission_times)
    if not times:
        raise ValueError("the oracle needs at least one mission time")
    for mission_time in times:
        _check_mission_time(mission_time)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("mission times must be sorted")
    horizon = times[-1]
    rng = np.random.default_rng(seed)
    index = {s: i for i, s in enumerate(model.states)}
    targets: list = [[] for _ in model.states]
    rates: list = [[] for _ in model.states]
    for tr in model.transitions:
        targets[index[tr.source]].append(index[tr.target])
        rates[index[tr.source]].append(tr.rate)
    is_death = [s in model.death_states for s in model.states]
    totals = [sum(out) for out in rates]
    # Each state's rate shares, taken over its largest rate so that they
    # hold where the total rate overflows.
    shares = [np.array(out, dtype=float) / max(out, default=1.0) for out in rates]
    shares = [share / share.sum() if share.size else share for share in shares]
    # Upper cumulative shares of all but the last target, for the states
    # whose target is drawn: those with several targets, one of them live.
    bounds = [np.cumsum(share[:-1])
              if len(dest) > 1 and not all(is_death[t] for t in dest) else None
              for dest, share in zip(targets, shares)]

    first = index[model.initial]
    # The chance of leaving the initial state by each mission time; none at
    # mission time 0, even where the total rate overflows.
    leave = [-math.expm1(-totals[first] * t) if t else 0.0 for t in times]
    p_move = leave[-1]
    between = np.diff(leave, prepend=0.0)
    # The first hop's categories, then staying put: the category of each
    # live target, and of each death target the row of one per interval.
    first_p: list = []
    live: list = []
    dying: list = []
    for t, share in zip(targets[first], shares[first]):
        if is_death[t]:
            dying.append(range(len(first_p), len(first_p) + len(times)))
            first_p.extend(share * between)
        else:
            live.append((t, len(first_p)))
            first_p.append(share * p_move)
    first_p.append(math.exp(-totals[first] * horizon) if horizon else 1.0)
    dying = np.array(dying, dtype=np.intp).reshape(-1, len(times))

    deaths = [0] * len(times)  # trials dead by each mission time

    def count_deaths(arrival):
        for i, mission_time in enumerate(times):
            deaths[i] += int(np.count_nonzero(arrival <= mission_time))

    for start in range(0, trials, MC_CHUNK):
        counts = rng.multinomial(min(MC_CHUNK, trials - start), first_p)
        for i, n in enumerate(np.cumsum(counts[dying].sum(axis=0))):
            deaths[i] += int(n)
        moved = [(t, int(counts[c])) for t, c in live]
        movers = sum(n for _, n in moved)
        # Arrival clocks of the live trials waiting in each state.
        waiting: list = [[] for _ in model.states]
        if movers:
            # Holding times given that they end by the last mission time.
            clock = rng.random(movers)
            clock *= -p_move
            np.log1p(clock, out=clock)
            clock /= -totals[first]
            np.minimum(clock, horizon, out=clock)
            at = 0
            for t, n in moved:
                if n:
                    waiting[t].append(clock[at:at + n])
                    at += n
        while any(waiting):
            for s, total in enumerate(totals):
                if not waiting[s]:
                    continue
                clock = np.concatenate(waiting[s]) if len(waiting[s]) > 1 else waiting[s][0]
                waiting[s] = []
                if not total:  # stuck in a live trap
                    continue
                arrival = rng.standard_exponential(clock.size)
                arrival /= total
                arrival += clock
                if bounds[s] is None and is_death[targets[s][0]]:
                    count_deaths(arrival)
                    continue
                arrival = arrival[arrival <= horizon]
                if bounds[s] is None:
                    if arrival.size:
                        waiting[targets[s][0]].append(arrival)
                    continue
                pick = np.searchsorted(bounds[s], rng.random(arrival.size), side="right")
                for k, t in enumerate(targets[s]):
                    chosen = pick == k
                    if is_death[t]:
                        count_deaths(arrival[chosen])
                    elif chosen.any():
                        waiting[t].append(arrival[chosen])

    estimates = []
    for dead in deaths:
        p = dead / trials
        ci99 = 2.5758293035489004 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        estimates.append(MonteCarloEstimate(estimate=p, ci99=ci99, deaths=dead))
    return estimates
