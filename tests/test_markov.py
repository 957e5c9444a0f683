import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ifrsim import markov
from ifrsim.cli import main
from ifrsim.markov import (DEFAULT_TOL, MC_CHUNK, WIDTH_FLOOR, BoundedProbability, MarkovModel, ModelError, SolverError,
                           SweepSpec, Transition, build_ifr_pipeline_model,
                           build_simplex_model, build_standby_model, build_tmr_model,
                           death_probability, monte_carlo_death_probability,
                           parse_model)

T = 1000.0


# The closed forms, written with expm1 so that no subtraction cancels.
def analytic_simplex(lam, t):
    return -math.expm1(-lam * t)


def analytic_tmr(lam, t):
    return math.expm1(-lam * t) ** 2 * (1.0 + 2.0 * math.exp(-lam * t))


def analytic_standby(lam, t):
    return math.expm1(-lam * t) ** 2


# ---------------------------------------------------------------------------
# Model language
# ---------------------------------------------------------------------------

def test_parse_minimal_model():
    model = parse_model("""
        CONST lambda = 0.001;
        STATE up;
        STATE dead DEATH;
        INIT up;
        up -> dead : lambda;
    """)
    assert model.states == ("up", "dead")
    assert model.death_states == frozenset({"dead"})
    assert model.transitions[0].rate == pytest.approx(0.001)


def test_rate_expression_arithmetic():
    model = parse_model("""
        CONST lambda = 0.001;
        STATE a; STATE b; STATE dead DEATH;
        INIT a;
        a -> b : 3*lambda;
        b -> dead : lambda + 0.5*lambda;
    """)
    assert model.transitions[0].rate == pytest.approx(0.003)
    assert model.transitions[1].rate == pytest.approx(0.0015)


def test_parenthesised_rate_expression():
    model = parse_model("""
        CONST lambda = 1e-3; CONST mu = 4e-3;
        STATE up; STATE dead DEATH;
        INIT up;
        up -> dead : 2 * (lambda + mu);
    """)
    assert model.transitions[0].rate == pytest.approx(1e-2)


def test_unclosed_parenthesis_reports_its_line():
    with pytest.raises(ModelError, match=r"expected \)") as excinfo:
        parse_model("CONST l = 1e-3;\nSTATE up; STATE dead DEATH;\nINIT up;\n"
                    "up -> dead : 2 * (l + l;\n")
    assert excinfo.value.line == 4


def test_constants_may_reference_constants():
    model = parse_model("""
        CONST base = 1e-4;
        CONST tripled = 3 * base;
        STATE up; STATE dead DEATH;
        INIT up;
        up -> dead : tripled;
    """)
    assert model.transitions[0].rate == pytest.approx(3e-4)


def test_transition_out_of_death_state_rejected():
    with pytest.raises(ModelError, match="death state"):
        parse_model("""
            CONST l = 1.0;
            STATE up; STATE dead DEATH;
            INIT up;
            up -> dead : l;
            dead -> up : l;
        """)


def test_unknown_constant_rejected():
    with pytest.raises(ModelError, match="unknown constant"):
        parse_model("STATE up; STATE dead DEATH; INIT up; up -> dead : mystery;")


def test_unreachable_state_rejected():
    with pytest.raises(ModelError, match="unreachable"):
        parse_model("""
            CONST l = 1.0;
            STATE up; STATE island; STATE dead DEATH;
            INIT up;
            up -> dead : l;
        """)


def test_non_positive_rate_rejected():
    with pytest.raises(ModelError, match="non-positive"):
        parse_model("CONST l = 0.0; STATE up; STATE dead DEATH; INIT up; up -> dead : l;")


def test_syntax_error_reports_position():
    with pytest.raises(ModelError) as excinfo:
        parse_model("STATE up;\nSTATE dead DEATH;\nINIT up;\nup => dead : 1.0;")
    assert excinfo.value.line == 4


def test_initial_must_not_be_death():
    with pytest.raises(ModelError, match="initial state"):
        parse_model("STATE dead DEATH; INIT dead;")


def test_self_referential_constant_rejected():
    with pytest.raises(ModelError, match="itself"):
        parse_model("""
            CONST l = 2 * l;
            STATE up; STATE dead DEATH;
            INIT up;
            up -> dead : l;
        """)


_CHAIN = "STATE up; STATE dead DEATH; up -> dead : 1;\n"


@pytest.mark.parametrize("text, message, line, column", [
    ("CONST a = 1;\nCONST  a = 2;\n" + _CHAIN + "INIT up;", "duplicate constant 'a'", 2, 8),
    ("STATE up;\n  STATE up;\n" + _CHAIN + "INIT up;", "duplicate state 'up'", 2, 9),
    (_CHAIN + "INIT up;\nINIT   up;", "INIT declared twice", 3, 8),
    (_CHAIN, "model has no INIT declaration", None, None),
    (_CHAIN + "INIT up;\n   ;", "unexpected token ';'", 3, 4),
    (_CHAIN + "INIT up", "unexpected end of input", None, None),
    (_CHAIN + "INIT up;\nCONST a =", "unexpected end of rate expression", None, None),
], ids=["duplicate-const", "duplicate-state", "init-twice", "no-init", "stray-semicolon",
        "truncated-statement", "truncated-expression"])
def test_model_statement_errors_report_their_position(text, message, line, column):
    with pytest.raises(ModelError) as excinfo:
        parse_model(text)
    error = excinfo.value
    assert (error.line, error.column) == (line, column)
    where = "" if line is None else f"line {line}, column {column}: "
    assert str(error) == where + message


@pytest.mark.parametrize("states, initial, death, rate, message", [
    (("up", "island", "dead"), "up", {"dead"}, 1e-3, "unreachable"),
    (("up", "dead"), "gone", {"dead"}, 1e-3, "initial state"),
    (("up", "dead"), "up", {"dead"}, -1.0, "non-positive"),
])
def test_model_built_directly_is_checked_when_built(states, initial, death, rate, message):
    with pytest.raises(ModelError, match=message):
        MarkovModel(states, initial, frozenset(death),
                    (Transition("up", "dead", rate, ("num", rate)),))


def test_live_trap_state_has_zero_death_probability():
    model = parse_model("""
        CONST l = 1e-3;
        STATE up; STATE safe_stop; STATE dead DEATH;
        INIT up;
        up -> safe_stop : l;
        up -> dead : 0.5 * l;
    """)
    bracket = death_probability(model, T)
    # Only the direct path kills; trajectories absorbed in the live trap
    # never die. Analytic: (1/3) * (1 - exp(-1.5e-3 * T)).
    truth = (0.5 / 1.5) * -math.expm1(-1.5e-3 * T)
    assert bracket.lower <= truth <= bracket.upper
    mc = monte_carlo_death_probability(model, [T], 100_000, seed=2)[0]
    assert abs(mc.estimate - truth) <= mc.ci99


# ---------------------------------------------------------------------------
# Prebuilt models
# ---------------------------------------------------------------------------

def test_simplex_shape():
    model = build_simplex_model(1e-3)
    assert len(model.states) == 2 and len(model.transitions) == 1
    assert model.death_states == frozenset({"dead"})
    assert model.outgoing_rate("up") == pytest.approx(1e-3)


def test_tmr_rates_follow_k_of_n_structure():
    model = build_tmr_model(2e-4)
    assert model.outgoing_rate("up3") == pytest.approx(6e-4)
    assert model.outgoing_rate("up2") == pytest.approx(4e-4)


def test_standby_rates_follow_the_unfailed_components():
    model = build_standby_model(2e-4)
    assert model.outgoing_rate("up2") == pytest.approx(4e-4)
    assert model.outgoing_rate("up1") == pytest.approx(2e-4)


def test_ifr_outgoing_sum_is_total_component_rate():
    model = build_ifr_pipeline_model(1e-3, 1e-2, 1e-3)
    expected = 1e-3 + 1e-5 + 1e-6
    assert model.outgoing_rate("all_up") == pytest.approx(expected, rel=1e-12)
    assert model.outgoing_rate("on_spare") == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("build, name", [
    (build_simplex_model, "lambda"), (build_tmr_model, "lambda"),
    (build_standby_model, "lambda"),
    (lambda lam: build_ifr_pipeline_model(lam, 1e-3, 1e-3), "lambda_p")])
def test_builtin_rebuilt_with_its_rate_equals_a_fresh_build(build, name):
    # A sweep parses a builtin once and moves its rate with with_constant;
    # ifr-pipeline's switch and controller rates follow lambda_p as the
    # float product lambda_p * 1e-3.
    for lam in (1e-9, 3.7e-5, 0.25):
        assert build(1e-3).with_constant(name, lam) == build(lam)
    assert build_ifr_pipeline_model(1e-3, 1e-3, 1e-3).with_constant("lambda_p", 3.7e-5) \
        .constants["lambda_sw"] == 3.7e-5 * 1e-3


def test_builders_reject_bad_rates():
    for builder in (build_simplex_model, build_tmr_model, build_standby_model):
        with pytest.raises(ValueError):
            builder(0.0)
    with pytest.raises(ValueError):
        build_ifr_pipeline_model(1e-3, -1e-2, 1e-3)


# ---------------------------------------------------------------------------
# Bound solver
# ---------------------------------------------------------------------------

def test_death_probability_at_time_zero():
    assert death_probability(build_tmr_model(1e-3), 0.0) == BoundedProbability(0.0, 0.0)


@pytest.mark.parametrize("rate", [1.0, 1e9])
def test_model_without_death_state_has_zero_death_probability(rate):
    # q = 1e3 and 1e12: a chain without a death state returns before either
    # method runs, whatever its q.
    model = parse_model(f"STATE a;\nSTATE b;\nINIT a;\na -> b : {rate!r};\n")
    assert death_probability(model, T) == BoundedProbability(0.0, 0.0)


def test_simplex_anchor_value():
    bracket = death_probability(build_simplex_model(1e-6), T, tol=1e-6)
    expected = analytic_simplex(1e-6, T)
    assert bracket.lower <= expected <= bracket.upper
    assert bracket.lower == pytest.approx(9.995e-4, abs=1e-6)
    assert bracket.upper == pytest.approx(9.995e-4, abs=1e-6)


def test_tmr_anchor_value():
    bracket = death_probability(build_tmr_model(1e-3), T)
    assert bracket.lower <= 0.693568 <= bracket.upper


def test_bracket_soundness_randomized():
    rng = random.Random(99)
    cases = [(build_simplex_model, analytic_simplex),
             (build_tmr_model, analytic_tmr),
             (build_standby_model, analytic_standby)]
    for builder, analytic in cases:
        for _ in range(50):
            lam = 10 ** rng.uniform(-6, -2)
            t = rng.uniform(1.0, 5000.0)
            bracket = death_probability(builder(lam), t)
            truth = analytic(lam, t)
            assert bracket.lower <= truth <= bracket.upper, (builder, lam, t)
            assert bracket.relative_width <= 0.05 + 1e-12


def test_bounds_are_deterministic():
    a = death_probability(build_tmr_model(3e-4), T)
    b = death_probability(build_tmr_model(3e-4), T)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_tol_validation():
    with pytest.raises(ValueError):
        death_probability(build_simplex_model(1e-3), T, tol=0.0)


@pytest.mark.parametrize("lam, tol", [
    (1e-3, 3e-12), (1e-3, 1e-9), (1e-6, 1e-8), (1e-18, 0.05), (1e-2, 1e-11)])
def test_returned_bracket_meets_tol_after_outward_rounding(lam, tol):
    bracket = death_probability(build_simplex_model(lam), T, tol=tol)
    assert bracket.lower <= analytic_simplex(lam, T) <= bracket.upper
    assert bracket.upper - bracket.lower <= tol * max(bracket.upper, WIDTH_FLOOR)


@pytest.mark.parametrize("lam, tol", [
    # Targets that a fixed outward nudge of 1e-12 relative plus 1e-15
    # absolute would miss on its own; the certified rounding is narrower.
    (1e-3, 1e-12), (1e-3, 2e-12), (1e-18, 1e-4)])
def test_tol_below_a_fixed_nudge_is_met_and_holds_the_mpmath_value(lam, tol):
    bracket = death_probability(build_simplex_model(lam), T, tol=tol)
    with mpmath.workdps(50):
        assert _contains(bracket, -mpmath.expm1(-mpmath.mpf(lam) * T))
    assert bracket.upper - bracket.lower <= tol * max(bracket.upper, WIDTH_FLOOR)


@pytest.mark.parametrize("lam, tol", [
    # Below 2^-53 relative no two floats are close enough; below
    # WIDTH_FLOOR, 1e-20 asks for 1e-32, under a float's spacing at 1e-15.
    (1e-3, 1e-16), (1e-18, 1e-20)])
def test_tol_below_the_certified_width_is_refused_once_the_tail_is_spent(lam, tol):
    with pytest.raises(SolverError, match="Poisson tail is spent, and the outward rounding alone"):
        death_probability(build_simplex_model(lam), T, tol=tol)


@pytest.mark.parametrize("lam, mission_time", [(1e308, T), (1e300, 1e10)])
def test_overflowing_uniformization_rate_is_refused_before_the_series(lam, mission_time):
    # Uniformization needs q = rate*T finite; an infinite q would make every
    # series term NaN.
    with pytest.raises(SolverError, match="not finite"):
        death_probability(build_simplex_model(lam), mission_time)


# ---------------------------------------------------------------------------
# Stiff chains: scaling and squaring above SERIES_Q_MAX
# ---------------------------------------------------------------------------

def _expm_death_probability(model, t):
    """Death probability from a 50-digit `mpmath.expm` of Q*t."""
    with mpmath.workdps(50):
        index = {s: i for i, s in enumerate(model.states)}
        q = mpmath.zeros(len(model.states))
        for tr in model.transitions:
            q[index[tr.source], index[tr.target]] += tr.rate
            q[index[tr.source], index[tr.source]] -= tr.rate
        p = mpmath.expm(q * t)
        return sum(p[index[model.initial], index[d]] for d in model.death_states)


def _contains(bracket, exact):
    return mpmath.mpf(bracket.lower) <= exact <= mpmath.mpf(bracket.upper)


def _repair_chain(lam, mu):
    # Either unit fails at lam, a failed unit is repaired at mu, and a second
    # failure during repair is fatal (the benchmark's stiff chain).
    return parse_model(f"CONST lambda = {lam!r};\nCONST mu = {mu!r};\n"
                       "STATE up;\nSTATE degraded;\nSTATE dead DEATH;\nINIT up;\n"
                       "up -> degraded : 2 * lambda;\n"
                       "degraded -> up : mu;\n"
                       "degraded -> dead : lambda;\n")


@pytest.mark.parametrize("mu", [1.0, 10.0, 1e2, 1e3, 1e6, 4.2e9])
def test_repair_chain_bracket_contains_the_mpmath_value(mu):
    # 4.2e9/h is the in-field swap (about 0.85 us); from 1e3/h up the
    # series would need over 1e6 terms.
    model = _repair_chain(1e-3, mu)
    bracket = death_probability(model, T)
    assert _contains(bracket, _expm_death_probability(model, T))
    assert bracket.upper - bracket.lower <= DEFAULT_TOL * bracket.upper


@pytest.mark.parametrize("lam", [1e-4, 1e-3])
@pytest.mark.parametrize("mu", [1.0, 10.0, 1e2, 1e3, 4.2e9])
def test_squared_bracket_is_as_wide_as_its_rounding(lam, mu):
    # Above SERIES_Q_MAX the bracket is as wide as its rounding: about
    # 3.6e-12 relative at q = 1e3 (3.5e-15·q to 4.4e-15·q on these chains),
    # bounded here at about twice that. The bound is relative even where the
    # upper bound is below WIDTH_FLOOR (5e-15 and 5e-13 at mu = 4.2e9/h),
    # where tol alone would let the bracket be tol·WIDTH_FLOOR wide.
    model = _repair_chain(lam, mu)
    q = markov._jump_pair(model, T)[1]
    bracket = death_probability(model, T)
    assert q > markov.SERIES_Q_MAX
    assert bracket.relative_width <= 8e-15 * q


@pytest.mark.parametrize("scale, squared", [(0.999, False), (1.001, True)])
def test_both_sides_of_the_series_threshold_contain_the_mpmath_value(scale, squared):
    # q = (mu + lambda)·T lands just below or just above SERIES_Q_MAX.
    model = _repair_chain(1e-3, scale * markov.SERIES_Q_MAX / T - 1e-3)
    assert (model.outgoing_rate("degraded") * T > markov.SERIES_Q_MAX) is squared
    bracket = death_probability(model, T)
    assert _contains(bracket, _expm_death_probability(model, T))
    assert bracket.relative_width <= DEFAULT_TOL


def test_chain_near_the_old_series_limit_is_squared_not_refused():
    # q = 1.499e5 and p = 1.33e-15: with the series taken up to q = 1.5e5,
    # this chain ran 200,000 terms (0.8 s) and was refused.
    model = _repair_chain(1e-8, 149.9)
    bracket = death_probability(model, T)
    assert _contains(bracket, _expm_death_probability(model, T))
    assert bracket.upper - bracket.lower <= DEFAULT_TOL * max(bracket.upper, WIDTH_FLOOR)


def test_repair_chain_at_q_100_meets_a_tol_of_1e_12():
    # q = 100: a target that a fixed outward nudge of 1e-12 relative would
    # miss on its own.
    model = _repair_chain(1e-4, 0.1)
    bracket = death_probability(model, T, tol=1e-12)
    assert _contains(bracket, _expm_death_probability(model, T))
    assert bracket.upper - bracket.lower <= 1e-12 * bracket.upper


def test_series_tail_spent_by_rounding_still_meets_tol():
    # q = 2.03 and p = 1.01e-4: 1 - cum_w stops at a rounding residue above
    # the 2.2e-15 of tol·p, so only the last-weight bound on the tail meets
    # tol.
    model = parse_model("STATE s0;\nSTATE s1;\nSTATE s2;\nSTATE s3 DEATH;\nINIT s0;\n"
                        "s0 -> s1 : 32.765549693817235;\n"
                        "s1 -> s2 : 52.160258358854016;\n"
                        "s2 -> s3 : 0.012792033400475104;\n")
    t, tol = 0.038979645384223986, 2.2092940282536468e-11
    bracket = death_probability(model, t, tol=tol)
    assert _contains(bracket, _expm_death_probability(model, t))
    assert bracket.upper - bracket.lower <= tol * max(bracket.upper, WIDTH_FLOOR)


@st.composite
def _random_chains(draw):
    """3 to 5 states with the last one the only death state, a path
    s0 -> s1 -> ... through all of them and random extra transitions, each
    at a rate from 1e-3 to 1e9 per hour."""
    n = draw(st.integers(3, 5))
    rate = st.floats(-3.0, 9.0).map(lambda x: 10.0 ** x)
    lines = [f"STATE s{i}{' DEATH' if i == n - 1 else ''};" for i in range(n)] + ["INIT s0;"]
    for i in range(n - 1):
        for j in range(n):
            if j == i + 1 or (j != i and draw(st.booleans())):
                lines.append(f"s{i} -> s{j} : {draw(rate)!r};")
    return parse_model("\n".join(lines))


@settings(max_examples=40, deadline=None)
@given(_random_chains())
def test_random_stiff_chain_bracket_contains_the_mpmath_value(model):
    bracket = death_probability(model, T)
    assert _contains(bracket, _expm_death_probability(model, T))
    assert bracket.upper - bracket.lower <= DEFAULT_TOL * max(bracket.upper, WIDTH_FLOOR)


@settings(max_examples=40, deadline=None)
@given(_random_chains(), st.floats(math.log(markov.SERIES_Q_MAX), math.log(1.5e5)),
       st.floats(-9.0, math.log10(DEFAULT_TOL)))
def test_chain_squared_below_the_old_series_limit_contains_the_mpmath_value(model, log_q, log_tol):
    # q in (SERIES_Q_MAX, 1.5e5]: the series took this band while it ran up
    # to q = 1.5e5, and squaring takes it now.
    rate = max(model.outgoing_rate(s) for s in model.states)
    t = min(math.exp(log_q), 1.5e5) / rate
    assume(rate * t > markov.SERIES_Q_MAX)
    tol = 10.0 ** log_tol
    bracket = death_probability(model, t, tol=tol)
    assert _contains(bracket, _expm_death_probability(model, t))
    assert bracket.upper - bracket.lower <= tol * max(bracket.upper, WIDTH_FLOOR)


@settings(max_examples=40, deadline=None)
@given(_random_chains(), st.floats(math.log(1e-3), math.log(markov.SERIES_Q_MAX)),
       st.floats(-13.0, math.log10(DEFAULT_TOL)))
def test_chain_taken_by_the_series_contains_the_mpmath_value(model, log_q, log_tol):
    # q in [1e-3, SERIES_Q_MAX]: the series either meets tol around the
    # mpmath value or refuses because its outward rounding alone is wider.
    rate = max(model.outgoing_rate(s) for s in model.states)
    t = math.exp(log_q) / rate
    assume(markov._jump_pair(model, t)[1] <= markov.SERIES_Q_MAX)  # the solver's own q
    tol = 10.0 ** log_tol
    try:
        bracket = death_probability(model, t, tol=tol)
    except SolverError as error:
        assert "the outward rounding alone leaves" in str(error)
        return
    assert _contains(bracket, _expm_death_probability(model, t))
    assert bracket.upper - bracket.lower <= tol * max(bracket.upper, WIDTH_FLOOR)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_squaring_step_bounds_hold_in_exact_arithmetic(n):
    # A float product errs far less than the worst case the factors cover, so
    # no bracket above shows a missing factor; one squaring step of random
    # non-negative matrices, checked in exact rationals, does.
    a = np.random.default_rng(n).random((n, n)) ** 4
    pair = np.stack([a, a])
    pair = pair @ pair * markov._factors(n) + markov._SHIFT
    for i in range(n):
        for j in range(n):
            exact = sum(Fraction(a[i, k]) * Fraction(a[k, j]) for k in range(n))
            assert pair[0, i, j] <= exact <= pair[1, i, j], (i, j)


def _assert_step_series_bounds(p, r, terms):
    """`_step_series` on the exact pair (p, p) holds Σ_(k<=terms) r^k/k! p^k,
    summed in exact rationals, between its bounds."""
    n = len(p)
    pair = markov._step_series(np.stack([p, p]), r, r, terms)
    step = [[Fraction(x) for x in row] for row in p.tolist()]
    power = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    total, coefficient = power, Fraction(1)
    for k in range(1, terms + 1):
        power = [[sum(power[i][l] * step[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
        coefficient *= Fraction(r) / k
        total = [[total[i][j] + coefficient * power[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert pair[0, i, j] <= total[i][j] <= pair[1, i, j], (i, j)


# terms + 1 = 3 and 2 take m = 1 (Horner in P); 16 and 25 are perfect squares;
# 70 and 27 leave the last block short (m = 8 and 5).
@pytest.mark.parametrize("n, terms", [(3, 2), (3, 69), (4, 15), (4, 26), (5, 1), (5, 24)])
def test_step_series_bounds_hold_in_exact_arithmetic(n, terms):
    # Row sums near 1 let every block count. Entries below 1e-3 make the
    # terms k <= 1 dominate, which only their coefficient factors cover.
    rng = np.random.default_rng([n, terms])
    r = rng.uniform(2.0, 4.0)
    for scale in (1.0, 1e-3):
        p = rng.random((n, n))
        p *= scale * rng.uniform(0.9, 1.0) / p.sum(axis=1, keepdims=True)
        _assert_step_series_bounds(p, r, terms)


@pytest.mark.parametrize("n, terms", [(3, 2), (5, 2), (4, 15)])
def test_step_series_bounds_hold_where_products_underflow(n, terms):
    # A chain, p[i, i + 1] near 2^-540 and 0 elsewhere: every product of two
    # entries underflows to 0, so p^2 is 0 in floats but not exactly, and
    # its entries have no first-order term to hide behind. Only a _SHIFT
    # after the product keeps the upper bound above them.
    rng = np.random.default_rng([n, terms])
    p = np.diag(rng.uniform(0.5, 1.0, n - 1) * 2.0 ** -540, k=1)
    _assert_step_series_bounds(p, rng.uniform(2.0, 4.0), terms)


def test_step_series_takes_the_factors_and_shifts_its_account_gives(monkeypatch):
    # A product's float error is far below the worst case its factor covers,
    # and a later _SHIFT covers an earlier one's underflow, so no bound shows
    # a factor cut short or a shift dropped. This checks the account itself:
    # each factor `_factors` returns, and `_SHIFT`, log the operations they
    # take part in. For n = 4 and terms = 26 (m = 5, 6 blocks): the powers'
    # factor covers n roundings and scales each of the m - 1 products, each
    # followed by a shift; coefficient k's covers 2k + m; and the Horner
    # factor covers n + 1 and scales each of the 5 Horner steps, each
    # followed by a shift.
    log, rounds = [], []

    class Logged(np.ndarray):
        def __array_finalize__(self, obj):
            self.tag = getattr(obj, "tag", None)

        def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
            log.append((ufunc.__name__, self.tag))
            plain = [x.view(np.ndarray) if isinstance(x, Logged) else x for x in inputs]
            out = tuple(x.view(np.ndarray) if isinstance(x, Logged) else x for x in out)
            return getattr(ufunc, method)(*plain, **({"out": out} if out else {}), **kwargs)

    def logged(array, tag):
        array = array.view(Logged)
        array.tag = tag
        return array

    factors = markov._factors
    monkeypatch.setattr(markov, "_factors", lambda count: (
        rounds.append(count), logged(factors(count), len(rounds) - 1))[1])
    monkeypatch.setattr(markov, "_SHIFT", logged(markov._SHIFT, "shift"))
    n, terms, m, blocks = 4, 26, 5, 6
    p = np.full((n, n), 0.2)
    markov._step_series(np.stack([p, p]), 3.0, 3.0, terms)
    assert rounds[0] == n and rounds[2] == n + 1
    assert rounds[1].tolist() == [2 * k + m for k in range(blocks * m)]
    assert log == ([("multiply", 0), ("add", "shift")] * (m - 1) + [("multiply", 1)]
                   + [("multiply", 2), ("add", "shift")] * (blocks - 1))


@st.composite
def _chains_with_parallel_rates(draw):
    """1 to 3 live states and 1 or 2 death states; up to two parallel
    transitions between a pair of states, self-loops included, each at a
    rate from 1e-300 to 1e300 per hour, and a path through every state."""
    live, dead = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rate = st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x)
    lines = [f"STATE s{i}{' DEATH' if i >= live else ''};" for i in range(live + dead)]
    lines.append("INIT s0;")
    for i in range(live):
        for j in range(live + dead):
            needed = j == i + 1 or (i == live - 1 and j > live)
            lines += [f"s{i} -> s{j} : {draw(rate)!r};"
                      for _ in range(draw(st.integers(int(needed), 2)))]
    return parse_model("\n".join(lines))


@settings(max_examples=80, deadline=None)
@given(_chains_with_parallel_rates())
# Each of these leaves the pair if one of its four outward steps is dropped:
# the lower bound's before or after the division, then the upper bound's.
@example(parse_model("STATE s0; STATE s1; STATE s2 DEATH; STATE s3 DEATH; INIT s0;"
                     "s0 -> s1 : 0.2510029584643848; s0 -> s2 : 1.0219765597645172;"
                     "s1 -> s2 : 1.0219765597645172; s1 -> s2 : 0.5171064193027457;"
                     "s1 -> s3 : 0.9329325040049943;"))
@example(parse_model("STATE s0; STATE s1; STATE s2 DEATH; STATE s3 DEATH; INIT s0;"
                     "s0 -> s1 : 0.2769139245945875; s0 -> s2 : 3.733137271468517;"
                     "s1 -> s2 : 2.07734084455025; s1 -> s2 : 6.26000457777234;"
                     "s1 -> s3 : 0.2769139245945875;"))
@example(parse_model("STATE s0; STATE s1; STATE s2 DEATH; STATE s3 DEATH; INIT s0;"
                     "s0 -> s1 : 3.465481869581064; s0 -> s2 : 0.47078447652081257;"
                     "s1 -> s2 : 0.16065996048703376; s1 -> s2 : 1.8368388927234451;"
                     "s1 -> s3 : 3.465481869581064;"))
# A self-loop that sets Λ, and a jump probability of 1e-600, which underflows;
# then a self-loop near the float range, which Λ plus it would overflow.
@example(parse_model("STATE s0; STATE s1 DEATH; INIT s0; s0 -> s0 : 1e300; s0 -> s1 : 1e-300;"))
@example(parse_model("STATE s0; STATE s1 DEATH; INIT s0; s0 -> s0 : 1e308; s0 -> s1 : 1e300;"))
# Every sum exact: parallel rates, single rates and diagonals.
@example(parse_model("STATE s0; STATE s1; STATE s2 DEATH; STATE s3 DEATH; INIT s0;"
                     "s0 -> s1 : 0.25; s0 -> s1 : 0.25; s0 -> s2 : 0.125;"
                     "s1 -> s0 : 0.75; s1 -> s3 : 1.5;"))
def test_jump_pair_encloses_the_exact_jump_matrix(model):
    # The pair orders the states: the initial one first, the other live ones
    # as declared, and every death state lumped into the last.
    jump, lam = markov._jump_pair(model, 1.0)  # q = Λ·1 is Λ itself
    live = [model.initial] + [s for s in model.states
                              if s != model.initial and s not in model.death_states]
    index = {s: live.index(s) if s in live else len(live) for s in model.states}
    n = len(live) + 1
    exact = [[Fraction(0)] * n for _ in range(n)]
    for tr in model.transitions:
        exact[index[tr.source]][index[tr.target]] += Fraction(tr.rate)
    outs = [sum(row) for row in exact]
    assert max(outs) <= Fraction(lam) <= max(outs) * (1 + Fraction(2) ** -51)
    for i, row in enumerate(exact):
        for j, rate in enumerate(row):
            p = (rate + (Fraction(lam) - outs[i] if i == j else 0)) / Fraction(lam)
            low, high = jump[:, i, j]
            assert 0 <= low <= p <= high, (i, j)
            # A few floats wide, or a few subnormals of the sum over Λ.
            assert high - low <= 8 * math.ulp(high) + 4 * math.ulp(0.0) / lam, (i, j)
            if p == 0:
                assert high == 0, (i, j)
            total = p * Fraction(lam)
            if total and Fraction(float(total)) == total:
                # An exact sum steps one float outward only after the division.
                quotient = float(total) / lam
                assert low == max(math.nextafter(quotient, -math.inf), 0.0), (i, j)
                assert high == math.nextafter(quotient, math.inf), (i, j)


def test_squared_bracket_below_the_width_floor_meets_tol_in_absolute_width():
    # q = 1e6, so the solver squares. The tail mass cut from each step's
    # series leaves the upper bound near 5e-56, far above the exact 2e-80 but
    # far below WIDTH_FLOOR, where tol is an absolute width as in the series.
    model = _repair_chain(1e-40, 1e3)
    bracket = death_probability(model, T)
    assert _contains(bracket, _expm_death_probability(model, T))
    assert bracket.upper - bracket.lower <= DEFAULT_TOL * WIDTH_FLOOR


@pytest.mark.parametrize("q", [1e-6, 1e-3, 0.1, 1.0])
def test_squared_bracket_below_one_step_brackets_the_exact_value(q):
    # Below _STEP_Q/2 the step's series alone gives the bracket, unsquared.
    lam = q / T
    bracket = markov._squared_bracket(*markov._jump_pair(build_simplex_model(lam), T), DEFAULT_TOL)
    with mpmath.workdps(50):
        assert _contains(bracket, -mpmath.expm1(-mpmath.mpf(lam) * T))
    assert bracket.upper - bracket.lower <= DEFAULT_TOL * max(bracket.upper, WIDTH_FLOOR)


def test_squared_bracket_wider_than_tol_is_refused():
    # The squaring factors alone stay below tol, but the bracket is wider:
    # [6.3e-10, 7.1e-10] is about 11% wide, and at mu = 1 the bracket is
    # 3.6e-12 wide around 0.00199. The refusal prints both bounds in full,
    # so the width that caused it shows even where 3 digits would agree.
    for lam, mu, tol in [(0.1, 3e10, DEFAULT_TOL), (1e-3, 1.0, 3e-12)]:
        with pytest.raises(SolverError, match=r"not reached by \d+ squarings") as refusal:
            death_probability(_repair_chain(lam, mu), T, tol)
        bounds = re.search(r"\[(\S+), (\S+)\]", str(refusal.value)).groups()
        lower, upper = map(float, bounds)
        assert 0 < lower < upper and upper - lower > tol * upper


def test_chain_too_stiff_for_the_rounding_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"rounding of 2\^\d+ squaring steps alone"):
            death_probability(_repair_chain(1e-3, 1e15), T)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_mc_simplex_matches_analytic():
    estimate = monte_carlo_death_probability(build_simplex_model(1e-3), [T], 10 ** 6,
                                             seed=7)[0]
    assert abs(estimate.estimate - (1 - math.exp(-1))) <= estimate.ci99


def test_mc_single_trial_reproducible():
    one = monte_carlo_death_probability(build_simplex_model(1e-3), [T], 1, seed=3)[0]
    two = monte_carlo_death_probability(build_simplex_model(1e-3), [T], 1, seed=3)[0]
    assert one.estimate in (0.0, 1.0)
    assert one.estimate == two.estimate


def test_mc_zero_mission_time():
    estimate = monte_carlo_death_probability(build_tmr_model(1e-3), [0.0], 100, seed=1)[0]
    assert estimate.estimate == 0.0


@pytest.mark.parametrize("mission_time", [math.nan, math.inf, -1.0])
def test_mc_refuses_a_mission_time_the_solver_refuses(mission_time):
    # The oracle refuses it as any of its mission times.
    for oracle in (death_probability,
                   lambda model, t: monte_carlo_death_probability(model, [t], 100, seed=1),
                   lambda model, t: monte_carlo_death_probability(model, [0.0, t], 100, seed=1)):
        with pytest.raises(ValueError, match="^mission time must be non-negative and finite$"):
            oracle(build_simplex_model(1e-3), mission_time)


def test_mc_seed_determinism():
    model = build_ifr_pipeline_model(1e-3, 1e-3, 1e-3)
    a = monte_carlo_death_probability(model, [T], 5000, seed=5)[0]
    b = monte_carlo_death_probability(model, [T], 5000, seed=5)[0]
    assert a.estimate == b.estimate and a.deaths == b.deaths


def test_mc_overlap_with_solver_bracket():
    for builder in (build_simplex_model, build_tmr_model, build_standby_model):
        model = builder(1e-3)
        bracket = death_probability(model, T)
        estimate = monte_carlo_death_probability(model, [T], 200_000, seed=21)[0]
        assert estimate.estimate - estimate.ci99 <= bracket.upper
        assert estimate.estimate + estimate.ci99 >= bracket.lower


_TRAP_MODEL = """
    CONST l = 1e-3;
    STATE up; STATE safe_stop; STATE dead DEATH;
    INIT up;
    up -> safe_stop : l;
    up -> dead : 0.5 * l;
"""
_REPAIR_CHAIN = """
    CONST lambda = 1e-3; CONST mu = 1e-2;
    STATE up; STATE degraded; STATE dead DEATH;
    INIT up;
    up -> degraded : 2 * lambda;
    degraded -> up : mu;
    degraded -> dead : lambda;
"""


@pytest.mark.parametrize("make_model, trials, deaths, estimate, ci99", [
    # Trials sent by the first hop to a live state with no way out.
    (lambda: parse_model(_TRAP_MODEL), 20_000, 5223, 0.26115, 0.008000649330865247),
    # Trials moving back to a lower-indexed state.
    (lambda: parse_model(_REPAIR_CHAIN), 20_000, 2613, 0.13065, 0.006138384916233164),
    # Trials sent by the first hop to a state whose targets all kill.
    (lambda: build_ifr_pipeline_model(1e-3, 0.1, 0.1), 20_000, 7837, 0.39185,
     0.008891342970457121),
    # A live first hop, then a state with one target, a death state.
    (lambda: build_tmr_model(1e-3), 20_000, 13782, 0.6891, 0.008430504561797413),
    (lambda: build_standby_model(1e-3), 20_000, 7923, 0.39615, 0.00890833308792233),
    # Four chunks on one stream, the last of 5 trials.
    (lambda: build_ifr_pipeline_model(1e-3, 0.1, 0.1), 3 * MC_CHUNK + 5, 39001,
     0.3967185100041705, 0.00401903392966089),
], ids=["trap", "repair", "ifr-pipeline", "tmr", "standby", "ifr-pipeline-chunks"])
def test_mc_exact_draws_are_pinned(make_model, trials, deaths, estimate, ci99):
    # Pins the oracle's draw order: any change to which trial consumes which
    # random number moves these exact values.
    got = monte_carlo_death_probability(make_model(), [T], trials, seed=7)[0]
    assert (got.deaths, got.estimate, got.ci99) == (deaths, estimate, ci99)


def test_mc_memory_is_bounded_by_one_chunk():
    model = build_ifr_pipeline_model(1e-3, 1e-3, 1e-3)
    tracemalloc.start()
    try:
        monte_carlo_death_probability(model, [T], 2 ** 19, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 chunks of MC_CHUNK trials peak near 0.48 MiB (1.2 MiB as the first
    # oracle call in a process), since a chunk holds a clock only for its
    # trials still alive; the same trials in one chunk peak near 5.4 MiB
    # (6.1 MiB as the first call).
    assert peak < 2 * 2 ** 20


def test_mc_memory_holds_only_one_chunk_of_live_trials():
    # 32 chunks that hold clocks only for their live trials peak near
    # 0.48 MiB; chunks that held a state and a clock for every trial peaked
    # near 4.2 MiB, and all 2**20 trials in one chunk peak near 10.7 MiB.
    model = build_ifr_pipeline_model(1e-3, 1e-3, 1e-3)
    tracemalloc.start()
    try:
        monte_carlo_death_probability(model, [T], 2 ** 20, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_mc_trials_that_stay_in_the_initial_state_cost_no_memory():
    # About one trial in a million leaves the initial state; the multinomial
    # first hop leaves the others undrawn and unstored.
    tracemalloc.start()
    try:
        estimate = monte_carlo_death_probability(build_simplex_model(1e-9), [T], 2 ** 20,
                                                 seed=1)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10
    assert estimate.deaths < 10


def test_mc_splits_a_total_rate_that_overflows_by_the_rates():
    model = parse_model("STATE up; STATE a DEATH; STATE b DEATH; INIT up;"
                        "up -> a : 1e308; up -> b : 1e308;")
    assert monte_carlo_death_probability(model, [T], 100, seed=1)[0].deaths == 100
    assert monte_carlo_death_probability(model, [0.0], 100, seed=1)[0].deaths == 0
    assert [e.deaths for e in monte_carlo_death_probability(model, [0.0, T], 100, seed=1)] \
        == [0, 100]


def test_mc_initial_state_without_transitions_never_dies():
    estimate = monte_carlo_death_probability(parse_model("STATE up; INIT up;"), [T], 1000,
                                             seed=1)[0]
    assert (estimate.estimate, estimate.ci99, estimate.deaths) == (0.0, 0.0, 0)


@pytest.mark.parametrize("make_model", [
    # First hop straight to a death state.
    lambda: build_simplex_model(1e-3),
    # First hop, then a successor whose targets are all death states.
    lambda: build_tmr_model(1e-3),
    lambda: build_ifr_pipeline_model(1e-3, 0.1, 0.1),
    # Returns to a lower-indexed state.
    lambda: parse_model(_REPAIR_CHAIN),
    # A live trap.
    lambda: parse_model(_TRAP_MODEL),
], ids=["simplex", "tmr", "ifr-pipeline", "repair", "trap"])
def test_mc_death_counts_follow_the_binomial(make_model):
    # Each mission time of one shared run counts a binomial number of deaths.
    model = make_model()
    times = [T / 8, T / 2, T]
    trials, seeds = 4_000, range(50)
    runs = [monte_carlo_death_probability(model, times, trials, seed=seed) for seed in seeds]
    for i, mission_time in enumerate(times):
        bracket = death_probability(model, mission_time, tol=1e-9)
        p = (bracket.lower + bracket.upper) / 2
        sd = math.sqrt(trials * p * (1 - p))
        z = np.array([(run[i].deaths - trials * p) / sd for run in runs])
        assert abs(z.sum() / math.sqrt(z.size)) <= 4.5, mission_time
        assert 0.5 <= z.std(ddof=1) <= 1.6, mission_time


def test_mc_next_chunk_continues_the_stream():
    # Trial MC_CHUNK + 1 runs in a chunk of its own, drawn after every round of
    # the first chunk, so it adds at most one death to the first chunk's count.
    model = build_ifr_pipeline_model(1e-3, 0.1, 0.1)

    def deaths(trials):
        return monte_carlo_death_probability(model, [T], trials, seed=11)[0].deaths

    assert deaths(MC_CHUNK + 1) - deaths(MC_CHUNK) in (0, 1)


def test_mc_sweep_estimates_never_decrease(tmp_path):
    # The points of a sweep share one run, so a point counts every death a
    # smaller rate counts. Independent runs, one per point, differ by more
    # than these close-spaced points do.
    out = tmp_path / "sweep.csv"
    assert main(["markov", "--builtin", "ifr-pipeline", "--sweep", "1e-3", "1.01e-3", "9",
                 "--mc", "4000", "--seed", "5", "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()
                     if not line.startswith("#")]
    estimates = [float(row[header.index("mc_estimate")]) for row in rows]
    assert len(estimates) == 9
    assert estimates == sorted(estimates)


def test_mc_multiple_mission_times_keep_one_chunk_of_memory():
    # The 25 mission times of a 25-point sweep: the first hop has 25
    # categories per death target, and each count reads the arrivals drawn.
    model = build_ifr_pipeline_model(1e-3, 1e-3, 1e-3)
    times = [T * 10 ** (i / 12 - 2) for i in range(25)]
    tracemalloc.start()
    try:
        monte_carlo_death_probability(model, times, 2 ** 20, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_mc_last_mission_time_is_a_run_of_its_own_where_nothing_dies_first():
    # tmr's first hop has one live target, so more mission times add no
    # category there, and the last one counts the deaths of its own run.
    model = build_tmr_model(1e-3)
    alone = monte_carlo_death_probability(model, [T], 20_000, seed=7)
    shared = monte_carlo_death_probability(model, [T / 4, T / 2, T], 20_000, seed=7)
    assert shared[-1] == alone[0]
    assert [e.deaths for e in shared] == sorted(e.deaths for e in shared)


@pytest.mark.parametrize("times, message", [
    ([], "at least one mission time"),
    ([T, T / 2], "mission times must be sorted"),
])
def test_mc_refuses_no_mission_time_or_unsorted_ones(times, message):
    with pytest.raises(ValueError, match=message):
        monte_carlo_death_probability(build_simplex_model(1e-3), times, 100, seed=1)


# ---------------------------------------------------------------------------
# Rates that scale with one constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, name", [
    (build_simplex_model(1e-3), "lambda"), (build_tmr_model(1e-3), "lambda"),
    (build_standby_model(1e-3), "lambda"),
    # Its switch and controller rates are constants defined from lambda_p.
    (build_ifr_pipeline_model(1e-3, 1e-3, 1e-3), "lambda_p"),
    (parse_model(Path(__file__).resolve().parent.parent.joinpath(
        "samples", "twostate.model").read_text()), "lambda"),
    # A sum of terms of degree 1, and a factor in parentheses.
    (parse_model("CONST l = 1; CONST k = 2 * l; STATE up; STATE dead DEATH; INIT up;"
                 "up -> dead : (l + k) * 3;"), "l"),
], ids=["simplex", "tmr", "standby", "ifr-pipeline", "twostate", "sum"])
def test_rates_that_are_the_constant_times_a_factor_scale_with_it(model, name):
    assert model.scales_with(name)


@pytest.mark.parametrize("text, name", [
    ("CONST lambda = 1; CONST c = 2; STATE up; STATE dead DEATH; INIT up;"
     "up -> dead : lambda + c;", "lambda"),
    ("CONST lambda = 1; STATE up; STATE dead DEATH; INIT up;"
     "up -> dead : lambda * lambda;", "lambda"),
    # The repair rate mu stays fixed while lambda moves.
    (_REPAIR_CHAIN, "lambda"),
    (_REPAIR_CHAIN, "mu"),
    ("CONST lambda = 1; CONST c = lambda * lambda; STATE up; STATE dead DEATH; INIT up;"
     "up -> dead : c;", "lambda"),
], ids=["plus-constant", "square", "repair-lambda", "repair-mu", "defined-square"])
def test_rates_not_of_degree_one_do_not_scale(text, name):
    assert not parse_model(text).scales_with(name)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_endpoints_exact():
    spec = SweepSpec("lambda", 1e-6, 1e-2, 25, T)
    grid = spec.grid()
    assert grid[0] == 1e-6
    assert grid[-1] == pytest.approx(1e-2, rel=1e-12)
    assert len(grid) == 25


def test_sweep_rejects_degenerate_range():
    with pytest.raises(ValueError):
        SweepSpec("lambda", 1e-3, 1e-3, 2, T)
    with pytest.raises(ValueError):
        SweepSpec("lambda", 1e-6, 1e-2, 1, T)


def test_simplex_sweep_starts_at_expected_value():
    first = SweepSpec("lambda", 1e-6, 1e-2, 25, T).grid()[0]
    bracket = death_probability(build_simplex_model(first), T)
    assert first == 1e-6
    assert bracket.lower <= analytic_simplex(1e-6, T) <= bracket.upper


def test_sweep_upper_bounds_monotone_for_builtins():
    grid = SweepSpec("lambda", 1e-6, 1e-2, 25, T).grid()
    for builder in (build_simplex_model, build_tmr_model, build_standby_model):
        uppers = [death_probability(builder(lam), T).upper for lam in grid]
        assert all(b >= a - 1e-15 for a, b in zip(uppers, uppers[1:])), builder


def test_sweep_points_increasing_and_bounded():
    grid = SweepSpec("lambda", 1e-6, 1e-2, 10, T).grid()
    assert all(b > a for a, b in zip(grid, grid[1:]))
    for lam in grid:
        bracket = death_probability(build_tmr_model(lam), T)
        assert 0.0 <= bracket.lower <= bracket.upper <= 1.0


def test_sweep_named_constant_of_parsed_model():
    model = parse_model("""
        CONST lambda = 1e-4;
        STATE up; STATE dead DEATH;
        INIT up;
        up -> dead : lambda;
    """)
    grid = SweepSpec("lambda", 1e-6, 1e-4, 5, T).grid()
    assert len(grid) == 5
    for lam in grid:
        bracket = death_probability(model.with_constant("lambda", lam), T)
        assert bracket.lower <= analytic_simplex(lam, T) <= bracket.upper


DERIVED = """
    CONST lambda = 1e-3;
    CONST mu = 2 * lambda;
    STATE up; STATE dead DEATH;
    INIT up;
    up -> dead : mu;
"""


def test_with_constant_re_evaluates_derived_constants():
    model = parse_model(DERIVED).with_constant("lambda", 1e-5)
    assert model.constants == {"lambda": 1e-5, "mu": 2e-5}
    assert model.transitions[0].rate == 2e-5


def test_with_constant_replaces_a_derived_definition():
    model = parse_model(DERIVED)
    swept = model.with_constant("mu", 7e-4)
    assert swept.constants == {"lambda": 1e-3, "mu": 7e-4}
    assert swept.transitions[0].rate == 7e-4
    assert model.constants["mu"] == 2e-3 and model.transitions[0].rate == 2e-3


def test_with_constant_rejects_unknown_name():
    with pytest.raises(ModelError, match="unknown constant 'nu'"):
        parse_model(DERIVED).with_constant("nu", 1.0)


def test_with_constant_on_a_model_built_without_definitions():
    model = MarkovModel(("up", "dead"), "up", frozenset({"dead"}),
                        (Transition("up", "dead", 3e-3, ("*", ("const", "k"), ("const", "lam"))),),
                        {"lam": 1e-3, "k": 3.0})
    assert model.with_constant("k", 2.0).transitions[0].rate == 2e-3
