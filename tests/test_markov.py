import math
import random
import tracemalloc
from functools import partial

import pytest

from ifrsim import markov
from ifrsim.markov import (MC_CHUNK, WIDTH_FLOOR, BoundedProbability, MarkovModel, ModelError, SolverError,
                           SweepSpec, Transition, build_ifr_pipeline_model,
                           build_simplex_model, build_standby_model, build_tmr_model,
                           death_probability, monte_carlo_death_probability,
                           parse_model, sweep)

T = 1000.0


def analytic_simplex(lam, t):
    return 1.0 - math.exp(-lam * t)


def analytic_tmr(lam, t):
    return 1.0 - (3.0 * math.exp(-2.0 * lam * t) - 2.0 * math.exp(-3.0 * lam * t))


def analytic_standby(lam, t):
    return (1.0 - math.exp(-lam * t)) ** 2


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
    truth = (0.5 / 1.5) * (1 - math.exp(-1.5e-3 * T))
    assert bracket.lower <= truth <= bracket.upper
    mc = monte_carlo_death_probability(model, T, 100_000, seed=2)
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
    assert model.outgoing_rate("3up") == pytest.approx(6e-4)
    assert model.outgoing_rate("2up") == pytest.approx(4e-4)


def test_ifr_outgoing_sum_is_total_component_rate():
    model = build_ifr_pipeline_model(1e-3, 1e-5, 1e-6)
    expected = 1e-3 + 1e-5 + 1e-6
    assert model.outgoing_rate("all_up") == pytest.approx(expected, rel=1e-12)
    assert model.outgoing_rate("on_spare") == pytest.approx(expected, rel=1e-12)


def test_builders_reject_bad_rates():
    for builder in (build_simplex_model, build_tmr_model, build_standby_model):
        with pytest.raises(ValueError):
            builder(0.0)
    with pytest.raises(ValueError):
        build_ifr_pipeline_model(1e-3, -1e-5, 1e-6)


# ---------------------------------------------------------------------------
# Bound solver
# ---------------------------------------------------------------------------

def test_death_probability_at_time_zero():
    assert death_probability(build_tmr_model(1e-3), 0.0) == BoundedProbability(0.0, 0.0)


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


def test_solver_budget_failure_is_explicit(monkeypatch):
    monkeypatch.setattr(markov, "MAX_SERIES_TERMS", 3)
    with pytest.raises(SolverError, match="bound width"):
        death_probability(build_tmr_model(1e-2), T, tol=1e-9)


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
    # The outward nudge alone widens any bracket near 0.63 by 2.003e-12
    # relative, and one of about 1e-15 to 2e-15 absolute.
    (1e-3, 1e-12), (1e-3, 2e-12), (1e-18, 1e-4)])
def test_tol_the_outward_rounding_cannot_meet_is_refused(lam, tol):
    with pytest.raises(SolverError, match="outward rounding"):
        death_probability(build_simplex_model(lam), T, tol=tol)


@pytest.mark.parametrize("lam, mission_time", [(1e308, T), (1e300, 1e10)])
def test_overflowing_uniformization_rate_is_refused_before_the_series(lam, mission_time):
    # Uniformization needs q = rate*T finite; an infinite q would spend the
    # whole series budget on NaN terms.
    with pytest.raises(SolverError, match="not finite"):
        death_probability(build_simplex_model(lam), mission_time)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_mc_simplex_matches_analytic():
    estimate = monte_carlo_death_probability(build_simplex_model(1e-3), T, 10 ** 6, seed=7)
    assert abs(estimate.estimate - (1 - math.exp(-1))) <= estimate.ci99


def test_mc_single_trial_reproducible():
    one = monte_carlo_death_probability(build_simplex_model(1e-3), T, 1, seed=3)
    two = monte_carlo_death_probability(build_simplex_model(1e-3), T, 1, seed=3)
    assert one.estimate in (0.0, 1.0)
    assert one.estimate == two.estimate


def test_mc_zero_mission_time():
    estimate = monte_carlo_death_probability(build_tmr_model(1e-3), 0.0, 100, seed=1)
    assert estimate.estimate == 0.0


@pytest.mark.parametrize("mission_time", [math.nan, math.inf, -1.0])
def test_mc_refuses_a_mission_time_the_solver_refuses(mission_time):
    for oracle in (death_probability, partial(monte_carlo_death_probability,
                                              trials=100, seed=1)):
        with pytest.raises(ValueError, match="^mission time must be non-negative and finite$"):
            oracle(build_simplex_model(1e-3), mission_time)


def test_mc_seed_determinism():
    a = monte_carlo_death_probability(build_ifr_pipeline_model(1e-3, 1e-6, 1e-6), T, 5000, seed=5)
    b = monte_carlo_death_probability(build_ifr_pipeline_model(1e-3, 1e-6, 1e-6), T, 5000, seed=5)
    assert a.estimate == b.estimate and a.deaths == b.deaths


def test_mc_overlap_with_solver_bracket():
    for builder in (build_simplex_model, build_tmr_model, build_standby_model):
        model = builder(1e-3)
        bracket = death_probability(model, T)
        estimate = monte_carlo_death_probability(model, T, 200_000, seed=21)
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


@pytest.mark.parametrize("make_model, estimate, ci99", [
    # Trials stuck in a live state with no way out.
    (lambda: parse_model(_TRAP_MODEL), 0.26225, 0.00801151110965198),
    # Trials moving back to a lower-indexed state.
    (lambda: parse_model(_REPAIR_CHAIN), 0.1332, 0.006188902565825071),
    # Trials moving on to a later state within one round.
    (lambda: build_ifr_pipeline_model(1e-3, 1e-4, 1e-4), 0.3943, 0.008901111824736728),
], ids=["trap", "repair", "ifr-pipeline"])
def test_mc_exact_draws_are_pinned(make_model, estimate, ci99):
    # Pins the oracle's draw order: any change to which trial consumes which
    # random number moves these exact values.
    got = monte_carlo_death_probability(make_model(), T, 20_000, seed=7)
    assert (got.estimate, got.ci99) == (estimate, ci99)


def test_mc_memory_is_bounded_by_one_chunk():
    model = build_ifr_pipeline_model(1e-3, 1e-6, 1e-6)
    tracemalloc.start()
    try:
        monte_carlo_death_probability(model, T, 2 ** 19, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 chunks of MC_CHUNK trials; all 2**19 trials at once peak near 40 MiB.
    assert peak < 8 * 2 ** 20


def test_mc_next_chunk_continues_the_stream():
    # Trial MC_CHUNK + 1 runs in a chunk of its own, drawn after every round of
    # the first chunk, so it adds at most one death to the first chunk's count.
    model = build_ifr_pipeline_model(1e-3, 1e-4, 1e-4)

    def deaths(trials):
        return monte_carlo_death_probability(model, T, trials, seed=11).deaths

    assert deaths(MC_CHUNK + 1) - deaths(MC_CHUNK) in (0, 1)


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
    curve = sweep(build_simplex_model, SweepSpec("lambda", 1e-6, 1e-2, 25, T))
    first = curve[0]
    assert first.lam == 1e-6
    assert first.lower <= analytic_simplex(1e-6, T) <= first.upper


def test_sweep_upper_bounds_monotone_for_builtins():
    spec = SweepSpec("lambda", 1e-6, 1e-2, 25, T)
    for builder in (build_simplex_model, build_tmr_model, build_standby_model):
        curve = sweep(builder, spec)
        uppers = [p.upper for p in curve]
        assert all(b >= a - 1e-15 for a, b in zip(uppers, uppers[1:])), builder


def test_sweep_points_increasing_and_bounded():
    curve = sweep(build_tmr_model, SweepSpec("lambda", 1e-6, 1e-2, 10, T))
    for point in curve:
        assert point.error is None
        assert 0.0 <= point.lower <= point.upper <= 1.0


def test_sweep_named_constant_of_parsed_model():
    model = parse_model("""
        CONST lambda = 1e-4;
        STATE up; STATE dead DEATH;
        INIT up;
        up -> dead : lambda;
    """)
    curve = sweep(partial(model.with_constant, "lambda"), SweepSpec("lambda", 1e-6, 1e-4, 5, T))
    assert len(curve) == 5
    for point in curve:
        truth = analytic_simplex(point.lam, T)
        assert point.lower <= truth <= point.upper


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
