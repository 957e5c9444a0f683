"""ifrsim: a desk-scale, deterministic model of a repairable pipelined core.

The package couples three things: a fault-injectable 3-stage pipeline whose
stages carry cold spares and swap on permanent faults, the closed-form
redundancy mathematics used to reason about such designs, and a bounded
Markov mission-reliability solver with a Monte Carlo oracle.
"""
from .formulas import (availability, r_ifr, r_ifr_pipeline, r_standby, r_tmr,
                       reliability_from_rate)
from .faults import (Delay, FaultScenario, FaultSite, FaultUnit, PERMANENT,
                     ScenarioError, StressLedger, StuckAt, TimedFault,
                     TransientFlip, apply_faults, parse_scenario,
                     update_stress)
from .hw import (BUS_BITS, Copy, PowerState, StageKind, encode_bus,
                 estimate_switch_transistors, parity_check, parity_encode,
                 switch_route, trc_compare)
from .isa import (ArchState, AssemblyError, ExecutionError, Instruction,
                  Opcode, Program, assemble, decode_word, encode_instruction,
                  run_reference)
from .markov import (BoundedProbability, MarkovModel, ModelError,
                     MonteCarloEstimate, SolverError, SweepSpec,
                     build_ifr_pipeline_model, build_simplex_model,
                     build_standby_model, build_tmr_model, death_probability,
                     monte_carlo_death_probability, parse_model, sweep)
from .pipeline import (ControllerActions, ControllerMode, ControllerState,
                       CoreConfig, Outcome, RecoveryEvent, SimReport,
                       controller_step, matches_reference, run_core)

__version__ = "0.1.0"
