"""ifrsim: a desk-scale, deterministic model of a repairable pipelined core.

The package couples three things: a fault-injectable 3-stage pipeline whose
stages carry cold spares and swap on permanent faults, the closed-form
redundancy mathematics used to reason about such designs, and a bounded
Markov mission-reliability solver with a Monte Carlo oracle. The package
re-exports nothing: import the module you use (`ifrsim.pipeline`,
`ifrsim.markov`, ...). Only `markov` and `cli` load numpy.
"""
__version__ = "0.1.0"
