"""Call tracing at the layer boundaries of ifrsim, from outside the package.

`Tracer.install` replaces each public function listed in LAYERS by a timing
wrapper in every ifrsim module that binds it, so a call is seen as the
calling module makes it (`pipeline` calls `hw.encode_bus` through its own
`encode_bus` name). Each wrapper records calls, inclusive seconds and self
seconds, where self time is the inclusive time minus the time spent in
wrapped callees. `uninstall` puts the original functions back.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer module -> public functions timed at its boundary
LAYERS = {
    "pipeline": ("run_core", "controller_step"),
    "hw": ("encode_bus", "parity_check", "switch_route", "trc_compare"),
    "faults": ("apply_faults", "apply_vector_faults", "update_stress", "parse_scenario"),
    "isa": ("decode_word", "execute_result", "encode_instruction", "run_reference",
            "assemble"),
    "markov": ("death_probability", "monte_carlo_death_probability", "parse_model"),
    "formulas": ("availability", "r_ifr", "r_ifr_pipeline", "r_standby", "r_tmr",
                 "reliability_from_rate"),
    "cli": ("main",),
}


class Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.observers: dict = {}  # name -> callable(args, kwargs, result, exc)
        self._stack: list = []
        self._patches: list = []

    def observe(self, name: str, callback) -> None:
        self.observers[name] = callback

    def reset(self) -> dict[str, Stat]:
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, name: str, fn):
        stack = self._stack
        observer = self.observers.get(name)

        def traced(*args, **kwargs):
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            frame = [0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if observer is not None:
                    observer(args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ifrsim" or n.startswith("ifrsim."))]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"ifrsim.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        report = importlib.import_module("ifrsim.report")
        render = report.CsvReport.render
        self._patches.append((report.CsvReport, "render", render))
        report.CsvReport.render = self._wrap("report.render", render)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
