"""Per-layer tracing from outside the package.

`Tracer.installed()` replaces the public functions of each vrfplan module,
and the names other modules imported from them, with wrappers that record
one span per call: name, layer, duration, the time its direct children
cover, and the layers of the spans open around it. The originals are put
back on exit. Counts come from the returned objects (`len(StateSpace)`,
`SimStats.events_processed`) and from a log handler on `vrfplan.rru` that
sees each closed-form fallback.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import time

import vrfplan.aggregator
import vrfplan.cli
import vrfplan.config
import vrfplan.rru
import vrfplan.sim

#: (module, attribute, layer, span name). Every module that imported a
#: function by name is listed too, so that no call escapes the wrapper.
WRAPPED = (
    (vrfplan.rru, "transition_rates", "rru", "rru.transition_rates"),
    (vrfplan.aggregator, "transition_rates", "rru", "rru.transition_rates"),
    (vrfplan.sim, "transition_rates", "rru", "rru.transition_rates"),
    (vrfplan.aggregator, "enumerate_states", "aggregator", "aggregator.enumerate_states"),
    (vrfplan.aggregator, "product_form", "aggregator", "aggregator.product_form"),
    (vrfplan.aggregator, "blocking", "aggregator", "aggregator.blocking"),
    (vrfplan.aggregator, "spec_from_planning", "aggregator", "aggregator.spec_from_planning"),
    (vrfplan.aggregator, "blocking_for_planning", "aggregator",
     "aggregator.blocking_for_planning"),
    (vrfplan.sim, "run", "sim", "sim.run"),
    (vrfplan.cli, "cmd_sweep", "cli", "cli.sweep"),
)
#: Validation of the configuration types runs in their __post_init__.
CONFIG_CLASSES = (
    vrfplan.config.PlanningConfig,
    vrfplan.config.TrafficSpec,
    vrfplan.config.RateSet,
    vrfplan.config.ThresholdPolicy,
    vrfplan.config.CpriProfile,
)
MODEL_LAYERS = frozenset({"rru", "aggregator", "sim"})


class _FallbackCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "closed form failed" in record.getMessage():
            self.count += 1


class Tracer:
    """Spans of one traced round, kept in memory until `metrics()`."""

    def __init__(self) -> None:
        # (name, layer, duration, direct-child time, layers of open ancestors)
        self.spans: list[tuple[str, str, float, float, frozenset]] = []
        self._open: list[list] = []          # [layer, child time] per open span
        self.specs: list[object] = []
        self.states: list[int] = []
        self.events = 0
        self._fallbacks = _FallbackCounter()

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            around = frozenset(s[0] for s in self._open)
            self._open.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._open.pop()[1]
                if self._open:
                    self._open[-1][1] += dur
                self.spans.append((name, layer, dur, child, around))
            if name == "rru.transition_rates":
                self.specs.append(args[0] if args else kwargs["spec"])
            elif name == "aggregator.enumerate_states":
                self.states.append(len(result))
            elif name == "sim.run":
                self.events += result.events_processed
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        wrappers = {}
        fallback_log = logging.getLogger("vrfplan.rru")
        try:
            for module, attr, layer, name in WRAPPED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, layer, name)
                setattr(module, attr, wrappers[id(fn)])
            for cls in CONFIG_CLASSES:
                fn = cls.__post_init__
                saved.append((cls, "__post_init__", fn))
                cls.__post_init__ = self._wrap(fn, "config", f"config.{cls.__name__}")
            fallback_log.addHandler(self._fallbacks)
            yield self
        finally:
            fallback_log.removeHandler(self._fallbacks)
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _sum(self, pred, field: str = "dur") -> float:
        total = 0.0
        for name, layer, dur, child, around in self.spans:
            if pred(name, layer, around):
                total += dur - child if field == "self" else dur
        return total

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of this round; `wall_s` is the round's time."""
        def calls(fn: str) -> int:
            return sum(1 for s in self.spans if s[0] == fn)

        def busy(fn: str) -> float:
            return self._sum(lambda n, _l, _a: n == fn)

        rates_calls = calls("rru.transition_rates")
        distinct = len(set(self.specs))
        sim_self = self._sum(lambda n, _l, _a: n == "sim.run", "self")
        # the verb's time minus the outermost model-layer calls inside it
        verb = busy("cli.sweep")
        model_in_verb = self._sum(
            lambda _n, lay, around: lay in MODEL_LAYERS and "cli" in around
            and not around & MODEL_LAYERS)
        out = {
            "rru.transition_rates.calls": rates_calls,
            "rru.transition_rates.busy_s": busy("rru.transition_rates"),
            "rru.transition_rates.distinct": distinct,
            "rru.transition_rates.useful_ratio": distinct / rates_calls if rates_calls else 0.0,
            "rru.fallbacks": self._fallbacks.count,
            "aggregator.enumerate_states.calls": calls("aggregator.enumerate_states"),
            "aggregator.enumerate_states.busy_s": busy("aggregator.enumerate_states"),
            "aggregator.states": sum(self.states),
            "aggregator.states_max": max(self.states, default=0),
            "aggregator.product_form.busy_s": busy("aggregator.product_form"),
            "aggregator.blocking.self_s": self._sum(
                lambda n, _l, _a: n == "aggregator.blocking", "self"),
            "sim.run.calls": calls("sim.run"),
            "sim.run.self_s": sim_self,
            "sim.events": self.events,
            "sim.events_per_s": self.events / sim_self if sim_self > 0 else 0.0,
            "config.busy_s": self._sum(lambda _n, lay, around: lay == "config"
                                       and "config" not in around),
            "cli.sweep.self_s": verb - model_in_verb if verb else 0.0,
        }
        for layer in sorted(MODEL_LAYERS):
            out[f"{layer}.share"] = self._sum(lambda _n, lay, _a, x=layer: lay == x,
                                              "self") / wall_s
        return out
