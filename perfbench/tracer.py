"""Outside-in tracing of hu_shadow: spans and counters installed by the benchmark.

Every wrapper is installed from here, around the public functions of each
module and at each place a caller looks the name up (``from .x import f``
copies the binding, so patching the defining module alone is not enough).
Nothing inside ``src/hu_shadow`` is changed.

Spans (name, start, end, parent, operation) are kept in memory for the
length of one traced pass; the hottest leaf calls (``MapSystem.eval_map``,
``eval_q``, ``growth_rate`` and ``numpy.polyfit`` from ``growth``) are only
counted, because a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from hu_shadow import cli, growth, instability, oracle, scenario, shadowing, systems


def _count_orbit(counts, orbit):
    counts["systems.orbit_steps"] += orbit.horizon
    counts["systems.truncated_orbits"] += int(orbit.truncated)


def _count_iterations(counts, result):
    counts["shadowing.fixed_point_iterations"] += result.meta.iterations


def _count_samples(counts, witness):
    counts["instability.witness_samples"] += len(witness.samples)


#: span name -> (defining module, modules that look the name up, result hook)
SPANS = {
    "systems.generate_pseudo_orbit": (
        systems, (shadowing, instability, cli), _count_orbit),
    "growth.profile_of": (growth, (cli,), None),
    "growth.classify": (growth, (cli,), None),
    "growth.detect_periodic_scaled": (growth, (cli,), None),
    "growth.double_factorial_envelope_holds": (growth, (), None),
    "shadowing.shadow_contracting": (shadowing, (cli,), None),
    "shadowing.shadow_expanding": (shadowing, (cli,), _count_iterations),
    "shadowing.accumulated_rate_bound": (shadowing, (), None),
    "instability.witness_divergence": (instability, (cli,), _count_samples),
    "oracle.best_b1_search": (oracle, (), None),
    "oracle.sup_error_for_start": (oracle, (), None),
    "oracle.exact_propagate": (oracle, (), None),
    "scenario.load_scenario": (scenario, (cli,), None),
    "cli.main": (cli, (), None),
}

#: counter name -> MapSystem method it counts
METHOD_COUNTERS = {
    "systems.eval_map_calls": "eval_map",
    "systems.eval_q_calls": "eval_q",
    "systems.growth_rate_calls": "growth_rate",
}

#: every counter a traced pass reports, present even when zero
COUNTERS = (
    *METHOD_COUNTERS,
    "systems.orbit_steps",
    "systems.truncated_orbits",
    "growth.polyfit_calls",
    "shadowing.accumulated_rate_bound_calls",
    "shadowing.fixed_point_iterations",
    "instability.witness_samples",
    "oracle.sup_error_for_start_calls",
)

#: span names whose call count is reported as ``<name>_calls``
COUNTED_SPANS = ("shadowing.accumulated_rate_bound", "oracle.sup_error_for_start")


class _NumpyForGrowth:
    """``numpy`` as ``hu_shadow.growth`` sees it, with ``polyfit`` counted."""

    def __init__(self, numpy, polyfit):
        self._numpy = numpy
        self.polyfit = polyfit

    def __getattr__(self, name):
        return getattr(self._numpy, name)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation]
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.operation = None
        self._stack = []

    def span(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + "_calls" if name in COUNTED_SPANS else None

        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.operation]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if calls:
                counts[calls] += 1
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for name, (home, users, hook) in SPANS.items():
                attr = name.split(".", 1)[1]
                original = getattr(home, attr)
                wrapped = self.span(name, original, hook)
                for owner in (home, *users):
                    if getattr(owner, attr) is not original:
                        raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
                    patch(owner, attr, wrapped)
            for name, method in METHOD_COUNTERS.items():
                patch(systems.MapSystem, method,
                      self.counter(name, getattr(systems.MapSystem, method)))
            np = growth.np
            patch(growth, "np", _NumpyForGrowth(
                np, self.counter("growth.polyfit_calls", np.polyfit)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def self_times(self):
        """{(span name, operation): summed self time} over this pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[name, op] += end - start - child[i]
        return out

    def inclusive_times(self):
        """{(span name, operation): summed span duration, children included}."""
        out = defaultdict(float)
        for name, start, end, _, op in self.spans:
            out[name, op] += end - start
        return out
