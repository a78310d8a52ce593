"""Spans and exact counts recorded from outside the program.

The tracer replaces module-level names that the pipeline looks up at call
time (for example `runner.evolve_cumulant` or `cumulant.DOP853`) with thin
wrappers.  Each wrapper opens a span: a name, a start, an end and the index
of the span that was open when it started.  Spans stay in memory and are
written once, after the workload.  Nothing inside the package is edited.

The pipeline runs single-threaded (sweeps with workers=1), so the children
of a span never overlap and its self time is its duration minus the sum of
its direct children's durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

# Per-layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "geometry.build_s": ("geometry.build_array",),
    "couplings.build_s": ("couplings.coupling_matrices",),
    "couplings.spectrum_scan_s": ("couplings.spectrum_scan",),
    "cumulant.pack_cold_s": ("cumulant.pack_cold",),
    "cumulant.evolve_self_s": ("cumulant.evolve_cumulant",),
    "cumulant.ensemble_self_s": ("cumulant.ensemble_run",),
    "exact.evolve_self_s": ("exact.evolve_exact",),
    "analysis.fit_s": ("analysis.fit_stretched",),
    "analysis.correlations_s": ("analysis.connected_correlations",),
    "runner.self_s": ("runner.run", "runner.sweep"),
    "tableio.write_s": ("tableio.write_table",),
}

LAYERS = ("geometry", "couplings", "cumulant", "exact", "analysis", "runner",
          "tableio", "bench")


class Tracer:
    """In-memory spans, exact counts and the inputs kept for re-measurement."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, attrs]
        self._stack = []
        self._installed = []
        self.counts = Counter()
        self.fit_calls = []    # bound arguments of every fit_stretched call
        self.largest_cumulant = None   # (n, init, array, couplings, order)
        self.exact_calls = []  # (init, array, couplings)
        self._packed = set()

    @contextmanager
    def span(self, name, **attrs):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------- install

    def _wrap(self, module, attr, span_name, before=None, attrs_of=None):
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            bound = call.arguments
            if before is not None:
                before(bound)
            attrs = attrs_of(bound) if attrs_of is not None else {}
            with self.span(span_name, **attrs):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self):
        """Wrap the names the pipeline calls through; `uninstall` restores them."""
        from dipolarray import cumulant, exact, runner

        def on_couplings(bound):
            array, motion = bound["array"], bound["motion"]
            n = array.n_atoms
            pairs = 0 if array.dicke else n * (n - 1) // 2
            self.counts["couplings.atoms"] += n
            self.counts["couplings.pairs"] += pairs
            if motion is not None and not motion.is_point:
                self.counts["couplings.motion_pair_samples"] += pairs * motion.samples

        def on_evolve_cumulant(bound):
            init, array, order = bound["init"], bound["array"], bound["order"]
            n = array.n_atoms
            key = (n, order.alpha, order.coherent_sector)
            if key not in self._packed:
                # Cold pack: the first call for an (N, order) builds the
                # index layout that the solve below then reuses.
                self._packed.add(key)
                with self.span("cumulant.pack_cold", n=n, alpha=order.alpha):
                    vec = cumulant.initial_cumulant_state(init, array, order).to_vector()
                self.counts["cumulant.state_len"] = max(
                    self.counts["cumulant.state_len"], len(vec))
            if self.largest_cumulant is None or n > self.largest_cumulant[0]:
                self.largest_cumulant = (n, init, array, bound["couplings"], order)

        def on_evolve_exact(bound):
            n = bound["array"].n_atoms
            self.counts["exact.dim"] = max(self.counts["exact.dim"], 1 << n)
            self.exact_calls.append((bound["init"], bound["array"], bound["couplings"]))

        def on_fit(bound):
            self.fit_calls.append(dict(bound))
            self.counts["analysis.resamples"] += bound["n_resamples"]

        def run_attrs(bound):
            return {"label": bound["config"].label}

        for module in (runner, cumulant):
            self._wrap(module, "build_array", "geometry.build_array")
            self._wrap(module, "coupling_matrices", "couplings.coupling_matrices",
                       on_couplings)
        self._wrap(runner, "evolve_cumulant", "cumulant.evolve_cumulant",
                   on_evolve_cumulant)
        self._wrap(cumulant, "evolve_cumulant", "cumulant.evolve_cumulant",
                   on_evolve_cumulant)
        self._wrap(runner, "ensemble_run", "cumulant.ensemble_run")
        self._wrap(runner, "evolve_exact", "exact.evolve_exact", on_evolve_exact)
        self._wrap(runner, "spectrum_scan", "couplings.spectrum_scan")
        self._wrap(runner, "fit_stretched", "analysis.fit_stretched", on_fit)
        for name in ("connected_correlations", "subradiant_tail",
                     "instantaneous_rate", "resonance_deviation"):
            self._wrap(runner, name, f"analysis.{name}")
        self._wrap(runner, "write_table", "tableio.write_table")
        self._wrap(runner, "run", "runner.run", attrs_of=run_attrs)
        self._wrap(runner, "sweep", "runner.sweep")

        for module, layer in ((cumulant, "cumulant"), (exact, "exact")):
            self._installed.append((module, "DOP853", module.DOP853))
            module.DOP853 = _counting_dop853(module.DOP853, self.counts, layer)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------- reduce

    def self_times(self) -> list:
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        return [end - start - child_total[k]
                for k, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_self_times(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name.split(".")[0]] += own
        return out

    def metric_self_times(self) -> dict:
        own = self.self_times()
        out = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum((t for (name, *_), t in zip(self.spans, own)
                               if name in names), 0.0)
        return out

    def run_durations(self) -> dict:
        """Duration of each top-level run() call, keyed by config label."""
        return {attrs["label"]: end - start
                for name, start, end, _, attrs in self.spans
                if name == "runner.run" and "label" in attrs}

    def write(self, path) -> None:
        rows = [{"name": name, "start": start, "end": end, "parent": parent,
                 "attrs": attrs} for name, start, end, parent, attrs in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh, indent=1, default=str)
            fh.write("\n")


def _counting_dop853(base, counts, layer):
    """A DOP853 subclass that adds its accepted steps and RHS calls to `counts`."""

    class CountingDOP853(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts[f"{layer}.nfev"] += self.nfev

        def step(self):
            before = self.nfev
            message = super().step()
            counts[f"{layer}.steps"] += 1
            counts[f"{layer}.nfev"] += self.nfev - before
            return message

    return CountingDOP853
