"""Span recorder that wraps the program's layer entry points from outside.

Each layer is wrapped at the name its caller looks it up under (a module
global such as ``spinpair.propagators.expm_unitary``, or a class attribute
such as ``FieldProfile.evaluate``), so every call the program makes through
that name becomes a span: layer name, start, end, parent span, request id,
and the exact counts derived from the call's arguments or result.  Spans stay
in memory; the wrappers are in place only while a traced request runs, so
untraced requests run the program untouched.  ``Recorder.dump`` writes the
spans out once the run is over and ``layer_metrics`` derives totals, self
times and counts from them.

A name that no longer exists makes the recorder raise: a renamed entry point
must fail the traced run, never report a layer as idle.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _grid_steps(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    substeps = args[3] if len(args) > 3 else kwargs.get("substeps", 1)
    return {"midpoint_steps": int(grid.n_steps) * int(substeps)}


def _expm_shape(args, kwargs):
    h = np.asarray(args[0] if args else kwargs["h"])
    matrices = int(np.prod(h.shape[:-2], dtype=np.int64))
    return {f"expm_{h.shape[-1]}x{h.shape[-1]}_matrices": matrices}


def _evaluate_points(args, kwargs):
    return {"evaluate_points": int(np.size(args[1] if len(args) > 1 else kwargs["t"]))}


def _halvings(result):
    return {"halvings": int(result.halvings)}


# (module, attribute path, layer, counts from arguments, counts from result)
LAYERS = (
    ("spinpair.cli", "load_config", "scenario.load_config", None, None),
    ("spinpair.cli", "run_scenario", "scenario.run", None, None),
    ("spinpair.cli", "run_sweep", "scenario.run", None, None),
    ("spinpair.scenario", "compare_solutions", "analysis.compare", None, None),
    ("spinpair.scenario", "reference_propagate", "propagators.reference", None, _halvings),
    ("spinpair.analysis", "reference_propagate", "propagators.reference", None, _halvings),
    ("spinpair.analysis", "full_propagator_paths", "propagators.block_route", None, None),
    ("spinpair.propagators", "fixed_step_propagators", "propagators.level", _grid_steps, None),
    ("spinpair.propagators", "expm_unitary", "linalg.expm", _expm_shape, None),
    ("spinpair.propagators", "hamiltonian_batch", "hamiltonian.generator", None, None),
    ("spinpair.propagators", "effective_h_batch", "frames.generator", None, None),
    ("spinpair.propagators", "cumulative_integral", "quadrature.cumulative", None, None),
    ("spinpair.fields", "FieldProfile.evaluate", "fields.evaluate", _evaluate_points, None),
)


class Recorder:
    """In-memory spans of one traced run.

    A span is ``[layer, start, end, parent, request, counts, error]`` with
    ``parent`` the index of the enclosing span (-1 at the top) and ``error``
    the exception type name when the call raised.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self._restore = []

    @contextmanager
    def request(self, request_id):
        """Trace the calls made inside the block as request ``request_id``."""
        self._request = request_id
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._stack.clear()

    def check(self):
        """Fail now if any layer entry point has gone."""
        self._install()
        self._uninstall()

    def _open(self, layer):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent,
                           self._request, {}, None])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer, from_args, from_result):
        recorder = self

        def traced(*args, **kwargs):
            span = recorder._open(layer)
            if from_args is not None:
                span[5].update(from_args(args, kwargs))
            if layer == "quadrature.cumulative":
                args = (recorder._count_integrand(args[0], span),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                recorder._close(span)
                raise
            recorder._close(span)
            if from_result is not None:
                span[5].update(from_result(result))
            return result

        return traced

    @staticmethod
    def _count_integrand(fn, span):
        """The integrand handed to ``cumulative_integral``, counting the
        points it is evaluated at against the quadrature span."""
        def integrand(ts):
            span[5]["integrand_points"] = (span[5].get("integrand_points", 0)
                                           + int(np.size(ts)))
            return fn(ts)

        return integrand

    def _install(self):
        for module_name, path, layer, from_args, from_result in LAYERS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            if not hasattr(owner, attr):
                self._uninstall()
                raise AttributeError(
                    f"traced entry point {module_name}.{path} no longer exists")
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, layer, from_args, from_result))
            self._restore.append((owner, attr, original))

    def _uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "request",
                                  "counts", "error"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, requests: int, count_requests: set) -> dict:
    """Per-request layer totals from ``spans``.

    Times are totals over all traced requests divided by ``requests``;
    counts are taken only over the requests in ``count_requests`` (one whole
    pass, so they repeat exactly for a seed) and divided by their number.
    """
    total = defaultdict(float)
    child = defaultdict(float)
    counts = defaultdict(int)
    calls = defaultdict(int)
    for layer, start, end, parent, request, span_counts, error in spans:
        duration = end - start
        total[layer] += duration
        if parent >= 0:
            child[parent] += duration
        if request in count_requests:
            calls[layer] += 1
            for key, value in span_counts.items():
                counts[f"{layer}.{key}"] += value
            if error == "QuadratureFailure" and layer == "quadrature.cumulative":
                counts["quadrature.failures"] += 1
    self_time = defaultdict(float)
    for index, (layer, start, end, *_rest) in enumerate(spans):
        self_time[layer] += (end - start) - child[index]

    def ms(value):
        return 1000.0 * value / requests

    def per_request(value):
        return value / len(count_requests)

    return {
        "scenario.load_config_ms": ms(total["scenario.load_config"]),
        "scenario.self_ms": ms(self_time["scenario.run"]),
        "analysis.compare_ms": ms(total["analysis.compare"]),
        "analysis.compare_self_ms": ms(self_time["analysis.compare"]),
        "propagators.reference_ms": ms(total["propagators.reference"]),
        "propagators.reference_calls": per_request(calls["propagators.reference"]),
        "propagators.halvings": per_request(counts["propagators.reference.halvings"]),
        "propagators.midpoint_steps": per_request(
            counts["propagators.level.midpoint_steps"]),
        "propagators.level_ms": ms(total["propagators.level"]),
        "propagators.level_self_ms": ms(self_time["propagators.level"]),
        "propagators.block_route_ms": ms(total["propagators.block_route"]),
        "linalg.expm_ms": ms(total["linalg.expm"]),
        "linalg.expm_4x4_matrices": per_request(counts["linalg.expm.expm_4x4_matrices"]),
        "linalg.expm_2x2_matrices": per_request(counts["linalg.expm.expm_2x2_matrices"]),
        "hamiltonian.generator_ms": ms(total["hamiltonian.generator"]),
        "frames.generator_ms": ms(total["frames.generator"]),
        "quadrature.cumulative_ms": ms(total["quadrature.cumulative"]),
        "quadrature.integrand_points": per_request(
            counts["quadrature.cumulative.integrand_points"]),
        "quadrature.failures": per_request(counts["quadrature.failures"]),
        "fields.evaluate_ms": ms(total["fields.evaluate"]),
        "fields.evaluate_points": per_request(counts["fields.evaluate.evaluate_points"]),
    }
