"""Instrumentation installed from outside the program.

Modules bind each other's functions by name (``from .dynamics import
step_rk4``), so replacing a function only in its defining module misses most
calls.  ``Patch`` therefore rebinds a function at every ``alpha_fluids``
module attribute that holds it, and restores every binding on exit.

Two instruments use it:

* ``UnitClock`` (untraced runs): one clock read at the start of each unit of
  work; a unit's time is the gap to the next read in the same segment.
* ``Tracer`` (traced runs): one span per call of each function in ``LAYERS``
  (name, start, end, parent, unit id) plus the counters in ``COUNTERS``.
  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter

PACKAGE = "alpha_fluids"

# module -> public functions wrapped in the traced run
LAYERS = {
    "spectral": ("to_physical", "to_spectral", "derivative", "dealias_two_thirds", "hermitianize"),
    "helmholtz": ("helmholtz_apply", "helmholtz_inverse", "leray_project"),
    "dynamics": ("step_rk4", "rhs_vorticity", "casimirs", "energy_alpha"),
    "flowmap": ("co_advect", "eval_field_at", "transport_check", "volume_check"),
    "geometry": ("sectional_curvature", "covariant_derivative", "calU", "find_alpha0", "_exact_product"),
    "bessel": ("k0", "k1"),
    "blobs": ("step_blobs_rk4", "blob_rhs", "blob_diagnostics"),
    "camassa_holm": ("step_ch_rk4", "ch_rhs_eulerian", "ch_energy"),
    "checkpoint": ("write_checkpoint",),
    "runner": ("initial_state", "write_csv", "write_manifest"),
    "config": ("load_config",),
}

# counter name -> unit; counts are per pass and repeat exactly across runs
COUNTERS = {
    "spectral.SpectralField.count": "count",
    "spectral.fft_bytes_computed": "bytes",
    "dynamics.step_rk4.cfl_checks": "count",
    "flowmap.eval_field_at.points": "count",
    "flowmap.eval_field_at.mode_products": "count",
    "geometry._exact_product.padded_cells": "count",
    "bessel.k0.elements": "count",
    "bessel.k1.elements": "count",
    "checkpoint.write_checkpoint.bytes": "bytes",
}

TRACE_OVERHEAD = "trace.overhead_ratio"


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.total_s"] = "s"
    units.update(COUNTERS)
    units[TRACE_OVERHEAD] = "ratio"
    return units


def _module(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


class Patch:
    """Rebind functions at every package binding; ``restore`` undoes all of it."""

    def __init__(self):
        self._saved = []  # (namespace owner, attribute, original)

    def function(self, module: str, name: str, make_wrapper) -> None:
        original = getattr(_module(module), name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def attribute(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class UnitClock:
    """One ``perf_counter`` read per unit; ``None`` marks a segment break."""

    def __init__(self):
        self.marks: list = []

    def install(self, patch: Patch, units, segments) -> None:
        marks, clock = self.marks, time.perf_counter

        def unit(fn):
            def clocked(*args, **kwargs):
                marks.append(clock())
                return fn(*args, **kwargs)

            return clocked

        def segment(fn):
            def broken(*args, **kwargs):
                marks.append(None)
                return fn(*args, **kwargs)

            return broken

        for module, name in units:
            patch.function(module, name, unit)
        for module, name in segments:
            patch.function(module, name, segment)

    def break_chain(self) -> None:
        self.marks.append(None)

    def unit_ms(self) -> list:
        """Gaps between consecutive reads of one segment, in ms."""
        out = []
        prev = None
        for m in self.marks:
            if m is not None and prev is not None:
                out.append((m - prev) * 1e3)
            prev = m
        return out


# -- counters: computed from call arguments after the call returns ------------------


def _fft_bytes_inverse(args, kwargs, result):
    # computed, not measured: 16 bytes per complex element the FFT transforms
    f = args[0] if args else kwargs["f"]
    return {"spectral.fft_bytes_computed": 16 * f.coeffs.size}


def _fft_bytes_forward(args, kwargs, result):
    return {"spectral.fft_bytes_computed": 16 * result.coeffs.size}


def _cfl_checks(args, kwargs, result):
    check = args[3] if len(args) > 3 else kwargs.get("check_cfl", True)
    return {"dynamics.step_rk4.cfl_checks": 1 if check else 0}


def _eval_field_at(args, kwargs, result):
    import numpy as np

    f = args[0] if args else kwargs["f"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    n_points = int(np.asarray(points).shape[0])
    # same live-mode block as flowmap.eval_field_at
    c = f.coeffs if f.is_vector else f.coeffs[None, :, :]
    mags = np.abs(c).max(axis=0)
    scale = mags.max()
    products = 0
    if scale > 0.0 and n_points:
        thr = _module("flowmap")._EVAL_TRUNCATION * scale
        kx = int((mags.max(axis=1) > thr).sum())
        ky = int((mags.max(axis=0) > thr).sum())
        products = n_points * kx * ky * c.shape[0]
    return {"flowmap.eval_field_at.points": n_points, "flowmap.eval_field_at.mode_products": products}


def _padded_cells(args, kwargs, result):
    g = (args[0] if args else kwargs["a"]).grid
    return {"geometry._exact_product.padded_cells": 4 * g.nx * g.ny}


def _elements(which):
    def count(args, kwargs, result):
        import numpy as np

        return {f"bessel.{which}.elements": int(np.size(args[0] if args else kwargs["x"]))}

    return count


def _checkpoint_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"checkpoint.write_checkpoint.bytes": os.path.getsize(path)}


_COUNTING = {
    ("spectral", "to_physical"): _fft_bytes_inverse,
    ("spectral", "to_spectral"): _fft_bytes_forward,
    ("dynamics", "step_rk4"): _cfl_checks,
    ("flowmap", "eval_field_at"): _eval_field_at,
    ("geometry", "_exact_product"): _padded_cells,
    ("bessel", "k0"): _elements("k0"),
    ("bessel", "k1"): _elements("k1"),
    ("checkpoint", "write_checkpoint"): _checkpoint_bytes,
}


class Tracer:
    """Spans and counters for every function in ``LAYERS``.

    A span is ``[name, start, end, parent index, unit id, outermost]``.  A unit
    id starts at each call of a unit function and lasts until the next one or
    ``break_chain``, so spans of one unit share it.  ``outermost`` is false for a
    call nested in a call of the same function, which ``total_s`` skips.
    """

    def __init__(self):
        self.spans: list = []
        self.passes: list = []  # (first span index, end span index, Counter)
        self._counts: Counter = Counter()
        self._stack: list = []
        self._active: Counter = Counter()
        self._unit = 0
        self._units_started = 0
        self._epoch = time.perf_counter()

    def install(self, patch: Patch, units) -> None:
        units = set(units)
        for module, names in LAYERS.items():
            for name in names:
                key = (module, name)
                patch.function(module, name, self._wrapper(f"{module}.{name}", _COUNTING.get(key), key in units))
        spectral_field = _module("spectral").SpectralField
        original_init = spectral_field.__init__

        def counting_init(obj, *args, **kwargs):
            self._counts["spectral.SpectralField.count"] += 1
            original_init(obj, *args, **kwargs)

        patch.attribute(spectral_field, "__init__", counting_init)

    def begin_pass(self) -> None:
        self._counts = Counter()
        self.passes.append([len(self.spans), None, self._counts])

    def end_pass(self) -> None:
        self.passes[-1][1] = len(self.spans)
        self._unit = 0

    def break_chain(self) -> None:
        self._unit = 0

    def _wrapper(self, name, counting, is_unit):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                if is_unit:
                    self._units_started += 1
                    self._unit = self._units_started
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._unit, active[name] == 0]
                spans.append(span)
                stack.append(index)
                active[name] += 1
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    active[name] -= 1
                    stack.pop()
                counts = self._counts
                counts[name] += 1
                if counting is not None:
                    counts.update(counting(args, kwargs, result))
                return result

            return traced

        return make

    def pass_layers(self, first: int, end: int) -> dict:
        """self_s and total_s per wrapped function over spans[first:end]."""
        children = [0.0] * (end - first)
        for span in self.spans[first:end]:
            if span[3] >= first:
                children[span[3] - first] += span[2] - span[1]
        out = {}
        for module, names in LAYERS.items():
            for name in names:
                out[f"{module}.{name}.self_s"] = 0.0
                out[f"{module}.{name}.total_s"] = 0.0
        for i, span in enumerate(self.spans[first:end]):
            duration = span[2] - span[1]
            out[span[0] + ".self_s"] += duration - children[i]
            if span[5]:
                out[span[0] + ".total_s"] += duration
        return out

    def layer_metrics(self) -> tuple[dict, bool]:
        """Counts of the first traced pass and median times over traced passes.

        Returns the metrics and whether every traced pass gave the same counts.
        """
        count_names = [f"{m}.{n}" for m, ns in LAYERS.items() for n in ns] + list(COUNTERS)
        per_pass_counts = [tuple(c.get(k, 0) for k in count_names) for _, _, c in self.passes]
        times = [self.pass_layers(first, end) for first, end, _ in self.passes]
        metrics = {}
        for module, names in LAYERS.items():
            for name in names:
                key = f"{module}.{name}"
                metrics[f"{key}.calls"] = self.passes[0][2].get(key, 0)
                for kind in ("self_s", "total_s"):
                    metrics[f"{key}.{kind}"] = statistics.median(t[f"{key}.{kind}"] for t in times)
        for name in COUNTERS:
            metrics[name] = self.passes[0][2].get(name, 0)
        return metrics, len(set(per_pass_counts)) == 1

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_s,end_s,parent,unit,pass\n")
            for p, (first, end, _) in enumerate(self.passes):
                for i in range(first, end):
                    name, start, stop, parent, unit, _outer = self.spans[i]
                    fh.write(
                        f"{i},{name},{start - self._epoch:.9f},{stop - self._epoch:.9f},{parent},{unit},{p}\n"
                    )
