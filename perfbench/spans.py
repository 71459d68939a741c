"""Span tracing around the public functions of sepdeut's modules.

`install` wraps every public function of each layer module (plus the two
private radial integrals that `fitting` imports) and rebinds the wrapper
under every name that any sepdeut module, the package included, binds to
the original.  Modules import each other's functions by name, so a
wrapper set only on the defining module would miss those calls.

Each call records a span: name, start and end (perf_counter_ns), parent
span, operation id, and a size (array points, or a count the wrapped
function returns).  Spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

#: layers, in the order metrics are reported; each is a module of sepdeut
LAYERS = (
    "specfun",
    "quadrature",
    "wf_coordinate",
    "wf_momentum",
    "observables",
    "fitting",
    "transform_oracle",
    "cli",
)

# private functions wrapped as well, because another module imports them
_EXTRA = {"observables": ("_rms_core", "_q_core")}

# parameter whose size is recorded as the span's points
_POINT_ARGS = ("x", "r", "k")


def _size_of(fn):
    """A function giving the recorded size of one call, or None."""
    name = fn.__name__
    if name == "integrate_panels":
        def size(args, kwargs, result):
            scheme = args[1] if len(args) > 1 else kwargs["scheme"]
            return (len(scheme.breakpoints) - 1) * scheme.panel_order
        return size
    if name == "fit_parameters":
        return lambda args, kwargs, result: result.iterations
    params = list(inspect.signature(fn).parameters)
    for arg in _POINT_ARGS:
        if arg in params:
            pos = params.index(arg)

            def size(args, kwargs, result, pos=pos, arg=arg):
                value = args[pos] if len(args) > pos else kwargs[arg]
                return int(np.size(value))
            return size
    return None


class Tracer:
    """Spans of one process, in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple] = []
        self._from_handler: list[tuple] = []

    def _name_id(self, layer: str, fn) -> int:
        self.names.append(fn.__name__)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, layer: str, fn):
        """fn, recording a span in `layer` on every call."""
        nid = self._name_id(layer, fn)
        size_of = _size_of(fn)
        name_id, start, end, parent, op, size = (
            self.name_id, self.start, self.end, self.parent, self.op, self.size)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0)
            size.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if size_of is not None:
                size[i] = size_of(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_handler(self, layer: str, fn):
        """fn, called from a signal handler, recording a span on every call.

        A handler can run between any two bytecodes, even inside another
        wrapper's bookkeeping, so these spans go whole, one tuple per call,
        to a list of their own; they have no children and join the others
        in arrays().
        """
        nid = self._name_id(layer, fn)
        clock = time.perf_counter_ns

        def wrapper():
            parent = self._stack[-1]
            t0 = clock()
            fn()
            self._from_handler.append((nid, t0, clock(), parent, self.op_id, 0))

        return wrapper

    def install(self):
        """Wrap every layer's functions and rebind them across sepdeut."""
        import sepdeut.cli  # noqa: F401  (loads every module)

        modules = [m for name, m in sys.modules.items()
                   if name == "sepdeut" or name.startswith("sepdeut.")]
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"sepdeut.{layer}"]
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in _EXTRA.get(layer, ()):
                    continue
                replacement[id(fn)] = (fn, self.wrap(layer, fn))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if replacement.get(id(value), (None,))[0] is value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, replacement[id(value)][1])

    def uninstall(self):
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays, plus the name and layer tables.

        Spans recorded from the signal handler come last; their parents
        still precede them.
        """
        extra = np.array(self._from_handler, dtype=np.int64).reshape(-1, 6).T
        out = {"names": np.array(self.names), "layers": np.array(self.layers)}
        for row, key in zip(extra, ("name_id", "start", "end", "parent", "op", "size")):
            out[key] = np.concatenate([np.frombuffer(getattr(self, key), dtype=np.int64), row])
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint and
    cover exactly the sum of their durations.
    """
    duration = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    covered = np.zeros(len(duration), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def ancestor_named(name_id, parent, target: int) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self with name id `target`, else -1.

    Parents start before their children, so one pass in start order works.
    """
    out = np.full(len(name_id), -1, dtype=np.int64)
    for i, (nid, p) in enumerate(zip(np.asarray(name_id).tolist(), np.asarray(parent).tolist())):
        if nid == target:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, op_scale, outs) -> dict:
    """Per-layer counts and reference-clock self times per operation.

    `op_scale[i]` converts operation i's wall time to the reference clock;
    `outs` are the operations' results, read for the CLI's output sizes.
    """
    a = tracer.arrays()
    names = a["names"].tolist()
    layer_names = list(LAYERS)
    # spans outside the layers (the clock's kernel slices) get -1: they are
    # subtracted from their parents' self time and counted nowhere
    layer_of_name = np.array([layer_names.index(x) if x in layer_names else -1
                              for x in a["layers"].tolist()], dtype=np.int64)
    nid = a["name_id"]
    parent = a["parent"]
    size = a["size"]
    layer = layer_of_name[nid]
    has_parent = parent >= 0
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    entry = parent_layer != layer
    n_ops = len(op_scale)
    self_ms = self_times(a["start"], a["end"], parent) * 1e-6 * np.asarray(op_scale)[a["op"]]

    nobody = np.zeros(len(nid), dtype=bool)

    def named(name):
        return nid == names.index(name) if name in names else nobody

    def entries(layer_name):
        return entry & (layer == layer_names.index(layer_name))

    def under(name):
        return ancestor_named(nid, parent, names.index(name)) >= 0 if name in names else nobody

    out = {}
    for name in layer_names:
        per_op = _ratio(self_ms[layer == layer_names.index(name)].sum(), n_ops)
        out[f"{name}.self_ms_per_op"] = (per_op, "ms/op")
    for name in ("specfun", "wf_coordinate", "wf_momentum"):
        calls = entries(name)
        out[f"{name}.calls_per_op"] = (_ratio(calls.sum(), n_ops), "count")
        out[f"{name}.points_per_call"] = (_ratio(size[calls].sum(), calls.sum()), "count")
    integrals = named("integrate_panels")
    out["quadrature.integrals_per_op"] = (_ratio(integrals.sum(), n_ops), "count")
    out["quadrature.points_per_integral"] = (_ratio(size[integrals].sum(), integrals.sum()), "count")
    out["observables.normalisation_solves_per_op"] = (
        _ratio(named("solve_normalisation").sum(), n_ops), "count")
    radial = entries("wf_coordinate") & under("report")
    out["observables.radial_points_per_report"] = (
        _ratio(size[radial].sum(), named("report").sum()), "count")
    fits = named("fit_parameters")
    fit_ids = np.flatnonzero(fits)
    residuals = named("_rms_core") & np.isin(parent, fit_ids)
    out["fitting.residual_evals_per_fit"] = (_ratio(residuals.sum(), fits.sum()), "count")
    out["fitting.iterations_per_fit"] = (_ratio(size[fits].sum(), fits.sum()), "count")
    transforms = named("bessel_transform")
    k_points = entries("wf_momentum") & under("bessel_transform")
    out["transform_oracle.transforms_per_op"] = (_ratio(transforms.sum(), n_ops), "count")
    out["transform_oracle.k_points_per_transform"] = (
        _ratio(size[k_points].sum(), transforms.sum()), "count")
    rows = n_bytes = 0
    for o in outs:
        if o is not None and "path" in o:
            with open(o["path"], "rb") as f:
                data = f.read()
            rows += data.count(b"\n") - o["path"].endswith(".csv")  # CSV header is not a row
            n_bytes += len(data)
    out["cli.rows_per_op"] = (_ratio(rows, n_ops), "count")
    out["cli.bytes_per_op"] = (_ratio(n_bytes, n_ops), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def save(tracer: Tracer, path: str) -> str:
    """Write the spans to an .npz file; returns the path."""
    np.savez(path, **tracer.arrays())
    return path
