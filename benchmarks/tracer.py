"""Outside-in tracer for the concavekit benchmark.

The tracer wraps, at run time, every public function and method of the
library layers (``means``, ``geometry``, ``fields``, ``convolve``,
``concavity``, ``bbl``, ``optimize``, ``cli``) together with every module
attribute in the package that aliases one of those functions (for example
``bbl.mean_p`` or ``concavekit.mean_p``).  Nothing in the library changes:
:meth:`Tracer.uninstall` puts back the exact objects it replaced.

Each wrapped call is a span: name, start, end, parent span and the id of the
job it belongs to.  Spans stay in memory (compact arrays) and are written out
by :meth:`Tracer.dump` at the end of a traced run.  Self time is a span's
duration minus the duration of its child spans, so the self times of all
spans of a job, the job's own harness span included, add up to the job's
wall time.  Work counts (points, elements, pairs, cells) are read from the
arguments and results at the span boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("means", "geometry", "fields", "convolve", "concavity", "bbl", "optimize", "cli")
HARNESS = "harness"
PACKAGE = "concavekit"

# raw span storage stops growing past this many spans; aggregates continue
MAX_RAW_SPANS = 4_000_000

# span kinds whose counts depend on the enclosing spans
_PLAIN, _MEAN_P, _CONTAINS_MANY, _SAMPLE = range(4)


def _size(value) -> int:
    if value is None:
        return 0
    if isinstance(value, tuple):
        value = value[0]
    return int(np.size(value))


def _first_len(args) -> int:
    # args[0] is self for the wrapped methods
    return len(args[1]) if len(args) > 1 else 0


def _mean_p_elements(args, kwargs, result) -> int:
    shapes = [np.shape(v) for v in args[:4] if not isinstance(v, str)]
    return int(np.prod(np.broadcast_shapes(*shapes))) if shapes else 1


def _check_pairs(args, kwargs, result) -> int:
    for v in list(args) + list(kwargs.values()):
        if type(v).__name__ == "CheckConfig":
            return int(v.samples)
    return 0


def _bbl_cells(args, kwargs, result) -> int:
    """Grid pairs of the sup-convolution problem, full plus half resolution."""
    inst = args[0] if args else kwargs.get("inst")
    ppa, dim = inst.points_per_axis, inst.dim
    coarse = max(8, ppa // 2)
    return ppa ** (2 * dim) + coarse ** (2 * dim)


def _sup_cells(args, kwargs, result) -> int:
    inst = args[0] if args else kwargs.get("inst")
    return inst.points_per_axis ** inst.dim


def _counter_for(layer: str, qualname: str):
    """Work count read at the boundary of one callable, or None."""
    leaf = qualname.rsplit(".", 1)[-1]
    if layer == "means" and qualname == "mean_p":
        return _mean_p_elements
    if layer == "geometry":
        if leaf == "contains_many":
            return lambda a, k, r: _first_len(a)
        if leaf == "contains":
            return lambda a, k, r: 1
        if leaf == "sample":
            # bodies return (k, dim) points, space-time sets an (X, T) pair
            return lambda a, k, r: len(r[0]) if isinstance(r, tuple) else len(r)
    if layer == "fields" and leaf in ("__call__", "eval_with_error"):
        return lambda a, k, r: _size(r)
    if layer == "convolve":
        if leaf in ("convolve_at", "gauss_weierstrass_integral", "poisson_integral"):
            return lambda a, k, r: 1
        if leaf in ("eval_with_error", "__call__", "oracle_W_interval", "oracle_P_interval"):
            return lambda a, k, r: _size(r)
    if layer == "concavity":
        if qualname.startswith("check_"):
            return _check_pairs
        if qualname == "classify_equality":
            return lambda a, k, r: 1
    if layer == "bbl":
        if qualname == "verify_bbl":
            return _bbl_cells
        if qualname == "sup_convolution":
            return _sup_cells
    return None


class _Stat:
    __slots__ = ("calls", "entries", "self_s", "incl_s", "count", "entry_count", "entry_incl_s")

    def __init__(self):
        self.calls = 0
        self.entries = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.count = 0
        self.entry_count = 0
        self.entry_incl_s = 0.0


class Tracer:
    """Installs span-recording wrappers around the library's public callables."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_kind: list[int] = []
        self.layer_names = list(LAYERS) + [HARNESS]
        self.stats: list[_Stat] = []
        self._patches: list[tuple[object, str, object]] = []
        self._installed = False
        self._stack: list[list] = []
        self._active = [0] * len(self.layer_names)
        self.job_id = -1
        # raw spans
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_job = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.dropped_spans = 0
        # counters that need ancestry
        self.bbl_mean_p_elements = 0
        self.sample_accepted = 0
        self.sample_drawn = 0
        self.refusals = 0
        self.optimize_evals = 0
        self.optimize_starts_requested = 0
        self.optimize_starts_converged = 0
        self._resolution_errors: tuple = ()
        self._job_name = self._register("harness.job", HARNESS)
        self._bbl = self.layer_names.index("bbl")
        self._convolve = self.layer_names.index("convolve")

    # -- registration ------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(self.layer_names.index(layer))
        self.stats.append(_Stat())
        kind = _PLAIN
        if name == "means.mean_p":
            kind = _MEAN_P
        elif layer == "geometry" and name.endswith(".contains_many"):
            kind = _CONTAINS_MANY
        elif layer == "geometry" and name.endswith(".sample"):
            kind = _SAMPLE
        self.name_kind.append(kind)
        return len(self.names) - 1

    def _wrap(self, fn, layer: str):
        qualname = fn.__qualname__
        name_id = self._register(f"{layer}.{qualname}", layer)
        layer_id = self.layer_names.index(layer)
        counter = _counter_for(layer, qualname)
        is_maximize = layer == "optimize" and qualname == "maximize"
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name_id, layer_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(frame, counter, args, kwargs, None, exc)
                if is_maximize:
                    self._count_maximize(args, kwargs, None)
                raise
            leave(frame, counter, args, kwargs, result, None)
            if is_maximize:
                self._count_maximize(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap the public callables of every layer and all their aliases."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        errs = [getattr(m, "ResolutionError", None) for m in modules.values()]
        self._resolution_errors = tuple({e for e in errs if isinstance(e, type)})
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # patch each function under every name the package binds it to,
        # its defining module included
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, name, obj, wrapped[id(obj)])
        self._installed = True

    def _wrap_class(self, cls, layer: str):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(val, (staticmethod, classmethod)):
                new = type(val)(self._wrap(val.__func__, layer))
            elif inspect.isfunction(val):
                new = self._wrap(val, layer)
            else:
                continue
            self._patch(cls, attr, val, new)

    def _patch(self, owner, name: str, original, replacement):
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self):
        """Put back every replaced attribute, in reverse order of patching."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._installed = False

    def patched_sites(self):
        """(owner, attribute name, original object) for every wrapped site."""
        return list(self._patches)

    def restored(self) -> bool:
        return all(vars(owner)[name] is original for owner, name, original in self._patches)

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id: int, layer_id: int) -> list:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.sp_start)
        if idx < MAX_RAW_SPANS:
            self.sp_name.append(name_id)
            self.sp_parent.append(parent[0] if parent else -1)
            self.sp_job.append(self.job_id)
            self.sp_start.append(0.0)
            self.sp_end.append(math.nan)
        else:
            idx = -1
            self.dropped_spans += 1
        entry = parent is None or parent[2] != layer_id
        # [raw index, name id, layer id, start, child time, entry, drawn, had sample child]
        frame = [idx, name_id, layer_id, 0.0, 0.0, entry, 0, False]
        self._stack.append(frame)
        self._active[layer_id] += 1
        frame[3] = time.perf_counter()
        return frame

    def _leave(self, frame, counter, args, kwargs, result, exc):
        end = time.perf_counter()
        dur = end - frame[3]
        self._stack.pop()
        name_id, layer_id = frame[1], frame[2]
        self._active[layer_id] -= 1
        if frame[0] >= 0:
            self.sp_start[frame[0]] = frame[3]
            self.sp_end[frame[0]] = end
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        st = self.stats[name_id]
        st.calls += 1
        st.self_s += dur - frame[4]
        st.incl_s += dur
        count = 0
        if counter is not None and exc is None:
            count = counter(args, kwargs, result)
        st.count += count
        if frame[5]:
            st.entries += 1
            st.entry_count += count
            st.entry_incl_s += dur
            if layer_id == self._convolve and isinstance(exc, self._resolution_errors):
                self.refusals += 1
        kind = self.name_kind[name_id]
        if kind == _MEAN_P and self._active[self._bbl] > 0:
            self.bbl_mean_p_elements += count
        elif kind == _CONTAINS_MANY:
            if parent is not None and self.name_kind[parent[1]] == _SAMPLE:
                parent[6] += count  # points drawn by a rejection sampler
        elif kind == _SAMPLE and exc is None:
            if parent is not None and self.name_kind[parent[1]] == _SAMPLE:
                parent[7] = True
            if not frame[7]:  # count the innermost sampler only
                self.sample_accepted += count
                self.sample_drawn += frame[6] or count

    def _count_maximize(self, args, kwargs, result):
        """Starts requested and converged; a raising call converged none."""
        prob = args[0] if args else kwargs.get("prob")
        self.optimize_starts_requested += int(prob.multistart)
        if result is not None:
            self.optimize_evals += int(result.evaluations)
            self.optimize_starts_converged += int(result.starts_converged)

    def begin_job(self, job_id: int):
        self.job_id = job_id
        return self._enter(self._job_name, self.layer_names.index(HARNESS))

    def end_job(self, frame):
        self._leave(frame, None, (), {}, None, None)
        self.job_id = -1

    # -- results -----------------------------------------------------------

    def _select(self, layer: str, leaf: tuple | None = None, qualname: str | None = None):
        layer_id = self.layer_names.index(layer)
        out = []
        for i, name in enumerate(self.names):
            if self.name_layer[i] != layer_id:
                continue
            q = name.split(".", 1)[1]
            if qualname is not None and q != qualname:
                continue
            if leaf is not None and q.rsplit(".", 1)[-1] not in leaf:
                continue
            out.append(self.stats[i])
        return out

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for s in self._select(layer))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        mp = self._select("means", qualname="mean_p")
        mp_elems = sum(s.count for s in mp)
        mp_incl = sum(s.incl_s for s in mp)
        out["means.mean_p.calls"] = (sum(s.calls for s in mp), "count")
        out["means.mean_p.elements"] = (mp_elems, "count")
        out["means.mean_p.self_s"] = (sum(s.self_s for s in mp), "s")
        out["means.mean_p.ns_per_element"] = (ratio(mp_incl, mp_elems, 1e9), "ns")
        out["means.self_s"] = (self.layer_self("means"), "s")

        bb = self._select("bbl")
        cells = sum(s.entry_count for s in bb)
        out["bbl.calls"] = (sum(s.entries for s in bb), "count")
        out["bbl.mean_p_elements"] = (self.bbl_mean_p_elements, "count")
        out["bbl.self_s"] = (self.layer_self("bbl"), "s")
        out["bbl.ns_per_cell"] = (ratio(sum(s.entry_incl_s for s in bb), cells, 1e9), "ns")

        cv = self._select("convolve")
        points = sum(s.entry_count for s in cv)
        out["convolve.calls"] = (sum(s.entries for s in cv), "count")
        out["convolve.points"] = (points, "count")
        out["convolve.self_s"] = (self.layer_self("convolve"), "s")
        out["convolve.us_per_point"] = (ratio(sum(s.entry_incl_s for s in cv), points, 1e6), "us")
        out["convolve.refusals"] = (self.refusals, "count")

        cm = self._select("geometry", leaf=("contains_many",))
        out["geometry.contains_many.calls"] = (sum(s.calls for s in cm), "count")
        out["geometry.contains_many.points"] = (sum(s.count for s in cm), "count")
        out["geometry.contains_many.self_s"] = (sum(s.self_s for s in cm), "s")
        out["geometry.sample.accept_ratio"] = (ratio(self.sample_accepted, self.sample_drawn), "frac")
        out["geometry.self_s"] = (self.layer_self("geometry"), "s")

        fe = self._select("fields", leaf=("__call__", "eval_with_error"))
        out["fields.eval.calls"] = (sum(s.entries for s in fe), "count")
        out["fields.eval.points"] = (sum(s.entry_count for s in fe), "count")
        out["fields.eval.self_s"] = (sum(s.self_s for s in fe), "s")
        out["fields.self_s"] = (self.layer_self("fields"), "s")

        cc = self._select("concavity")
        pairs = sum(s.entry_count for s in cc)
        out["concavity.pairs"] = (pairs, "count")
        out["concavity.self_s"] = (self.layer_self("concavity"), "s")
        out["concavity.us_per_pair"] = (ratio(sum(s.entry_incl_s for s in cc), pairs, 1e6), "us")

        op = self._select("optimize")
        out["optimize.calls"] = (sum(s.entries for s in op), "count")
        out["optimize.objective_evals"] = (self.optimize_evals, "count")
        out["optimize.self_s"] = (self.layer_self("optimize"), "s")
        out["optimize.starts_converged_ratio"] = (
            ratio(self.optimize_starts_converged, self.optimize_starts_requested),
            "frac",
        )

        cl = self._select("cli")
        out["cli.calls"] = (sum(s.entries for s in cl), "count")
        out["cli.self_s"] = (self.layer_self("cli"), "s")

        out["harness.self_s"] = (self.layer_self(HARNESS), "s")
        out["trace.spans"] = (sum(s.calls for s in self.stats), "count")
        return out

    def dump(self, path):
        """Write the raw spans (and the name table) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array([self.layer_names[i] for i in self.name_layer]),
            name=np.frombuffer(self.sp_name, dtype=np.int32),
            parent=np.frombuffer(self.sp_parent, dtype=np.int32),
            job=np.frombuffer(self.sp_job, dtype=np.int32),
            start=np.frombuffer(self.sp_start, dtype=np.float64),
            end=np.frombuffer(self.sp_end, dtype=np.float64),
            dropped=np.array(self.dropped_spans),
        )
