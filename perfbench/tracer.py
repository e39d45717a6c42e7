"""Span tracing of mapflow from outside the program.

`Tracer.install` wraps the public functions at each layer boundary and
rebinds every module namespace that holds the original object, not only the
defining module: ``from .maps import step_arrays`` leaves a second binding in
``mapflow.nucleus`` that patching ``mapflow.maps`` alone would miss.

Each call records a span (name, start, end, parent, a size taken from the
arguments, whether it raised).  Spans stay in memory; `Tracer.summary`
reduces them when the run ends.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _seeds(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "I"))) // _arg(args, kwargs, 0, "model").d


def _seed_steps(args, kwargs):
    nseeds = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "I0"))).shape[0]
    return nseeds * int(_arg(args, kwargs, 3, "horizon"))


def _grid_points(args, kwargs):
    box = _arg(args, kwargs, 2, "box")
    return int(_arg(args, kwargs, 3, "grid_n")) ** (2 * box.d)


#: (defining module, qualified name, span name, size of one call or None)
TRACED = (
    ("mapflow.maps", "step_arrays", "maps.step_arrays", _seeds),
    ("mapflow.maps", "orbit_arrays", "maps.orbit_arrays", None),
    ("mapflow.experiments", "stability_scan", "experiments.stability_scan", _seed_steps),
    ("mapflow.experiments", "pilot_confinement", "experiments.pilot_confinement", None),
    ("mapflow.experiments", "energy_drift", "experiments.energy_drift", None),
    ("mapflow.nucleus", "trapped_orbit", "nucleus.trapped_orbit",
     lambda a, k: int(_arg(a, k, 4, "budget"))),
    ("mapflow.nucleus", "resonant_fourier_check", "nucleus.resonant_fourier_check", None),
    ("mapflow.resonance", "BlockMap.apply", "resonance.BlockMap.apply", None),
    ("mapflow.interp", "interpolating_vf", "interp.interpolating_vf",
     lambda a, k: int(_arg(a, k, 2, "m"))),
    ("mapflow.interp", "orbit_window", "interp.orbit_window",
     lambda a, k: int(_arg(a, k, 2, "m"))),
    ("mapflow.hamiltonian", "flow_map", "hamiltonian.flow_map", None),
    ("mapflow.hamiltonian", "embedding_error", "hamiltonian.embedding_error", _grid_points),
    ("mapflow.hamiltonian", "HamiltonianField.raw", "hamiltonian.path_integral", None),
    ("mapflow.hamiltonian", "HamiltonianField.evaluate", "hamiltonian.evaluate", None),
    ("mapflow.cli", "write_csv", "cli.write_csv", lambda a, k: len(_arg(a, k, 2, "rows"))),
    ("mapflow.cli", "run", "cli.run", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.raised: set[int] = set()
        self.stack = [-1]
        self.bindings: list[str] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, size=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, sizes = self.name_id, self.parent, self.size
        starts, ends, raised, stack = self.start, self.end, self.raised, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            sizes.append(size(args, kwargs) if size else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in every mapflow namespace that binds it.

        A function the program no longer has is listed in ``missing`` and its
        metrics read 0, so that a refactor of the program does not stop the
        traced run.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "mapflow" or k.startswith("mapflow.")) and m is not None]
        for modname, qualname, span, size in TRACED:
            owner = sys.modules.get(modname)
            cls_name, _, attr = qualname.rpartition(".")
            cls = getattr(owner, cls_name, None) if cls_name else None
            if cls_name and attr in getattr(cls, "__dict__", {}):
                setattr(cls, attr, self.wrap(span, cls.__dict__[attr], size))
                self.bindings.append(f"{modname}.{qualname}")
                continue
            orig = None if cls_name else getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapped = self.wrap(span, orig, size)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self.bindings.append(f"{mod.__name__}.{key}")

    def summary(self) -> dict:
        """Per-name totals and parent->child call counts over all spans."""
        n = len(self.name_id)
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        size = np.asarray(self.size, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        sizes = np.bincount(ids, weights=size, minlength=k)
        raised = np.bincount(ids[sorted(self.raised)], minlength=k)
        per = {name: {"calls": int(calls[j]), "s": float(total[j]), "self_s": float(own[j]),
                      "size": int(sizes[j]), "raised": int(raised[j]), "calls_by_size": {}}
               for j, name in enumerate(self.names)}
        rows, counts = np.unique(np.stack([ids, size], axis=1), axis=0, return_counts=True)
        for (j, s), c in zip(rows.reshape(-1, 2), counts):
            per[self.names[j]]["calls_by_size"][str(s)] = int(c)
        edges: dict = defaultdict(dict)
        p = parent[nested]
        rows, counts = np.unique(np.stack([ids[p], ids[nested], size[p]], axis=1), axis=0,
                                 return_counts=True)
        for (a, b, s), c in zip(rows.reshape(-1, 3), counts):
            edges[f"{self.names[a]}>{self.names[b]}"][str(s)] = int(c)
        return {"spans": n, "layers": per, "edges": edges, "bindings": self.bindings,
                "missing": self.missing}


# ---------------------------------------------------------------------------
# per-layer metrics from merged summaries
# ---------------------------------------------------------------------------

def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the commands of one workload run."""
    layers: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0,
                                        "raised": 0, "calls_by_size": Counter()})
    edges: dict = defaultdict(Counter)
    missing = sorted({m for summ in summaries for m in summ["missing"]})
    bindings = sorted({b for summ in summaries for b in summ["bindings"]})
    for summ in summaries:
        for name, rec in summ["layers"].items():
            acc = layers[name]
            for key in ("calls", "s", "self_s", "size", "raised"):
                acc[key] += rec[key]
            acc["calls_by_size"].update(rec["calls_by_size"])
        for key, by_size in summ["edges"].items():
            edges[key].update(by_size)
    return {"layers": layers, "edges": edges, "missing": missing, "bindings": bindings}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric values of one traced workload run, by metric name."""
    L, E = merged["layers"], merged["edges"]

    def calls(name):
        return L[name]["calls"] if name in L else 0

    def get(name, key):
        return L[name][key] if name in L else 0

    def under(parent, child):
        return sum(E.get(f"{parent}>{child}", {}).values())

    step = "maps.step_arrays"
    scan = "experiments.stability_scan"
    trap = "nucleus.trapped_orbit"
    apply_ = "resonance.BlockMap.apply"
    ivf, win = "interp.interpolating_vf", "interp.orbit_window"
    flow, emb = "hamiltonian.flow_map", "hamiltonian.embedding_error"
    path, ev = "hamiltonian.path_integral", "hamiltonian.evaluate"
    csv = "cli.write_csv"
    field_calls = under(win, apply_)
    return {
        "maps.step_arrays.calls": calls(step),
        "maps.step_arrays.self_s": get(step, "self_s"),
        "maps.step_arrays.ns_per_seed_step": _ratio(get(step, "s"), get(step, "size"), 1e9),
        "maps.orbit_arrays.self_s": get("maps.orbit_arrays", "self_s"),
        "experiments.stability_scan.self_s": get(scan, "self_s"),
        "experiments.stability_scan.seed_steps": get(scan, "size"),
        "experiments.stability_scan.ns_per_seed_step":
            _ratio(get(scan, "s"), get(scan, "size"), 1e9),
        "experiments.pilot_confinement.s": get("experiments.pilot_confinement", "s"),
        "experiments.energy_drift.s": get("experiments.energy_drift", "s"),
        "nucleus.trapped_orbit.self_s": get(trap, "self_s"),
        "nucleus.trapped_orbit.us_per_block": _ratio(get(trap, "s"), get(trap, "size"), 1e6),
        "nucleus.resonant_fourier_check.s": get("nucleus.resonant_fourier_check", "s"),
        "resonance.BlockMap.apply.calls": calls(apply_),
        "resonance.BlockMap.apply.us_per_call": _ratio(get(apply_, "s"), calls(apply_), 1e6),
        "resonance.BlockMap.apply.self_s": get(apply_, "self_s"),
        "interp.interpolating_vf.calls": calls(ivf),
        "interp.orbit_window.self_s": get(win, "self_s"),
        "interp.map_calls_per_field": _ratio(field_calls, calls(win)),
        "interp.useful_step_ratio": _ratio(get(ivf, "size"), field_calls),
        "hamiltonian.flow_map.calls": calls(flow),
        "hamiltonian.flow_map.ms_per_call": _ratio(get(flow, "s"), calls(flow), 1e3),
        "hamiltonian.flow_map.rhs_per_call": _ratio(under(flow, ivf), calls(flow)),
        "hamiltonian.embedding_error.map_calls_per_point":
            _ratio(under(emb, apply_), get(emb, "size")),
        "hamiltonian.path_integral.calls": calls(path),
        "hamiltonian.path_integral.ms_per_call": _ratio(get(path, "s"), calls(path), 1e3),
        "hamiltonian.path_integral.evals_per_call": _ratio(under(path, ivf), calls(path)),
        "hamiltonian.evaluate.cache_hit_ratio":
            _ratio(calls(ev) - under(ev, path), calls(ev)),
        "hamiltonian.flow_failures": get(flow, "raised"),
        "cli.write_csv.s": get(csv, "s"),
        "cli.write_csv.us_per_row": _ratio(get(csv, "s"), get(csv, "size"), 1e6),
        "cli.run.self_s": get("cli.run", "self_s"),
    }


def map_calls_per_field_by_m(merged: dict) -> dict:
    """Block-map calls per field evaluation, for each averaging order m."""
    windows = merged["layers"].get("interp.orbit_window", {}).get("calls_by_size", {})
    applies = merged["edges"].get("interp.orbit_window>resonance.BlockMap.apply", {})
    return {int(m): applies.get(m, 0) / n
            for m, n in sorted(windows.items(), key=lambda t: int(t[0]))}
