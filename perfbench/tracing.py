"""Per-layer tracing of ``sicprob`` from outside the library.

A ``Tracer`` rebinds every public function of the traced modules, at
every ``sicprob.*`` module attribute that holds the same function object, to
a wrapper that records a span (name, start, end, parent span). It also wraps
``scipy.optimize.minimize`` -- the solver boundary behind ``_optim``,
``project_cptp`` and ``delta_quant_detail`` -- and charges each result's
``nfev``, ``nit`` and ``success`` to the nearest traced caller. Spans stay
in memory as flat arrays; ``summary`` derives self time (a span's duration
minus the time its direct children cover) and ``save`` writes them out.

No layer queues work (one caller, no threads), so there is no time spent
waiting to report.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("sic", "states", "serialize", "channels", "dynamics", "linalg", "measures", "tomography")
MINIMIZE = "scipy.optimize.minimize"

# Composite functions whose inclusive time is reported beside their self time.
TOTAL_MS = (
    "channels.project_cptp",
    "dynamics.project_mark",
    "measures.delta_quant_detail",
    "measures.analyze_evolution",
    "tomography.calibrate",
    "tomography.run_pipeline",
)
# Functions that drive the solver; their minimize results are summarized.
SOLVER_CALLERS = ("channels.project_cptp", "dynamics.project_mark", "measures.delta_quant_detail")


def public_functions(sp) -> dict[str, object]:
    """``layer.name`` -> function, for every public function of each layer."""
    exported = set(sp.__all__)
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"sicprob.{layer}")
        for attr in sorted(set(getattr(mod, "__all__", ())) | exported):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = fn
    return out


class Tracer:
    """Spans of one traced run, kept in memory until the run ends.

    Construction prepares the wrappers; ``with tracer:`` rebinds them for the
    duration of the block and restores the library afterwards, so traced and
    untraced items can alternate in one process.
    """

    def __init__(self, sp):
        import scipy.optimize

        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, tuple] = {}  # span index -> observed result fields
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for k, m in sys.modules.items() if k == "sicprob" or k.startswith("sicprob.")]
        for name, fn in public_functions(sp).items():
            observe = None
            if name == "measures.delta_quant_detail":
                observe = lambda r: (r.restarts_agreeing,)  # noqa: E731
            wrapper = self._wrap(name, fn, observe)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        self._bindings.append((mod, attr, fn, wrapper))
        minimize = scipy.optimize.minimize
        observe = lambda r: (int(r.nfev), int(getattr(r, "nit", 0)), bool(r.success))  # noqa: E731
        self._bindings.append(
            (scipy.optimize, "minimize", minimize, self._wrap(MINIMIZE, minimize, observe))
        )

    def _wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        stack, extra = self._stack, self.extra
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            start.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                extra[idx] = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name_id, parent, dur, dur - child

    def summary(self, items: int) -> dict[str, float]:
        """Per-item work counters and times, keyed by metric name."""
        name_id, parent, dur, self_t = self.arrays()
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_t, minlength=len(self.names))
        total_s = np.bincount(name_id, weights=dur, minlength=len(self.names))
        out: dict[str, float] = {}
        layer_calls: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] / items
            out[f"{name}.self_ms"] = 1e3 * self_s[nid] / items
            if name in TOTAL_MS:
                out[f"{name}.total_ms"] = 1e3 * total_s[nid] / items
            if name != MINIMIZE:
                layer = name.split(".")[0]
                layer_calls[layer] += calls[nid]
                layer_self[layer] += self_s[nid]
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer] / items
            out[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / items
        # Solver results, charged to the traced function that called minimize.
        solver: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(5))
        minimize_id = self.names.index(MINIMIZE)
        for idx in np.flatnonzero(name_id == minimize_id):
            if idx in self.extra:  # absent when minimize raised
                owner = self.names[name_id[parent[idx]]] if parent[idx] >= 0 else "(untraced)"
                fields = np.array([1, self_t[idx], *self.extra[idx]])
                solver[owner] += fields
                solver[MINIMIZE] += fields
        for name in SOLVER_CALLERS + (MINIMIZE,):
            n, busy, nfev, nit, ok = solver[name]
            if name != MINIMIZE:
                out[f"{name}.minimize_calls"] = n / items
                out[f"{name}.minimize_ms"] = 1e3 * busy / items
            out[f"{name}.nfev"] = nfev / items
            out[f"{name}.nit"] = nit / items
            out[f"{name}.success_frac"] = ok / n if n else 0.0
        dq = self.names.index("measures.delta_quant_detail")
        agreeing = sum(f[0] for i, f in self.extra.items() if name_id[i] == dq)
        n_dq = solver["measures.delta_quant_detail"][0]
        out["measures.delta_quant_detail.agree_frac"] = agreeing / n_dq if n_dq else 0.0
        return out

    def save(self, path) -> None:
        name_id, parent, _, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
