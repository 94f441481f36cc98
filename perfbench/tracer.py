"""Span tracer installed around fcspin's public functions from outside src/.

Each wrapped call records one span: name, layer, start, end and parent span.
Spans live in flat in-memory lists for one pass of a workload and are
reduced to per-layer metrics once the pass is over.

Wrappers replace the original object in every fcspin module namespace that
holds it, because the package imports functions by name (``cli`` and
``cspa`` call ``diagonalize``/``concurrence``/``pair_density`` through their
own globals).  The SciPy solvers are module globals of the layer that calls
them; their wrappers are installed per namespace, so a ``brentq`` span
belongs to the layer whose code called it.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("spin_algebra", "exact", "meanfield", "rpa", "cspa", "cli")
# namespaces scanned for wrapped names; oracle only serves the checks, but a
# wrapper must still replace every alias of a wrapped function
NAMESPACES = ("fcspin", "fcspin.spin_algebra", "fcspin.exact",
              "fcspin.meanfield", "fcspin.rpa", "fcspin.cspa", "fcspin.cli",
              "fcspin.oracle")
# third-party solvers, keyed by the namespace whose globals hold them
SOLVERS = (("fcspin.exact", "eigh_tridiagonal"), ("fcspin.exact", "brentq"),
           ("fcspin.meanfield", "brentq"), ("fcspin.rpa", "brentq"),
           ("fcspin.cspa", "minimize_scalar"))

THERMAL = ("exact.thermal_observables", "exact.log_partition")
CSPA_TOP = ("cspa.cspa_result", "cspa.cspa_log_partition")


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if inspect.isfunction(v) and v.__module__ == mod.__name__]
    out = []
    for n in names:
        v = getattr(mod, n)
        if n.startswith("_") or inspect.isclass(v) or not callable(v):
            continue
        out.append(n)
    return out


def _negative(params) -> bool:
    return any(v < 0.0 for v in params.couplings)


class Tracer:
    """Records spans while installed; ``install``/``remove`` bracket a pass."""

    def __init__(self):
        self.mods = {name: importlib.import_module(name) for name in NAMESPACES}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- span storage -----------------------------------------------------

    def reset(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used by the harness for op roots."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._annotate(idx, name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _annotate(self, idx, name, args, kwargs, out) -> None:
        if name == "exact.eigh_tridiagonal":
            w = out if kwargs.get("eigvals_only") else out[0]
            self.extra[idx] = len(w)
        elif name in CSPA_TOP:
            params = args[0] if args else kwargs["params"]
            nodes = out.nodes_per_axis if name == "cspa.cspa_result" else None
            self.extra[idx] = (_negative(params), nodes)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod_name in NAMESPACES[1:]:
            layer = mod_name.split(".")[1]
            if layer not in LAYERS:
                continue
            mod = self.mods[mod_name]
            for fname in _public_functions(mod):
                originals[id(getattr(mod, fname))] = (
                    getattr(mod, fname), f"{layer}.{fname}")
        wrappers = {key: self._wrap(fn, name)
                    for key, (fn, name) in originals.items()}
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and originals[id(value)][0] is value:
                    self._patch(mod, attr, w)
        for mod_name, attr in SOLVERS:
            mod = self.mods[mod_name]
            layer = mod_name.split(".")[1]
            self._patch(mod, attr, self._wrap(getattr(mod, attr),
                                              f"{layer}.{attr}"))

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def _has_ancestor(self, idx: int, names) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] in names:
                return True
            p = self.parent[p]
        return False

    def pass_metrics(self, wall: float, cache_hits: int,
                     cache_misses: int) -> dict[str, float]:
        """Per-layer metrics of the pass just traced (``wall`` seconds)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        tot = defaultdict(float)   # inclusive time per span name
        cnt = defaultdict(int)
        self_by_layer = defaultdict(float)
        for i in range(n):
            name = self.name[i]
            tot[name] += dur[i]
            cnt[name] += 1
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += dur[i] - child[i]

        def total(*names):
            return sum(tot[k] for k in names)

        def calls(*names):
            return sum(cnt[k] for k in names)

        root_evals = fd_q = 0
        fd_s = neg_s = 0.0
        nodes = []
        for i in range(n):
            name = self.name[i]
            if name in THERMAL and self._has_ancestor(i, ("exact.brentq",)):
                root_evals += 1
            elif name in CSPA_TOP:
                # a call that raised has no annotation
                negative, m = self.extra.get(i, (False, None))
                if m is not None:
                    nodes.append(m)
                if self._has_ancestor(i, ("cspa.cspa_result",)):
                    if name == "cspa.cspa_log_partition":
                        fd_q += 1
                        fd_s += dur[i]
                elif negative and not self._has_ancestor(i, CSPA_TOP):
                    neg_s += dur[i]
        results = cnt["cspa.cspa_result"]
        lookups = cache_hits + cache_misses
        m = {
            "spin_algebra.build_s": total("spin_algebra.build_block",
                                          "spin_algebra.parity_split"),
            "spin_algebra.blocks": cnt["spin_algebra.build_block"],
            "exact.tridiag_s": tot["exact.eigh_tridiagonal"],
            "exact.tridiag_calls": cnt["exact.eigh_tridiagonal"],
            "exact.levels": sum(v for i, v in self.extra.items()
                                if self.name[i] == "exact.eigh_tridiagonal"),
            "exact.moments_s": sum(dur[i] - child[i] for i in range(n)
                                   if self.name[i] == "exact.diagonalize"),
            "exact.diagonalize_s": tot["exact.diagonalize"],
            "exact.diagonalize_calls": cnt["exact.diagonalize"],
            "exact.diag_cache_hit_ratio": (cache_hits / lookups
                                           if lookups else 0.0),
            "exact.thermal_s": total(*THERMAL),
            "exact.thermal_calls": calls(*THERMAL),
            "exact.root_s": tot["exact.brentq"],
            "exact.root_evals": root_evals,
            "exact.limit_temperatures_s": tot["exact.limit_temperatures"],
            "exact.parity_transitions_s": tot["exact.parity_transitions"],
            "cspa.result_s": tot["cspa.cspa_result"],
            "cspa.result_calls": results,
            "cspa.fd_quadratures": fd_q,
            "cspa.fd_s": fd_s,
            "cspa.useful_quadrature_ratio": (results / (results + fd_q)
                                             if results else 0.0),
            "cspa.nodes_per_axis_mean": (sum(nodes) / len(nodes)
                                         if nodes else 0.0),
            "cspa.negative_s": neg_s,
            "cspa.saddle_solves": cnt["cspa.minimize_scalar"],
            "meanfield.solve_s": tot["meanfield.solve_mean_field"],
            "meanfield.solve_calls": cnt["meanfield.solve_mean_field"],
            "meanfield.observables_s": tot["meanfield.mfrpa_observables"],
            "meanfield.log_partition_s": tot["meanfield.log_partition_mfrpa"],
            "rpa.full_concurrence_s": tot["rpa.full_concurrence"],
            "rpa.asymptotic_s": tot["rpa.asymptotic_concurrence"],
            "rpa.limit_temperature_s": tot["rpa.limit_temperature_rpa"],
            "rpa.root_calls": calls("rpa.brentq", "meanfield.brentq"),
            "cli.main_s": tot["cli.main"],
            "cli.invocations": cnt["cli.main"],
            "cli.emit_s": total("cli.emit_csv", "cli.emit_json"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["bench.self_s"] = self_by_layer["bench"]
        m["trace.wall_s"] = wall
        m["trace.self_sum_ratio"] = (sum(self_by_layer.values()) / wall
                                     if wall > 0 else 0.0)
        m["trace.spans"] = n
        return m
