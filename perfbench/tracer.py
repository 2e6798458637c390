"""Layer spans for the traced run, recorded from outside the package.

install() replaces public functions of the raisepeel modules (the layers)
by timing wrappers, in every module that holds a reference to them, so
nested calls such as scgf_derivatives -> scgf_value -> build_deformed are
captured while the CLI path itself stays unchanged.  Spans are kept in
memory; self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable

# module -> functions wrapped in it; private _chain is the stationary
# transition-table walk, the one step no public function isolates
WRAPPED = {
    "profiles": ("enumerate_states",),
    "stationary": ("_chain", "stationary_distribution", "expected_peaks",
                   "prob_omega_global", "exact_drifts"),
    "scgf": ("build_deformed", "largest_eigenvalue", "scgf_value", "scgf_derivatives"),
    "spinchain": ("sector_basis", "build_xxz", "ground_energy", "bridge_parameters",
                  "lambda_bridge", "tl_relations_check"),
    "tq": ("q_poly", "p_poly", "verify_tq", "verify_wronskian", "boundary_values",
           "derivative_worksheet", "hypergeometric_check", "lambda_alpha", "lambda_beta",
           "lambda_alpha_formula", "lambda_beta_formula", "recurrence_check"),
    "simulate": ("simulate", "run_ensemble"),
}

ROOT = "cli.main"

# per-layer time metric -> spans whose self time it sums
TIME_METRICS = {
    "profiles.enumerate_s": ("profiles.enumerate_states",),
    "stationary.table_s": ("stationary._chain",),
    "stationary.solve_s": ("stationary.stationary_distribution",),
    "stationary.observables_s": ("stationary.expected_peaks", "stationary.prob_omega_global",
                                 "stationary.exact_drifts"),
    "scgf.build_s": ("scgf.build_deformed",),
    "scgf.eig_s": ("scgf.largest_eigenvalue", "scgf.scgf_value", "scgf.scgf_derivatives"),
    "spinchain.build_s": ("spinchain.build_xxz", "spinchain.sector_basis"),
    "spinchain.ground_s": ("spinchain.ground_energy",),
    "spinchain.bridge_s": ("spinchain.lambda_bridge", "spinchain.bridge_parameters"),
    "spinchain.tl_check_s": ("spinchain.tl_relations_check",),
    "tq.poly_s": ("tq.q_poly", "tq.p_poly"),
    "tq.verify_s": ("tq.verify_tq",),
    "tq.wronskian_s": ("tq.verify_wronskian",),
    "tq.boundary_s": ("tq.boundary_values",),
    "tq.worksheet_s": ("tq.derivative_worksheet",),
    "tq.hyper_s": ("tq.hypergeometric_check",),
    "tq.lambda_s": ("tq.lambda_alpha", "tq.lambda_beta", "tq.lambda_alpha_formula",
                    "tq.lambda_beta_formula"),
    "tq.recurrence_s": ("tq.recurrence_check",),
    "cli.self_s": (ROOT,),
}

# counts read off results; a cache hit computed nothing and counts nothing
_COUNTS: dict[str, Callable[[Any], dict[str, int]]] = {
    "profiles.enumerate_states": lambda r: {"profiles.states": len(r)},
    "scgf.build_deformed": lambda r: {"scgf.builds": 1},
    "scgf.largest_eigenvalue": lambda r: {
        "scgf.iterations": r.iterations,
        "scgf.fallbacks": int(r.method != "power-iteration")},
    "spinchain.sector_basis": lambda r: {"spinchain.sector_dim": len(r)},
    "simulate.simulate": lambda r: {"simulate.events": r.counters.n_total},
}
COUNT_METRICS = ("profiles.states", "scgf.builds", "scgf.iterations", "scgf.fallbacks",
                 "spinchain.sector_dim", "simulate.events")


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add part into total; the sector dimension keeps its largest value."""
    for key, value in part.items():
        if key == "spinchain.sector_dim":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class Tracer:
    """Spans as [name, start, end, parent index, counts]; parent -1 is none."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def run(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        misses = fn.cache_info().misses if hasattr(fn, "cache_info") else None
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        computed = misses is None or fn.cache_info().misses > misses
        if computed and name in _COUNTS:
            record[4] = _COUNTS[name](result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.run(name, fn, *args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this process, plus the self time of each module."""
        by_span: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            by_span[span[0]] = by_span.get(span[0], 0.0) + own
        out = {metric: sum(by_span.get(s, 0.0) for s in spans)
               for metric, spans in TIME_METRICS.items()}
        out.update(dict.fromkeys(COUNT_METRICS, 0))
        for span in self.spans:
            if span[4]:
                merge(out, span[4])
        for name, own in by_span.items():
            key = f"self.{name.split('.')[0]}"
            out[key] = out.get(key, 0.0) + own
        # time in top-level simulate calls, the base of events per second
        out["simulate.time_s"] = sum(end - start for name, start, end, parent, _ in self.spans
                                     if name.startswith("simulate.") and parent >= 0
                                     and self.spans[parent][0] == ROOT)
        return out


def install(tracer: Tracer) -> None:
    """Replace every wrapped function wherever a raisepeel module refers to it."""
    replacement: dict[int, tuple[Callable, Callable]] = {}
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(f"raisepeel.{module_name}")
        for name in names:
            fn = getattr(module, name)
            replacement[id(fn)] = (fn, tracer.wrap(f"{module_name}.{name}", fn))
    for module_name, module in list(sys.modules.items()):
        if module_name != "raisepeel" and not module_name.startswith("raisepeel."):
            continue
        for attr, value in list(vars(module).items()):
            pair = replacement.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])
