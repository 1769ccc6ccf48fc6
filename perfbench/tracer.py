"""Per-layer tracing from outside the program.

A Tracer replaces the public functions of each thetacoble module by timing
wrappers.  Every name bound to the original function object is patched, in
the defining module and in every module that imported it, so calls routed
through ``from .theta import theta`` style imports are seen too.  Each call
records a span (name, parent span, start, end) in memory; self time and the
derived theta counters are computed once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer (module of src/thetacoble) -> wrapped public functions
LAYERS = {
    "symplectic": ("enumerate_group", "act_on_characteristic", "parabolic_cosets"),
    "characteristics": (
        "triple_sign",
        "special_fundamental_completion",
        "enumerate_aronhold_sets",
        "aronhold_classify",
    ),
    "gopel": ("even_coset", "enumerate_gopel", "pascal_decomposition", "fano_basis"),
    "theta": (
        "theta",
        "theta2",
        "theta_gradient",
        "truncation_radius",
        "even_theta_constants",
        "cached_gradient",
        "jacobian_det_cached",
    ),
    "modular": (
        "s_vector",
        "h_fano",
        "h_pascal",
        "h_goepel",
        "goepel_form_matrix",
        "riemann_relation",
        "chi",
        "h_via_jacobian",
    ),
    "quartics": (
        "theta2_vector",
        "coble_eval",
        "coble_gradient",
        "kummer2_eval",
        "q_basis_eval",
        "jacobi_form_residual",
    ),
    "points": ("bracket", "bracket_value_matrix", "igusa_tuple_search", "standard_invariants"),
}

SUITE_NAMES = (
    "combinatorics",
    "group",
    "gopel",
    "jacobi",
    "riemann",
    "wrank",
    "coble",
    "modularity",
    "kummer2",
    "segre",
    "igusa",
    "points",
)

ERROR_LAYERS = tuple(LAYERS) + ("suites",)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for layer in ERROR_LAYERS:
        units[f"{layer}.errors"] = "count"
    units["theta.lattice_points"] = "count"
    units["theta.lattice_points_per_call"] = "count"
    units["theta.radius_max"] = "count"
    units["theta.even_theta_constants.hit_ratio"] = "ratio"
    for suite in SUITE_NAMES:
        units[f"suites.{suite}.wall_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


class Tracer:
    """Context manager that wraps the LAYERS functions while it is active."""

    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._errors = dict.fromkeys(ERROR_LAYERS, 0)
        self._last_error: dict[str, BaseException] = {}
        self.lattice_points = 0
        self.radius_max = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from thetacoble import suites  # the package imports every layer

        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "thetacoble" or name.startswith("thetacoble."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"thetacoble.{layer}"]
            for name in names:
                orig = getattr(home, name)
                is_radius = (layer, name) == ("theta", "truncation_radius")
                post = self._count_lattice if is_radius else None
                wrapper = self._wrap(f"{layer}.{name}", layer, orig, post)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._restore.append((module, attr, orig))
                            setattr(module, attr, wrapper)
        for suite, fn in list(suites.SUITES.items()):
            self._restore.append((suites.SUITES, suite, fn))
            suites.SUITES[suite] = self._wrap(f"suites.{suite}", "suites", fn, None)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, layer: str, fn, post):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(layer, exc)
                raise
            finally:
                span_end[sid] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # An exception passing up through several wrapped calls of one layer
        # is one error of that layer.
        if self._last_error.get(layer) is not exc:
            self._last_error[layer] = exc
            self._errors[layer] += 1

    def _count_lattice(self, args, kwargs, spec) -> None:
        g = (args[0] if args else kwargs["tau"]).g
        self.lattice_points += (2 * spec.radius + 1) ** g
        self.radius_max = max(self.radius_max, spec.radius)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far (no trace_overhead_s)."""
        n_names = len(self._name_ids)
        names = np.array(self._span_name, dtype=np.int64)
        parents = np.array(self._span_parent, dtype=np.int64)
        dur = np.array(self._span_end, dtype=float) - np.array(self._span_start, dtype=float)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(names))
        self_time = dur - child_time
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=self_time, minlength=n_names)
        total_s = np.bincount(names, weights=dur, minlength=n_names)

        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                nid = self._name_ids[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.calls"] = int(calls[nid])
                out[f"{layer}.{fn}.self_s"] = float(self_s[nid])
        for layer, count in self._errors.items():
            out[f"{layer}.errors"] = count
        n_radius = out["theta.truncation_radius.calls"]
        out["theta.lattice_points"] = self.lattice_points
        out["theta.lattice_points_per_call"] = self.lattice_points / n_radius if n_radius else 0.0
        out["theta.radius_max"] = self.radius_max

        # a constants call is a cache hit when it made no theta call
        consts = self._name_ids["theta.even_theta_constants"]
        theta_spans = names == self._name_ids["theta.theta"]
        computed = np.zeros(len(names), dtype=bool)
        computed[parents[theta_spans & has_parent]] = True
        const_spans = names == consts
        n_const = int(const_spans.sum())
        hits = int((const_spans & ~computed).sum())
        out["theta.even_theta_constants.hit_ratio"] = hits / n_const if n_const else 0.0

        for suite in SUITE_NAMES:
            out[f"suites.{suite}.wall_s"] = float(total_s[self._name_ids[f"suites.{suite}"]])
        return out
