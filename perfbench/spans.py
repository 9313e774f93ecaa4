"""Run-time spans around the public functions of each spectralbranch module.

``Tracer.install`` replaces every binding site of each traced function (the
defining module's attribute and every ``from .x import f`` copy in the other
modules and the package) with one wrapper that records a span: name, start,
end and the index of the enclosing span.  Nothing under ``src/`` changes;
``Tracer.uninstall`` puts every original object back and reports any binding
that did not come back.

Spans stay in memory and are written when the run ends.  ``layer_metrics``
turns them into the per-layer numbers the benchmark reports, per op.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Contract checks every layer calls on its own inputs; their time stays with
# the caller (``HermitianFamily.unit`` self time is assembly plus this check).
UNTRACED = {"as_matrix", "ensure_hermitian", "hermitian_defect"}


def _flop_eig(args, kwargs, result) -> float:
    # zheevd real-flop counts (LAPACK Working Note 41): Householder
    # tridiagonalisation 16/3 m^3, divide and conquer 4/3 m^3, back
    # transformation 8 m^3; plus the two complex m x m products of the
    # residual checks, 8 m^3 each.  Computed from m, not measured.
    m = result.eigenvalues.shape[0]
    return (16.0 / 3.0 + 4.0 / 3.0 + 8.0 + 16.0) * m**3


def _flop_solve(args, kwargs, result) -> float:
    # zgetrf 8/3 m^3 plus zgetrs 8 m^2 per right-hand side.  Computed.
    m = result.shape[0]
    k = result.shape[1] if result.ndim == 2 else 1
    return 8.0 / 3.0 * m**3 + 8.0 * m * m * k


WORK = {"linalg.hermitian_eig": _flop_eig, "linalg.solve_shifted": _flop_solve}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, flop]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(args, kwargs, result)
            if name == "tracker.track_branches":
                counts["tracker.grid_points"] += result.grid.shape[0]
                counts["tracker.crossings"] += len(result.crossings)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / uninstall ------------------------------------------------

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = {}   # id(original) -> (span name, original)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        tracker = sys.modules[package.__name__ + ".tracker"]
        # scipy's bounded minimiser is the t* refinement stage
        targets[id(tracker.minimize_scalar)] = ("tracker.minimize_scalar", tracker.minimize_scalar)
        wrappers = {key: self._span(name, fn) for key, (name, fn) in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])
        families = sys.modules[package.__name__ + ".families"]
        expressions = sys.modules[package.__name__ + ".expressions"]
        self._patch(families.HermitianFamily, "unit",
                    self._span("families.HermitianFamily.unit", families.HermitianFamily.unit))
        # > 100k calls per Schrodinger pass: counted, never timed
        self._patch(expressions.Expression, "evaluate",
                    self._counter("expressions.Expression.evaluate",
                                  expressions.Expression.evaluate))

    def bindings(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._patches)

    def uninstall(self) -> list[str]:
        """Restore every binding; return those still not the original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, original in self._patches
                if getattr(o, a) is not original]
        self._patches.clear()
        return left

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "flop"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def _nearest(spans, i: int, names: set[str]) -> str | None:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return spans[p][0]
        p = spans[p][3]
    return None


# (name, unit, better); the order here is the order of the report
LAYER_METRICS = [
    ("linalg.hermitian_eig.calls", "count/op", "lower"),
    ("linalg.hermitian_eig.self_s", "s/op", "lower"),
    ("linalg.hermitian_eig.gflop", "GFLOP/op", "lower"),
    ("linalg.solve_shifted.calls", "count/op", "lower"),
    ("linalg.solve_shifted.self_s", "s/op", "lower"),
    ("linalg.solve_shifted.gflop", "GFLOP/op", "lower"),
    ("linalg.numerical_rank.calls", "count/op", "lower"),
    ("linalg.numerical_rank.self_s", "s/op", "lower"),
    ("linalg.operator_norm.calls", "count/op", "lower"),
    ("linalg.operator_norm.self_s", "s/op", "lower"),
    ("families.HermitianFamily.unit.calls", "count/op", "lower"),
    ("families.HermitianFamily.unit.self_s", "s/op", "lower"),
    ("expressions.Expression.evaluate.calls", "count/op", "lower"),
    ("contour.riesz_projector.calls", "count/op", "lower"),
    ("contour.riesz_projector.total_s", "s/op", "lower"),
    ("contour.riesz_projector.self_s", "s/op", "lower"),
    ("contour.riesz_projector.rank_only_calls", "count/op", "lower"),
    ("contour.solves_per_projector", "count", "lower"),
    ("contour.spectral_cluster.calls", "count/op", "lower"),
    ("contour.spectral_cluster.total_s", "s/op", "lower"),
    ("contour.spectral_cluster.self_s", "s/op", "lower"),
    ("contour.solves_per_cluster", "count", "lower"),
    ("contour.failures.QuadratureError", "count", "lower"),
    ("contour.failures.RootRealityError", "count", "lower"),
    ("linalg.failures.SpectrumTouchError", "count", "lower"),
    ("linalg.failures.EigenConvergenceError", "count", "lower"),
    ("tracker.track_branches.calls", "count/op", "lower"),
    ("tracker.track_branches.total_s", "s/op", "lower"),
    ("tracker.track_branches.self_s", "s/op", "lower"),
    ("tracker.eigs_per_grid_point", "count", "lower"),
    ("tracker.minimize_scalar.calls", "count/op", "lower"),
    ("tracker.minimize_scalar.total_s", "s/op", "lower"),
    ("tracker.minimize_scalar.eig_calls", "count/op", "lower"),
    ("tracker.one_sided_slot_derivatives.calls", "count/op", "lower"),
    ("tracker.one_sided_slot_derivatives.total_s", "s/op", "lower"),
    ("tracker.match_crossing.calls", "count/op", "lower"),
    ("tracker.match_crossing.total_s", "s/op", "lower"),
    ("tracker.crossings", "count/op", "lower"),
    ("tracker.failures.RankDriftError", "count", "lower"),
    ("tracker.failures.GapCollapseError", "count", "lower"),
    ("tracker.failures.CountingError", "count", "lower"),
    ("tracker.estimate_derivative_bound.total_s", "s/op", "lower"),
    ("tracker.gronwall_screen.total_s", "s/op", "lower"),
    ("tracker.extend_parameterization.total_s", "s/op", "lower"),
    ("gallery.holder_quotient.total_s", "s/op", "lower"),
    ("gallery.resolvent_weak_vs_norm.total_s", "s/op", "lower"),
    ("gallery.make_family.total_s", "s/op", "lower"),
    ("runner.run.total_s", "s/op", "lower"),
    ("runner.run.self_s", "s/op", "lower"),
    ("config.parse_config.total_s", "s/op", "lower"),
    ("trace.overhead_s", "s/op", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
]


def layer_metrics(tracer: Tracer, ops: int, failures: list[dict],
                  overhead_s: float, coverage: float) -> dict[str, float]:
    """Per-layer numbers over ``ops`` traced ops: calls and seconds per op,
    ratios as defined next to each, failures as counts over the run."""
    spans = tracer.spans
    calls, total, child, flop = Counter(), Counter(), Counter(), Counter()
    for name, start, end, parent, work in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        flop[name] += work
        if parent >= 0:
            child[spans[parent][0]] += dur
    nested = Counter()
    for i, s in enumerate(spans):
        name = s[0]
        if name == "linalg.solve_shifted":
            owner = _nearest(spans, i, {"contour.riesz_projector", "contour.spectral_cluster"})
            nested[("solves", owner)] += 1
        elif name == "linalg.hermitian_eig":
            if _nearest(spans, i, {"tracker.minimize_scalar"}):
                nested["refine_eigs"] += 1
            if _nearest(spans, i, {"tracker.track_branches"}):
                nested["track_eigs"] += 1
        elif name == "contour.riesz_projector" and s[3] >= 0 \
                and spans[s[3]][0].startswith("tracker."):
            nested["rank_only"] += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for metric, _, _ in LAYER_METRICS:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[base] / ops
        elif stat == "total_s":
            out[metric] = total[base] / ops
        elif stat == "self_s":
            out[metric] = (total[base] - child[base]) / ops
        elif stat == "gflop":
            out[metric] = flop[base] / 1e9 / ops
    errors = Counter((f["layer"], f["type"]) for f in failures)
    for metric, _, _ in LAYER_METRICS:
        parts = metric.split(".")
        if parts[1] == "failures":
            out[metric] = float(errors[(parts[0], parts[2])])
    out["contour.riesz_projector.rank_only_calls"] = nested["rank_only"] / ops
    out["contour.solves_per_projector"] = ratio(nested[("solves", "contour.riesz_projector")],
                                                calls["contour.riesz_projector"])
    out["contour.solves_per_cluster"] = ratio(nested[("solves", "contour.spectral_cluster")],
                                              calls["contour.spectral_cluster"])
    out["tracker.eigs_per_grid_point"] = ratio(nested["track_eigs"],
                                               tracer.counts["tracker.grid_points"])
    out["tracker.minimize_scalar.eig_calls"] = nested["refine_eigs"] / ops
    out["tracker.crossings"] = tracer.counts["tracker.crossings"] / ops
    out["expressions.Expression.evaluate.calls"] = \
        tracer.counts["expressions.Expression.evaluate"] / ops
    out["trace.overhead_s"] = overhead_s
    out["trace.span_coverage"] = coverage
    return {metric: out[metric] for metric, _, _ in LAYER_METRICS}
