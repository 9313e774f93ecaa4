"""Experiment orchestration: config in, CSV artifacts and a report out.

Every command writes one CSV (17 significant digits, LF endings, fixed
column layout) plus a plain-text sidecar report next to it.  Outputs are
deterministic for a fixed config and seed.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .config import HolderSpec, ResolventSpec, RunConfig, Tolerances, _check_config
from .contour import Contour, spectral_cluster
from .errors import ConfigError, ExpressionError, NUMERICAL_FAILURES
from .families import HermitianFamily, graph_norm_equivalence_ratio
from .gallery import holder_quotient, make_family, resolvent_weak_vs_norm
from .linalg import _one_blas_thread
from .tracker import (
    BranchSet,
    estimate_derivative_bound,
    extend_parameterization,
    gronwall_screen,
    sorted_eigenvalues,
    track_branches,
)
from .util import multiset_distance


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_report(path: Path, lines: list[str], verbose: bool) -> None:
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    if verbose:
        sys.stdout.write(text)


def _report_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".report.txt")


# what a command returns: CSV header, CSV rows and report lines
_Output = tuple[list[str], object, list[str]]


def _crossing_lines(branches: BranchSet) -> list[str]:
    if not branches.crossings:
        return ["crossings: none"]
    out = [f"crossings: {len(branches.crossings)}"]
    for ev in branches.crossings:
        out.append(
            f"  t* = {ev.t_star!r}: slots {list(ev.slots)}, branches {list(ev.labels)}, "
            f"sigma {list(ev.sigma)}, max derivative residual {ev.report.residual:.3e}"
        )
    return out


def _gronwall_lines(family: HermitianFamily, branches: BranchSet,
                    tol: Tolerances) -> list[str]:
    t0, t1 = float(branches.grid[0]), float(branches.grid[-1])
    est_grid = np.linspace(t0, t1, max(201, branches.grid.shape[0]))
    a = 1.01 * estimate_derivative_bound(family, est_grid, tol)
    if a <= 0.0:
        a = 1e-12  # constant family: any positive rate passes
    rep = gronwall_screen(branches.grid, branches.values, a)
    verdict = "PASS" if rep.passed else "FAIL"
    lines = [
        f"gronwall screen: a = {a!r}, {verdict} "
        f"({rep.pairs_checked} ordered pairs, worst margin {rep.worst_margin:.3e})"
    ]
    for branch, k1, k2, lhs, rhs in rep.violations:
        lines.append(
            f"  violation: branch {branch}, rows {k1}->{k2}: |dL| = {lhs!r} > bound {rhs!r}"
        )
    return lines


def _graph_norm_lines(family: HermitianFamily, t0: float, t1: float, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    s, t = (float(x) for x in rng.uniform(t0, t1, size=2))
    r_st = graph_norm_equivalence_ratio(family, s, t, samples=8, rng=rng)
    r_ts = graph_norm_equivalence_ratio(family, t, s, samples=8, rng=rng)
    ok = "OK" if r_st * r_ts >= 1.0 else "BELOW 1"
    return [
        f"graph norm spot check (seed {seed}): s = {s!r}, t = {t!r}, "
        f"ratio(s,t) = {r_st!r}, ratio(t,s) = {r_ts!r}, product >= 1: {ok}"
    ]


def _run_track(config: RunConfig, tol: Tolerances) -> _Output:
    family = make_family(config.family, tol)
    branches = track_branches(family, config.t_range, config.grid_size,
                              order=config.order, tol=tol)
    m = branches.n_branches
    dv = np.gradient(branches.values, branches.grid, axis=0)
    header = (["t"] + [f"branch_{j}" for j in range(m)]
              + [f"dbranch_{j}" for j in range(m)])
    lines = [
        f"command: {config.command}",
        f"family: {family.name} (dimension {family.dim})",
        f"grid: [{config.t_range[0]!r}, {config.t_range[1]!r}] with {config.grid_size} points",
        f"order: {config.order}",
    ]
    lines += _crossing_lines(branches)
    lines += _gronwall_lines(family, branches, tol)
    lines += _graph_norm_lines(family, float(branches.grid[0]), float(branches.grid[-1]),
                               config.seed)
    return header, np.column_stack([branches.grid, branches.values, dv]), lines


def _run_project(config: RunConfig, tol: Tolerances) -> _Output:
    family = make_family(config.family, tol)
    cs = config.contour
    gamma = Contour(center=complex(cs.center), radius=cs.radius, nodes=cs.nodes)
    spectrum = sorted_eigenvalues(family, config.t, tol)
    gamma.validate_against(spectrum, tol)
    cluster = spectral_cluster(family, config.t, gamma, tol)
    rows = [(float(i), v) for i, v in enumerate(cluster.eigenvalues)]
    P = cluster.projector
    direct = spectrum[np.abs(spectrum - gamma.center.real) < gamma.radius]
    lines = [
        "command: project",
        f"family: {family.name} (dimension {family.dim})",
        f"t = {config.t!r}",
        f"contour: center {gamma.center!r}, radius {gamma.radius!r}, start nodes {gamma.nodes}",
        f"enclosed rank: {cluster.rank}",
        "newton sums s_0..s_2N: " + ", ".join(repr(float(v)) for v in cluster.newton_sums),
        "sigma_1..sigma_N: " + ", ".join(repr(float(v)) for v in cluster.sigma),
        f"projector defects: idempotency {np.linalg.norm(P @ P - P):.3e}, "
        f"hermiticity {np.linalg.norm(P - P.conj().T):.3e}",
        f"recovered vs direct eigensolve multiset distance: "
        f"{multiset_distance(cluster.eigenvalues, direct):.3e}",
    ]
    return ["index", "eigenvalue"], rows, lines


def _run_holder(config: RunConfig, tol: Tolerances) -> _Output:
    hs = config.holder if config.holder is not None else HolderSpec()
    rows = []
    lines = ["command: counterexample-holder", f"alpha = {hs.alpha!r}"]
    for n in hs.n_values:
        q = holder_quotient(n, hs.alpha, tol=tol)
        rows.append((float(n), q.alpha, q.closed_form, q.numerical, q.rel_diff))
        lines.append(
            f"n={n}: closed-form {q.closed_form!r}, numerical {q.numerical!r} "
            f"(rel diff {q.rel_diff:.3e})"
        )
    return ["n", "alpha", "closed_form", "numerical", "rel_diff"], rows, lines


def _run_resolvent(config: RunConfig, tol: Tolerances) -> _Output:
    rs = config.resolvent if config.resolvent is not None else ResolventSpec()
    reciprocal = [1.0 / j for j in range(2, rs.n_max + 1)]
    dyadic = [2.0**-j for j in range(1, rs.small_t_count + 1)]
    ts = sorted(set(reciprocal) | set(dyadic), reverse=True)
    quotients = {t: resolvent_weak_vs_norm(rs.m, t, rs.k_fixed) for t in ts}
    rows = [(t, pw, nq) for t, (pw, nq) in quotients.items()]
    floor = min(quotients[t][1] for t in reciprocal)
    pw_last = quotients[dyadic[-1]][0]
    verdict = "OK" if floor >= tol.jump_floor else "BELOW FLOOR"
    lines = [
        "command: counterexample-resolvent",
        f"m = {rs.m}, fixed coordinates K = {rs.k_fixed}",
        f"norm quotient floor over t = 1/n, n = 2..{rs.n_max}: {floor!r} "
        f"(threshold {tol.jump_floor!r}): {verdict}",
        f"pointwise max over k <= {rs.k_fixed} at t = {dyadic[-1]!r}: {pw_last!r}",
    ]
    return ["t", "pointwise_max", "norm_quotient"], rows, lines


def _run_extend(config: RunConfig, tol: Tolerances) -> _Output:
    family = make_family(config.family, tol)
    k = config.given
    if k > family.dim:
        raise ConfigError(f"given must be between 0 and the family dimension {family.dim}, "
                          f"got {k}")
    branches = track_branches(family, config.t_range, config.grid_size,
                              order=config.order, tol=tol)
    mu = branches.values[:, :k]
    completion = extend_parameterization(branches, mu, order=config.order, tol=tol)
    header = (["t"] + [f"given_{j}" for j in range(k)]
              + [f"completed_{j}" for j in range(completion.shape[1])])
    union = np.column_stack([mu, completion])
    worst = 0.0
    for r in range(branches.grid.shape[0]):
        worst = max(worst, multiset_distance(np.sort(union[r]), np.sort(branches.values[r])))
    lines = [
        "command: extend",
        f"family: {family.name} (dimension {family.dim})",
        f"given branches: {k}, completed: {completion.shape[1]}",
        f"counting condition: union multiset distance to spectrum, worst over grid: {worst:.3e}",
    ]
    lines += _crossing_lines(branches)
    return header, np.column_stack([branches.grid, mu, completion]), lines


_DISPATCH = {
    "track": _run_track,
    "schrodinger": _run_track,
    "project": _run_project,
    "counterexample-holder": _run_holder,
    "counterexample-resolvent": _run_resolvent,
    "extend": _run_extend,
}


@_one_blas_thread
def run(config: RunConfig, out_dir="." , verbose: bool = False) -> int:
    """Execute one config; returns the process exit code (0, 2, or 3).

    A config built in code passes the same value check as one read by
    ``parse_config``, before anything is written.  Exit 2 is a config or
    expression error, 3 a numerical failure (``NUMERICAL_FAILURES``).
    """
    out = Path(out_dir)
    try:
        _check_config(config)
        tol = config.tolerances()
        out.mkdir(parents=True, exist_ok=True)
        header, rows, lines = _DISPATCH[config.command](config, tol)
        csv_path = out / config.output_name()
        _write_csv(csv_path, header, rows)
        _write_report(_report_path(csv_path), lines, verbose)
    except (ConfigError, ExpressionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if verbose:
        print(f"wrote {csv_path}")
    return 0
