"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload is a ``Workload`` with these parts:

* ``make_pool(rng)`` draws the inputs one pass of the timed loop runs, and
  ``make_warmup(rng)`` the input of the untimed warm-up op.  Only numpy builds
  them; the program receives generated matrices, callables and config text.
* ``op(sb, item)`` is the one call into ``spectralbranch`` that gets timed.
  Calls go through module attributes (``sb.tracker.track_branches``), so the
  tracer's wrappers apply when they are installed.
* ``check(item, out)`` runs after the op's timed span and returns ``None`` or
  a one-line reason the output is wrong.
* ``pass_s`` is the nominal op time of one pass over the pool: the median
  over seeds 101-110 at commit 14e610b on a 2-core x86_64 VM.  The harness
  sizes a run's pass count from it and ``--seconds``.

The sizes that set an op's cost (dimension, crossing count, cluster size,
contour guard) form a fixed ladder across each range, so a pass covers every
range end to end and every seed runs the same mix of sizes.  The seed draws
everything else: unitary frames, slopes, crossing points, spectra, cluster
positions, potentials, and the order of the ops in the pool.  Sizes are not
drawn because op cost steps with m where OpenBLAS starts its second thread
(between m = 26 and 27 for a shifted solve with OpenBLAS 0.3.31 on a 2-core
x86_64 machine), so drawn sizes put about 15% seed-to-seed spread on
``ops_per_s`` of crossing-track.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Workload:
    name: str
    make_pool: Callable[[np.random.Generator], list]
    make_warmup: Callable[[np.random.Generator], Any]
    op: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], str | None]
    pass_s: float
    before_op: Callable[[Any], None] = lambda item: None


def _ladder(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced values from lo to hi inclusive."""
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def _cycle(lo: int, hi: int, n: int) -> np.ndarray:
    """n integers cycling through lo..hi, each value equally often."""
    return lo + np.arange(n) % (hi - lo + 1)


def _unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# ---------------------------------------------------------------------------
# cli-configs: the six shipped configs through the command line


CONFIG_DIR = ROOT / "configs"
CONFIG_NAMES = ("extend_partial", "holder", "project_cluster", "resolvent",
                "schrodinger", "track_expr")


@dataclass(frozen=True)
class CliPass:
    configs: tuple[Path, ...]
    out_dir: Path


def cli_reference() -> dict[str, str]:
    with open(REFERENCE_DIR / "cli_configs.json") as fh:
        return json.load(fh)["sha256"]


def _cli_pool(out_dir: Path):
    def make(rng: np.random.Generator) -> list[CliPass]:
        paths = [CONFIG_DIR / f"{name}.cfg" for name in CONFIG_NAMES]
        for p in paths:
            if not p.is_file():
                raise FileNotFoundError(f"missing shipped config {p}")
        order = rng.permutation(len(paths))
        return [CliPass(configs=tuple(paths[i] for i in order), out_dir=out_dir)]
    return make


def _cli_clear(item: CliPass) -> None:
    shutil.rmtree(item.out_dir, ignore_errors=True)
    item.out_dir.mkdir(parents=True)


def _cli_op(sb, item: CliPass) -> list[int]:
    # one output directory per config: track and schrodinger share file names
    return [sb.cli.main(["--config", str(p), "--out", str(item.out_dir / p.stem)])
            for p in item.configs]


def cli_digests(out_dir: Path) -> dict[str, str]:
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _cli_check(item: CliPass, codes: list[int]) -> str | None:
    if any(code != 0 for code in codes):
        return f"exit codes {codes}"
    got = cli_digests(item.out_dir)
    want = cli_reference()
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"output bytes differ from the reference in {bad}"
    return None


def cli_configs(out_dir: Path) -> Workload:
    make = _cli_pool(out_dir)
    return Workload("cli-configs", make, lambda rng: make(rng)[0], _cli_op,
                    _cli_check, pass_s=2.4, before_op=_cli_clear)


# ---------------------------------------------------------------------------
# crossing-track: planted crossings in a random unitary frame

CROSS_GRID = 201
CROSS_POOL = 9


@dataclass(frozen=True)
class PlantedCrossings:
    U: np.ndarray
    offsets: np.ndarray   # curve j is offsets[j] + slopes[j] * t
    slopes: np.ndarray
    taus: np.ndarray      # planted crossing parameters, one per pair

    def matrix(self, t: float) -> np.ndarray:
        A = (self.U * (self.offsets + self.slopes * t)) @ self.U.conj().T
        return 0.5 * (A + A.conj().T)

    def curves(self, grid: np.ndarray) -> np.ndarray:
        return self.offsets[None, :] + self.slopes[None, :] * grid[:, None]


def planted_crossings(rng: np.random.Generator, pairs: int, spectators: int) -> PlantedCrossings:
    """``pairs`` line pairs d +- s (t - tau) crossing at distinct interior grid
    points, and ``spectators`` slowly drifting levels, each in its own band so
    no other two curves meet on [-1, 1]."""
    grid = np.linspace(-1.0, 1.0, CROSS_GRID)
    taus = grid[rng.choice(np.arange(20, CROSS_GRID - 20), size=pairs, replace=False)]
    kinds = rng.permutation(np.r_[np.ones(pairs, dtype=int), np.zeros(spectators, dtype=int)])
    offsets, slopes = [], []
    top = 0.0
    k = 0
    for kind in kinds:
        top += rng.uniform(0.3, 0.6)            # band gap
        if kind:
            s = rng.uniform(0.5, 2.0)
            tau = taus[k]
            k += 1
            half = s * (1.0 + abs(tau))         # max |s (t - tau)| on [-1, 1]
            d = top + half
            offsets += [d + s * tau, d - s * tau]
            slopes += [-s, s]
            top = d + half
        else:
            a = rng.uniform(-0.05, 0.05)
            e = top + 0.05
            offsets.append(e)
            slopes.append(a)
            top = e + 0.05
    offsets = np.array(offsets) - 0.5 * top     # centre the spectrum
    m = offsets.size
    return PlantedCrossings(U=_unitary(rng, m), offsets=offsets, slopes=np.array(slopes),
                            taus=np.sort(taus))


def _cross_pool(rng: np.random.Generator) -> list[PlantedCrossings]:
    # pair counts cycle 2..6 while spectators climb 0, 5, ..., 40
    pairs = _cycle(2, 6, CROSS_POOL)
    spectators = np.rint(_ladder(0, 40, CROSS_POOL)).astype(int)
    order = rng.permutation(CROSS_POOL)
    return [planted_crossings(rng, int(pairs[i]), int(spectators[i])) for i in order]


def _cross_op(sb, item: PlantedCrossings):
    fam = sb.families.HermitianFamily(name="planted-crossings", dim=item.offsets.size,
                                      matrix=item.matrix)
    return sb.tracker.track_branches(fam, (-1.0, 1.0), CROSS_GRID)


def _cross_check(item: PlantedCrossings, bs) -> str | None:
    if len(bs.crossings) != item.taus.size:
        return f"{len(bs.crossings)} crossings, planted {item.taus.size}"
    planted = item.curves(bs.grid)
    # column j must follow one planted curve; distinct columns, distinct curves
    err = np.max(np.abs(bs.values[:, :, None] - planted[:, None, :]), axis=0)
    match = np.argmin(err, axis=1)
    worst = float(np.max(err[np.arange(err.shape[0]), match]))
    if len(set(match.tolist())) != match.size or worst > 1e-9:
        return f"columns do not follow the planted curves (worst {worst:.3e})"
    return None


crossing_track = Workload(
    "crossing-track", _cross_pool,
    lambda rng: planted_crossings(rng, 3, 10), _cross_op, _cross_check, pass_s=10.0,
)


# ---------------------------------------------------------------------------
# cluster-contour: one contoured cluster of A + tB at t = 0

CLUSTER_POOL = 10


@dataclass(frozen=True)
class PlantedCluster:
    A: np.ndarray
    B: np.ndarray
    center: float
    radius: float
    inside: np.ndarray    # planted eigenvalues the contour encloses

    def matrix(self, t: float) -> np.ndarray:
        return self.A + t * self.B


def planted_cluster(rng: np.random.Generator, m: int, size: int, guard: float) -> PlantedCluster:
    """Acceptance criterion 06's layout: adjacent gaps in [0.2, 0.24], centred,
    a contour around ``size`` consecutive eigenvalues that sits ``guard`` of
    the way from the cluster edge to the nearest outside eigenvalue."""
    spectrum = np.cumsum(rng.uniform(0.2, 0.24, m))
    spectrum -= spectrum.mean()
    Q = _unitary(rng, m)
    A = (Q * spectrum) @ Q.conj().T
    A = 0.5 * (A + A.conj().T)
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    B = 0.5 * (Z + Z.conj().T)
    B /= np.linalg.norm(B, 2)
    lo = int(rng.integers(0, m - size + 1))
    hi = lo + size - 1
    gaps = [spectrum[lo] - spectrum[lo - 1] if lo > 0 else np.inf,
            spectrum[hi + 1] - spectrum[hi] if hi < m - 1 else np.inf]
    g = min(gaps)
    return PlantedCluster(
        A=A, B=B, center=float(0.5 * (spectrum[lo] + spectrum[hi])),
        radius=float(0.5 * (spectrum[hi] - spectrum[lo]) + guard * g),
        inside=spectrum[lo:hi + 1].copy(),
    )


def _cluster_pool(rng: np.random.Generator) -> list[PlantedCluster]:
    # m ascends; cluster sizes cycle 1..5 and guards stride through their
    # ladder, so small and large m meet every size and both guard extremes
    ms = np.rint(_ladder(16, 128, CLUSTER_POOL)).astype(int)
    sizes = _cycle(1, 5, CLUSTER_POOL)
    guards = _ladder(0.15, 0.85, CLUSTER_POOL)[(3 * np.arange(CLUSTER_POOL)) % CLUSTER_POOL]
    order = rng.permutation(CLUSTER_POOL)
    return [planted_cluster(rng, int(ms[i]), int(sizes[i]), float(guards[i])) for i in order]


def _cluster_op(sb, item: PlantedCluster):
    fam = sb.families.HermitianFamily(name="affine-cluster", dim=item.A.shape[0],
                                      matrix=item.matrix)
    gamma = sb.contour.Contour(center=item.center, radius=item.radius)
    return sb.contour.spectral_cluster(fam, 0.0, gamma)


def _cluster_check(item: PlantedCluster, cluster) -> str | None:
    if cluster.rank != item.inside.size:
        return f"rank {cluster.rank}, planted {item.inside.size}"
    err = float(np.max(np.abs(cluster.eigenvalues - item.inside)))
    if err > 1e-7:
        return f"eigenvalues off the planted ones by {err:.3e}"
    return None


cluster_contour = Workload(
    "cluster-contour", _cluster_pool,
    lambda rng: planted_cluster(rng, 64, 3, 0.5), _cluster_op, _cluster_check, pass_s=6.0,
)


# ---------------------------------------------------------------------------
# sweep-m200: Dirichlet Schrodinger operator, m = 200, seeded potential

SWEEP_M = 200
SWEEP_GRID = 101
SWEEP_POOL = 6
SWEEP_CHECK_ROWS = 5


@dataclass(frozen=True)
class Potential:
    """V(t, x) as expression text for the program and as a numpy formula for
    the check, so the check does not rely on the program's expression parser."""

    a: float
    b: float
    c: float
    d: float
    e: float
    rows: tuple[int, ...]   # grid rows the check compares against eigvalsh

    @property
    def source(self) -> str:
        return (f"{self.a!r}*t*x + {self.b!r}*sin({self.c!r}*x + {self.d!r}*t)"
                f" + {self.e!r}*t^2*x^2")

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return (self.a * t * x + self.b * np.sin(self.c * x + self.d * t)
                + self.e * t**2 * x**2)


def _potential(rng: np.random.Generator) -> Potential:
    a, b, e = (round(float(v), 6) for v in rng.uniform(-50.0, 50.0, 3))
    c, d = (round(float(v), 6) for v in rng.uniform(1.0, 10.0, 2))
    rows = tuple(sorted(rng.choice(SWEEP_GRID, size=SWEEP_CHECK_ROWS, replace=False).tolist()))
    return Potential(a, b, c, d, e, rows)


def _sweep_op(sb, item: Potential):
    fam = sb.gallery.SchrodingerFamily(m=SWEEP_M, potential=item.source).family()
    return sb.tracker.track_branches(fam, (0.0, 1.0), SWEEP_GRID)


def _sweep_check(item: Potential, bs) -> str | None:
    if bs.crossings:
        return f"{len(bs.crossings)} crossings on a simple spectrum"
    h = 1.0 / (SWEEP_M + 1)
    x = h * np.arange(1, SWEEP_M + 1)
    lap = (2.0 * np.eye(SWEEP_M) - np.eye(SWEEP_M, k=1) - np.eye(SWEEP_M, k=-1)) / h**2
    for k in item.rows:
        t = float(bs.grid[k])
        want = np.linalg.eigvalsh(lap + np.diag(item(t, x)))
        if not np.allclose(np.sort(bs.values[k]), want, rtol=1e-12, atol=1e-8):
            return f"row {k}: sorted values differ from eigvalsh"
    return None


sweep_m200 = Workload(
    "sweep-m200", lambda rng: [_potential(rng) for _ in range(SWEEP_POOL)],
    _potential, _sweep_op, _sweep_check, pass_s=10.0,
)


def get(name: str, out_dir: Path) -> Workload:
    if name == "cli-configs":
        return cli_configs(out_dir)
    table = {w.name: w for w in (crossing_track, cluster_contour, sweep_m200)}
    return table[name]
