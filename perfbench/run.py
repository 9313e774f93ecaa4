"""Layered benchmark for spectralbranch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One caller issues ops one after another (a closed loop, no threads
of its own).  The pool of inputs the seed generates is run in a fixed number
of whole passes, at least two, sized from ``--seconds`` and the workload's
nominal pass time, so a run measures about ``--seconds`` of op time and the
same seed always attempts the same ops.  Each op's output check runs outside
its timed span.  Numerical failures
(``NUMERICAL_FAILURES``) are recorded with the layer that raised them and the
loop goes on, with no retry.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median of
three set-ups (this process and two fresh interpreters).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, with the tracing overhead and span coverage.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment, every
op, every failure) goes to ``.perfbench_out/BENCH_<workload>_<seed>_<trace>.json``
and, for traced runs, the spans to ``.perfbench_out/spans_<workload>_<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cli-configs", "crossing-track", "cluster-contour", "sweep-m200")
SETUP_SAMPLES = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import spectralbranch from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "spectralbranch" / "__init__.py").is_file():
        raise BenchError(f"no spectralbranch sources under {src}")
    sys.path.insert(0, str(src))
    import spectralbranch
    import spectralbranch.cli  # the package does not import its entry point

    if Path(spectralbranch.__file__).resolve().parent != src / "spectralbranch":
        raise BenchError(f"imported spectralbranch from {spectralbranch.__file__}, not {src}")
    return spectralbranch


def set_up(name: str, seed: int, out_dir: Path):
    """Import, generate the seed's inputs, run one untimed warm-up op.

    Returns (package, workload, pool, seconds, warm-up check result).  The
    clock starts before numpy is first imported.
    """
    t0 = time.perf_counter()
    sb = import_program()
    import numpy as np
    import workloads

    w = workloads.get(name, out_dir)
    rng = np.random.default_rng(seed)
    warm = w.make_warmup(rng)
    pool = w.make_pool(rng)
    w.before_op(warm)
    out = w.op(sb, warm)
    seconds = time.perf_counter() - t0
    return sb, w, pool, seconds, w.check(warm, out)


def failing_layer(exc: BaseException) -> str:
    """Module of the innermost spectralbranch frame the exception passed."""
    layer = "unknown"
    tb = exc.__traceback__
    pkg = str(ROOT / "src" / "spectralbranch")
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if path.startswith(pkg):
            layer = Path(path).stem
        tb = tb.tb_next
    return layer


def run_pass(sb, w, pool, records: list, failures: list, label: str) -> float:
    """One op per pool item; returns the op time of the pass."""
    spent = 0.0
    for i, item in enumerate(pool):
        w.before_op(item)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, exc = w.op(sb, item), None
        except sb.NUMERICAL_FAILURES as caught:
            out, exc = None, caught
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if exc is not None:
            failure = {"type": type(exc).__name__, "layer": failing_layer(exc),
                       "message": str(exc)}
        else:
            problem = w.check(item, out)
            failure = problem and {"type": "CheckFailed", "layer": "check", "message": problem}
        if failure:
            failures.append({"op": i, "pass": label, **failure})
        records.append({"op": i, "pass": label, "wall_s": wall, "cpu_s": cpu,
                        "ok": not failure})
        spent += wall
    return spent


def pass_count(w, seconds: float, least: int) -> int:
    # from the arguments alone, never from the clock: a slow spell must not
    # change how many ops a seed attempts, or which of them fail
    return max(least, round(seconds / w.pass_s))


def child_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, asked through its own API."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
        "SPECTRAL_BRANCH_THREADS": "unset",
    }


def end_to_end(records: list, setups: list[float]) -> dict:
    walls = [r["wall_s"] for r in records]
    passed = sum(r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "cpu_s_per_op": (sum(r["cpu_s"] for r in records) / len(records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (passed / len(records), "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if os.environ.get("SPECTRAL_BRANCH_THREADS"):
        raise BenchError("SPECTRAL_BRANCH_THREADS is set; the benchmark measures the default")
    sys.path.insert(0, str(HERE))
    cli_dir = OUT / f"cli_{os.getpid()}"
    try:
        sb, w, pool, setup_s, warm_problem = set_up(args.workload, args.seed, cli_dir)
        if args.setup_only:
            # the parent process checks its own warm-up op
            print(repr(setup_s))
            return 0
        return measure(args, sb, w, pool, setup_s, warm_problem)
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)


def measure(args, sb, w, pool, setup_s: float, warm_problem) -> int:
    import spans

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    records, failures = [], []
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "pool_size": len(pool)}
    if warm_problem is not None:
        failures.append({"op": -1, "pass": "warm-up", "type": "CheckFailed",
                         "layer": "check", "message": warm_problem})
    # A timed op that fails its check is a failed op (``failed``, ``pass_ratio``);
    # ``correct`` turns false only when a failure falls outside those counts.
    correct = warm_problem is None
    if args.trace == 0:
        n = pass_count(w, args.seconds, least=2)
        for i in range(n):
            run_pass(sb, w, pool, records, failures, f"timed-{i}")
        setups = [setup_s] + [child_setup(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(records, setups)
        result["setup_samples_s"] = setups
        result["op_p50_samples"] = len(records)
        lines = [f"{k:<14} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines.insert(2, f"{'':<14} ({len(records)} op samples, {n} passes of {len(pool)} ops)")
    else:
        tracer = spans.Tracer()
        plain, traced = 0.0, 0.0
        # untraced and traced passes alternate; the pairs fill --seconds
        for n in range(pass_count(w, args.seconds / 2, least=1)):
            plain += run_pass(sb, w, pool, [], failures, f"untraced-{n}")
            tracer.install(sb)
            result["wrapped_bindings"] = tracer.bindings()
            try:
                last = run_pass(sb, w, pool, records, failures, f"traced-{n}")
            finally:
                left = tracer.uninstall()
            if left:
                correct = False
                failures.append({"op": -1, "pass": f"traced-{n}", "type": "NotRestored",
                                 "layer": "trace", "message": ", ".join(left)})
            traced += last
        roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
        traced_fail = [f for f in failures if f["pass"].startswith("traced")]
        values = spans.layer_metrics(tracer, len(records), traced_fail,
                                     (traced - plain) / len(records), roots / traced)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {k: (v, units[k]) for k, v in values.items()}
        tracer.write(OUT / f"spans_{args.workload}_{args.seed}.json")
        result["untraced_pass_s"] = plain
        result["traced_pass_s"] = traced
        lines = [f"{k:<46} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    result.update(records=records, failures=failures, correct=correct,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(OUT / f"BENCH_{args.workload}_{args.seed}_{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, "
          f"{failed} failed (fail_ratio {failed / attempted:.4g})")
    print("# " + json.dumps(env))
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
