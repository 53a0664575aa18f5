"""Metric summaries, the traced run, the environment record and the result line."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS, Tracer

# (name, unit): what every workload reports untraced
END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("accuracy", "ratio"), ("peak_rss_mb", "MB")]


def summarize(values):
    """Median, quartiles, sample count and the highest of the p90/p95/p99/p99.9
    percentiles that has at least ten samples beyond it."""
    v = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    out = {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(v)}
    for pct in (99.9, 99, 95, 90):
        if len(v) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(v, pct))
            break
    return out


def _stat_line(name, values, unit):
    s = summarize(values)
    tail = "".join(f" {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
    return (f"  {name:<22} median {s['median']:.6g} {unit}  "
            f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]{tail}  n={s['n']}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, run, session_s):
    metrics = {
        "setup_s": (statistics.median(run.samples["setup_s"]), "s"),
        "op_s": (statistics.median(run.samples["op"]), "s"),
        "accuracy": (workload.accuracy, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [f"{workload.name}: untraced session {session_s:.3f} s", "end-to-end metrics:"]
    lines.append(_stat_line("setup_s", run.samples["setup_s"], "s"))
    lines.append(_stat_line("op_s", run.samples["op"], "s"))
    for name in ("accuracy", "peak_rss_mb"):
        lines.append(f"  {name:<22} {metrics[name][0]:.6g} {metrics[name][1]}")
    lines.append("workload figures:")
    for name, (values, unit) in workload.figures(run).items():
        lines.append(_stat_line(name, values, unit))
    return metrics, lines


def source_digest(root, *dirs):
    """Short digest of every file under the given directories of ``root``."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((root / d).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def traced(workload, run, args, root):
    """A light traced session, then the same light session untraced.

    The traced session runs first, so its spans see the same fresh process
    as an untraced run's first operation; the untraced session after it
    feeds the repeat checks (same mask, byte-identical reports). Their wall
    times are both reported, but the first session in a process also pays
    page faults for its large arrays, so the tracing overhead is measured
    as the wrapper's own cost per span times the number of spans.
    """
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        workload.session(run, 0.0, light=True)
        traced_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    workload.session(run, 0.0, light=True)
    untraced_s = time.perf_counter() - t0
    metrics = tracer.layer_metrics(traced_s, untraced_s, Tracer.span_cost())
    counters = tracer.counters()

    # the counters of a traced run must repeat exactly in the next traced run
    # of the same workload and seed on the same program and benchmark code
    store = root / ".bench_out" / "counters"
    store.mkdir(parents=True, exist_ok=True)
    code = source_digest(root, "src", Path(__file__).parent.name)
    key = f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}-{code}"
    path = store / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counters) if before.get(k) != counters.get(k))
        run.check(not diff, f"traced counters differ from the previous traced run: {diff}")
        repeat = "repeat the previous traced run exactly" if not diff else f"DIFFER in {diff}"
    else:
        path.write_text(json.dumps(counters, indent=1, sort_keys=True))
        repeat = f"recorded in {path.relative_to(root)} for the next traced run"

    lines = [f"{workload.name}: traced session {traced_s:.3f} s, then untraced "
             f"{untraced_s:.3f} s; tracing overhead {metrics['trace.overhead_s'][0]:.6f} s",
             "spans (traced session):", *tracer.span_table(),
             f"deterministic counters ({repeat}):",
             *[f"  {k:<34} {v}" for k, v in counters.items()],
             "per-layer metrics:",
             *[f"  {k:<34} {v:.6g} {u}" for k, (v, u) in metrics.items()]]
    return metrics, lines


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(root):
        return None
    return lines[1]


def environment(args, nproc, root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_sha256_16": source_digest(root, "src"),
    }


def emit(run, metrics, lines, env, args, crashed):
    expected = [(n, u) for n, u, _ in LAYER_METRICS] if args.trace else END_TO_END
    complete = all(name in metrics for name, _ in expected)
    correct = run.failed == 0 and run.attempted > 0 and complete and not crashed
    for line in lines:
        print(line)
    print(f"error_rate: {run.failed}/{run.attempted} operations and checks failed")
    for message in run.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in expected if name in metrics},
    }))
    sys.stdout.flush()
    return 0 if correct else 1
