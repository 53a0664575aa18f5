"""Benchmark for metasel: one workload per process, one JSON result line.

Usage (from the repository root)::

    python3 bench/run.py --workload train_p2 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
the session once untraced and once with spans around every module's public
entry points, and reports the per-layer metrics plus the tracing overhead
(traced minus untraced session time). ``--smoke`` shrinks every workload to
a tiny P2 and pool 3 so the benchmark's own test can run all code paths.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give every figure with its median, quartiles and sample count, the output
checks that failed, and the environment the result was measured in.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads():
    # must run before numpy is imported: BLAS reads these once at load time
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _import_program():
    """Import metasel from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import metasel
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import metasel from {src}: {exc}")
    if src not in Path(metasel.__file__).resolve().parents:
        raise SystemExit(f"bench: metasel was imported from {metasel.__file__}, not {src}")
    return metasel


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_p2", "classify_p2", "protocol_bundled"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum measuring time of the repeated operation")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = _cap_blas_threads()
    _import_program()
    # imported only now: they import numpy and metasel
    import report
    from workloads import FULL, SMOKE, WORKLOADS, Run

    sizes = SMOKE if args.smoke else FULL
    workdir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    workload = WORKLOADS[args.workload](sizes, args.seed, workdir)
    metrics, lines, crashed = {}, [], False
    try:
        before, after = workload.setup_repeats
        for _ in range(before):
            run.timed("setup_s", workload.setup)
        if args.trace:
            metrics, lines = report.traced(workload, run, args, ROOT)
        else:
            t0 = time.perf_counter()
            workload.session(run, args.seconds)
            session_s = time.perf_counter() - t0
            # set up again after the session: the host's speed swings last
            # seconds, so a few-millisecond set-up timed only at the start
            # would see one of them; both sides give a steadier median
            for _ in range(after):
                run.timed("setup_s", workload.setup)
            metrics, lines = report.untraced(workload, run, session_s)
    except Exception:  # the run is reported as incorrect; the result line still prints
        traceback.print_exc()
        crashed = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = report.environment(args, nproc, ROOT)
    return report.emit(run, metrics, lines, env, args, crashed)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
