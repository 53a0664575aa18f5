"""Print a sha256 digest of each output metasel gives in this checkout.

Usage (from anywhere)::

    python3 tools/output_digest.py > digests.txt
    python3 tools/output_digest.py --check digests.txt

metasel is imported from this checkout's ``src``. Running the script in two
checkouts and comparing the two files with ``diff`` shows whether a change
moved any output; ``--check FILE`` makes the comparison itself: it prints
each line of this checkout that differs from FILE or is missing from it
(the environment line included) and exits 1 if there is one. The first
line, ``# environment`` and a JSON object, names what the float bits
depend on besides the code: numpy's version, its BLAS build (name, version
and OpenBLAS configuration string of ``numpy.show_config(mode="dicts")``),
the core type and thread count the loaded OpenBLAS reports at run time
(which can differ from the build string's core), numpy's SIMD baseline and
the SIMD targets found on this CPU, and the environment variables that pick
the BLAS core, threads or CPU features. A query that cannot be made reads
``unknown``; an unset variable reads ``unset``. Then one line per output:

- every report file of ``metasel benchmark`` on each bundled CSV at seeds
  1, 2 and 7, with the benchmark's protocol_bundled settings (pool 10, two
  swarm runs of 10 generations, 3 replications);
- the pool, the mask and the test labels of ``train_des`` on P2 at the
  benchmark's train_p2 settings (the paper's sizes, pool 100, one swarm run
  of 7 generations), at seeds 1-3 unless ``--train-seeds`` names others;
- per train seed, the mask search's raw bits: ``Archive.audit`` and
  ``Archive.trace`` as float64 bytes. These move with any change in the
  search's arithmetic, even one that moves no mask or report;
- per train seed, ``meta``: the meta-training and validation meta-datasets
  ``train_des`` returns (rows, labels, sample and classifier ids), each put
  in sample-id order first (a stable sort), so the line moves if any
  sample's rows do but not if the samples only come in another order;
- per train seed, ``selector``: the final selector's weights, offsets and
  bias. These move with the order in which its fit adds the rows, even
  when every row is unchanged;
- per train seed, ``classify``: each test sample's competences, selected
  members (their count, then their indices) and fallback flag, as
  ``classify_batch`` reports them, in sample order.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from metasel import cli, data, engine, experiment  # noqa: E402
from metasel.bpso import BpsoConfig  # noqa: E402
from metasel.datasets import BUNDLED, dataset_path  # noqa: E402

BENCHMARK_SEEDS = (1, 2, 7)
PROTOCOL = {"pool": {"size": 10},
            "bpso": {"runs": 2, "max_generations": 10, "stall_limit": 10},
            "replications": 3}
P2_SIZES = (500, 500, 500, 2000)        # train, meta-train, dsel, test
TRAIN_P2 = experiment.ExperimentConfig(
    pool=experiment.PoolConfig(size=100),
    bpso=BpsoConfig(runs=1, swarm_size=20, max_generations=7, stall_limit=7))


def openblas_runtime():
    """(core name, thread count) the OpenBLAS loaded in this process
    reports, found among the process's mapped libraries (Linux); each is
    "unknown" when no such library or function is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # scipy-openblas prefixes its symbols, and its ILP64 build adds "64_"
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            try:
                corename = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return corename().decode(), threads()
    return "unknown", "unknown"


def environment() -> dict:
    """What the float bits depend on besides the code (see the module
    docstring)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                     # numpy before 1.25: no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    core, threads = openblas_runtime()
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key, "unknown")
                 for key in ("name", "version", "openblas configuration")},
        "openblas_core": core,
        "openblas_threads": threads,
        "simd_baseline": simd.get("baseline", "unknown"),
        "simd_found": simd.get("found", "unknown"),
        **{name: os.environ.get(name, "unset")
           for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def benchmark_lines(seed, workdir):
    for name in BUNDLED:
        config = dict(PROTOCOL, seed=seed,
                      source={"kind": "csv", "path": str(dataset_path(name)), "label_column": -1})
        path = workdir / f"{name}-{seed}.json"
        path.write_text(json.dumps(config))
        out = workdir / f"{name}-{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["benchmark", "--config", str(path), "--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"metasel benchmark on {name} at seed {seed} exited with {code}")
        for report in sorted(out.iterdir()):
            yield f"benchmark seed={seed} {name}/{report.name}", sha(report.read_bytes())


def train_lines(seed):
    train, meta, dsel, test = (data.generate_p2(n, [seed, stage])
                               for stage, n in enumerate(P2_SIZES, start=1))
    model, archive, info = experiment.train_des(train, meta, dsel, TRAIN_P2,
                                                base_seed_parts=(seed,))
    batches = [engine.classify_batch(model, test.features[i:i + 500])
               for i in range(0, len(test), 500)]
    labels = np.concatenate([batch_labels for batch_labels, _ in batches])
    pool = model.pool
    yield f"train_des seed={seed} pool", sha(pool.weights.tobytes(), pool.dist_scale.tobytes())
    yield f"train_des seed={seed} mask", sha(model.mask.tobytes())
    yield f"train_des seed={seed} labels", sha(labels.astype(np.int64).tobytes())
    yield f"train_des seed={seed} search", sha(np.asarray(archive.audit, np.float64).tobytes(),
                                               np.asarray(archive.trace, np.float64).tobytes())
    meta_data = [info[key] for key in ("meta_dataset", "validation_dataset")]
    yield f"train_des seed={seed} meta", sha(
        *(a[np.argsort(d.sample_ids, kind="stable")].tobytes() for d in meta_data
          for a in (d.rows, d.labels, d.sample_ids, d.classifier_ids)))
    selector = model.meta
    yield f"train_des seed={seed} selector", sha(
        selector.weights.tobytes(), selector.offsets.tobytes(),
        np.float64(selector.bias).tobytes())
    yield f"train_des seed={seed} classify", sha(
        *(chunk for _, result in batches for sample in result
          for chunk in (sample.competences.tobytes(), np.int64(len(sample.selected)).tobytes(),
                        np.asarray(sample.selected, np.int64).tobytes(),
                        bytes([sample.fallback]))))


def output_lines(train_seeds):
    yield "# environment " + json.dumps(environment())
    with tempfile.TemporaryDirectory() as tmp:
        for seed in BENCHMARK_SEEDS:
            for what, digest in benchmark_lines(seed, Path(tmp)):
                yield f"{digest} {what}"
    for seed in train_seeds:
        for what, digest in train_lines(seed):
            yield f"{digest} {what}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--train-seeds", type=int, nargs="+", default=[1, 2, 3],
                   help="seeds of the train_des outputs (default: 1 2 3)")
    p.add_argument("--check", type=Path, metavar="FILE",
                   help="print only the lines that differ from FILE or are missing from it, "
                        "and exit 1 if there are any")
    args = p.parse_args(argv)
    want = set(args.check.read_text().splitlines()) if args.check else None
    differs = False
    for line in output_lines(args.train_seeds):
        if want is None or line not in want:
            print(line, flush=True)
            differs = want is not None
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
