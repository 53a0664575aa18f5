"""The benchmark's workloads: set-up, measured sessions and output checks.

Every workload makes its inputs from the workload seed alone. A session is
the measured part of a run: it repeats the workload's operation (recorded
as ``op``) until the time budget is spent and a minimum count ran. A light
session, used by the traced run, does a fixed small amount of the same work
so its counters repeat exactly. Output checks count as operations too, so
``failed / attempted`` is the error rate.

Why each workload exists:

- ``train_p2``: P2 at the paper's sizes and pool 100. One operation is one
  ``train_des`` call; mask search, bagging and the extractor tables do the
  work, the classification path barely runs.
- ``classify_p2``: the same data and pool, trained during set-up with a
  one-generation mask search (classification cost does not depend on how the
  mask was found). One operation is a cold start, ``classify_batch`` over the
  2000 test samples, single-sample ``classify`` calls and the seven
  baselines. Extraction, neighbourhoods and pool prediction do the work.
- ``protocol_bundled``: ``metasel benchmark`` through ``cli.main`` on the
  three bundled CSVs with pool 10: thousands of small selector fits (most
  of its time) plus CSV loading, splitting, baselines and report writing.
  The consensus filter is active here.

Mask searches run a fixed number of generations (stall limit = generation
cap): with the stall rule, how long a search runs depends on the seed's
swarm trajectory, which would make the work per run differ from seed to
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# entry points are called through their modules so the tracer's patches apply
from metasel import cli, data, engine, experiment
from metasel.bpso import BpsoConfig
from metasel.data import Dataset
from metasel.datasets import BUNDLED, dataset_path
from metasel.experiment import FRAMEWORK_METHOD, ExperimentConfig, PoolConfig


@dataclass(frozen=True)
class Sizes:
    p2: tuple              # train, meta-train, dsel, test
    pool: int
    generations: int       # train_p2 mask search: exactly this many generations
    swarm: int
    batches: int           # classify_batch calls over the test split per classify_p2 operation
    singles: int           # single-sample classify calls per classify_p2 operation
    reference: int         # test samples the in-memory model labels for the cold check
    oracle_floor: float | None
    protocol_pool: int
    protocol_bpso: dict
    protocol_replications: int


FULL = Sizes(p2=(500, 500, 500, 2000), pool=100, generations=7, swarm=20,
             batches=2, singles=300, reference=200, oracle_floor=0.99, protocol_pool=10,
             protocol_bpso={"runs": 2, "max_generations": 10, "stall_limit": 10},
             protocol_replications=3)
# tiny P2 and pool 3: every code path in seconds (the oracle floor of
# acceptance criterion 1a only holds at the paper's sizes)
SMOKE = Sizes(p2=(60, 60, 60, 100), pool=3, generations=2, swarm=4, batches=2, singles=20,
              reference=20, oracle_floor=None, protocol_pool=3,
              protocol_bpso={"runs": 1, "swarm_size": 4, "max_generations": 2,
                             "stall_limit": 2},
              protocol_replications=1)


@dataclass
class Run:
    """Timings, operation counts and failures of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def timed(self, metric, fn, *args, **kwargs):
        """Call ``fn`` as one operation and record its wall time under
        ``metric``. An exception fails the operation and ends the run."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{metric}: {exc!r}")
            raise
        self.record(metric, time.perf_counter() - start)
        return result

    def record(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def check(self, ok, message):
        """One output check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


def _p2_splits(sizes, seed):
    return [data.generate_p2(n, [seed, stage]) for stage, n in enumerate(sizes.p2, start=1)]


def _check_oracle(run, sizes, model, test):
    if sizes.oracle_floor is not None:
        scaled = Dataset(model.prepare(test.features), test.labels, test.class_count)
        oracle = engine.oracle_accuracy(model.pool, scaled)
        run.check(oracle >= sizes.oracle_floor,
                  f"pool oracle accuracy {oracle:.4f} < {sizes.oracle_floor}")


def _until(seconds, minimum):
    """Counts 0, 1, ... until at least ``minimum`` and ``seconds`` have passed."""
    start = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - start < seconds:
        yield count
        count += 1


class TrainP2:
    """One operation: ``train_des``, then scoring on the test split."""

    name = "train_p2"
    setup_repeats = (10, 10)

    def __init__(self, sizes, seed, workdir):
        self.sizes, self.seed = sizes, seed
        self.config = ExperimentConfig(
            pool=PoolConfig(size=sizes.pool),
            bpso=BpsoConfig(runs=1, swarm_size=sizes.swarm,
                            max_generations=sizes.generations,
                            stall_limit=sizes.generations))
        self.first = None

    def setup(self):
        self.splits = _p2_splits(self.sizes, self.seed)

    def session(self, run, seconds, light=False):
        train, meta, dsel, test = self.splits
        for _ in _until(seconds, 1):
            model, _, _ = run.timed("op", experiment.train_des, train, meta, dsel, self.config,
                                    base_seed_parts=(self.seed,))
            # score in chunks so peak memory reflects training, not the
            # (samples, dsel, M*L) profile-distance tensor of one big batch
            labels = np.concatenate([engine.classify_batch(model, test.features[i:i + 500])[0]
                                     for i in range(0, len(test), 500)])
            self.accuracy = float((labels == test.labels).mean())
            _check_oracle(run, self.sizes, model, test)
            outcome = (model.mask.tobytes(), self.accuracy)
            if self.first is None:
                self.first = outcome
            else:
                run.check(outcome == self.first,
                          "repeated train_des on one seed changed the mask or accuracy")

    def figures(self, run):
        return {"train_s": (run.samples["op"], "s")}


class ClassifyP2:
    """One operation serves the trained model: a cold start, ``classify_batch``
    over the test split, single-sample ``classify`` calls and the baselines.
    Timed as a whole it spans long enough to average out the host's short
    speed swings; each part is also reported on its own."""

    name = "classify_p2"
    setup_repeats = (1, 0)   # one set-up trains a pool-100 model: too costly to repeat

    def __init__(self, sizes, seed, workdir):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.config = ExperimentConfig(
            pool=PoolConfig(size=sizes.pool),
            bpso=BpsoConfig(runs=1, swarm_size=4, max_generations=1, stall_limit=1))

    def setup(self):
        train, meta, dsel, self.test = _p2_splits(self.sizes, self.seed)
        model, _, _ = experiment.train_des(train, meta, dsel, self.config, base_seed_parts=(self.seed,))
        self.model = model
        self.reference, _ = engine.classify_batch(model, self.test.features[:self.sizes.reference])

    def session(self, run, seconds, light=False):
        for _ in _until(0 if light else seconds, 1):
            t0 = time.perf_counter()
            self._serve(run, light)
            run.record("op", time.perf_counter() - t0)

    def _serve(self, run, light):
        test = self.test
        path = self.workdir / "model.bin"

        def cold_start():
            experiment.save_model(self.model, path)
            loaded = experiment.load_model(path)
            return loaded, engine.classify(loaded, test.features[0])[0]

        model, first = run.timed("cold_classify_s", cold_start)
        run.check(first == self.reference[0], "cold-loaded model changed the first label")

        labels = None
        for _ in range(1 if light else self.sizes.batches):
            batch, _ = run.timed("batch_s", engine.classify_batch, model, test.features)
            if labels is None:
                labels = batch
                run.check(np.array_equal(labels[:len(self.reference)], self.reference),
                          "cold-loaded model labels differ from the in-memory model")
            else:
                run.check(np.array_equal(batch, labels), "classify_batch is not repeatable")
        self.accuracy = float((labels == test.labels).mean())
        _check_oracle(run, self.sizes, model, test)

        for j in range(self.sizes.singles // 10 if light else self.sizes.singles):
            label, _ = run.timed("single_s", engine.classify, model, test.features[j])
            run.check(label == labels[j], f"classify(x) != classify_batch on sample {j}")

        X = model.prepare(test.features)
        total = 0.0
        for method in engine.BASELINE_METHODS:
            t0 = time.perf_counter()
            run.timed(f"baseline.{method}", engine.baseline_predict_batch, method,
                      model.pool, model.dsel, X, k=model.k)
            total += time.perf_counter() - t0
        run.record("baselines_s", total)

    def figures(self, run):
        return {
            "classify_batch_sps": ([len(self.test) / v for v in run.samples["batch_s"]], "1/s"),
            "classify_ms": ([1e3 * v for v in run.samples["single_s"]], "ms"),
            "cold_classify_s": (run.samples["cold_classify_s"], "s"),
            "baselines_s": (run.samples["baselines_s"], "s"),
        }


def _digest(directory):
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class ProtocolBundled:
    """One operation: a ``metasel benchmark`` pass over the bundled CSVs;
    an untraced session makes two, so their reports can be byte-compared."""

    name = "protocol_bundled"
    setup_repeats = (10, 10)

    def __init__(self, sizes, seed, workdir):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.first = None
        self.passes = 0

    def setup(self):
        for name in BUNDLED:
            ds = data.load_csv(dataset_path(name))
            if ds.class_count < 2 or len(ds) < 100:
                raise ValueError(f"bundled dataset {name} is not a usable benchmark input")
            config = {
                "source": {"kind": "csv", "path": str(dataset_path(name)), "label_column": -1},
                "pool": {"size": self.sizes.protocol_pool},
                "bpso": self.sizes.protocol_bpso,
                "replications": self.sizes.protocol_replications,
                "seed": self.seed,
            }
            (self.workdir / f"{name}.json").write_text(json.dumps(config))

    def _one_pass(self):
        out = self.workdir / f"pass{self.passes}"
        self.passes += 1
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for name in BUNDLED:
                codes.append(cli.main(["benchmark", "--config", str(self.workdir / f"{name}.json"),
                                       "--out-dir", str(out / name)]))
        return out, codes

    def session(self, run, seconds, light=False):
        for _ in _until(0 if light else seconds, 1 if light else 2):
            out, codes = run.timed("op", self._one_pass)
            run.check(codes == [0] * len(BUNDLED), f"metasel benchmark exit codes {codes}")
            digest = _digest(out)
            if self.first is None:
                self.first = digest
            else:
                run.check(digest == self.first, "benchmark reports differ between passes")
            means = []
            for name in BUNDLED:
                for line in (out / name / "summary.csv").read_text().splitlines()[1:]:
                    cells = line.split(",")
                    if cells[0] == FRAMEWORK_METHOD:
                        means.append(float(cells[1]))
            run.check(len(means) == len(BUNDLED), "summary.csv lacks the framework row")
            self.accuracy = statistics.fmean(means)

    def figures(self, run):
        return {"protocol_s": (run.samples["op"], "s")}


WORKLOADS = {w.name: w for w in (TrainP2, ClassifyP2, ProtocolBundled)}
