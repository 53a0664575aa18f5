"""Spans and counters around the public entry points of metasel's modules.

The tracer patches functions and methods from the outside: every module
attribute that refers to a wrapped function is replaced (so ``from .pool
import bagging`` inside ``experiment`` is covered too), and class attributes
are replaced for methods. ``Tracer.uninstall`` puts every original back.

Spans nest by call order on one thread. A span's self time is its duration
minus the durations of its direct children. Counts come only from arguments
and return values at the wrapped boundary. Every per-layer metric is
reported even when its wrapper saw no call, so a call site that moves shows
up as a zero instead of disappearing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from metasel import bpso, data, engine, experiment, metaclassifier, metafeatures, pool, regions

BASELINES = engine.BASELINE_METHODS

# (metric name, unit, better), in report order
LAYER_METRICS = [
    ("pool.bagging_s", "s", "lower"),
    ("pool.predict_calls", "count", "lower"),
    ("pool.predict_s", "s", "lower"),
    ("regions.knn_calls", "count", "lower"),
    ("regions.knn_s", "s", "lower"),
    ("metafeatures.tables_s", "s", "lower"),
    ("metafeatures.extract_s", "s", "lower"),
    ("metafeatures.meta_rows", "count", "lower"),
    ("metafeatures.build_s", "s", "lower"),
    ("metaclassifier.fits", "count", "lower"),
    ("metaclassifier.fit_s", "s", "lower"),
    ("metaclassifier.newton_iters", "count", "lower"),
    ("metaclassifier.degenerate_fits", "count", "lower"),
    ("metaclassifier.score_calls", "count", "lower"),
    ("metaclassifier.score_s", "s", "lower"),
    ("bpso.optimize_self_s", "s", "lower"),
    ("bpso.generations", "count", "lower"),
    ("bpso.mask_evals", "count", "lower"),
    ("bpso.fits", "count", "lower"),
    ("bpso.fits_per_s", "1/s", "higher"),
    ("bpso.cache_hit_ratio", "ratio", "higher"),
    ("engine.classify_batch_self_s", "s", "lower"),
    ("engine.classified_samples", "count", "lower"),
    ("engine.fallbacks", "count", "lower"),
    ("engine.fallback_rate", "ratio", "lower"),
    ("engine.mean_ensemble_size", "count", "lower"),
    ("engine.consensus_kept_meta", "ratio", "lower"),
    ("engine.consensus_total_meta", "count", "lower"),
    ("engine.consensus_kept_dsel", "ratio", "lower"),
    ("engine.consensus_total_dsel", "count", "lower"),
    *[(f"engine.baseline.{m}_s", "s", "lower") for m in BASELINES],
    ("experiment.train_des_self_s", "s", "lower"),
    ("experiment.save_s", "s", "lower"),
    ("experiment.load_s", "s", "lower"),
    ("experiment.evaluate_s", "s", "lower"),
    ("experiment.write_reports_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("experiment.train_des_s", "s", "lower"),
    ("trace.session_s", "s", "lower"),
    ("trace.untraced_session_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# counters that must repeat exactly between two traced runs of one seed
DETERMINISTIC = [
    "pool.predict_calls", "regions.knn_calls", "metafeatures.meta_rows",
    "metaclassifier.fits", "metaclassifier.newton_iters",
    "metaclassifier.degenerate_fits", "metaclassifier.score_calls",
    "bpso.generations", "bpso.mask_evals", "bpso.fits",
    "engine.classified_samples", "engine.fallbacks", "engine.ensemble_members",
    "engine.consensus_kept_meta_n", "engine.consensus_total_meta",
    "engine.consensus_kept_dsel_n", "engine.consensus_total_dsel", "trace.spans",
]


def _count_rows(t, args, kwargs, result):
    t.counts["metafeatures.meta_rows"] += len(result)


def _count_fit(t, args, kwargs, result):
    t.counts["metaclassifier.newton_iters"] += int(result.iterations)
    t.counts["metaclassifier.degenerate_fits"] += int(result.degenerate)


def _count_generations(t, args, kwargs, result):
    t.counts["bpso.generations"] += len(result.trace)


def _count_mask_eval(t, args, kwargs, result):
    t.counts["bpso.mask_evals"] += 1


def _count_classified(t, args, kwargs, result):
    labels, diags = result
    t.counts["engine.classified_samples"] += len(labels)
    t.counts["engine.fallbacks"] += sum(int(d.fallback) for d in diags)
    t.counts["engine.ensemble_members"] += sum(len(d.selected) for d in diags)


def _count_consensus(t, args, kwargs, result):
    _, _, info = result
    meta_train = kwargs.get("meta_train", args[1] if len(args) > 1 else None)
    dsel = kwargs.get("dsel", args[2] if len(args) > 2 else None)
    t.counts["engine.consensus_kept_meta_n"] += info["kept_meta_samples"]
    t.counts["engine.consensus_total_meta"] += len(meta_train)
    t.counts["engine.consensus_kept_dsel_n"] += info["kept_dsel_samples"]
    t.counts["engine.consensus_total_dsel"] += len(dsel)


def _baseline_name(args, kwargs):
    method = kwargs.get("method", args[0] if args else "?")
    return f"engine.baseline.{method}"


# (owner, attribute, span name or None for count-only, after-call hook)
TARGETS = [
    (pool, "bagging", "pool.bagging", None),
    (pool.ClassifierPool, "predict_batch", "pool.predict", None),
    (regions, "nearest_neighbors", "regions.knn", None),
    (metafeatures.MetaFeatureExtractor, "__init__", "metafeatures.tables", None),
    (metafeatures.MetaFeatureExtractor, "extract_batch", "metafeatures.extract", None),
    (metafeatures.MetaFeatureExtractor, "build_meta_dataset", "metafeatures.build", _count_rows),
    (metaclassifier, "train_meta", "metaclassifier.fit", _count_fit),
    (metaclassifier.MetaClassifier, "competence_batch", "metaclassifier.score", None),
    (bpso, "optimize", "bpso.optimize", _count_generations),
    (bpso.MaskEvaluator, "distance", None, _count_mask_eval),
    (engine, "classify_batch", "engine.classify_batch", _count_classified),
    (engine, "baseline_predict_batch", _baseline_name, None),
    (experiment, "train_des", "experiment.train_des", _count_consensus),
    (experiment, "save_model", "experiment.save", None),
    (experiment, "load_model", "experiment.load", None),
    (experiment, "evaluate_methods", "experiment.evaluate", None),
    (experiment, "write_report_csvs", "experiment.write_reports", None),
    (data, "load_csv", "data.load", None),
    (data, "split_holdout", "data.load", None),
    (data, "generate_p2", "data.load", None),
]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []       # (namespace object, attribute, original)

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name(args, kwargs) if callable(name) else name
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([label, time.perf_counter(), None, parent])
                tracer._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    tracer.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "metasel" or key.startswith("metasel."))]
        for owner, attr, name, after in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, after)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ---------------------------------------------------------

    def aggregate(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = agg[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return agg

    def _calls_under(self, name, ancestor):
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def counters(self):
        """The deterministic counters of this trace."""
        agg = self.aggregate()
        values = dict(self.counts)
        values.update({
            "pool.predict_calls": agg["pool.predict"][0],
            "regions.knn_calls": agg["regions.knn"][0],
            "metaclassifier.fits": agg["metaclassifier.fit"][0],
            "metaclassifier.score_calls": agg["metaclassifier.score"][0],
            "bpso.fits": self._calls_under("metaclassifier.fit", "bpso.optimize"),
            "trace.spans": len(self.spans),
        })
        return {key: int(values.get(key, 0)) for key in DETERMINISTIC}

    @staticmethod
    def span_cost(calls=20000):
        """Seconds one span adds to a call: a wrapped no-op against a bare one."""
        bare = lambda: None
        wrapped = Tracer()._wrap(bare, "calibration", None)
        timings = []
        for fn in (bare, wrapped):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - t0)
        return max(timings[1] - timings[0], 0.0) / calls

    def layer_metrics(self, session_s, untraced_session_s, span_cost):
        """Every per-layer metric, by name, for one traced session."""
        agg = self.aggregate()
        c = self.counters()
        total = lambda n: agg[n][1] if n in agg else 0.0
        own = lambda n: agg[n][2] if n in agg else 0.0
        ratio = lambda a, b: a / b if b else 0.0
        optimize_s = total("bpso.optimize")
        values = {
            "pool.bagging_s": total("pool.bagging"),
            "pool.predict_calls": c["pool.predict_calls"],
            "pool.predict_s": total("pool.predict"),
            "regions.knn_calls": c["regions.knn_calls"],
            "regions.knn_s": total("regions.knn"),
            "metafeatures.tables_s": total("metafeatures.tables"),
            "metafeatures.extract_s": own("metafeatures.extract"),
            "metafeatures.meta_rows": c["metafeatures.meta_rows"],
            "metafeatures.build_s": total("metafeatures.build"),
            "metaclassifier.fits": c["metaclassifier.fits"],
            "metaclassifier.fit_s": total("metaclassifier.fit"),
            "metaclassifier.newton_iters": c["metaclassifier.newton_iters"],
            "metaclassifier.degenerate_fits": c["metaclassifier.degenerate_fits"],
            "metaclassifier.score_calls": c["metaclassifier.score_calls"],
            "metaclassifier.score_s": total("metaclassifier.score"),
            "bpso.optimize_self_s": own("bpso.optimize"),
            "bpso.generations": c["bpso.generations"],
            "bpso.mask_evals": c["bpso.mask_evals"],
            "bpso.fits": c["bpso.fits"],
            "bpso.fits_per_s": ratio(c["bpso.fits"], optimize_s),
            "bpso.cache_hit_ratio": (1.0 - c["bpso.fits"] / c["bpso.mask_evals"]
                                     if c["bpso.mask_evals"] else 0.0),
            "engine.classify_batch_self_s": own("engine.classify_batch"),
            "engine.classified_samples": c["engine.classified_samples"],
            "engine.fallbacks": c["engine.fallbacks"],
            "engine.fallback_rate": ratio(c["engine.fallbacks"], c["engine.classified_samples"]),
            "engine.mean_ensemble_size": ratio(c["engine.ensemble_members"],
                                               c["engine.classified_samples"]),
            "engine.consensus_kept_meta": ratio(c["engine.consensus_kept_meta_n"],
                                                c["engine.consensus_total_meta"]),
            "engine.consensus_total_meta": c["engine.consensus_total_meta"],
            "engine.consensus_kept_dsel": ratio(c["engine.consensus_kept_dsel_n"],
                                                c["engine.consensus_total_dsel"]),
            "engine.consensus_total_dsel": c["engine.consensus_total_dsel"],
            **{f"engine.baseline.{m}_s": total(f"engine.baseline.{m}") for m in BASELINES},
            "experiment.train_des_self_s": own("experiment.train_des"),
            "experiment.save_s": total("experiment.save"),
            "experiment.load_s": total("experiment.load"),
            "experiment.evaluate_s": total("experiment.evaluate"),
            "experiment.write_reports_s": total("experiment.write_reports"),
            "data.load_s": total("data.load"),
            "experiment.train_des_s": total("experiment.train_des"),
            "trace.session_s": session_s,
            "trace.untraced_session_s": untraced_session_s,
            "trace.overhead_s": span_cost * len(self.spans),
            "trace.self_sum_s": sum(row[2] for row in agg.values()),
            "trace.spans": c["trace.spans"],
        }
        return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}

    def span_table(self):
        """Lines of calls, total and self seconds per span name, by self time."""
        agg = self.aggregate()
        rows = sorted(agg.items(), key=lambda kv: -kv[1][2])
        return [f"  {name:<34} {calls:>7} calls {tot:10.4f} s total {own:10.4f} s self"
                for name, (calls, tot, own) in rows]
