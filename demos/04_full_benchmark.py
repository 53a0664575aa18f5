"""End to end: the replicated benchmark protocol on a bundled dataset.

One call runs the whole pipeline per replication - stratified holdout,
scaling, bagging, consensus-filtered meta-data, mask search with global
validation, final competence model - then scores the framework against the
classic selection baselines on the held-out test split and aggregates
accuracy, ranks, win-tie-loss counts and criterion selection frequencies.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from metasel import BpsoConfig, ExperimentConfig, run_experiment, write_report_csvs
from metasel.data import SplitSpec
from metasel.datasets import dataset_path
from metasel.experiment import DataSource, PoolConfig

print(__doc__)

config = ExperimentConfig(
    source=DataSource(kind="csv", path=str(dataset_path("ring")),
                      label_column=-1, split=SplitSpec()),
    pool=PoolConfig(size=10),
    bpso=BpsoConfig(swarm_size=15, max_generations=30, stall_limit=5, runs=2),
    replications=3,
    seed=1,
)
print(f"Dataset: {Path(config.source.path).name}, "
      f"{config.replications} replications, pool of {config.pool.size}.")

report = run_experiment(config)

print("\nMean accuracy over replications:")
width = max(len(m) for m in report.methods)
for m in report.methods:
    rank = report.avg_rank.get(m)
    extra = f"   avg rank {rank:.2f}" if rank is not None else "   (upper bound)"
    print(f"  {m:<{width}}  {report.mean[m]:.4f} +/- {report.std[m]:.4f}{extra}")

print(f"\nWin-tie-loss of {report.reference_method} against each baseline:")
for m, (w, t, l) in report.win_tie_loss.items():
    print(f"  vs {m:<18} {w}-{t}-{l}")

print("\nHow often each criterion family was selected:")
for name, freq in report.frequencies.per_set.items():
    band = report.frequencies.per_set_band[name]
    print(f"  {name:<8} {freq:4.2f}  [{band}]")

with TemporaryDirectory(prefix="metasel_report_") as tmp:
    out = Path(tmp)
    write_report_csvs(report, out)
    print(f"\nCSV tables written to {out}:")
    for p in sorted(out.iterdir()):
        print(f"  {p.name}")
