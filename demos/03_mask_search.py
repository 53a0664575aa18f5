"""Searching for the right subset of competence criteria with a binary
particle swarm, while an archive guards against overfitting.

The fitness of a candidate mask is how far the trained competence model's
estimates sit from the ideal selector's 0/1 judgements on held-out rows.
Every moved particle is additionally scored on a separate validation
meta-dataset; the best-validated mask ever seen is kept in an archive, and
that archived mask - not the swarm's favorite - is the final answer.
"""

import numpy as np

from metasel import BpsoConfig, MetaFeatureExtractor, bagging, generate_p2, optimize, scale_minmax
from metasel.data import Dataset
from metasel.engine import consensus_keep

print(__doc__)

train, scale = scale_minmax(generate_p2(400, seed=0))
meta_raw = generate_p2(400, seed=1)
meta = Dataset(scale.apply(meta_raw.features), meta_raw.labels, 2)
dsel_raw = generate_p2(300, seed=2)
dsel = Dataset(scale.apply(dsel_raw.features), dsel_raw.labels, 2)
pool = bagging(train, 5, seed=17)
extractor = MetaFeatureExtractor(pool, dsel, k=7, kp=5)

pool_labels, _ = pool.predict_batch(meta.features)
keep = consensus_keep(pool_labels, meta.labels, 0.7)
print(f"Consensus filter keeps {keep.sum()}/{len(meta)} meta-training samples "
      "(the ambiguous ones, where the pool disagrees).")

kept = np.flatnonzero(keep)
meta_data = extractor.build_meta_dataset(meta.features[kept], meta.labels[kept],
                                         sample_ids=kept)
dsel_idx = np.arange(len(dsel))
val_data = extractor.build_meta_dataset(dsel.features, dsel.labels,
                                        self_indices=dsel_idx)

half = len(kept) // 2
rows_t = np.arange(half * len(pool))
rows_o = np.arange(half * len(pool), len(meta_data))
config = BpsoConfig(swarm_size=15, max_generations=40, stall_limit=5, runs=2, seed=3)
archive = optimize(meta_data.rows[rows_t], meta_data.labels[rows_t],
                   meta_data.rows[rows_o], meta_data.labels[rows_o],
                   val_data.rows, val_data.labels, config)

print(f"\nArchive: {int(archive.mask.sum())}/{archive.mask.size} criteria kept, "
      f"validation distance {archive.validation_fitness:.5f} "
      f"(found in run {archive.run}, generation {archive.generation}).")

print("\nConvergence of the first run:")
print("  gen   swarm-best   archive(validation)   swarm-mean")
for run, gen, gbest, arch, meanf in archive.trace:
    if run == 0:
        print(f"  {gen:3d}   {gbest:.5f}      {arch:.5f}              {meanf:.5f}")

layout = extractor.layout
print("\nKept criteria per family:")
for name, start, width in layout.segments:
    bits = archive.mask[start:start + width]
    print(f"  {name:<8} {int(bits.sum())}/{width}")
