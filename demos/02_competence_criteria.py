"""A tour of the fifteen competence criteria extracted per
(sample, classifier) pair.

Every pair is described by a fixed-layout vector: local accuracy over the
query's nearest reference samples, confidence and ambiguity of the member's
own output, six probabilistic views of its support vectors, its behavior in
decision space (output profiles), and two ranking counters. The meta-label
says whether the member actually got the query right - that is what the
competence model learns to predict.
"""

import numpy as np

from metasel import (MetaFeatureExtractor, bagging, generate_p2,
                     nearest_neighbors, scale_minmax)
from metasel.data import Dataset

print(__doc__)

train, scale = scale_minmax(generate_p2(400, seed=0))
dsel_raw = generate_p2(300, seed=1)
dsel = Dataset(scale.apply(dsel_raw.features), dsel_raw.labels, 2)
pool = bagging(train, 5, seed=11)

extractor = MetaFeatureExtractor(pool, dsel, k=7, kp=5)
layout = extractor.layout
print(f"Vector layout for K=7, Kp=5 ({layout.size} values):")
for name, start, width in layout.segments:
    print(f"  {name:<8} columns {start:2d}..{start + width - 1:2d}")

query_raw = generate_p2(1, seed=9)
x = scale.apply(query_raw.features)[0]
true_label = int(query_raw.labels[0])
print(f"\nQuery point {np.round(x, 3)} with true class {true_label}.")

region, _ = nearest_neighbors(x[None, :], dsel.features, k=7)
print(f"Region of competence: reference rows {region[0].tolist()}")
# the output profile: every member's support vector, concatenated
_, supports = pool.predict_batch(x[None, :])
nbh, _ = nearest_neighbors(supports[:, 0, :].reshape(1, -1), extractor.dsel_profiles, k=5)
print(f"Most similar output profiles: rows {nbh[0].tolist()}")

print("\nPer-member criteria (a selection):")
feats, metas, _ = extractor.extract_batch(x[None, :], [true_label])
for i in range(len(pool)):
    v = feats[0, i]
    hard = v[layout.slice_of('hard')]
    print(f"  member {i}: correct-on-neighbors {hard.astype(int).tolist()} "
          f"overall {v[layout.slice_of('overall')][0]:.2f} "
          f"conf {v[layout.slice_of('conf')][0]:.2f} "
          f"amb {v[layout.slice_of('amb')][0]:.2f} "
          f"rank {int(v[layout.slice_of('rank')][0])} "
          f"-> competent={metas[0, i]}")

print("\nNotice how members that classify the neighborhood well carry long"
      "\ncorrectness runs and high local accuracy, and are exactly the ones"
      "\nwhose meta-label marks them competent for this query.")
