"""The synthetic two-class benchmark, and why a pool of weak linear
classifiers is worth selecting from.

The problem lives on the [0, 10] x [0, 10] square. Four curves partition it
into alternating class regions, so no single line separates the classes, yet
a handful of diverse hyperplanes collectively "know" the right answer almost
everywhere. The gap between the best single member and the pool's oracle
(at least one member correct) is the room dynamic selection plays in.
"""

import numpy as np

from metasel import (ClassifierPool, bagging, generate_p2, oracle_accuracy,
                     p2_boundaries, scale_minmax)
from metasel.data import Dataset

print(__doc__)

print("Boundary curves at a few abscissas:")
for x in (0.0, 2.0, 5.0, 8.0):
    e = p2_boundaries(x)
    print(f"  x={x:4.1f}:  band={e[0]:7.3f}  parabola={e[1]:7.3f} "
          f" wave={e[2]:7.3f}  corner={e[3]:7.3f}")

train_raw = generate_p2(500, seed=0)
train, scale = scale_minmax(train_raw)
test_raw = generate_p2(2000, seed=1)
test = Dataset(scale.apply(test_raw.features), test_raw.labels, 2)
print(f"\nGenerated {len(train)} training and {len(test)} test samples "
      f"(priors {train.labels.mean():.2f}/{1 - train.labels.mean():.2f}).")

single = bagging(train, 1, bootstrap_frac=1.0, seed=3)  # one member, all data
labels, _ = single.predict_batch(test.features)
print(f"A single perceptron reaches {100 * (labels[0] == test.labels).mean():.1f}% "
      "accuracy - barely better than a coin flip, as expected for one line.")

pool = bagging(train, 5, seed=40)
labels, _ = pool.predict_batch(test.features)       # one row per member
member_acc = (labels == test.labels).mean(axis=1)
print("\nFive bagged perceptrons, individually:")
print("  " + "  ".join(f"{100 * a:.1f}%" for a in member_acc))

print(f"\nBest member:   {100 * max(member_acc):.1f}%")
for m in range(1, 6):
    sub = ClassifierPool(pool.weights[:m], pool.dist_scale[:m])
    print(f"Oracle with {m} member(s): {100 * oracle_accuracy(sub, test):.2f}%")

print("\nThe oracle of the full pool is nearly perfect: for almost every test"
      "\npoint, someone in the pool is right. Selecting that someone per query"
      "\nis exactly what the rest of this library does.")
