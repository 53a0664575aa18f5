"""Element-wise cross-check of the vectorized extractor against a naive
loop-based re-derivation of every criterion family (the randomized-reference
family through one scalar ``rrc_competence`` call per neighbor)."""

import math

import numpy as np

from metasel.data import Dataset, generate_p2, scale_minmax
from metasel.metafeatures import MetaFeatureExtractor, rrc_competence
from metasel.pool import ClassifierPool, bagging

FLOOR, CEIL = 1e-12, 1.0 - 1e-10


def clip(v):
    return min(max(v, FLOOR), CEIL)


def one_member_pools(pool):
    return [ClassifierPool(pool.weights[i:i + 1], pool.dist_scale[i:i + 1])
            for i in range(len(pool))]


def naive_pair(pool, dsel, x, true_label, K, Kp, conf_bounds, member_index):
    members = one_member_pools(pool)
    member = members[member_index]
    L = pool.class_count

    def supports_of(point):
        _, s = member.predict_batch(np.atleast_2d(point))
        return s[0, 0]

    def label_of(point):
        lab, _ = member.predict_batch(np.atleast_2d(point))
        return int(lab[0, 0])

    def signed_distance(point):
        u = member.weights[0, 0] - member.weights[0, 1]
        xb = np.concatenate([point, [1.0]])
        return float(u @ xb) / float(np.linalg.norm(u[:-1]))

    n = len(dsel)
    order = sorted(range(n), key=lambda j: (np.linalg.norm(x - dsel.features[j]), j))
    theta = order[:K]

    all_profiles = []
    for j in range(n):
        prof = []
        for m in members:
            _, s = m.predict_batch(dsel.features[j][None, :])
            prof.extend(s[0, 0])
        all_profiles.append(np.array(prof))
    my_prof = []
    for m in members:
        _, s = m.predict_batch(x[None, :])
        my_prof.extend(s[0, 0])
    my_prof = np.array(my_prof)
    porder = sorted(range(n), key=lambda j: (np.linalg.norm(my_prof - all_profiles[j]), j))
    phi = porder[:Kp]

    correct = [label_of(dsel.features[j]) == dsel.labels[j] for j in range(n)]

    hard = [1.0 if correct[j] else 0.0 for j in theta]
    prob = [clip(supports_of(dsel.features[j])[dsel.labels[j]]) for j in theta]
    overall = sum(hard) / K

    assigned = label_of(x)
    num = den = 0.0
    for j in theta:
        s = clip(supports_of(dsel.features[j])[assigned])
        den += s
        if dsel.labels[j] == assigned:
            num += s
    cond = num / den if den > 0 else 0.0

    lo, hi = conf_bounds
    conf = 0.5 if hi <= lo else min(max((signed_distance(x) - lo) / (hi - lo), 0.0), 1.0)

    s_query = sorted(supports_of(x), reverse=True)
    amb = s_query[0] - s_query[1]

    flog, fprc, fmd, fent, fexp, fkl = [], [], [], [], [], []
    for j in theta:
        fprc.append(rrc_competence(supports_of(dsel.features[j]), int(dsel.labels[j])))
        s = [clip(v) for v in supports_of(dsel.features[j])]
        slk = s[dsel.labels[j]]
        flog.append(2.0 * slk ** (math.log(2.0) / math.log(L)) - 1.0)
        fmd.append(min(s[l] for l in range(L) if l != dsel.labels[j]) - slk)
        fent.append(-sum(v * math.log(v) for v in s))
        fexp.append(1.0 - 2.0 ** (-((L - 1) * slk / (1.0 - slk))))
        fkl.append(sum(v * math.log(v * L) for v in s))

    op = [1.0 if correct[j] else 0.0 for j in phi]

    rank = 0
    for j in order:
        if not correct[j]:
            break
        rank += 1
    rank_op = 0
    for j in phi:
        if not correct[j]:
            break
        rank_op += 1

    meta_label = 1 if label_of(x) == true_label else 0
    values = (hard + prob + [overall, cond, conf, amb]
              + flog + fprc + fmd + fent + fexp + fkl
              + op + [float(rank), float(rank_op)])
    return values, meta_label


def test_vectorized_extraction_matches_naive_loops():
    train, params = scale_minmax(generate_p2(200, 4))
    dsel_raw = generate_p2(40, 5)
    dsel = Dataset(params.apply(dsel_raw.features), dsel_raw.labels, 2)
    pool = bagging(train, 3, seed=21)
    K, Kp = 5, 4
    ex = MetaFeatureExtractor(pool, dsel, k=K, kp=Kp)

    queries_raw = generate_p2(12, 6)
    X = params.apply(queries_raw.features)
    y = queries_raw.labels
    feats, metas, _ = ex.extract_batch(X, y)

    dists = pool.boundary_distances(dsel.features)
    for q in range(len(X)):
        for i in range(len(pool)):
            want, want_label = naive_pair(pool, dsel, X[q], int(y[q]), K, Kp,
                                          (dists[i].min(), dists[i].max()), i)
            got = feats[q, i]
            for b, expected in enumerate(want):
                assert abs(got[b] - expected) < 1e-10, (
                    f"query {q}, member {i}, bit {b} ({ex.layout.set_of(b)}): "
                    f"{got[b]} != {expected}")
            assert metas[q, i] == want_label
