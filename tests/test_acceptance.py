"""Acceptance gate: every criterion exercised at its stated tolerance, one
printed PASS/FAIL line per criterion (run with ``pytest -s`` to see them)."""

import itertools

import numpy as np
import pytest

from metasel.bpso import (BpsoConfig, MaskEvaluator, optimize, oracle_distance,
                          transfer_s, transfer_v)
from metasel.cli import main as cli_main
from metasel.data import Dataset, SplitSpec, generate_p2, scale_minmax
from metasel.datasets import BUNDLED, dataset_path
from metasel.engine import (BASELINE_METHODS, baseline_predict_batch,
                            weighted_majority_vote)
from metasel.experiment import (DataSource, ExperimentConfig, FRAMEWORK_METHOD,
                                PoolConfig, run_experiment)
from metasel.metafeatures import FeatureLayout, MetaFeatureExtractor
from metasel.pool import bagging
from metasel.regions import nearest_neighbors


def report(criterion, ok, detail=""):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- scripted single-member pool used for the analytic identities ------------

class _TableMember:
    def __init__(self, supports):
        self.table = {int(k): np.asarray(v, dtype=float) for k, v in supports.items()}
        self.class_count = len(next(iter(self.table.values())))

    def predict_batch(self, X):
        sup = np.array([self.table[int(round(x[0]))] for x in np.atleast_2d(X)])
        return sup.argmax(axis=1), sup

    def boundary_distance(self, X):
        return np.zeros(len(np.atleast_2d(X)))


class _TablePool:
    def __init__(self, member):
        self.members = [member]
        self.class_count = member.class_count
        self.feature_count = 1

    def __len__(self):
        return 1

    def predict_batch(self, X):
        labels, sup = self.members[0].predict_batch(X)
        return labels[None, :], sup[None, :, :]

    def boundary_distances(self, X):
        return self.members[0].boundary_distance(X)[None, :]


def scripted_features(support_rows, labels, query_support, k, kp):
    table = {i: support_rows[i] for i in range(len(support_rows))}
    table[-1] = query_support
    pool = _TablePool(_TableMember(table))
    dsel = Dataset(np.arange(len(labels), dtype=float).reshape(-1, 1),
                   np.asarray(labels), max(2, int(max(labels)) + 1))
    ex = MetaFeatureExtractor(pool, dsel, k=k, kp=kp)
    feats, _, _ = ex.extract_batch(np.array([[-1.0]]))
    return feats[0, 0], ex.layout


def test_criterion_01_p2_reproduction():
    config = ExperimentConfig(
        source=DataSource(kind="p2", p2_sizes=(500, 500, 500, 2000)),
        pool=PoolConfig(size=5),
        bpso=BpsoConfig(runs=10, max_generations=100, stall_limit=5),
        replications=1,
        methods=(FRAMEWORK_METHOD, "single_best", "majority_vote", "oracle"),
        seed=0,
    )
    rep = run_experiment(config)
    fw = rep.mean[FRAMEWORK_METHOD]
    sb = rep.mean["single_best"]
    mv = rep.mean["majority_vote"]
    orc = rep.mean["oracle"]
    detail = (f"oracle={orc:.4f} single_best={sb:.4f} framework={fw:.4f} "
              f"majority_vote={mv:.4f}")
    report("1a", orc >= 0.99, f"pool oracle accuracy {orc:.4f} >= 0.99")
    report("1b", 0.48 <= sb <= 0.60, f"single-best {sb:.4f} in [0.48, 0.60]")
    report("1c", fw >= 0.93, f"framework accuracy {fw:.4f} >= 0.93")
    report("1d", fw - mv >= 0.10,
           f"framework beats majority voting by {fw - mv:.4f} >= 0.10 ({detail})")


def test_criterion_02_vector_length_identity():
    train, params = scale_minmax(generate_p2(200, 1))
    dsel_raw = generate_p2(120, 2)
    dsel = Dataset(params.apply(dsel_raw.features), dsel_raw.labels, 2)
    pool = bagging(train, 3, seed=4)
    ex = MetaFeatureExtractor(pool, dsel, k=7, kp=5)
    feats, _, _ = ex.extract_batch(params.apply(generate_p2(10, 3).features))
    ok = feats.shape[2] == 67 and ex.layout.size == 67
    rng = np.random.default_rng(0)
    formula_ok = True
    for _ in range(20):
        k = int(rng.integers(1, 40))
        kp = int(rng.integers(1, 40))
        formula_ok &= FeatureLayout(k, kp).size == 8 * k + kp + 6
    for k, kp in ((2, 3), (5, 9)):
        ex2 = MetaFeatureExtractor(pool, dsel, k=k, kp=kp)
        f2, _, _ = ex2.extract_batch(params.apply(generate_p2(5, 4).features))
        formula_ok &= f2.shape[2] == 8 * k + kp + 6
    report(2, ok and formula_ok,
           "D = 67 for (K=7, Kp=5); D = 8K + Kp + 6 for 20 random (K, Kp) pairs")


def test_criterion_03_transfer_identities():
    exact = transfer_s(0.0) == 0.5 and transfer_v(0.0) == 0.0
    grid = np.arange(-6.0, 6.0 + 1e-12, 0.001)
    s_vals = transfer_s(grid)
    mono = (np.diff(s_vals) > 0).all()
    sym = np.abs(transfer_v(grid) - transfer_v(-grid)).max() <= 1e-12
    vmag = (np.diff(transfer_v(np.arange(0, 6, 0.001))) > 0).all()
    bounded = (s_vals > 0).all() and (s_vals < 1).all() and (transfer_v(grid) < 1).all()
    report(3, exact and mono and sym and vmag and bounded,
           "T_S(0)=0.5, T_V(0)=0 exactly; monotone/symmetric on dense grids")


def test_criterion_04_oracle_fitness_zero():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(10):
        n = int(rng.integers(1, 500))
        ideal = rng.integers(0, 2, n).astype(float)
        ok &= oracle_distance(ideal, ideal) == 0.0
    report(4, ok, "ideal-vs-ideal distance is exactly 0 on random meta-datasets")


def test_criterion_05_bpso_exhaustive_equivalence():
    def make_rows(n, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n, 4))
        return X, (X[:, 0] + X[:, 1] > 1.0).astype(float)

    Xt, yt = make_rows(150, 1)
    Xo, yo = make_rows(150, 2)
    Xv, yv = make_rows(150, 3)
    ev = MaskEvaluator(Xt, yt)
    best_bits, best_val = None, np.inf
    for bits in itertools.product([0, 1], repeat=4):
        mask = np.array(bits, dtype=bool)
        val = ev.distance(mask, Xv, yv) if mask.any() else np.inf
        if val < best_val:
            best_bits, best_val = bits, val
    wins = 0
    for s in range(20):
        cfg = BpsoConfig(swarm_size=10, max_generations=40, stall_limit=5,
                         runs=1, seed=s)
        arch = optimize(Xt, yt, Xo, yo, Xv, yv, cfg)
        wins += tuple(int(b) for b in arch.mask) == best_bits
    audited = optimize(Xt, yt, Xo, yo, Xv, yv,
                       BpsoConfig(swarm_size=8, max_generations=30, stall_limit=5,
                                  runs=2, seed=7))
    invariant = audited.validation_fitness <= min(audited.audit) + 1e-15
    report(5, wins >= 18 and invariant,
           f"archive matched exhaustive optimum {wins}/20 runs (need >= 18); "
           f"global-validation invariant held over {len(audited.audit)} evaluations")


def test_criterion_06_meta_feature_identities():
    checks = []
    # ambiguity example with a three-class support vector
    f, lay = scripted_features([(0.3, 0.3, 0.4)] * 3, [0, 1, 2],
                               (0.65, 0.30, 0.05), k=3, kp=3)
    checks.append(abs(f[lay.slice_of("amb")][0] - 0.35) <= 1e-9)
    # log of a uniform support is zero for several class counts
    for L in (2, 3, 5):
        uni = tuple([1.0 / L] * L)
        labels = [i % L for i in range(max(4, L))]
        f, lay = scripted_features([uni] * len(labels), labels, uni, k=2, kp=2)
        checks.append(np.abs(f[lay.slice_of("log")]).max() <= 1e-9)
    # exponential at support 0 and at 1/L; entropy extremes; uniform divergence
    f, lay = scripted_features([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)], [0, 0, 0],
                               (0.6, 0.4), k=3, kp=3)
    exp = f[lay.slice_of("exp")]
    ent = f[lay.slice_of("ent")]
    kl = f[lay.slice_of("kl")]
    checks.append(abs(exp[0]) <= 1e-9)            # S = 0
    checks.append(abs(exp[1] - 0.5) <= 1e-9)      # S = 1/L
    checks.append(abs(ent[1] - np.log(2)) <= 1e-9)
    checks.append(abs(ent[2]) <= 1e-9)            # one-hot
    checks.append(abs(kl[1]) <= 1e-9)             # uniform
    report(6, all(checks),
           "f_Amb example, f_Log(1/L)=0, f_Exp(0)=0, f_Exp(1/L)=0.5, "
           "f_Ent extremes and f_KL(uniform)=0 within 1e-9")


def test_criterion_07_oracle_dominance():
    configs = [
        ExperimentConfig(
            source=DataSource(kind="p2", p2_sizes=(150, 150, 150, 300)),
            pool=PoolConfig(size=4),
            bpso=BpsoConfig(swarm_size=6, max_generations=10, stall_limit=3, runs=1),
            replications=2, seed=13),
        ExperimentConfig(
            source=DataSource(kind="csv", path=str(dataset_path("xor_blobs")),
                              split=SplitSpec()),
            pool=PoolConfig(size=6),
            bpso=BpsoConfig(swarm_size=6, max_generations=10, stall_limit=3, runs=1),
            replications=2, seed=14),
    ]
    ok = True
    worst = 1.0
    for cfg in configs:
        rep = run_experiment(cfg)
        oracle_col = rep.accuracies[:, rep.methods.index("oracle")]
        for j, m in enumerate(rep.methods):
            if m == "oracle":
                continue
            ok &= (rep.accuracies[:, j] <= oracle_col).all()
            worst = min(worst, float((oracle_col - rep.accuracies[:, j]).min()))
    report(7, ok, f"oracle >= every method on every replication "
                  f"(smallest margin {worst:.4f}, strict)")


def test_criterion_08_brute_force_equivalences():
    rng = np.random.default_rng(21)

    # k-NN regions and profile neighborhoods
    def brute(query, reference, k):
        scored = sorted((float(np.linalg.norm(query - row)), i)
                        for i, row in enumerate(reference))
        return [i for _, i in scored[:k]]

    knn_ok = profile_ok = True
    for _ in range(200):
        n = int(rng.integers(4, 25))
        ref = rng.uniform(0, 1, size=(n, 2))
        ds = Dataset(ref, rng.integers(0, 2, n), 2)
        q = rng.uniform(0, 1, size=2)
        k = int(rng.integers(1, n + 1))
        knn_ok &= (nearest_neighbors(q[None, :], ds.features, k)[0][0].tolist()
                   == brute(q, ref, k))
        profs = rng.uniform(0, 1, size=(n, 6))
        qp = rng.uniform(0, 1, size=6)
        profile_ok &= (nearest_neighbors(qp[None, :], profs, k)[0][0].tolist()
                       == brute(qp, profs, k))

    # weighted majority vote
    vote_ok = True
    for _ in range(200):
        L = int(rng.integers(2, 5))
        labs = rng.integers(0, L, int(rng.integers(1, 8)))
        w = np.round(rng.random(len(labs)), 3)
        totals = [w[labs == c].sum() for c in range(L)]
        expected = (int(np.argmax(totals)) if max(totals) > 0
                    else int(np.argmax(np.bincount(labs, minlength=L))))
        vote_ok &= weighted_majority_vote(labs, w, L) == expected

    # selection baselines against loop re-implementations
    from test_engine import brute_baselines

    base_ok = True
    cases = 0
    while cases < 200:
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, 6))
        L = int(rng.integers(2, 4))
        k = int(rng.integers(1, 6))
        labels = rng.integers(0, L, n)
        train_labels = rng.integers(0, L, 40)
        if len(np.unique(labels)) < 2 or len(np.unique(train_labels)) < L:
            continue
        dsel = Dataset(rng.uniform(0, 1, size=(n, 2)), labels, L)
        train = Dataset(rng.uniform(0, 1, size=(40, 2)), train_labels, L)
        pool = bagging(train, m, seed=int(rng.integers(1 << 20)), epochs=5)
        x = rng.uniform(0, 1, size=2)
        nbrs = np.argsort(((dsel.features - x) ** 2).sum(axis=1),
                          kind="stable")[:k].tolist()
        pl_dsel, _ = pool.predict_batch(dsel.features)
        pl_query, _ = pool.predict_batch(x[None, :])
        for method in BASELINE_METHODS:
            got = int(baseline_predict_batch(method, pool, dsel, x[None, :], k=k)[0][0])
            want = brute_baselines(method, pl_dsel, pl_query[:, 0], labels, nbrs, L)
            base_ok &= got == want
        cases += 1

    report(8, knn_ok and profile_ok and vote_ok and base_ok,
           "regions, profile neighborhoods, vote and all baselines match "
           "brute force on >= 200 random instances each")


def test_criterion_09_benchmark_determinism(tmp_path):
    import json

    cfg = {
        "source": {"kind": "p2", "p2_sizes": [120, 120, 120, 150]},
        "pool": {"size": 3},
        "bpso": {"swarm_size": 5, "max_generations": 8, "stall_limit": 3, "runs": 1},
        "replications": 2,
        "rrc_samples": 150,
        "seed": 17,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_a)]) == 0
    assert cli_main(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_b)]) == 0
    identical = True
    for p in sorted(out_a.iterdir()):
        identical &= p.read_bytes() == (out_b / p.name).read_bytes()
    report(9, identical, "two benchmark runs of one config are byte-identical "
                         f"across {len(list(out_a.iterdir()))} CSV files")


def test_criterion_10_bundled_smoke_benchmark():
    details = []
    ok = True
    for name in BUNDLED:
        cfg = ExperimentConfig(
            source=DataSource(kind="csv", path=str(dataset_path(name)),
                              split=SplitSpec()),
            pool=PoolConfig(size=10),
            bpso=BpsoConfig(swarm_size=10, max_generations=20, stall_limit=3, runs=1),
            replications=2,
            methods=(FRAMEWORK_METHOD, "single_best", "oracle"),
            seed=7,
        )
        rep = run_experiment(cfg)
        fw, sb = rep.mean[FRAMEWORK_METHOD], rep.mean["single_best"]
        ok &= fw >= sb
        details.append(f"{name}: {fw:.3f} vs single-best {sb:.3f}")
    report(10, ok, "framework mean >= single-best mean on bundled data ("
                   + "; ".join(details) + ")")
