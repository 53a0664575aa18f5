import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metasel.data import (Dataset, ScaleParams, SplitSpec, generate_p2,
                          load_csv, p2_boundaries, p2_true_labels,
                          scale_minmax, split_holdout)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_read_back(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n7.0,8.0,1\n")
        ds = load_csv(path)
        assert len(ds) == 4 and ds.feature_count == 2 and ds.class_count == 2
        assert np.allclose(ds.features[0], [1.0, 2.0])

    def test_header_autodetect(self, tmp_path):
        path = write(tmp_path, "x,y,label\n1,2,0\n3,4,1\n")
        ds = load_csv(path)
        assert len(ds) == 2

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = write(tmp_path, "1,2,0\n3,oops,1\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_label_encoding_first_appearance(self, tmp_path):
        path = write(tmp_path, "1,B\n2,A\n3,B\n4,A\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_string_labels_order(self, tmp_path):
        path = write(tmp_path, "1,A\n2,B\n3,A\n4,B\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "1,0\n2,0\n3,0\n")
        with pytest.raises(ValueError, match="one class"):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = write(tmp_path, "1,2,0\n3,4\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_label_column_selectable(self, tmp_path):
        path = write(tmp_path, "0,1.5\n1,2.5\n0,3.5\n1,4.5\n")
        ds = load_csv(path, label_column=0)
        assert ds.labels.tolist() == [0, 1, 0, 1]
        assert ds.feature_count == 1

    @pytest.mark.parametrize("column, labels", [(2, [0, 1, 0, 1]), (-3, [0, 0, 1, 1])])
    def test_label_column_at_either_end(self, tmp_path, column, labels):
        path = write(tmp_path, "5,1.5,0\n5,2.5,1\n6,3.5,0\n6,4.5,1\n")
        ds = load_csv(path, label_column=column)
        assert ds.labels.tolist() == labels and ds.feature_count == 2

    @pytest.mark.parametrize("column", [3, 5, -4, -7])
    def test_label_column_out_of_range_refused(self, tmp_path, column):
        # a column past either end used to wrap round to one inside
        path = write(tmp_path, "x,y,label\n5,1.5,0\n5,2.5,1\n6,3.5,0\n6,4.5,1\n")
        with pytest.raises(ValueError, match=rf"data\.csv: label column {column} is "
                                             rf"out of range for 3 columns"):
            load_csv(path, label_column=column)


class TestSplitHoldout:
    def spec(self, seed=0):
        return SplitSpec(0.5, 0.25, 0.25, meta_frac_of_train=0.25, seed=seed)

    def balanced(self, n=100, d=2, classes=2, seed=1):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(classes), n // classes)
        return Dataset(rng.normal(size=(n, d)), labels, classes)

    def test_paper_protocol_sizes(self):
        ds = self.balanced(100)
        train, meta, dsel, test = split_holdout(ds, self.spec())
        assert len(dsel) == 25 and len(test) == 25
        assert len(train) + len(meta) == 50
        assert len(train) in (37, 38) and len(meta) in (12, 13)

    def test_deterministic(self):
        ds = self.balanced(100)
        a = split_holdout(ds, self.spec(seed=7))
        b = split_holdout(ds, self.spec(seed=7))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_bad_fractions_rejected(self):
        ds = self.balanced(100)
        with pytest.raises(ValueError, match="sum to 1"):
            split_holdout(ds, SplitSpec(0.5, 0.2, 0.2))

    def test_small_class_named(self):
        feats = np.random.default_rng(0).normal(size=(13, 2))
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ValueError, match="class 1"):
            split_holdout(Dataset(feats, labels, 2), self.spec())

    def test_exact_partition_many_cases(self):
        # no index lost, none duplicated, across 1000 (N, L, seed) draws
        rng = np.random.default_rng(42)
        for _ in range(1000):
            classes = int(rng.integers(2, 5))
            n_per = rng.integers(4, 40, size=classes)
            labels = np.concatenate([np.full(k, c) for c, k in enumerate(n_per)])
            feats = rng.normal(size=(len(labels), 2))
            feats[:, 0] = np.arange(len(labels))  # unique key per row
            ds = Dataset(feats, labels, classes)
            parts = split_holdout(ds, self.spec(seed=int(rng.integers(1 << 30))))
            keys = np.concatenate([p.features[:, 0] for p in parts])
            assert len(keys) == len(ds)
            assert len(np.unique(keys)) == len(ds)

    def test_per_class_proportions_within_one(self):
        ds = self.balanced(200, classes=4, seed=3)
        train, meta, dsel, test = split_holdout(ds, self.spec(seed=5))
        for c in range(4):
            n_c = (ds.labels == c).sum()
            assert abs((dsel.labels == c).sum() - 0.25 * n_c) <= 1
            assert abs((test.labels == c).sum() - 0.25 * n_c) <= 1
            pool_c = (train.labels == c).sum() + (meta.labels == c).sum()
            assert abs(pool_c - 0.5 * n_c) <= 1

    def test_every_split_sees_every_class(self):
        feats = np.random.default_rng(0).normal(size=(12, 2))
        labels = np.array([0] * 8 + [1] * 4)
        parts = split_holdout(Dataset(feats, labels, 2), self.spec())
        for p in parts:
            assert set(np.unique(p.labels)) == {0, 1}


class TestScaleMinmax:
    def test_affine_map(self):
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([0, 1, 0]), 2)
        scaled, _ = scale_minmax(ds)
        assert np.allclose(scaled.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column(self):
        ds = Dataset(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]),
                     np.array([0, 1, 0]), 2)
        scaled, _ = scale_minmax(ds)
        assert np.allclose(scaled.features[:, 0], 0.5)

    def test_clamping_on_other_split(self):
        ds = Dataset(np.array([[2.0], [4.0]]), np.array([0, 1]), 2)
        _, params = scale_minmax(ds)
        assert params.apply(np.array([[1.0]]))[0, 0] == 0.0
        assert params.apply(np.array([[9.0]]))[0, 0] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.uniform(-5, 5, size=(50, 3)), rng.integers(0, 2, 50), 2)
        once, _ = scale_minmax(ds)
        twice, _ = scale_minmax(once)
        assert np.abs(twice.features - once.features).max() < 1e-12


def reference_generate_p2(n, seed):
    """The per-candidate acceptance loop generate_p2 must reproduce."""
    rng = np.random.default_rng(seed)
    quota = [n - n // 2, n // 2]
    have = [0, 0]
    feats = np.empty((n, 2))
    labels = np.empty(n, dtype=int)
    pos = 0
    while pos < n:
        batch = rng.uniform(0.0, 10.0, size=(max(4 * (n - pos), 64), 2))
        lab = p2_true_labels(batch)
        for p, l in zip(batch, lab):
            if have[l] < quota[l]:
                feats[pos] = p
                labels[pos] = l
                have[l] += 1
                pos += 1
                if pos == n:
                    break
    return feats, labels


class TestGenerateP2:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=5001, seed=7)
    def test_matches_acceptance_loop(self, n, seed):
        ds = generate_p2(n, seed)
        feats, labels = reference_generate_p2(n, seed)
        assert np.array_equal(ds.features, feats)
        assert np.array_equal(ds.labels, labels)

    def test_boundary_values_at_x2(self):
        e = p2_boundaries(2.0)
        assert abs(e[0] - (np.sin(2.0) + 5)) < 1e-12
        assert abs(e[1] - 1.0) < 1e-12
        assert abs(e[2] - (-0.4 + 0.6 * np.sin(8.0) + 8)) < 1e-12
        assert abs(e[3] - 39.902) < 1e-12

    def test_priors_balanced(self):
        ds = generate_p2(100_000, seed=11)
        assert abs(ds.labels.mean() - 0.5) <= 0.02

    def test_deterministic(self):
        a = generate_p2(500, seed=3)
        b = generate_p2(500, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_match_truth_function(self):
        ds = generate_p2(5000, seed=4)
        assert np.array_equal(ds.labels, p2_true_labels(ds.features))

    def test_truth_is_boundary_parity(self):
        # independent re-derivation: count curves strictly below each point
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, size=(2000, 2))
        curves = p2_boundaries(pts[:, 0])
        expected = ((curves < pts[:, 1][:, None]).sum(axis=1) % 2).astype(int)
        assert np.array_equal(p2_true_labels(pts), expected)

    def test_class_region_areas(self):
        # frozen from direct quadrature over the boundary arrangement:
        # the odd-parity region covers 0.45012 of the square
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 10, size=(400_000, 2))
        area = p2_true_labels(pts).mean()
        assert abs(area - 0.45012) < 0.005

    def test_domain(self):
        ds = generate_p2(2000, seed=5)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 10.0
