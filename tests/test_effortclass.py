"""kNN and random-forest effort classifiers."""

import json
import warnings
from collections import Counter

import numpy as np
import pytest

from oft import effortclass
from oft.errors import ConfigError, DataError, DegenerateInputError
from oft.effortclass import (
    METRICS,
    PAIRWISE_CLASSES,
    ForestModel,
    KnnModel,
    LabelledFrame,
    binarize,
    cross_validate,
    distances,
    fit_model,
    knn_predict,
    load_model,
    model_from_dict,
    model_to_dict,
    read_dataset_csv,
    rf_train,
    save_model,
)
from oft.effortclass import _gini, _py_gini, _threshold

from conftest import blob_dataset


class TestDistances:
    POINT = np.array([[3.0, 4.0]])

    @pytest.mark.parametrize(
        "metric,expected",
        [("euclidean", 5.0), ("squared_euclidean", 25.0), ("manhattan", 7.0), ("chebyshev", 4.0)],
    )
    def test_three_four_five(self, metric, expected):
        d = distances(self.POINT, np.zeros(2), metric)
        assert d[0] == pytest.approx(expected)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_metric_axioms(self, metric, rng):
        pts = rng.normal(0, 1, (30, 3))
        for _ in range(50):
            a, b, c = pts[rng.integers(0, 30, 3)]
            dab = distances(a[None, :], b, metric)[0]
            dba = distances(b[None, :], a, metric)[0]
            dac = distances(a[None, :], c, metric)[0]
            dcb = distances(c[None, :], b, metric)[0]
            assert dab == pytest.approx(dba)
            assert distances(a[None, :], a, metric)[0] == 0.0
            assert dab <= dac + dcb + 1e-12

    def test_squared_euclidean_preserves_ranking(self, rng):
        pts = rng.normal(0, 2, (40, 2))
        x = rng.normal(0, 2, 2)
        a = np.argsort(distances(pts, x, "euclidean"), kind="stable")
        b = np.argsort(distances(pts, x, "squared_euclidean"), kind="stable")
        assert np.array_equal(a, b)

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            distances(self.POINT, np.zeros(2), "cosine")


class TestKnn:
    def test_k1_memorizes_training_set(self, rng):
        X = rng.normal(0, 1, (50, 2))
        y = rng.integers(0, 3, 50)
        model = KnnModel(X, y, k=1)
        assert np.array_equal(model.predict(X), y)

    def test_distance_tie_prefers_earlier_index(self):
        model = KnnModel([[0.0], [0.0]], [5, 2], k=1)
        assert model.predict_one([0.0]) == 5

    def test_vote_tie_prefers_nearest_class(self):
        model = KnnModel([[0.0], [1.0]], [2, 1], k=2)
        assert model.predict_one([0.4]) == 2
        assert model.predict_one([0.6]) == 1

    def test_vote_tie_falls_back_to_lowest_label(self):
        # nearest point's class holds one vote and is not among the leaders
        X = [[0.0], [1.0], [2.0], [3.0], [4.0]]
        model = KnnModel(X, [3, 1, 2, 1, 2], k=5)
        assert model.predict_one([0.0]) == 1

    def test_k_beats_noise_blob(self, rng):
        X, y = blob_dataset(rng, n_per=40)
        # mislabel one training point; k=5 should shrug it off near that point
        y_noisy = y.copy()
        y_noisy[0] = 2
        model = KnnModel(X, y_noisy, k=5)
        assert model.predict_one(X[0]) == 0

    def test_k_validated(self):
        with pytest.raises(ConfigError):
            KnnModel([[0.0]], [1], k=2)
        with pytest.raises(ConfigError):
            KnnModel([[0.0], [1.0]], [1, 2], k=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            KnnModel([[0.0, 1.0], [bad, 0.0]], [0, 1], k=1)

    def test_feature_width_checked(self):
        model = KnnModel([[0.0, 1.0]], [1], k=1)
        with pytest.raises(DataError):
            model.predict_one([0.0, 1.0, 2.0])

    def test_free_function_matches_method(self, rng):
        X, y = blob_dataset(rng, n_per=10)
        model = KnnModel(X, y, k=3)
        probe = X[7]
        assert knn_predict(model, probe) == model.predict_one(probe)
        assert type(model.predict_one(probe)) is int

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probes_rejected(self, bad):
        model = KnnModel([[0.0], [1.0]], [0, 1], k=1)
        with pytest.raises(DataError, match="knn: probes must be finite"):
            model.predict([[0.5], [bad]])
        with pytest.raises(DataError, match="knn: probes must be finite"):
            model.predict_one([bad])

    # a far point's coordinate difference overflows, so its distance does in every metric
    @pytest.mark.parametrize("metric", METRICS)
    def test_overflow_beyond_the_kth_neighbour_is_ignored(self, metric):
        model = KnnModel([[1e308, 0.0], [-1e308, 0.0], [-1e308, 1.0], [1e308, 1.0]], [7, 1, 2, 7],
                         k=2, metric=metric)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.predict_one([-1e308, 0.0]) == 1

    @pytest.mark.parametrize("metric", METRICS)
    def test_overflowing_kth_distance_rejected(self, metric):
        points, labels = [[-1e308, 0.0], [-1e308, 1.0], [1e308, 5.0]], [1, 2, 7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="to its neighbour number 2 overflows"):
                KnnModel(points, labels, k=2, metric=metric).predict_one([1e308, 0.0])
            assert KnnModel(points, labels, k=1, metric=metric).predict_one([1e308, 0.0]) == 7


class TestForest:
    def test_same_seed_same_forest(self, rng):
        X, y = blob_dataset(rng, n_per=30)
        a = rf_train(X, y, n_trees=11, seed=42)
        b = rf_train(X, y, n_trees=11, seed=42)
        probes = rng.normal(0.3, 0.6, (40, 2))
        assert np.array_equal(a.predict(probes), b.predict(probes))
        assert a.trees == b.trees

    def test_different_seeds_usually_differ(self, rng):
        X, y = blob_dataset(rng, n_per=30)
        a = rf_train(X, y, n_trees=11, seed=0)
        b = rf_train(X, y, n_trees=11, seed=1)
        assert a.trees != b.trees

    def test_prediction_invariant_under_tree_order(self, rng):
        X, y = blob_dataset(rng, n_per=25)
        model = rf_train(X, y, n_trees=9, seed=7)
        probes = rng.normal(0.3, 0.8, (60, 2))
        before = model.predict(probes)
        order = rng.permutation(len(model.trees))
        model.trees = [model.trees[i] for i in order]
        assert np.array_equal(model.predict(probes), before)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            rf_train([[0.0], [1.0]], [1, 1])

    def test_separable_data_learned(self, rng):
        X, y = blob_dataset(rng, n_per=40)
        model = rf_train(X, y, n_trees=23, seed=0)
        assert float(np.mean(model.predict(X) == y)) >= 0.95

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            rf_train([[0.0], [bad], [1.0]], [0, 1, 1])

    def test_tree_count_validated(self):
        with pytest.raises(ConfigError):
            rf_train([[0.0], [1.0]], [0, 1], n_trees=0)

    @pytest.mark.parametrize("seed", [-1, 0.5, True, None])
    def test_seed_validated(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            rf_train([[0.0], [1.0]], [0, 1], seed=seed)

    def test_large_and_numpy_seeds_accepted(self):
        for seed in (np.int64(3), 2**70):
            rf_train([[0.0], [1.0]], [0, 1], n_trees=2, seed=seed)

    @pytest.mark.parametrize("values,lower", [
        ([1e-300, 1.0000000000000002e-300] * 3, 1e-300),  # the midpoint rounds up
        ([1.0, 2.0, 1e308, 1.5e308, 1.6e308, 3.0], 1e308),  # 1e308 + 1.5e308 overflows
    ], ids=["adjacent-floats", "near-the-float-limit"])
    def test_every_split_separates_the_values_it_scored(self, values, lower):
        X, y = np.column_stack([values, values]), np.array([1, 2] * 3)
        model = rf_train(X, y, n_trees=23)
        assert same_bits(model.trees, _oracle_trees(X, y, 23, 0))
        stack, thresholds = list(model.trees), set()
        while stack:
            node = stack.pop()
            if "label" not in node:
                thresholds.add(node["threshold"])
                stack += [node["left"], node["right"]]
        assert all(min(values) <= t < max(values) for t in thresholds)
        assert lower in thresholds  # the cut whose midpoint does not separate
        assert np.array_equal(model.predict(X), y)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probes_rejected(self, bad):
        model = rf_train([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1], n_trees=3)
        with pytest.raises(DataError, match="forest: probes must be finite"):
            model.predict([[0.5], [bad]])
        with pytest.raises(DataError, match="forest: probes must be finite"):
            model.predict_one([bad])


# ---------------------------------------------------------------------------
# the forest oracle: the per-threshold builder and per-row voter that the
# presorted split scan and numpy routing replace, kept as the reference; its
# threshold is the midpoint only where that separates the two values


def _oracle_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _oracle_majority(y):
    votes = Counter(int(v) for v in y)
    top = max(votes.values())
    return min(label for label, n in votes.items() if n == top)


def _oracle_build_tree(X, y, classes, rng, n_feats):
    n = len(y)
    class_idx = np.searchsorted(classes, y)
    total = np.bincount(class_idx, minlength=len(classes))
    parent_gini = _oracle_gini(total)
    if parent_gini == 0.0:
        return {"label": int(classes[class_idx[0]])}

    feats = np.sort(rng.choice(X.shape[1], size=n_feats, replace=False))
    best = None  # (impurity, feature, threshold)
    for j in feats:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        left = np.zeros(len(classes), dtype=int)
        for i in range(n - 1):
            left[class_idx[order[i]]] += 1
            if xs[i + 1] <= xs[i]:
                continue
            n_left = i + 1
            n_right = n - n_left
            impurity = (n_left * _oracle_gini(left) + n_right * _oracle_gini(total - left)) / n
            if best is None or impurity < best[0] - 1e-12:
                a, b = float(xs[i]), float(xs[i + 1])
                mid = (a + b) / 2.0  # unless it rounds up to b or overflows
                best = (impurity, int(j), mid if a <= mid < b else a)
    if best is None or best[0] >= parent_gini - 1e-12:
        return {"label": _oracle_majority(y)}

    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _oracle_build_tree(X[mask], y[mask], classes, rng, n_feats),
        "right": _oracle_build_tree(X[~mask], y[~mask], classes, rng, n_feats),
    }


def _oracle_trees(X, y, n_trees, seed):
    """rf_train's bootstraps and feature draws around the oracle builder."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=int)
    classes = np.unique(y)
    n, d = X.shape
    n_feats = max(1, int(round(np.sqrt(d))))
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(stream)
        idx = rng.integers(0, n, size=n)
        trees.append(_oracle_build_tree(X[idx], y[idx], classes, rng, n_feats))
    return trees


def _oracle_tree_predict(node, x):
    while "label" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["label"]


def _oracle_predict(trees, X):
    out = []
    for x in np.atleast_2d(np.asarray(X, dtype=float)):
        votes = Counter(_oracle_tree_predict(tree, x) for tree in trees)
        top = max(votes.values())
        out.append(min(label for label, n in votes.items() if n == top))
    return np.array(out, dtype=int)


def tied_dataset(rng):
    """Small data full of ties: features on coarse grids or repeated values,
    labels drawn from a few arbitrary (possibly negative) ints."""
    n = int(rng.integers(2, 50))
    d = int(rng.integers(1, 6))
    k = int(rng.integers(2, 7))
    columns = []
    for _ in range(d):
        kind = rng.integers(0, 3)
        if kind == 0:  # coarse integer grid: many equal values
            columns.append(rng.integers(0, int(rng.integers(1, 6)), n).astype(float))
        elif kind == 1:  # a few distinct reals, repeated
            columns.append(rng.choice(rng.normal(0.0, 1.0, 4), n))
        else:
            columns.append(rng.normal(0.0, 1.0, n))
    X = np.column_stack(columns)
    alphabet = np.sort(rng.choice(np.arange(-5, 12), size=k, replace=False))
    y = rng.choice(alphabet, n)
    y[: 2] = alphabet[:2]  # at least two classes
    return X, y


def crossing_dataset(rng, n_classes=None):
    """Ties, adjacent floats and values near the float limit, in up to 400
    rows: root nodes score their cuts in numpy, deep nodes in Python floats."""
    n = int(rng.integers(100, 401))
    d = int(rng.integers(1, 5))
    columns = []
    for _ in range(d):
        kind = rng.integers(0, 4)
        if kind == 0:  # coarse integer grid: many equal values
            columns.append(rng.integers(0, int(rng.integers(2, 40)), n).astype(float))
        elif kind == 1:  # rounded reals: ties among distinct values
            columns.append(np.round(rng.normal(0.0, 1.0, n), int(rng.integers(0, 3))))
        elif kind == 2:  # runs of adjacent floats, whose midpoints round to either end
            base = rng.choice([1e-300, 5e-324, 1.0, -3.0, 1e300])
            steps = rng.integers(0, 6, n)
            columns.append(np.array([_ulps(base, k) for k in steps.tolist()]))
        else:  # near the float limit, where midpoints overflow
            columns.append(rng.choice([-1.7e308, -1e308, 1.0, 1e308, 1.5e308, 1.7e308], n))
    X = np.column_stack(columns)
    k = n_classes or int(rng.integers(2, 7))
    y = rng.integers(0, k, n)
    if rng.random() < 0.5:  # labels that partly follow a feature: deeper, purer trees
        rank = np.argsort(np.argsort(X[:, 0], kind="stable"))
        y = np.where(rng.random(n) < 0.7, rank * k // n, y)
    y[:k] = np.arange(k)  # every class present
    return X, y * 3 - 4  # arbitrary, partly negative labels


def _ulps(x, k):
    for _ in range(k):
        x = float(np.nextafter(x, np.inf))
    return x


def same_bits(a, b):
    """Equal trees with bit-equal thresholds: float reprs round-trip, and
    tell -0.0 from 0.0 and 1 from 1.0."""
    return json.dumps(a) == json.dumps(b)


class TestForestOracle:
    def test_trees_match_the_oracle_on_tied_data(self):
        rng = np.random.default_rng(20260)
        for case in range(300):
            X, y = tied_dataset(rng)
            n_trees, seed = int(rng.integers(1, 4)), int(rng.integers(0, 1000))
            model = rf_train(X, y, n_trees=n_trees, seed=seed)
            assert same_bits(model.trees, _oracle_trees(X, y, n_trees, seed)), case

    def test_trees_match_the_oracle_across_the_kernel_cutoff(self):
        rng = np.random.default_rng(20261)
        for case in range(30):
            X, y = crossing_dataset(rng)
            n_trees, seed = int(rng.integers(1, 3)), int(rng.integers(0, 1000))
            model = rf_train(X, y, n_trees=n_trees, seed=seed)
            assert same_bits(model.trees, _oracle_trees(X, y, n_trees, seed)), case

    def test_trees_match_the_oracle_with_eight_or_more_classes(self):
        rng = np.random.default_rng(20262)
        for case in range(15):
            X, y = crossing_dataset(rng, n_classes=int(rng.integers(8, 11)))
            model = rf_train(X, y, n_trees=1, seed=case)
            assert same_bits(model.trees, _oracle_trees(X, y, 1, case)), case

    @pytest.mark.parametrize("small_node", [0, 10**9])
    def test_one_kernel_alone_grows_the_same_trees(self, monkeypatch, small_node):
        rng = np.random.default_rng(20263)
        cases = [crossing_dataset(rng) for _ in range(10)] + [tied_dataset(rng) for _ in range(20)]
        expected = [rf_train(X, y, n_trees=2, seed=i).trees for i, (X, y) in enumerate(cases)]
        monkeypatch.setattr(effortclass, "SMALL_NODE", small_node)
        for i, (X, y) in enumerate(cases):
            assert same_bits(rf_train(X, y, n_trees=2, seed=i).trees, expected[i]), i

    def test_squares_are_summed_pairwise_from_eight_classes(self):
        # why nodes with PAIRWISE_CLASSES classes or more never score in Python
        rng = np.random.default_rng(3)
        for k in range(2, 11):
            counts = rng.integers(0, 50, (2000, k))
            counts[:, 0] += 1
            floats = [_py_gini(row, sum(row)) for row in counts.tolist()]
            same = floats == _gini(counts).tolist()
            assert same == (k < PAIRWISE_CLASSES), k

    def test_blob_forest_matches_the_oracle(self, rng):
        X, y = blob_dataset(rng, n_per=40, sigma=0.4)
        model = rf_train(X, y, n_trees=23, seed=5)
        assert same_bits(model.trees, _oracle_trees(X, y, 23, 5))
        probes = np.vstack([X, rng.normal(0.3, 0.8, (100, 2))])
        assert np.array_equal(model.predict(probes), _oracle_predict(model.trees, probes))

    def test_predict_matches_per_row_voting(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            X, y = tied_dataset(rng)
            model = rf_train(X, y, n_trees=int(rng.integers(1, 8)), seed=int(rng.integers(0, 99)))
            probes = np.vstack([X, rng.normal(0.0, 2.0, (30, X.shape[1]))])
            assert np.array_equal(model.predict(probes), _oracle_predict(model.trees, probes))

    @staticmethod
    def random_tree(rng, depth, n_features, labels):
        if depth == 0 or rng.random() < 0.25:
            return {"label": int(rng.choice(labels))}
        return {
            "feature": int(rng.integers(0, n_features)),
            "threshold": int(rng.integers(-2, 3)),
            "left": TestForestOracle.random_tree(rng, depth - 1, n_features, labels),
            "right": TestForestOracle.random_tree(rng, depth - 1, n_features, labels),
        }

    def test_loaded_forests_with_int_thresholds_and_odd_labels(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            labels = rng.choice([-7, -1, 0, 3, 40, 1000], size=int(rng.integers(1, 5)),
                                replace=False)
            trees = [self.random_tree(rng, 5, d, labels) for _ in range(int(rng.integers(1, 10)))]
            raw = json.loads(json.dumps({"kind": "rf", "n_features": d, "trees": trees}))
            model = model_from_dict(raw)
            probes = rng.integers(-3, 4, (40, d)).astype(float)  # often exactly on a threshold
            expected = _oracle_predict(model.trees, probes)
            assert np.array_equal(model.predict(probes), expected)
            one = [model.predict_one(p) for p in probes]
            assert one == expected.tolist() and all(type(v) is int for v in one)

    def test_probe_width_checked(self):
        model = ForestModel(trees=[{"label": 1}], n_features=2)
        with pytest.raises(DataError, match="probe has 3 features, model expects 2"):
            model.predict_one([0.0, 1.0, 2.0])
        with pytest.raises(DataError, match="probe has 1 features"):
            model.predict([[0.0], [1.0]])

    def test_no_rows_no_labels(self):
        model = ForestModel(trees=[{"label": 1}], n_features=2)
        assert model.predict(np.empty((0, 2))).shape == (0,)


class TestThreshold:
    @pytest.mark.parametrize("a,b", [
        (1e-300, 1.0000000000000002e-300),  # the midpoint rounds up to b
        (5e-324, 1e-323),  # so does the midpoint of the two smallest subnormals
        (1e308, 1.5e308),  # the sum overflows to inf
        (-1.5e308, -1e308),  # to -inf
    ])
    def test_a_when_the_midpoint_does_not_separate(self, a, b):
        assert not a <= (a + b) / 2.0 < b
        assert _threshold(a, b) == a

    @pytest.mark.parametrize("a,b,mid", [
        (1.0, 2.0, 1.5), (-1.0, 1.0, 0.0), (1.0, 1.0000000000000004, 1.0000000000000002),
        (1.0, 1.0000000000000002, 1.0),  # rounds down to a: still separates
    ])
    def test_the_midpoint_otherwise(self, a, b, mid):
        assert _threshold(a, b) == mid


class TestHoldout:
    def test_blobs_knn(self, rng):
        X, y = blob_dataset(rng, n_per=60)
        idx = rng.permutation(len(y))
        cut = int(0.75 * len(y))
        tr, te = idx[:cut], idx[cut:]
        model = KnnModel(X[tr], y[tr], k=5)
        assert float(np.mean(model.predict(X[te]) == y[te])) >= 0.90

    def test_blobs_forest(self, rng):
        X, y = blob_dataset(rng, n_per=60)
        idx = rng.permutation(len(y))
        cut = int(0.75 * len(y))
        tr, te = idx[:cut], idx[cut:]
        model = rf_train(X[tr], y[tr], n_trees=23, seed=0)
        assert float(np.mean(model.predict(X[te]) == y[te])) >= 0.85


def separable_frames(rng, subjects=("s1", "s2", "s3", "s4"), n_per=24):
    """Frames whose label is a deterministic function of the features."""
    frames = []
    for s in subjects:
        for _ in range(n_per):
            label = int(rng.integers(1, 4))
            center = {1: (20.0, -1.0), 2: (45.0, 0.0), 3: (80.0, 1.5)}[label]
            feats = (center[0] + rng.normal(0, 1.0), center[1] + rng.normal(0, 0.05))
            frames.append(LabelledFrame(s, feats, label))
    return frames


class TestCrossValidate:
    def test_per_subject_split_on_separable_data(self, rng):
        frames = separable_frames(rng)
        report = cross_validate(frames, "per-subject-75-25", {"kind": "knn", "k": 3}, seed=1)
        assert report.global_accuracy >= 0.9
        assert report.n_train + report.n_test == len(frames)
        assert set(report.per_class) <= {1, 2, 3}

    def test_leave_subjects_out_explicit(self, rng):
        frames = separable_frames(rng)
        report = cross_validate(
            frames,
            "leave-subjects-out",
            {"kind": "rf", "trees": 23, "seed": 0},
            test_subjects=["s2"],
        )
        assert report.n_test == 24
        assert "s2" in report.split
        assert report.global_accuracy >= 0.8

    def test_leave_subjects_out_seeded_quarter(self, rng):
        frames = separable_frames(rng)
        a = cross_validate(frames, "leave-subjects-out", {"kind": "knn", "k": 1}, seed=5)
        b = cross_validate(frames, "leave-subjects-out", {"kind": "knn", "k": 1}, seed=5)
        assert a == b  # fully deterministic given the seed

    def test_unknown_scheme(self, rng):
        with pytest.raises(ConfigError):
            cross_validate(separable_frames(rng), "k-fold", {"kind": "knn"})

    @pytest.mark.parametrize("scheme", ["per-subject-75-25", "leave-subjects-out"])
    @pytest.mark.parametrize("seed", [-1, 2.5, False])
    def test_seed_validated(self, rng, scheme, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            cross_validate(separable_frames(rng), scheme, {"kind": "knn"}, seed=seed)

    def test_unknown_test_subject(self, rng):
        with pytest.raises(DataError):
            cross_validate(
                separable_frames(rng), "leave-subjects-out", {"kind": "knn"},
                test_subjects=["nobody"],
            )

    def test_cannot_hold_out_everyone(self, rng):
        frames = separable_frames(rng, subjects=("a", "b"))
        with pytest.raises(DataError):
            cross_validate(frames, "leave-subjects-out", {"kind": "knn"},
                           test_subjects=["a", "b"])

    def test_subject_with_one_frame_cannot_split(self):
        frames = [LabelledFrame("solo", (1.0, 1.0), 1)]
        with pytest.raises(DataError):
            cross_validate(frames, "per-subject-75-25", {"kind": "knn"})

    def test_callable_spec(self, rng):
        frames = separable_frames(rng, subjects=("s1", "s2"))
        report = cross_validate(
            frames, "leave-subjects-out", {"kind": "knn", "k": 1}, test_subjects=["s1"],
        )
        assert 0.0 <= report.global_accuracy <= 1.0

    def test_bad_model_kind(self, rng):
        with pytest.raises(ConfigError):
            fit_model({"kind": "svm"}, np.zeros((2, 2)), np.array([0, 1]))


class TestBinarize:
    def test_mapping(self):
        assert list(binarize([1, 2, 3, 1])) == [0, 1, 1, 0]

    def test_scalar(self):
        assert binarize(1) == 0
        assert binarize(3) == 1

    def test_out_of_range(self):
        with pytest.raises(DataError):
            binarize([0, 1])
        with pytest.raises(DataError):
            binarize([1, 4])


class TestPersistence:
    def test_knn_round_trip(self, tmp_path, rng):
        X, y = blob_dataset(rng, n_per=15)
        model = KnnModel(X, y, k=3, metric="manhattan")
        path = tmp_path / "knn.json"
        save_model(model, path)
        back = load_model(path)
        probes = rng.normal(0.2, 0.5, (20, 2))
        assert np.array_equal(back.predict(probes), model.predict(probes))
        assert back.metric == "manhattan"

    def test_forest_round_trip(self, tmp_path, rng):
        X, y = blob_dataset(rng, n_per=15)
        model = rf_train(X, y, n_trees=7, seed=3)
        path = tmp_path / "rf.json"
        save_model(model, path)
        back = load_model(path)
        probes = rng.normal(0.2, 0.5, (20, 2))
        assert np.array_equal(back.predict(probes), model.predict(probes))

    @staticmethod
    def split(feature=0, threshold=0.0, left=None, right=None):
        return {"feature": feature, "threshold": threshold,
                "left": left or {"label": 0}, "right": right or {"label": 1}}

    @pytest.mark.parametrize("trees,message", [
        ([], "at least 1 tree"),
        ([{}], "feature None"),
        ([[0]], "list"),
        ([{"label": 1.5}], "label"),
        ([{"label": True}], "label"),
        ([split(feature=5)], "feature 5"),
        ([split(feature=-1)], "feature -1"),
        ([split(feature="0")], "feature '0'"),
        ([split(threshold=float("nan"))], "threshold nan"),
        ([split(threshold=1e400)], "threshold inf"),
        ([split(threshold="1")], "threshold '1'"),
        ([{"feature": 0, "threshold": 0.0, "left": {"label": 0}}],
         r"keys \['feature', 'left', 'threshold'\]"),
        ([{"label": 0}, split(1, right=split(left={"feature": 0}))], "threshold None"),
    ])
    def test_malformed_forest_rejected(self, trees, message):
        with pytest.raises(ConfigError, match=message):
            model_from_dict({"kind": "rf", "n_features": 2, "trees": trees})

    def test_trained_forest_passes_the_check(self, rng):
        X, y = blob_dataset(rng, n_per=15)
        raw = json.loads(json.dumps(model_to_dict(rf_train(X, y, n_trees=5, seed=1))))
        assert model_from_dict(raw).trees == raw["trees"]

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json"])
    def test_unreadable_model_file(self, tmp_path, blob):
        path = tmp_path / "model.json"
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize("points,labels", [
        ([[0.0], [1.0]], [0]),
        ([[0.0], [float("nan")]], [0, 1]),
    ])
    def test_malformed_knn_is_a_config_error(self, points, labels):
        raw = {"kind": "knn", "k": 1, "metric": "euclidean", "points": points, "labels": labels}
        with pytest.raises(ConfigError, match="model file: knn"):
            model_from_dict(raw)

    def test_bad_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "perceptron"}')
        with pytest.raises(ConfigError):
            load_model(path)
        with pytest.raises(ConfigError):
            load_model(tmp_path / "missing.json")


class TestDatasetCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "subject,t_s,hrv,pupil_z,td\n"
            "s1,0,42.5,0.3,1\n"
            "s1,1,40.1,0.5,2\n"
        )
        frames = read_dataset_csv(path)
        assert len(frames) == 2
        assert frames[0].features == (42.5, 0.3)
        assert frames[1].label == 2

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("subject,hrv\ns1,42.5\n")
        with pytest.raises(DataError):
            read_dataset_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("subject,t_s,hrv,pupil_z,td\ns1,0,not_a_number,0.3,1\n")
        with pytest.raises(DataError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("column", ["hrv", "pupil_z"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature(self, tmp_path, column, value):
        row = {"subject": "s1", "t_s": "1", "hrv": "40.1", "pupil_z": "0.5", "td": "2"}
        row[column] = value
        path = tmp_path / "data.csv"
        path.write_text("subject,t_s,hrv,pupil_z,td\ns1,0,42.5,0.3,1\n"
                        + ",".join(row.values()) + "\n")
        with pytest.raises(DataError, match="non-finite feature in row") as err:
            read_dataset_csv(path)
        assert f"'{column}': '{value}'" in str(err.value)

    @pytest.mark.parametrize("td", [str(2**63), str(-2**63 - 1), "1" + "0" * 20])
    def test_label_outside_int64(self, tmp_path, td):
        path = tmp_path / "data.csv"
        path.write_text(f"subject,t_s,hrv,pupil_z,td\ns1,0,42.5,0.3,1\ns1,1,40.1,0.5,{td}\n")
        with pytest.raises(DataError, match="label outside the 64-bit integer range in row") as err:
            read_dataset_csv(path)
        assert f"'td': '{td}'" in str(err.value)

    def test_int64_extremes_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(f"subject,t_s,hrv,pupil_z,td\ns1,0,42.5,0.3,{2**63 - 1}\n"
                        f"s1,1,40.1,0.5,{-2**63}\n")
        assert [f.label for f in read_dataset_csv(path)] == [2**63 - 1, -2**63]

    def test_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("subject,t_s,hrv,pupil_z,td\n")
        with pytest.raises(DataError):
            read_dataset_csv(path)
