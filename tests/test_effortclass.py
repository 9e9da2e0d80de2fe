"""kNN and random-forest effort classifiers."""

import json

import numpy as np
import pytest

from oft.errors import ConfigError, DataError, DegenerateInputError
from oft.effortclass import (
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

    def test_feature_width_checked(self):
        model = KnnModel([[0.0, 1.0]], [1], k=1)
        with pytest.raises(DataError):
            model.predict_one([0.0, 1.0, 2.0])

    def test_free_function_matches_method(self, rng):
        X, y = blob_dataset(rng, n_per=10)
        model = KnnModel(X, y, k=3)
        probe = X[7]
        assert knn_predict(model, probe) == model.predict_one(probe)


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

    def test_tree_count_validated(self):
        with pytest.raises(ConfigError):
            rf_train([[0.0], [1.0]], [0, 1], n_trees=0)


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
            frames, "leave-subjects-out", lambda X, y: KnnModel(X, y, k=1),
            test_subjects=["s1"],
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

    def test_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("subject,t_s,hrv,pupil_z,td\n")
        with pytest.raises(DataError):
            read_dataset_csv(path)
