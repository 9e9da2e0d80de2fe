"""Supervised effort classification on per-second feature frames.

Small, dependency-free learners sized for this data: a k-nearest-neighbour
voter with a choice of distance and a random forest of Gini-split trees.
Both are deterministic: kNN breaks distance ties by sample index and vote
ties by the nearest neighbour's class, then the lowest label; the forest
derives every tree's randomness from one seed and votes with a
lowest-label tie-break, so predictions do not depend on tree order.

Labels are small non-negative ints. The three-level difficulty labels are
1..3; binarize() folds them to 0 (low, level 1) and 1 (high, levels 2-3).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError
from .jsonl import dump_json, is_finite_number, is_seed, load_json, read_csv

METRICS = ("euclidean", "squared_euclidean", "manhattan", "chebyshev")
#: The model kinds fit_model builds.
KINDS = ("knn", "rf")
#: Trees in a forest when the spec does not say.
RF_TREES = 23


def distances(points: np.ndarray, x: np.ndarray, metric: str) -> np.ndarray:
    """Distance from each row of points to x."""
    diff = points - x
    if metric == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=1))
    if metric == "squared_euclidean":
        return np.sum(diff * diff, axis=1)
    if metric == "manhattan":
        return np.sum(np.abs(diff), axis=1)
    if metric == "chebyshev":
        return np.max(np.abs(diff), axis=1)
    raise ConfigError(f"unknown metric {metric!r}; choose one of {METRICS}")


@dataclass
class KnnModel:
    """Memorized training set plus the vote parameters."""

    points: np.ndarray
    labels: np.ndarray
    k: int = 1
    metric: str = "euclidean"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.points.ndim != 2 or len(self.points) != len(self.labels):
            raise DataError("knn: points must be 2-d with one label per row")
        if not np.all(np.isfinite(self.points)):
            raise DataError("knn: points must be finite")
        if not 1 <= self.k <= len(self.points):
            raise ConfigError(f"knn: k must be in 1..{len(self.points)}, got {self.k}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; choose one of {METRICS}")

    def predict_one(self, x) -> int:
        return int(self.predict(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise DataError("knn: probes must be finite")
        return np.array([knn_predict(self, x) for x in X], dtype=int)


def knn_predict(model: KnnModel, x) -> int:
    """Majority vote of the k nearest training points.

    Equal distances are ordered by training index. A tied vote goes to the
    single nearest neighbour's class when it is among the tied classes,
    otherwise to the lowest label.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != model.points.shape[1]:
        raise DataError(
            f"knn: probe has {x.shape[0]} features, model expects {model.points.shape[1]}"
        )
    d = distances(model.points, x, model.metric)
    order = np.argsort(d, kind="stable")[: model.k]
    votes = Counter(int(model.labels[i]) for i in order)
    top = max(votes.values())
    winners = sorted(label for label, n in votes.items() if n == top)
    if len(winners) == 1:
        return winners[0]
    nearest = int(model.labels[order[0]])
    return nearest if nearest in winners else winners[0]


# ---------------------------------------------------------------------------
# random forest


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of class counts; every row sums to > 0."""
    p = counts / counts.sum(axis=1, keepdims=True)
    return 1.0 - (p * p).sum(axis=1)


def _first_best(impurity: np.ndarray, best: float) -> Optional[int]:
    """Index of the split the in-order rule `value < best - 1e-12` settles
    on, starting from `best`, or None when no value beats it.

    Only a strict running minimum can beat the best so far, so the rule
    runs over those values alone and picks the same split as a scan of
    every value.
    """
    running_min = np.minimum.accumulate(impurity)
    if running_min[-1] >= best - 1e-12:
        return None
    candidates = np.concatenate(([0], np.flatnonzero(impurity[1:] < running_min[:-1]) + 1))
    pick = None
    for i, value in zip(candidates.tolist(), impurity[candidates].tolist()):
        if value < best - 1e-12:
            best, pick = value, i
    return pick


def _build_tree(X, y, classes, rng, n_feats):
    """Gini tree grown depth first, left before right.

    For each sampled feature (in index order) every cut between two
    distinct sorted values is scored at once from cumulative class counts.
    The first cut that lowers the impurity by more than 1e-12 below the
    best so far wins, across features too.
    """
    n = len(y)
    class_idx = np.searchsorted(classes, y)
    total = np.bincount(class_idx, minlength=len(classes))
    parent_gini = float(_gini(total[None, :])[0])
    if parent_gini == 0.0:
        return {"label": int(classes[class_idx[0]])}

    feats = np.sort(rng.choice(X.shape[1], size=n_feats, replace=False))
    one_hot = np.eye(len(classes), dtype=np.int64)[class_idx]
    best, split = np.inf, None  # split: (feature, threshold)
    for j in feats.tolist():
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cuts = np.flatnonzero(xs[1:] > xs[:-1])
        if len(cuts) == 0:
            continue
        left = np.cumsum(one_hot[order[:-1]], axis=0)[cuts]
        n_left = cuts + 1
        n_right = n - n_left
        impurity = (n_left * _gini(left) + n_right * _gini(total - left)) / n
        i = _first_best(impurity, best)
        if i is not None:
            best = float(impurity[i])
            split = (j, float((xs[cuts[i]] + xs[cuts[i] + 1]) / 2.0))
    if split is None or best >= parent_gini - 1e-12:
        # the most frequent class, the lowest label on a tie
        return {"label": int(classes[np.argmax(total)])}

    feature, threshold = split
    mask = X[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _build_tree(X[mask], y[mask], classes, rng, n_feats),
        "right": _build_tree(X[~mask], y[~mask], classes, rng, n_feats),
    }


def _tree_predict(tree, X: np.ndarray) -> np.ndarray:
    """Leaf label of each row of X: all rows go down the tree together."""
    out = np.empty(len(X), dtype=np.int64)
    stack = [(tree, np.arange(len(X)))]
    while stack:  # iterative: a loaded tree may nest deeper than the recursion limit
        node, rows = stack.pop()
        if "label" in node:
            out[rows] = node["label"]
            continue
        go_left = X[rows, node["feature"]] <= node["threshold"]
        for child, part in ((node["left"], rows[go_left]), (node["right"], rows[~go_left])):
            if len(part):
                stack.append((child, part))
    return out


@dataclass
class ForestModel:
    trees: list
    n_features: int

    def predict_one(self, x) -> int:
        return int(self.predict(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def predict(self, X) -> np.ndarray:
        """Majority vote of the trees per row, the lowest label on a tie."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.n_features:
            raise DataError(
                f"forest: probe has {X.shape[-1]} features, model expects {self.n_features}"
            )
        if not np.all(np.isfinite(X)):
            raise DataError("forest: probes must be finite")
        if len(X) == 0:
            return np.empty(0, dtype=int)
        votes = np.array([_tree_predict(tree, X) for tree in self.trees])
        labels, idx = np.unique(votes, return_inverse=True)
        idx = idx.reshape(votes.shape) + np.arange(len(X)) * len(labels)
        counts = np.bincount(idx.ravel(), minlength=len(X) * len(labels))
        return labels[np.argmax(counts.reshape(len(X), len(labels)), axis=1)].astype(int)


def rf_train(X, y, n_trees: int = RF_TREES, seed: int = 0) -> ForestModel:
    """Bootstrap-aggregated Gini trees with sqrt(d) feature subsampling.

    All randomness (bootstraps, per-node feature draws) is derived from the
    seed, one child stream per tree, so retraining reproduces the forest
    exactly.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) != len(y):
        raise DataError("rf: X must be 2-d with one label per row")
    if not np.all(np.isfinite(X)):
        raise DataError("rf: X must be finite")
    if n_trees < 1:
        raise ConfigError(f"rf: need at least 1 tree, got {n_trees}")
    if not is_seed(seed):
        raise ConfigError(f"rf: seed must be an integer >= 0, got {seed!r}")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DegenerateInputError("rf: training data has a single class")
    n, d = X.shape
    n_feats = max(1, int(round(np.sqrt(d))))
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        idx = rng.integers(0, n, size=n)
        trees.append(_build_tree(X[idx], y[idx], classes, rng, n_feats))
    return ForestModel(trees=trees, n_features=d)


# ---------------------------------------------------------------------------
# labels and datasets


def binarize(labels):
    """Fold 3-level labels onto 2: level 1 -> 0 (low), levels 2,3 -> 1 (high)."""
    arr = np.asarray(labels, dtype=int)
    if not np.all(np.isin(arr, (1, 2, 3))):
        raise DataError("binarize: labels must be in {1, 2, 3}")
    out = (arr >= 2).astype(int)
    return int(out) if np.isscalar(labels) or arr.ndim == 0 else out


@dataclass(frozen=True)
class LabelledFrame:
    """One training row: feature vector plus effort label, keyed by subject."""

    subject: str
    features: tuple
    label: int


def read_dataset_csv(path: str | Path) -> list[LabelledFrame]:
    """Dataset CSV with header subject,t_s,hrv,pupil_z,td; features must be finite."""
    columns = ("subject", "t_s", "hrv", "pupil_z", "td")

    def parse(subject, t_s, hrv, pupil_z, td):
        features = (float(hrv), float(pupil_z))
        if not all(math.isfinite(v) for v in features):
            row = dict(zip(columns, (subject, t_s, hrv, pupil_z, td)))
            raise DataError(f"stream 'dataset' ({path}): non-finite feature in row {row!r}")
        return LabelledFrame(subject=subject, features=features, label=int(td))

    frames = read_csv(path, "dataset", columns, parse)
    if not frames:
        raise DataError(f"stream 'dataset' ({path}): empty")
    return frames


# ---------------------------------------------------------------------------
# cross-validation

SCHEMES = ("per-subject-75-25", "leave-subjects-out")


@dataclass(frozen=True)
class CvReport:
    global_accuracy: float
    per_class: dict
    split: str
    n_train: int
    n_test: int


def fit_model(spec: Mapping, X, y):
    """Build a fitted predictor from a spec dict: {"kind": "knn", "k",
    "metric"} or {"kind": "rf", "trees", "seed"}."""
    kind = spec.get("kind")
    if kind == "knn":
        return KnnModel(X, y, k=int(spec.get("k", 1)), metric=spec.get("metric", "euclidean"))
    if kind == "rf":
        return rf_train(X, y, n_trees=int(spec.get("trees", RF_TREES)), seed=int(spec.get("seed", 0)))
    raise ConfigError(f"model spec: unknown kind {kind!r}; choose one of {KINDS}")


def _accuracy_report(y_true, y_pred, split, n_train) -> CvReport:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    per_class = {}
    for label in np.unique(y_true):
        mask = y_true == label
        per_class[int(label)] = float(np.mean(y_pred[mask] == label))
    return CvReport(
        global_accuracy=float(np.mean(y_pred == y_true)),
        per_class=per_class,
        split=split,
        n_train=n_train,
        n_test=len(y_true),
    )


def cross_validate(
    frames: Sequence[LabelledFrame],
    scheme: str,
    model_spec: Mapping,
    seed: int = 0,
    test_subjects: Optional[Sequence[str]] = None,
) -> CvReport:
    """Pooled held-out accuracy under one of two splits.

    "per-subject-75-25" trains one model per subject on a random 75% of
    that subject's frames and scores the other 25%; predictions are pooled
    over subjects. "leave-subjects-out" holds out whole subjects (given
    explicitly, or a seeded random quarter of them) and trains a single
    model on the rest.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose one of {SCHEMES}")
    if not is_seed(seed):
        raise ConfigError(f"cross_validate: seed must be an integer >= 0, got {seed!r}")
    if not frames:
        raise DataError("cross_validate: no frames")
    by_subject: dict[str, list[LabelledFrame]] = {}
    for f in frames:
        by_subject.setdefault(f.subject, []).append(f)
    rng = np.random.default_rng(seed)

    def xy(rows):
        return (
            np.array([r.features for r in rows], dtype=float),
            np.array([r.label for r in rows], dtype=int),
        )

    if scheme == "per-subject-75-25":
        y_true, y_pred, n_train = [], [], 0
        for subject in sorted(by_subject):
            rows = by_subject[subject]
            n = len(rows)
            n_test = max(1, round(0.25 * n))
            if n - n_test < 1:
                raise DataError(
                    f"cross_validate: subject {subject!r} has too few frames ({n}) to split"
                )
            order = rng.permutation(n)
            test_idx = set(order[:n_test].tolist())
            train = [rows[i] for i in range(n) if i not in test_idx]
            test = [rows[i] for i in range(n) if i in test_idx]
            X_tr, y_tr = xy(train)
            X_te, y_te = xy(test)
            model = fit_model(model_spec, X_tr, y_tr)
            y_true.extend(y_te.tolist())
            y_pred.extend(model.predict(X_te).tolist())
            n_train += len(train)
        split = f"per-subject 75/25, {len(by_subject)} subject(s), seed={seed}"
        return _accuracy_report(y_true, y_pred, split, n_train)

    # leave-subjects-out
    subjects = sorted(by_subject)
    if test_subjects is None:
        n_held = max(1, round(0.25 * len(subjects)))
        if n_held >= len(subjects):
            raise DataError("cross_validate: not enough subjects to hold any out")
        held = sorted(rng.choice(subjects, size=n_held, replace=False).tolist())
    else:
        held = sorted(set(test_subjects))
        unknown = set(held) - set(subjects)
        if unknown:
            raise DataError(f"cross_validate: unknown test subjects {sorted(unknown)}")
        if not held or len(held) >= len(subjects):
            raise DataError("cross_validate: held-out set must be a proper non-empty subset")
    train = [f for s in subjects if s not in held for f in by_subject[s]]
    test = [f for s in held for f in by_subject[s]]
    X_tr, y_tr = xy(train)
    X_te, y_te = xy(test)
    model = fit_model(model_spec, X_tr, y_tr)
    split = f"leave-subjects-out, held out {held}, seed={seed}"
    return _accuracy_report(y_te, model.predict(X_te), split, len(train))


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model) -> dict:
    if isinstance(model, KnnModel):
        return {
            "kind": "knn",
            "k": model.k,
            "metric": model.metric,
            "points": model.points.tolist(),
            "labels": model.labels.tolist(),
        }
    if isinstance(model, ForestModel):
        return {"kind": "rf", "n_features": model.n_features, "trees": model.trees}
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(raw: Mapping):
    try:
        if raw["kind"] == "knn":
            return KnnModel(
                points=np.asarray(raw["points"], dtype=float),
                labels=np.asarray(raw["labels"], dtype=int),
                k=int(raw["k"]),
                metric=raw["metric"],
            )
        if raw["kind"] == "rf":
            model = ForestModel(trees=list(raw["trees"]), n_features=int(raw["n_features"]))
            _check_forest(model)
            return model
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"model file: {exc}") from exc
    raise ConfigError(f"model file: unknown kind {raw.get('kind')!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_forest(model: ForestModel) -> None:
    """Every node is a {"label": int} leaf or a split on one of the features."""
    if not model.trees:
        raise ConfigError("model file: rf needs at least 1 tree")
    stack = list(model.trees)
    while stack:  # iterative: a file may nest deeper than the recursion limit
        node = stack.pop()
        if not isinstance(node, dict):
            raise ConfigError(f"model file: tree node is a {type(node).__name__}, not an object")
        if "label" in node:
            if not _is_int(node["label"]):
                raise ConfigError(f"model file: leaf label {node['label']!r} is not an int")
            continue
        feature, threshold = node.get("feature"), node.get("threshold")
        if not (_is_int(feature) and 0 <= feature < model.n_features
                and is_finite_number(threshold) and {"left", "right"} <= node.keys()):
            raise ConfigError(
                f"model file: a split needs a feature in 0..{model.n_features - 1}, a finite "
                f"threshold and left and right branches; got feature {feature!r}, threshold "
                f"{threshold!r}, keys {sorted(node)}"
            )
        stack += [node["left"], node["right"]]


def save_model(model, path: str | Path) -> None:
    dump_json(model_to_dict(model), path)


def load_model(path: str | Path):
    return model_from_dict(load_json(path, "model file"))
