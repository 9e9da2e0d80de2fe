"""Supervised effort classification on per-second feature frames.

Two small numpy learners sized for this data: a k-nearest-neighbour voter
with a choice of distance and a random forest of Gini-split trees.
Both are deterministic: kNN breaks distance ties by sample index and vote
ties by the nearest neighbour's class, then the lowest label; the forest
derives every tree's randomness from one seed and votes with a
lowest-label tie-break, so predictions do not depend on tree order.

Labels are ints that fit 64 bits. The three-level difficulty labels are
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
#: Forest nodes of at most this many rows score their cuts in Python floats,
#: larger ones in numpy, whose fixed cost per call only pays off over many rows.
SMALL_NODE = 96
#: numpy sums 8 or more squares pairwise, not left to right as the Python
#: kernel does, so nodes with this many classes always score in numpy.
PAIRWISE_CLASSES = 8


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
    otherwise to the lowest label. A distance may overflow to inf; that is
    a DataError only when the k-th nearest one does, because only then
    does the vote depend on it.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != model.points.shape[1]:
        raise DataError(
            f"knn: probe has {x.shape[0]} features, model expects {model.points.shape[1]}"
        )
    with np.errstate(over="ignore"):
        d = distances(model.points, x, model.metric)
    order = np.argsort(d, kind="stable")[: model.k]
    if d[order[-1]] == math.inf:
        raise DataError(f"knn: the {model.metric} distance from probe {x.tolist()} "
                        f"to its neighbour number {model.k} overflows")
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


def _scan_numpy(rows, col, one_hot, total, best):
    """Score every cut of one feature's sorted rows in one numpy pass.

    Returns the best impurity so far and, when a cut of this feature
    lowered it, (the number of rows left of the cut, their class counts).
    """
    xs = col[rows]
    cuts = np.flatnonzero(xs[1:] > xs[:-1])
    if len(cuts) == 0:
        return best, None
    left = np.cumsum(one_hot[rows[:-1]], axis=0)[cuts]
    n = len(rows)
    n_left = cuts + 1
    n_right = n - n_left
    impurity = (n_left * _gini(left) + n_right * _gini(total - left)) / n
    i = _first_best(impurity, best)
    if i is None:
        return best, None
    return float(impurity[i]), (int(n_left[i]), left[i])


def _py_gini(counts, n) -> float:
    """_gini of one row of counts summing to n, in Python floats.

    The squares are summed left to right, as numpy sums fewer than
    PAIRWISE_CLASSES of them.
    """
    total = 0.0
    for c in counts:
        p = c / n
        total += p * p
    return 1.0 - total


def _scan_floats(rows, col, cls, total, best):
    """_scan_numpy in Python floats, one cut at a time: the same
    operations in the same order, so the same cut wins, bit for bit."""
    n = len(rows)
    left, right = [0] * len(total), list(total)
    pick = None
    x_prev = col[rows[0]]
    for i in range(1, n):
        c = cls[rows[i - 1]]
        left[c] += 1
        right[c] -= 1
        x = col[rows[i]]
        if x > x_prev:
            value = (i * _py_gini(left, i) + (n - i) * _py_gini(right, n - i)) / n
            if value < best - 1e-12:
                best, pick = value, (i, left.copy())
        x_prev = x
    return best, pick


def _threshold(a: float, b: float) -> float:
    """A value that sends a left and b right, for sorted neighbours a < b:
    their midpoint, or a when the midpoint rounds up to b or overflows."""
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def _build_tree(X, y, classes, rng, n_feats):
    """Gini tree grown depth first, left before right.

    Each feature's rows are sorted once, stably, at the root (the sorted
    attribute lists of SLIQ). A split hands each child its part of every
    sorted list, in order, and the class counts left of the winning cut, so
    no node sorts or counts again. For each sampled feature (in index
    order) every cut between two distinct sorted values is scored; the
    first cut that lowers the impurity by more than 1e-12 below the best so
    far wins, across features too.

    A node of at most SMALL_NODE rows with fewer than PAIRWISE_CLASSES
    classes scores its cuts in Python floats; larger nodes score each
    feature in one numpy pass, whose fixed cost only pays off over many
    rows. Both kernels give the same trees.
    """
    n, d = X.shape
    class_idx = np.searchsorted(classes, y)
    labels, cls, cols = classes.tolist(), class_idx.tolist(), X.T.tolist()
    one_hot = np.eye(len(classes), dtype=np.int64)[class_idx]
    floats_ok = len(classes) < PAIRWISE_CLASSES
    side = np.zeros(n, dtype=bool)  # marks the rows left of a numpy node's cut
    root = {}
    sorted_rows = [np.argsort(X[:, j], kind="stable") for j in range(d)]
    stack = [(sorted_rows, np.bincount(class_idx, minlength=len(classes)), root)]
    while stack:  # a left child is pushed last, so it grows first
        lists, total, node = stack.pop()
        m = len(lists[0])
        small = floats_ok and m <= SMALL_NODE
        if small and isinstance(total, np.ndarray):
            lists, total = [rows.tolist() for rows in lists], total.tolist()
        parent_gini = _py_gini(total, m) if small else float(_gini(total[None, :])[0])
        if parent_gini == 0.0:
            node["label"] = labels[cls[lists[0][0]]]
            continue

        feats = sorted(rng.choice(d, size=n_feats, replace=False).tolist())
        best, split = math.inf, None  # split: (feature, how many rows go left, their counts)
        for j in feats:
            if small:
                best, cut = _scan_floats(lists[j], cols[j], cls, total, best)
            else:
                best, cut = _scan_numpy(lists[j], X[:, j], one_hot, total, best)
            if cut is not None:
                split = (j, *cut)
        if split is None or best >= parent_gini - 1e-12:
            # the most frequent class, the lowest label on a tie
            node["label"] = labels[total.index(max(total)) if small else int(np.argmax(total))]
            continue

        feature, i, left_total = split
        rows = lists[feature]
        if small:
            right_total = [t - c for t, c in zip(total, left_total)]
            goes_left = set(rows[:i])
            left_lists = [[r for r in other if r in goes_left] for other in lists]
            right_lists = [[r for r in other if r not in goes_left] for other in lists]
        else:
            right_total = total - left_total
            side[rows[:i]] = True
            left_lists = [other[side[other]] for other in lists]
            right_lists = [other[~side[other]] for other in lists]
            side[rows[:i]] = False
        threshold = _threshold(cols[feature][rows[i - 1]], cols[feature][rows[i]])
        node.update(feature=feature, threshold=threshold, left={}, right={})
        stack.append((right_lists, right_total, node["right"]))
        stack.append((left_lists, left_total, node["left"]))
    return root


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
    """Dataset CSV with header subject,t_s,hrv,pupil_z,td; features must be
    finite and labels fit a 64-bit integer."""
    columns = ("subject", "t_s", "hrv", "pupil_z", "td")

    def parse(*fields):
        subject, _, hrv, pupil_z, td = fields
        features = (float(hrv), float(pupil_z))
        label = int(td)
        if not all(math.isfinite(v) for v in features):
            problem = "non-finite feature"
        elif not _is_label(label):
            problem = "label outside the 64-bit integer range"
        else:
            return LabelledFrame(subject=subject, features=features, label=label)
        row = dict(zip(columns, fields))
        raise DataError(f"stream 'dataset' ({path}): {problem} in row {row!r}")

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
    """A model from its file form; k, n_features and the labels must be JSON
    integers (not booleans), the labels inside the 64-bit range."""
    try:
        if raw["kind"] == "knn":
            k, labels = raw["k"], raw["labels"]
            if not _is_int(k):
                raise ConfigError(f"model file: knn k {k!r} is not an int")
            if not (isinstance(labels, list) and all(map(_is_label, labels))):
                raise ConfigError("model file: knn labels must be a list of 64-bit ints")
            return KnnModel(points=np.asarray(raw["points"], dtype=float), labels=labels,
                            k=k, metric=raw["metric"])
        if raw["kind"] == "rf":
            n_features = raw["n_features"]
            if not _is_int(n_features):
                raise ConfigError(f"model file: rf n_features {n_features!r} is not an int")
            model = ForestModel(trees=list(raw["trees"]), n_features=n_features)
            _check_forest(model)
            return model
    except ConfigError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"model file: {exc}") from exc
    raise ConfigError(f"model file: unknown kind {raw.get('kind')!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_label(value) -> bool:
    return _is_int(value) and -2**63 <= value < 2**63


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
            if not _is_label(node["label"]):
                raise ConfigError(f"model file: leaf label {node['label']!r} is not a 64-bit int")
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
