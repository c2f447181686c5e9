"""Multiclass softmax gradient-boosted trees with exact greedy split search.

One regression tree per class per round. Splits maximize the second-order
gain with L2 smoothing and a minimum-gain penalty; leaf values apply L1
soft-thresholding and an optional absolute clip before learning-rate
scaling. Trees record per-node hessian covers for attribution and audit.

Split search works on a pre-sorted column block, as in XGBoost's exact
greedy algorithm: `train` stably sorts every feature column once, in
O(n*d log n), and every node that may split keeps its rows in that order
per column. A split filters the parent's lists into the children without
re-sorting, so each tree level costs O(n*d) gathers and cumulative sums.
Candidates, sums and tie-breaking equal those of sorting each node afresh,
so the trained models are bit-identical to that simpler search.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import TrainingError

PROB_CLIP = 1e-15

#: Every model's objective and metric: `to_dict` writes them, `from_dict` accepts no other.
FIXED_SETTINGS = {"objective": "multi:softmax", "eval_metric": "mlogloss"}


@dataclass(frozen=True)
class Hyperparameters:
    max_depth: int = 4
    min_child_weight: float = 2.0
    learning_rate: float = 0.05
    subsample: float = 0.9
    colsample_bytree: float = 1.0
    colsample_bylevel: float = 1.0
    alpha: float = 0.3
    lambda_: float = 0.03
    gamma: float = 0.01
    max_delta_step: float = 0.2
    num_class: int = 10
    num_rounds: int = 200

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 0 < self.subsample <= 1 or not 0 < self.colsample_bytree <= 1 \
                or not 0 < self.colsample_bylevel <= 1:
            raise ValueError("subsample and colsample fractions must lie in (0, 1]")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must lie in (0, 1]")
        for name in ("alpha", "lambda_", "gamma", "max_delta_step", "min_child_weight"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValueError(f"{name} must be non-negative")
        if self.num_class < 2:
            raise ValueError("num_class must be at least 2")
        if self.num_rounds < 0:
            raise ValueError("num_rounds must be non-negative")

    def to_dict(self) -> dict:
        out = {f.name.rstrip("_"): getattr(self, f.name) for f in fields(self)}  # "lambda"
        return {**out, **FIXED_SETTINGS}

    @classmethod
    def from_dict(cls, data: dict) -> "Hyperparameters":
        if not isinstance(data, dict):
            raise ValueError(f"hyperparameters must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        for key, fixed in FIXED_SETTINGS.items():
            value = data.pop(key, fixed)
            if value != fixed:
                raise ValueError(f"{key} must be {fixed!r}, got {value!r}")
        if "lambda" in data:
            data["lambda_"] = data.pop("lambda")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown hyperparameter {', '.join(map(repr, unknown))}")
        counts = {f.name for f in fields(cls) if f.type is int}
        for name, value in data.items():
            kind = int if name in counts else (int, float)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"hyperparameter {name!r} must be a "
                                 f"{'JSON integer' if kind is int else 'number'}, got {value!r}")
        return cls(**data)


@dataclass
class Tree:
    """One regression tree stored as parallel node arrays (preorder).

    Internal nodes carry (feature, threshold, gain); `value < threshold`
    routes left. Leaves carry the margin increment in `value` and have
    feature == -1. `cover` is the training hessian mass at each node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    gain: np.ndarray

    def n_nodes(self) -> int:
        return self.feature.size

    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] < 0

    def max_node_depth(self) -> int:
        depth = {0: 0}
        best = 0
        for node in range(self.n_nodes()):
            d = depth[node]
            if not self.is_leaf(node):
                depth[int(self.left[node])] = d + 1
                depth[int(self.right[node])] = d + 1
                best = max(best, d + 1)
        return best

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        idx = np.zeros(n, dtype=np.int64)
        leaf = self.feature < 0
        safe_feature = np.maximum(self.feature, 0)
        while not leaf[idx].all():
            col = X[np.arange(n), safe_feature[idx]]
            step = np.where(col < self.threshold[idx], self.left[idx], self.right[idx])
            idx = np.where(leaf[idx], idx, step)
        return self.value[idx]

    def _node_dict(self, node: int) -> dict:
        if self.is_leaf(node):
            return {"leaf": float(self.value[node]), "cover": float(self.cover[node])}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "gain": float(self.gain[node]),
            "cover": float(self.cover[node]),
            "left": self._node_dict(int(self.left[node])),
            "right": self._node_dict(int(self.right[node])),
        }

    def to_dict(self) -> dict:
        return self._node_dict(0)

    @classmethod
    def from_dict(cls, root: dict, num_features: int) -> "Tree":
        """Tree of a `to_dict` document. Raises ValueError for a malformed node,
        a non-finite number or a feature outside [0, num_features)."""
        builder = _TreeBuilder()

        def field_of(node, key: str):
            value = node.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"tree node needs a finite numeric {key!r}, got {value!r}")
            return value

        def walk(node) -> int:
            if not isinstance(node, dict):
                raise ValueError(f"tree node must be an object, got {type(node).__name__}")
            if "leaf" in node:
                return builder.add_leaf(field_of(node, "leaf"), field_of(node, "cover"))
            feature = field_of(node, "feature")
            if not isinstance(feature, int) or not 0 <= feature < num_features:
                raise ValueError(f"tree node feature {feature!r} is outside [0, {num_features})")
            idx = builder.add_internal(feature, field_of(node, "threshold"), field_of(node, "gain"),
                                       field_of(node, "cover"))
            builder.attach(idx, walk(node.get("left")), walk(node.get("right")))
            return idx

        walk(root)
        return builder.build()


class _TreeBuilder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[float] = []
        self.gain: list[float] = []

    def add_leaf(self, value: float, cover: float) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        self.cover.append(float(cover))
        self.gain.append(math.nan)
        return idx

    def add_internal(self, feature: int, threshold: float, gain: float, cover: float) -> int:
        idx = len(self.feature)
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.cover.append(float(cover))
        self.gain.append(float(gain))
        return idx

    def attach(self, parent: int, left: int, right: int) -> None:
        self.left[parent] = left
        self.right[parent] = right

    def build(self) -> Tree:
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=float),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value, dtype=float),
            cover=np.array(self.cover, dtype=float),
            gain=np.array(self.gain, dtype=float),
        )


def softmax_margins(margins: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-margin subtraction."""
    margins = np.asarray(margins, dtype=float)
    shifted = margins - margins.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def mlogloss(proba: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log probability of the true class, with clipped probabilities."""
    proba = np.asarray(proba, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if proba.ndim != 2 or labels.ndim != 1 or proba.shape[0] != labels.size:
        raise ValueError("proba must be (n, k) aligned with n labels")
    if labels.size == 0:
        raise ValueError("mlogloss of an empty sample is undefined")
    clipped = np.clip(proba, PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(np.log(clipped[np.arange(labels.size), labels])))


def leaf_weight(G: float, H: float, hp: Hyperparameters) -> float:
    """Optimal leaf value: L1 soft-threshold on G, L2-smoothed, then clipped.

    The absolute clip to max_delta_step (when positive) applies before any
    learning-rate scaling.
    """
    if H < 0:
        raise ValueError("hessian sum must be non-negative")
    magnitude = max(abs(G) - hp.alpha, 0.0)
    w = -math.copysign(magnitude, G) / (H + hp.lambda_)
    if hp.max_delta_step > 0:
        w = max(-hp.max_delta_step, min(hp.max_delta_step, w))
    return w


#: Candidate cells (columns times node rows) that `_best_split` scores at a
#: time. Scoring a 30k-row root over all its columns at once held about
#: 25 MB of temporaries, and the process's peak memory moved from run to run
#: with where the allocator placed them; blocks of columns keep that to a
#: few MB. A node of at most SPLIT_BLOCK cells (5k rows of 12 columns)
#: scores in one block.
SPLIT_BLOCK = 1 << 16


def _best_split(X, g, h, G, H, order, cols, hp):
    """Best (feature, threshold, gain) over candidate columns, or None.

    `order[j]` lists the node's rows sorted by `X[:, cols[j]]`, ties in
    ascending row order; `G` and `H` are the node's gradient and hessian
    sums. Candidates are midpoints between consecutive distinct sorted
    values (degenerate midpoints that collapse onto the lower value are
    skipped). A split qualifies when both children carry at least
    min_child_weight of hessian mass and the gamma-penalized gain is
    non-negative. Ties break toward the smallest threshold within a column
    and the earliest column across columns.
    """
    if order.shape[1] < 2:
        return None
    step = max(1, SPLIT_BLOCK // order.shape[1])
    best = None
    for start in range(0, len(cols), step):
        found = _block_split(X, g, h, G, H, order[start:start + step],
                             cols[start:start + step], hp)
        if found is not None and (best is None or found[2] > best[2]):
            best = found  # strictly greater: the earliest column keeps a tie
    return best


def _block_split(X, g, h, G, H, order, cols, hp):
    """`_best_split` over one block of columns, all scored at once."""
    rows = order.astype(np.intp)  # one index conversion serves every gather
    Xs = X[rows, cols[:, None]]
    GL = np.cumsum(g.take(rows), axis=1)[:, :-1]
    HL = np.cumsum(h.take(rows), axis=1)[:, :-1]
    GR = G - GL
    HR = H - HL
    mid = 0.5 * (Xs[:, :-1] + Xs[:, 1:])
    lam = hp.lambda_
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = G * G / (H + lam) if H + lam > 0 else math.inf
        gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent) - hp.gamma
    valid = (
        (Xs[:, 1:] > Xs[:, :-1])
        & (mid > Xs[:, :-1])
        & (HL >= hp.min_child_weight)
        & (HR >= hp.min_child_weight)
        & np.isfinite(gain)
        & (gain >= 0.0)
    )
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    pos = np.argmax(gain, axis=1)  # first max: smallest threshold
    score = gain[np.arange(len(cols)), pos]
    c = int(np.argmax(score))  # first max: earliest column
    return int(cols[c]), float(mid[c, pos[c]]), float(score[c])


def _presort_columns(X: np.ndarray) -> np.ndarray:
    """(d, n) int32 matrix: row j lists all rows stably sorted by column j."""
    order = np.empty((X.shape[1], X.shape[0]), dtype=np.int32)
    for j in range(X.shape[1]):
        order[j] = np.argsort(X[:, j], kind="stable")
    return order


def _grow_tree(X, g, h, rows, hp, cols_by_depth, presorted) -> Tree:
    """Grow one tree on `rows` (ascending) from the per-train column sort.

    A node that may split holds its rows sorted per candidate column. Its
    children filter those lists stably, so they stay sorted with ties in row
    order and no node sorts again.
    """
    builder = _TreeBuilder()
    cols = np.unique(np.concatenate(cols_by_depth))
    level_pos = [np.searchsorted(cols, level_cols) for level_cols in cols_by_depth]
    in_node = np.zeros(X.shape[0], dtype=bool)

    def sorted_rows(order, node_rows, depth):
        # only nodes that may still split need their sorted lists
        if depth >= hp.max_depth or node_rows.size < 2:
            return None
        in_node[node_rows] = True
        kept = order[in_node[order]].reshape(order.shape[0], node_rows.size)
        in_node[node_rows] = False
        return kept

    def grow(row_idx: np.ndarray, order, depth: int) -> int:
        G = float(g[row_idx].sum())
        H = float(h[row_idx].sum())
        found = None
        if order is not None:
            pos = level_pos[depth]
            found = _best_split(X, g, h, G, H, order[pos], cols[pos], hp)
        if found is None:
            return builder.add_leaf(hp.learning_rate * leaf_weight(G, H, hp), H)
        col, threshold, gain = found
        node = builder.add_internal(col, threshold, gain, H)
        mask = X[row_idx, col] < threshold
        left_rows = row_idx[mask]
        left = grow(left_rows, sorted_rows(order, left_rows, depth + 1), depth + 1)
        # built only now, so one child's lists at a time are alive per level
        right_rows = row_idx[~mask]
        right = grow(right_rows, sorted_rows(order, right_rows, depth + 1), depth + 1)
        builder.attach(node, left, right)
        return node

    grow(rows, sorted_rows(presorted[cols], rows, 0), 0)
    del grow  # the closure refers to itself; this frees it without the cycle collector
    return builder.build()


@dataclass
class Ensemble:
    """Trained forest: trees[round][class], zero base margin, plus the
    settings and feature names needed at inference."""

    hp: Hyperparameters
    num_features: int
    feature_names: tuple[str, ...]
    trees: list[list[Tree]] = field(default_factory=list)
    training_loss: list[float] = field(default_factory=list)
    best_round: int | None = None

    @property
    def num_rounds_trained(self) -> int:
        return len(self.trees)

    def class_trees(self, class_index: int) -> list[Tree]:
        return [round_trees[class_index] for round_trees in self.trees]

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = self._as_matrix(X)
        out = np.zeros((X.shape[0], self.hp.num_class))
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                out[:, k] += tree.predict_margin(X)
        return out

    def _as_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got shape {X.shape}"
            )
        return X


def predict_proba(ensemble: Ensemble, X) -> np.ndarray:
    """Per-class probabilities; a single row yields a length-num_class vector."""
    single = np.asarray(X).ndim == 1
    proba = softmax_margins(ensemble.margins(X))
    return proba[0] if single else proba


def predict_class(ensemble: Ensemble, X) -> np.ndarray | int:
    """Most probable class; ties resolve to the lowest index."""
    single = np.asarray(X).ndim == 1
    pred = np.argmax(softmax_margins(ensemble.margins(X)), axis=1)
    return int(pred[0]) if single else pred


def train(
    X: np.ndarray,
    y: np.ndarray,
    hp: Hyperparameters,
    seed: int,
    *,
    feature_names: tuple[str, ...] | None = None,
    eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    early_stopping_patience: int | None = None,
) -> Ensemble:
    """Train a softmax-objective boosted ensemble.

    Each round computes class probabilities from the accumulated margins,
    then grows one tree per class on that round's gradients/hessians. Row
    subsampling is per-tree Bernoulli; column subsets are drawn per tree and
    re-drawn per depth. With an eval_set and a patience, training stops once
    validation mlogloss has not improved for `patience` rounds and the
    ensemble is truncated to the best round; the eval margins are updated
    tree by tree, so each round walks only its own trees over the eval set.

    training_loss holds the training mlogloss before each round plus a
    final entry, so it has num_rounds + 1 values.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainingError("training matrix must be two-dimensional and non-empty")
    if y.shape != (X.shape[0],):
        raise TrainingError("labels must align with the training matrix rows")
    if not np.isfinite(X).all():
        raise TrainingError("training matrix contains non-finite values")
    if y.min() < 0 or y.max() >= hp.num_class:
        raise TrainingError(
            f"labels must lie in [0, {hp.num_class}), found [{y.min()}, {y.max()}]"
        )
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise TrainingError("feature_names must match the matrix width")

    n, d = X.shape
    k_classes = hp.num_class
    names = tuple(feature_names) if feature_names else tuple(f"f{j}" for j in range(d))
    rng = np.random.default_rng(seed)
    onehot = np.zeros((n, k_classes))
    onehot[np.arange(n), y] = 1.0

    ensemble = Ensemble(hp=hp, num_features=d, feature_names=names)
    margins = np.zeros((n, k_classes))
    presorted = _presort_columns(X)
    early_stopping = eval_set is not None and early_stopping_patience is not None
    if early_stopping:
        X_eval = ensemble._as_matrix(eval_set[0])
        eval_margins = np.zeros((X_eval.shape[0], k_classes))
    best_eval = math.inf
    best_round = 0
    rounds_since_best = 0

    for _ in range(hp.num_rounds):
        proba = softmax_margins(margins)
        ensemble.training_loss.append(mlogloss(proba, y))
        round_trees = []
        for k in range(k_classes):
            g = proba[:, k] - onehot[:, k]
            h = proba[:, k] * (1.0 - proba[:, k])
            rows = _subsample_rows(rng, n, hp.subsample)
            cols_by_depth = _sample_columns(rng, d, hp)
            tree = _grow_tree(X, g, h, rows, hp, cols_by_depth, presorted)
            margins[:, k] += tree.predict_margin(X)
            if early_stopping:
                eval_margins[:, k] += tree.predict_margin(X_eval)
            round_trees.append(tree)
        ensemble.trees.append(round_trees)

        if early_stopping:
            eval_loss = mlogloss(softmax_margins(eval_margins), eval_set[1])
            if eval_loss < best_eval:
                best_eval = eval_loss
                best_round = len(ensemble.trees)
                rounds_since_best = 0
            else:
                rounds_since_best += 1
                if rounds_since_best >= early_stopping_patience:
                    break

    if early_stopping and ensemble.trees:
        del ensemble.trees[best_round:]
        del ensemble.training_loss[best_round:]
        ensemble.best_round = best_round
        margins = ensemble.margins(X)

    ensemble.training_loss.append(mlogloss(softmax_margins(margins), y))
    return ensemble


def _subsample_rows(rng, n: int, rate: float) -> np.ndarray:
    if rate >= 1.0:
        return np.arange(n)
    rows = np.flatnonzero(rng.random(n) < rate)
    return rows if rows.size else np.arange(n)


def _sample_columns(rng, d: int, hp: Hyperparameters) -> list[np.ndarray]:
    if hp.colsample_bytree < 1.0:
        m = max(1, math.ceil(hp.colsample_bytree * d))
        tree_cols = np.sort(rng.choice(d, size=m, replace=False))
    else:
        tree_cols = np.arange(d)
    cols_by_depth = []
    for _ in range(hp.max_depth):
        if hp.colsample_bylevel < 1.0:
            m = max(1, math.ceil(hp.colsample_bylevel * tree_cols.size))
            cols_by_depth.append(np.sort(rng.choice(tree_cols, size=m, replace=False)))
        else:
            cols_by_depth.append(tree_cols)
    return cols_by_depth


def audit_ensemble(ensemble: Ensemble) -> None:
    """Walk every tree verifying the structural training constraints.

    Raises TrainingError on a violated depth bound, an under-covered child
    of a realized split, a negative penalized gain, or a leaf value beyond
    the configured clip.
    """
    hp = ensemble.hp
    for round_trees in ensemble.trees:
        for tree in round_trees:
            if tree.max_node_depth() > hp.max_depth:
                raise TrainingError("tree exceeds max_depth")
            for node in range(tree.n_nodes()):
                if tree.is_leaf(node):
                    if hp.max_delta_step > 0:
                        limit = hp.learning_rate * hp.max_delta_step
                        if abs(tree.value[node]) > limit + 1e-12:
                            raise TrainingError("leaf value exceeds max_delta_step clip")
                    continue
                if tree.gain[node] < 0:
                    raise TrainingError("realized split has negative penalized gain")
                for child in (int(tree.left[node]), int(tree.right[node])):
                    if tree.cover[child] < hp.min_child_weight - 1e-12:
                        raise TrainingError("child cover below min_child_weight")


SERIALIZATION_FORMAT = "rfclass.ensemble"
SERIALIZATION_VERSION = 1


def serialize_ensemble(ensemble: Ensemble) -> str:
    """Versioned JSON document; floats round-trip bit-exactly."""
    doc = {
        "format": SERIALIZATION_FORMAT,
        "version": SERIALIZATION_VERSION,
        "base_margin": 0.0,
        "num_features": ensemble.num_features,
        "feature_names": list(ensemble.feature_names),
        "hyperparameters": ensemble.hp.to_dict(),
        "training_loss": ensemble.training_loss,
        "best_round": ensemble.best_round,
        "trees": [[tree.to_dict() for tree in round_trees] for round_trees in ensemble.trees],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_ensemble(text: str) -> Ensemble:
    """Ensemble of a `serialize_ensemble` document. Raises ValueError for a
    document that is not one, or whose fields disagree with each other."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != SERIALIZATION_FORMAT:
        raise ValueError("not an rfclass ensemble document")
    if doc.get("version") != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported ensemble version {doc.get('version')}")
    try:
        hp = Hyperparameters.from_dict(doc["hyperparameters"])
        num_features, names = doc["num_features"], doc["feature_names"]
        if type(num_features) is not int or num_features < 1:  # type(), as True is an int
            raise ValueError(f"num_features must be a positive JSON integer, got {num_features!r}")
        if not isinstance(names, list) or len(names) != num_features \
                or not all(isinstance(name, str) for name in names):
            raise ValueError(f"feature_names must be a list of {num_features} names")
        if not isinstance(doc["trees"], list):
            raise ValueError(f"trees must be a list of rounds, got {type(doc['trees']).__name__}")
        trees = []
        for r, round_trees in enumerate(doc["trees"]):
            if not isinstance(round_trees, list):
                raise ValueError(f"round {r} must be a list of trees, got {type(round_trees).__name__}")
            if len(round_trees) != hp.num_class:
                raise ValueError(f"round {r} holds {len(round_trees)} trees, "
                                 f"expected num_class = {hp.num_class}")
            trees.append([Tree.from_dict(node, num_features) for node in round_trees])
        losses, best_round = doc["training_loss"], doc.get("best_round")
        if not isinstance(losses, list) or len(losses) != len(trees) + 1 \
                or not all(type(x) in (int, float) for x in losses):
            raise ValueError(f"training_loss must be a list of {len(trees) + 1} numbers")
        if best_round is not None and not (type(best_round) is int and 1 <= best_round <= len(trees)):
            raise ValueError(f"best_round must be null or a round in [1, {len(trees)}], "
                             f"got {best_round!r}")
        return Ensemble(hp=hp, num_features=num_features, feature_names=tuple(names),
                        trees=trees, training_loss=losses, best_round=best_round)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ensemble document: {exc!r}") from None
