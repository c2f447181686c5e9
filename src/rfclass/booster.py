"""Multiclass softmax gradient-boosted trees with exact greedy split search.

One regression tree per class per round. Splits maximize the second-order
gain with L2 smoothing and a minimum-gain penalty; leaf values apply L1
soft-thresholding and an optional absolute clip before learning-rate
scaling. Trees record per-node hessian covers for attribution, and loading
a saved model checks them against the training constraints.

Split search works on a pre-sorted column block, as in XGBoost's exact
greedy algorithm: `train` stably sorts every feature column once, in
O(n*d log n), and every node that may split keeps its rows in that order
per column. A split compresses the parent's lists into the children without
re-sorting, so each tree level costs O(n*d) gathers and cumulative sums.
Candidates, sums and tie-breaking equal those of sorting each node afresh,
so the trained models are bit-identical to that simpler search.

The search moves few bytes. Each `train` call allocates one workspace, the
transposed matrix, the column sort and buffers the size of the largest block
of candidates scored at once, and every node works in views of it, so no
node allocates temporaries of its own size. A tree's gradients and hessians
are packed into one complex array, so one gather and one cumulative sum give
both prefix sums, with the bits of two float sums.

A round's class trees read only that round's probabilities, so `train`
grows them on up to `min(CPUs, 10)` processes, unless rows times rounds is
too little work to pay for a fork (`worker_count`). It forks its tree
workers once per call, after the workspace is built, so they share the
matrix and its sort without copying them. The caller makes every random
draw in class order, and worker `w` grows the classes k = w (mod workers).
Each process keeps its own margins: it adds its own trees' walks as it
grows them, and the others' once the round's trees are in. So no memory is
shared and the caller allocates what a lone process would. Every float
operation is the one a lone process does, so the models are bit-identical
at any worker count. `forked` is the one lifecycle of forked workers, for
tree growth, attribution and tuning folds alike: a worker's exception
reaches the caller unchanged, and a worker that dies raises the caller's
own error.
"""

import json
import math
import multiprocessing
import os
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from types import NoneType, UnionType
from typing import ClassVar, get_args

import numpy as np

from .errors import TrainingError
from .preprocess import N_CLASSES

PROB_CLIP = 1e-15

#: Every model's fixed settings: `to_dict` writes them, `from_dict` accepts no other.
FIXED_SETTINGS = {"objective": "multi:softmax", "eval_metric": "mlogloss",
                  "num_class": N_CLASSES}


def json_number(value, kind, name: str):
    """`value`, checked against the field type `kind`: an `int` takes a JSON
    integer (not a bool), a `float` a finite number, and a type that admits
    None also null. Values of other types pass unchecked."""
    kinds = get_args(kind) if isinstance(kind, UnionType) else (kind,)
    if value is None and NoneType in kinds:
        return value
    if int in kinds and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{name} must be a number written as a JSON integer, got {value!r}")
    if float in kinds and (isinstance(value, bool) or not isinstance(value, (int, float))
                           or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def json_fields(cls, data, where: str, skip=()) -> dict:
    """The keyword arguments that the JSON object `data` gives the dataclass `cls`.

    Every key names an init field of `cls` outside `skip`, every field
    without a default is present, and each value passes `json_number` for its
    field's type. An absent key keeps its field's default; the constructor
    checks ranges and the values `json_number` passes unchecked.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls) if f.init and f.name not in skip}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown key in {where}: {', '.join(map(repr, unknown))}")
    for name, f in known.items():
        if name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where} needs a {name!r}")
    return {name: json_number(value, known[name].type, f"{where}.{name}")
            for name, value in data.items()}


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
    num_rounds: int = 200
    #: One class per tenth of RF, the labels `preprocess.class_labels` gives.
    num_class: ClassVar[int] = N_CLASSES

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
        if self.num_rounds < 0:
            raise ValueError("num_rounds must be non-negative")

    def to_dict(self) -> dict:
        out = {f.name.rstrip("_"): getattr(self, f.name) for f in fields(self)}  # "lambda"
        return {**out, **FIXED_SETTINGS}

    @classmethod
    def from_dict(cls, data: dict) -> "Hyperparameters":
        """The settings of a JSON object, which may also list `FIXED_SETTINGS`
        and name `lambda_` "lambda", as `to_dict` writes it."""
        if not isinstance(data, dict):
            raise ValueError(f"hyperparameters must be a JSON object, got {type(data).__name__}")
        data = {("lambda_" if key == "lambda" else key): value for key, value in data.items()}
        for key, fixed in FIXED_SETTINGS.items():
            value = data.pop(key, fixed)
            if type(value) is not type(fixed) or value != fixed:  # 10.0 == 10 too
                raise ValueError(f"{key} must be {fixed!r}, got {value!r}")
        return cls(**json_fields(cls, data, "hyperparameters"))


@dataclass
class Tree:
    """One regression tree stored as parallel node arrays (preorder).

    Internal nodes carry (feature, threshold, gain); `value < threshold`
    routes left. Leaves carry the margin increment in `value`, have
    feature == -1 and a NaN threshold, and are their own left and right
    children. `cover` is the training hessian mass at each node.
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

    def levels(self, roots: np.ndarray) -> list[np.ndarray]:
        """The nodes under `roots` one level at a time, from `roots` down to
        the deepest leaves; each level lists the left children of the level
        above, then its right children."""
        levels = [roots]
        while True:
            inner = levels[-1][self.feature[levels[-1]] >= 0]
            if not inner.size:
                return levels
            levels.append(np.concatenate([self.left[inner], self.right[inner]]))

    @cached_property
    def depth(self) -> int:
        """Edges on the longest root-to-leaf path."""
        return len(self.levels(np.zeros(1, np.intp))) - 1

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """The value of the leaf each row of X reaches. Every row takes
        `depth` steps with no test for leaves: a row at a leaf fails
        `value < NaN` and stays at the leaf's right child, itself. A NaN cell
        fails the test too, so it routes right."""
        X = np.ascontiguousarray(X)
        n, d = X.shape
        cells, row_start = X.ravel(), np.arange(0, n * d, d)
        feature = np.maximum(self.feature, 0)
        node = np.zeros(n, dtype=np.intp)
        for _ in range(self.depth):
            value = cells.take(row_start + feature.take(node))
            node = np.where(value < self.threshold.take(node),
                            self.left.take(node), self.right.take(node))
        return self.value.take(node)

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
    def from_dict(cls, root: dict, num_features: int, hp: Hyperparameters) -> "Tree":
        """Tree of a `to_dict` document. Raises ValueError for a malformed node,
        a non-finite number, a feature outside [0, num_features), or a tree
        `train` cannot grow under `hp`: one deeper than max_depth, a split of
        negative gain, a child covering less than min_child_weight, or a leaf
        beyond the learning_rate * max_delta_step clip. The cover and leaf
        bounds allow 1e-12 for the trainer's summation order."""
        builder = _TreeBuilder()
        leaf_clip = hp.learning_rate * hp.max_delta_step if hp.max_delta_step > 0 else math.inf

        def field_of(node, key: str):
            value = node.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"tree node needs a finite numeric {key!r}, got {value!r}")
            return value

        def walk(node, depth: int) -> int:
            if not isinstance(node, dict):
                raise ValueError(f"tree node must be an object, got {type(node).__name__}")
            if depth > hp.max_depth:
                raise ValueError(f"tree is deeper than max_depth = {hp.max_depth}")
            cover = field_of(node, "cover")
            if depth and cover < hp.min_child_weight - 1e-12:
                raise ValueError(f"child cover {cover!r} is below "
                                 f"min_child_weight = {hp.min_child_weight!r}")
            if "leaf" in node:
                value = field_of(node, "leaf")
                if abs(value) > leaf_clip + 1e-12:
                    raise ValueError(f"leaf {value!r} exceeds the learning_rate * "
                                     f"max_delta_step clip {leaf_clip!r}")
                return builder.add_leaf(value, cover)
            feature = field_of(node, "feature")
            if not isinstance(feature, int) or not 0 <= feature < num_features:
                raise ValueError(f"tree node feature {feature!r} is outside [0, {num_features})")
            gain = field_of(node, "gain")
            if gain < 0:
                raise ValueError(f"split gain {gain!r} is negative")
            idx = builder.add_internal(feature, field_of(node, "threshold"), gain, cover)
            builder.attach(idx, walk(node.get("left"), depth + 1),
                           walk(node.get("right"), depth + 1))
            return idx

        walk(root, 0)
        return builder.build()


class _TreeBuilder:
    """A tree's nodes as rows of seven cells, (feature, threshold, left,
    right, value, cover, gain), kept end to end in one list and numbered in
    the order they are added."""

    def __init__(self):
        self.cells: list[float] = []

    def add_leaf(self, value: float, cover: float) -> int:
        idx = len(self.cells) // 7
        self.cells += (-1, math.nan, idx, idx, value, cover, math.nan)
        return idx

    def add_internal(self, feature: int, threshold: float, gain: float, cover: float) -> int:
        self.cells += (feature, threshold, -1, -1, 0.0, cover, gain)
        return len(self.cells) // 7 - 1

    def attach(self, parent: int, left: int, right: int) -> None:
        self.cells[7 * parent + 2:7 * parent + 4] = left, right

    def build(self) -> Tree:
        # node numbers and feature indices are exact in float64
        feature, threshold, left, right, value, cover, gain = np.array(
            self.cells, dtype=float).reshape(-1, 7).T.copy()
        return Tree(feature.astype(np.int64), threshold, left.astype(np.int64),
                    right.astype(np.int64), value, cover, gain)


def softmax_margins(margins: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-margin subtraction, written into `out` if given."""
    margins = np.asarray(margins, dtype=float)
    exp = np.subtract(margins, margins.max(axis=-1, keepdims=True), out=out)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


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

#: Indexed by a validity mask: fmin with it turns invalid gains to -inf and
#: keeps valid ones.
_INVALID_OR_KEEP = np.array([-np.inf, np.inf])


class _Workspace:
    """The scratch memory of one `train` call.

    `XT` is the training matrix transposed, so each column is contiguous,
    and `presorted[j]` lists all rows stably sorted by column j. `gh` packs
    the current tree's gradients in its real part and hessians in its
    imaginary part. `words` and `floats` hold as many cells as the largest
    block `_best_split` scores, and each block works in views of them:
    `words` holds two 8-byte words a cell, read as flat indices and sorted
    values, then as packed prefix sums, then as floats.
    """

    def __init__(self, X: np.ndarray):
        n, d = X.shape
        self.XT = np.ascontiguousarray(X.T)
        self.presorted = np.argsort(self.XT, axis=1, kind="stable")
        self.gh = np.empty(n, dtype=complex)
        self.in_node = np.zeros(n, dtype=bool)
        cells = min(max(SPLIT_BLOCK, n), n * d)
        self.words = np.empty(2 * cells)
        self.floats = np.empty((3, cells))
        self.bools = np.empty((2, cells), dtype=bool)


def _best_split(ws: _Workspace, G, H, order, cols, hp):
    """Best (feature, threshold, gain) over candidate columns, or None.

    `order[j]` lists the node's rows sorted by column `cols[j]`, ties in
    ascending row order; `G` and `H` are the node's gradient and hessian
    sums, and `ws.gh` holds the tree's packed gradients. Candidates are
    midpoints between consecutive distinct sorted values (degenerate
    midpoints that collapse onto the lower value are skipped). A split
    qualifies when both children carry at least min_child_weight of hessian
    mass and the gamma-penalized gain is non-negative. Ties break toward the
    smallest threshold within a column and the earliest column across
    columns.
    """
    if order.shape[1] < 2:
        return None
    step = max(1, SPLIT_BLOCK // order.shape[1])
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(cols), step):
            found = _block_split(ws, G, H, order[start:start + step],
                                 cols[start:start + step], hp)
            if found is not None and (best is None or found[2] > best[2]):
                best = found  # strictly greater: the earliest column keeps a tie
    return best


def _block_split(ws: _Workspace, G, H, order, cols, hp):
    """`_best_split` over one block of columns, scored at once in views of
    the workspace, with the arithmetic of

        gain = 0.5 * (GL*GL/(HL+lam) + GR*GR/(HR+lam) - parent) - gamma

    One gather and one cumulative sum of the packed gradients give both
    prefix sums: complex addition adds the parts separately, so GL and HL
    keep the bits of two float sums. Every index comes from the presort, so
    `take` runs with mode="clip": the default mode copies `out` through a
    temporary.
    """
    c, m = order.shape
    cells = c * (m - 1)
    GL, HL, HR = (buf[:cells].reshape(c, m - 1) for buf in ws.floats)
    valid, test = (buf[:cells].reshape(c, m - 1) for buf in ws.bools)

    # the sorted values and their flat indices into XT fill `words` first
    index = ws.words.view(np.intp)[:c * m].reshape(c, m)
    np.add(order, (cols * ws.XT.shape[1])[:, None], out=index)
    Xs = ws.XT.take(index, out=ws.words[c * m:2 * c * m].reshape(c, m), mode="clip")
    lo, hi = Xs[:, :-1], Xs[:, 1:]
    np.greater(hi, lo, out=valid)
    mid = np.add(lo, hi, out=GL)
    mid *= 0.5
    valid &= np.greater(mid, lo, out=test)

    # then the packed prefix sums
    sums = ws.gh.take(order, out=ws.words.view(complex)[:c * m].reshape(c, m), mode="clip")
    np.cumsum(sums, axis=1, out=sums)
    np.copyto(GL, sums.real[:, :-1])
    np.copyto(HL, sums.imag[:, :-1])
    valid &= np.greater_equal(HL, hp.min_child_weight, out=test)
    np.subtract(H, HL, out=HR)
    valid &= np.greater_equal(HR, hp.min_child_weight, out=test)

    lam = hp.lambda_
    parent = G * G / (H + lam) if H + lam > 0 else math.inf
    right = np.subtract(G, GL, out=ws.words[:cells].reshape(c, m - 1))  # the sums are copied
    right *= right
    HR += lam
    right /= HR
    gain = np.multiply(GL, GL, out=GL)
    gain /= np.add(HL, lam, out=HR)
    gain += right
    gain -= parent
    gain *= 0.5
    gain -= hp.gamma
    valid &= np.isfinite(gain, out=test)
    valid &= np.greater_equal(gain, 0.0, out=test)
    # -inf where invalid; a valid gain passes fmin(gain, inf) unchanged
    np.fmin(gain, _INVALID_OR_KEEP.take(valid.view(np.uint8), out=HL, mode="clip"), out=gain)
    pos = gain.argmax(axis=1)  # first max: smallest threshold
    score = gain[np.arange(c), pos]
    j = int(score.argmax())  # first max: earliest column
    if score[j] == -np.inf:
        return None
    col, p = int(cols[j]), int(pos[j])
    below, above = ws.XT[col, order[j, p]], ws.XT[col, order[j, p + 1]]
    return col, float(0.5 * (below + above)), float(score[j])


def _grow_tree(ws: _Workspace, g, h, rows, hp, cols_by_depth) -> Tree:
    """Grow one tree on `rows` (ascending) from the per-train column sort.

    A node that may split holds its rows sorted per candidate column. A
    child compresses those lists to its own rows, which keeps them sorted
    with ties in row order, so no node sorts again. A child whose hessian
    mass H has H - min_child_weight < min_child_weight gets no lists: a
    split needs HL >= min_child_weight, so its HR = H - HL rounds to at most
    H - min_child_weight, and no split can qualify.
    """
    builder = _TreeBuilder()
    ws.gh.real = g
    ws.gh.imag = h
    cols = np.unique(np.concatenate(cols_by_depth))
    # a level that scores every tree column reads the lists without a copy
    level_pos = [slice(None) if level_cols.size == cols.size else np.searchsorted(cols, level_cols)
                 for level_cols in cols_by_depth]
    mcw = hp.min_child_weight

    def sorted_rows(order, node_rows, H, depth):
        # only nodes that may still split need their sorted lists
        if depth >= hp.max_depth or node_rows.size < 2 or H - mcw < mcw:
            return None
        if node_rows.size == order.shape[1]:
            return order
        # np.compress in blocks of columns, written straight into the
        # child's lists: np.compress itself would copy through a temporary
        # as large as its result
        kept = np.empty((order.shape[0], node_rows.size), dtype=np.intp)
        step = max(1, SPLIT_BLOCK // order.shape[1])
        ws.in_node[node_rows] = True
        for start in range(0, order.shape[0], step):
            block = order[start:start + step]
            inside = ws.in_node.take(block, out=ws.bools[0, :block.size].reshape(block.shape),
                                     mode="clip")
            block.take(np.flatnonzero(inside), out=kept[start:start + step].reshape(-1),
                       mode="clip")
        ws.in_node[node_rows] = False
        return kept

    def grow(row_idx: np.ndarray, G: float, H: float, order, depth: int) -> int:
        found = None
        if order is not None:
            pos = level_pos[depth]
            found = _best_split(ws, G, H, order[pos], cols[pos], hp)
        if found is None:
            return builder.add_leaf(hp.learning_rate * leaf_weight(G, H, hp), H)
        col, threshold, gain = found
        node = builder.add_internal(col, threshold, gain, H)
        goes_left = ws.XT[col].take(row_idx) < threshold
        children = []
        for side in (goes_left, ~goes_left):
            # built only now, so one child's lists at a time are alive per level
            child_rows = row_idx[side]
            G_child = float(g[child_rows].sum())
            H_child = float(h[child_rows].sum())
            children.append(grow(child_rows, G_child, H_child,
                                 sorted_rows(order, child_rows, H_child, depth + 1), depth + 1))
        builder.attach(node, *children)
        return node

    G, H = float(g[rows].sum()), float(h[rows].sum())
    presorted = ws.presorted if cols.size == ws.presorted.shape[0] else ws.presorted[cols]
    grow(rows, G, H, sorted_rows(presorted, rows, H, 0), 0)
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
        X = np.ascontiguousarray(self._as_matrix(X))  # once, not once per tree
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


#: The least work of each kind worth forking workers for, in the units
#: `worker_count` takes. A fork round trip (fork, one message each way, join)
#: costs 3.8-6.1 ms, and each bound is where two processes began to beat
#: one, measured on a 2-CPU host (Python 3.11.7, numpy 2.4.6):
#: - `row_rounds`, rows times boosting rounds of `train`: on 11 columns at
#:   depth 4, 3000 row-rounds (95-150 ms alone) gained nothing and 7000
#:   (200 ms) a fifth to a third. pipeline_tc trains 3561 rows for 60 rounds.
#: - `row_leaves`, rows times ensemble leaves of `attribute`: on a 600-tree
#:   model of 7941 leaves, 6 rows (48k, 40 ms alone) took longer and 12 rows
#:   (95k, 81 ms) a quarter less. pipeline_tc explains 40 rows of that model.
FORK_AT = {"row_rounds": 5_000, "row_leaves": 100_000}


def worker_count(n_tasks: int, **work: int) -> int:
    """Processes to share `n_tasks` independent tasks: one per CPU this
    process may run on, at most one per task. It is 1 when the call's work,
    given in the units of `FORK_AT` (`row_rounds=` for `train`,
    `row_leaves=` for `attribute`), is below the bound for its unit, since
    the fork would cost more than it saves. It is also 1 on a platform
    without `sched_getaffinity` (where `fork` is missing or unsafe), in a
    process running other threads, since a forked child could inherit a lock
    one of them holds, and in a daemonic process, such as a tuning fold
    worker, which may not start children."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1 \
            or multiprocessing.current_process().daemon \
            or any(size < FORK_AT[unit] for unit, size in work.items()):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _worker_main(work, conn, errors, parent_ends) -> None:
    """A forked worker: run `work(conn)` until it returns or the parent
    goes away, and send an exception it raises down `errors`."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    for end in parent_ends:  # else they stay open here and hide the parent's exit
        end.close()
    try:
        work(conn)
    except (EOFError, ConnectionError):  # the parent went away
        pass
    except Exception as exc:  # the parent raises it once this child's end closes
        errors.send(exc)


@contextmanager
def forked(works: list, lost: Exception):
    """Fork one child for each of `works` and yield the parent's ends of
    their pipes, in order; child i runs `works[i](conn)` on the other end.
    This is the one place rfclass starts a process: `train`'s tree workers,
    `attribute`'s row workers and the tuner's fold workers all come from it.

    The children are daemonic, so they start no children of their own, and
    they ignore Ctrl-C. Each closes the parent's ends it inherited, so a
    parent that goes away gives it EOF. An `Exception` a child's work raises
    goes down one error pipe the children share, and the child exits. A
    child's end that closes mid-exchange (EOF or a broken pipe in the block)
    raises the exception a child sent, unchanged, or `lost` if none was
    sent, as when a child is killed; an EOF or connection error of the
    block's own, such as a caller's callback raises while every child's
    end is open, passes unchanged. When the block ends the children are
    joined, so the block must have let each `work` return; however it
    exits, every child is terminated and joined.
    """
    context = multiprocessing.get_context("fork")
    errors, error_end = context.Pipe(duplex=False)
    conns, children = [], []
    try:
        for work in works:
            parent_end, child_end = context.Pipe()
            conns.append(parent_end)
            child = context.Process(target=_worker_main,
                                    args=(work, child_end, error_end, conns), daemon=True)
            child.start()
            children.append(child)
            child_end.close()  # so a child that dies gives this end EOF
        try:
            yield conns
        except (EOFError, ConnectionError):
            if not any(conn.poll() for conn in conns):  # every child's end is open
                raise
            raise (errors.recv() if errors.poll() else lost) from None
        for child in children:
            child.join()
    finally:
        for child in children:
            child.terminate()  # a joined child is not signalled again
            child.join()
        for conn in [*conns, errors, error_end]:
            conn.close()


class _BoostState:
    """One process's margins over the training rows and the round's
    probabilities, and the growth of one class's tree from them.

    A forked tree worker keeps a copy of its own, so no memory is shared:
    each process adds the walk of every tree to its margins, its own trees'
    as it grows them and the others' at the start of the next round, with
    the float operations of a single process.
    """

    def __init__(self, ws: _Workspace, X, y, hp: Hyperparameters):
        self.ws, self.X, self.y, self.hp = ws, X, y, hp
        self.margins = np.zeros((X.shape[0], hp.num_class))
        self.proba = np.empty_like(self.margins)
        self.begin_round([])

    def begin_round(self, others: list[tuple[int, Tree]]) -> None:
        """Add the walks of the (class, tree) pairs other processes grew in
        the last round, then compute the probabilities from the margins."""
        for k, tree in others:
            self.margins[:, k] += tree.predict_margin(self.X)
        softmax_margins(self.margins, out=self.proba)

    def grow(self, k: int, mask: np.ndarray | None, cols_by_depth: list[np.ndarray]) -> Tree:
        p = self.proba[:, k]
        g = p - (self.y == k)
        h = p * (1.0 - p)
        tree = _grow_tree(self.ws, g, h, _mask_rows(mask, self.X.shape[0]), self.hp,
                          cols_by_depth)
        self.margins[:, k] += tree.predict_margin(self.X)
        return tree


def _tree_worker(conn, state: _BoostState) -> None:
    """A forked tree worker: grow a tree for each draw of a round and send
    them back, then begin the next round with the (class, tree) pairs the
    other processes grew, until the parent sends None."""
    while (draws := conn.recv()) is not None:
        conn.send([state.grow(*draw) for draw in draws])
        state.begin_round(conn.recv())


@contextmanager
def _tree_workers(state: _BoostState, workers: int):
    """Yield `grow_round(draws)`, which grows one tree for each (class,
    mask, columns) draw of a round, returns them in draw order and begins
    the next round in `state`.

    `workers - 1` children are `forked` here, each with its own copy of
    `state`: child `w` grows the draws at positions w (mod workers), this
    process the rest. Once a round's trees are in, each child is sent the
    trees it did not grow and begins the next round while this process
    does. With one worker every tree grows in this process. The children
    are stopped by a message when the block ends.
    """
    works = [partial(_tree_worker, state=state)] * (workers - 1)
    with forked(works, TrainingError("a tree worker process exited mid-round")) as conns:
        def grow_round(draws: list) -> list[Tree]:
            trees = [None] * len(draws)
            for w, conn in enumerate(conns, 1):
                conn.send(draws[w::workers])
            trees[::workers] = [state.grow(*draw) for draw in draws[::workers]]
            for w, conn in enumerate(conns, 1):
                trees[w::workers] = conn.recv()
            for w, conn in enumerate(conns, 1):
                conn.send([(k, tree) for k, tree in enumerate(trees) if k % workers != w])
            state.begin_round([(k, tree) for k, tree in enumerate(trees) if k % workers])
            return trees

        yield grow_round
        for conn in conns:
            conn.send(None)


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
    re-drawn per depth. With an eval_set and a patience (one without the
    other is refused), training stops once validation mlogloss has not
    improved for `patience` rounds and the ensemble is truncated to the best
    round; the eval margins are updated tree by tree, so each round walks
    only its own trees over the eval set. A round's trees grow on
    `worker_count(10, row_rounds=rows * rounds)` processes, and the model
    does not depend on how many.

    training_loss holds the training mlogloss before each round plus a
    final entry, so it has num_rounds + 1 values.
    """
    X = np.ascontiguousarray(X, dtype=float)  # every tree walks it
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
    early_stopping = eval_set is not None
    if early_stopping != (early_stopping_patience is not None):
        raise TrainingError("early stopping needs both an eval_set and an "
                            "early_stopping_patience, not one alone")
    if early_stopping and early_stopping_patience < 1:
        raise TrainingError(f"early_stopping_patience must be at least 1, "
                            f"got {early_stopping_patience}")

    n, d = X.shape
    k_classes = hp.num_class
    names = tuple(feature_names) if feature_names else tuple(f"f{j}" for j in range(d))
    rng = np.random.default_rng(seed)

    ensemble = Ensemble(hp=hp, num_features=d, feature_names=names)
    state = _BoostState(_Workspace(X), X, y, hp)
    if early_stopping:
        X_eval = np.ascontiguousarray(ensemble._as_matrix(eval_set[0]))
        eval_margins = np.zeros((X_eval.shape[0], k_classes))
    best_eval = math.inf
    best_round = 0
    rounds_since_best = 0

    workers = worker_count(k_classes, row_rounds=n * hp.num_rounds)
    with _tree_workers(state, workers) as grow_round:
        for _ in range(hp.num_rounds):
            ensemble.training_loss.append(mlogloss(state.proba, y))
            draws = [(k, _subsample_mask(rng, n, hp.subsample), _sample_columns(rng, d, hp))
                     for k in range(k_classes)]
            round_trees = grow_round(draws)
            ensemble.trees.append(round_trees)

            if early_stopping:
                for k, tree in enumerate(round_trees):
                    eval_margins[:, k] += tree.predict_margin(X_eval)
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
        softmax_margins(ensemble.margins(X), out=state.proba)

    ensemble.training_loss.append(mlogloss(state.proba, y))
    return ensemble


def _subsample_mask(rng, n: int, rate: float) -> np.ndarray | None:
    """One tree's Bernoulli row draw as a mask of n bytes, or None, for
    every row, at rate 1, which draws nothing."""
    return rng.random(n) < rate if rate < 1.0 else None


def _mask_rows(mask: np.ndarray | None, n: int) -> np.ndarray:
    """The rows a `_subsample_mask` draw keeps, ascending; every row if it keeps none."""
    rows = np.flatnonzero(mask) if mask is not None else np.arange(n)
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
            trees.append([Tree.from_dict(node, num_features, hp) for node in round_trees])
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
