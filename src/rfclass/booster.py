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
grows them on up to `min(CPUs, 10)` children, unless rows times rounds is
too little work to pay for a fork (`worker_count`). It forks its tree
workers once per call, after the workspace is built, so they share the
matrix and its sort without copying them. The caller keeps the only
margins and makes every random draw in class order. Each round it hands
`forked` one task per class, the class's draws and probabilities, then
adds the round's walks to the margins (`_add_round`), so every float
operation is the one a lone process does and the models are
bit-identical at any worker count. `forked` is the one task map of forked
workers, for tree growth, attribution, tuning folds and a run's file
writes alike, and the one place that sizes them: it deals task i to worker
i mod workers and gives the results back in task order, so callers never
see the worker count. A task's exception reaches the caller unchanged (as
a `RuntimeError` naming it if it cannot be pickled), and a worker that
dies raises the caller's own error.

`_add_round` is the one place a tree's walk is added to margins: from
zero, round by round, class k's walk to column k. Training, the
early-stopping eval set, `Ensemble.margins` and `Ensemble.staged_margins`
all sum through it, so the margins after r rounds are the same bits
whichever way they were reached. That is what makes a prefix of a longer
model exact: the first r rounds of a model trained for R are the r-round
model (each round's draws do not depend on R), `staged_margins` yields
its margins on the way to R, and the tuner scores every shorter round
count of a candidate on one training. It is also why early stopping
keeps the training loss it measured at the best round instead of walking
the kept trees again.

Every JSON document rfclass reads is checked by one pair of functions: the
config and its sections, a `--hp` file, and a saved model with its tree
nodes. `json_value` checks a value against a field type (`int`, `float`,
`str`, `list[T]`, `tuple[T, ...]`, `dict[str, T]`, `T | None`), and
`json_object` refuses unknown and missing keys, then checks each value.
`json_fields` reads a dataclass's init fields that way, and `load_ensemble`
and `Tree.from_dict` read a model through key-to-type tables (`_DOCUMENT`,
`_LEAF`, `_SPLIT`), so a model is accepted only if `serialize_ensemble`
could have written it.
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
from functools import cached_property
from multiprocessing.reduction import ForkingPickler
from types import NoneType, UnionType
from typing import ClassVar, get_args, get_origin

import numpy as np

from .errors import TrainingError
from .preprocess import N_CLASSES

PROB_CLIP = 1e-15

#: Every model's fixed settings: `to_dict` writes them, `from_dict` accepts no other.
FIXED_SETTINGS = {"objective": "multi:softmax", "eval_metric": "mlogloss",
                  "num_class": N_CLASSES}

_MAX = sys.float_info.max

#: For each JSON type of a field: how an error message says it, and the
#: test of a value. `int` takes no bool, and `float` a finite number, an
#: integer only if a float holds it exactly.
_JSON_KINDS = {
    int: ("a number written as a JSON integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float) and abs(v) <= _MAX and float(v) == v),
    str: ("a string", lambda v: type(v) is str),
    list: ("a JSON array", lambda v: isinstance(v, (list, tuple))),
    dict: ("a JSON object", lambda v: isinstance(v, dict)),
}
_JSON_KINDS[tuple] = _JSON_KINDS[list]


def json_value(value, kind, name: str):
    """`value`, checked against the field type `kind`: `int` takes a JSON
    integer, `float` a finite number, `str` a string, `list[T]` and
    `tuple[T, ...]` an array of T, `dict[str, T]` an object of T, and
    `T | None` also null. Other types, such as dataclasses and enums, pass
    unchecked: their own readers check them."""
    if type(kind) is UnionType:  # T | None
        kind = next(k for k in get_args(kind) if k is not NoneType)
        if value is None:
            return value
    origin = kind if kind in _JSON_KINDS else get_origin(kind)
    what, test = _JSON_KINDS.get(origin, (None, None))
    if test is None:
        return value
    if not test(value):
        got = type(value).__name__ if isinstance(value, (dict, list)) else repr(value)
        raise ValueError(f"{name} must be {what}, got {got}")
    if origin is not kind:  # list[T], tuple[T, ...] or dict[str, T]
        item_kind = get_args(kind)[origin is dict]
        for key, item in value.items() if origin is dict else enumerate(value):
            json_value(item, item_kind, f"{name}.{key}" if origin is dict else f"{name}[{key}]")
    return value


def json_object(data, kinds: dict, where: str, optional=()) -> dict:
    """A new dict of the JSON object `data`, whose keys are those of `kinds`:
    each key outside `optional` is present, no other key is, and each value
    passes `json_value` for its key's type."""
    json_value(data, dict, where)
    if data.keys() != kinds.keys():  # else no key is unknown or missing
        unknown = sorted(data.keys() - kinds)
        if unknown:
            raise ValueError(f"unknown key in {where}: {', '.join(map(repr, unknown))}")
        for key in kinds:
            if key not in data and key not in optional:
                raise ValueError(f"{where} needs a {key!r}")
    return {key: json_value(value, kinds[key], f"{where}.{key}") for key, value in data.items()}


def json_fields(cls, data, where: str, skip=()) -> dict:
    """The keyword arguments that the JSON object `data` gives the dataclass
    `cls`: `json_object` over its init fields outside `skip`, where a field
    with a default may be absent. The constructor checks ranges and the
    values `json_value` passes unchecked."""
    known = [f for f in fields(cls) if f.init and f.name not in skip]
    return json_object(data, {f.name: f.type for f in known}, where, optional=[
        f.name for f in known if f.default is not MISSING or f.default_factory is not MISSING])


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
        and name `lambda_` "lambda", as `to_dict` writes it, but not both."""
        json_value(data, dict, "hyperparameters")
        if "lambda" in data and "lambda_" in data:
            raise ValueError("hyperparameters name both 'lambda' and 'lambda_'")
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
        """Tree of a `to_dict` document. Each node is a leaf (`_LEAF`) or a
        split (`_SPLIT`) with exactly the keys `to_dict` writes, read by
        `json_object`, so numbers are finite and a feature is a JSON integer.
        Raises ValueError for a node that is neither, a feature outside
        [0, num_features), or a tree `train` cannot grow under `hp`: one
        deeper than max_depth, a split of negative gain, a child covering
        less than min_child_weight, or a leaf beyond the learning_rate *
        max_delta_step clip. The cover and leaf bounds allow 1e-12 for the
        trainer's summation order."""
        builder = _TreeBuilder()
        leaf_clip = hp.learning_rate * hp.max_delta_step if hp.max_delta_step > 0 else math.inf

        def walk(node, depth: int) -> int:
            node = json_object(node, _LEAF if isinstance(node, dict) and "leaf" in node
                               else _SPLIT, "tree node")
            if depth > hp.max_depth:
                raise ValueError(f"tree is deeper than max_depth = {hp.max_depth}")
            cover = node["cover"]
            if depth and cover < hp.min_child_weight - 1e-12:
                raise ValueError(f"child cover {cover!r} is below "
                                 f"min_child_weight = {hp.min_child_weight!r}")
            if "leaf" in node:
                if abs(node["leaf"]) > leaf_clip + 1e-12:
                    raise ValueError(f"leaf {node['leaf']!r} exceeds the learning_rate * "
                                     f"max_delta_step clip {leaf_clip!r}")
                return builder.add_leaf(node["leaf"], cover)
            if not 0 <= node["feature"] < num_features:
                raise ValueError(f"tree node feature {node['feature']!r} is outside "
                                 f"[0, {num_features})")
            if node["gain"] < 0:
                raise ValueError(f"split gain {node['gain']!r} is negative")
            idx = builder.add_internal(node["feature"], node["threshold"], node["gain"], cover)
            builder.attach(idx, walk(node["left"], depth + 1), walk(node["right"], depth + 1))
            return idx

        walk(root, 0)
        return builder.build()


#: The keys and JSON types of a `Tree.to_dict` leaf and split node.
_LEAF = {"leaf": float, "cover": float}
_SPLIT = {"feature": int, "threshold": float, "gain": float, "cover": float,
          "left": dict, "right": dict}


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

    def staged_margins(self, X: np.ndarray):
        """Yield the margins of X after 0, 1, ..., R rounds: one array, which
        `_add_round` updates in place between yields, so the r-th yield is
        the r-round prefix's margins bit for bit while each tree walks X once."""
        X = np.ascontiguousarray(self._as_matrix(X))  # once, not once per tree
        margins = np.zeros((X.shape[0], self.hp.num_class))
        yield margins
        for round_trees in self.trees:
            _add_round(margins, round_trees, X)
            yield margins

    def margins(self, X: np.ndarray) -> np.ndarray:
        return list(self.staged_margins(X))[-1]

    def _as_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got shape {X.shape}"
            )
        return X


def _add_round(margins: np.ndarray, round_trees: list[Tree], X: np.ndarray) -> None:
    """Add each class tree's walk over X to that class's column, in class
    order: the one margin update, so margins reached in any way are the same
    bits (see the module docstring)."""
    for k, tree in enumerate(round_trees):
        margins[:, k] += tree.predict_margin(X)


def predict_proba(ensemble: Ensemble, X) -> np.ndarray:
    """Per-class probabilities; a single row yields a length-num_class vector."""
    single = np.asarray(X).ndim == 1
    proba = softmax_margins(ensemble.margins(X))
    return proba[0] if single else proba


def predict_class(ensemble: Ensemble, X) -> np.ndarray | int:
    """Most probable class; ties resolve to the lowest index."""
    pred = np.argmax(predict_proba(ensemble, X), axis=-1)
    return pred if pred.ndim else int(pred)


#: The least work of each kind worth forking workers for, in the units
#: `worker_count` takes. A forking call starts `workers` children; at two, a
#: fork round trip (fork both, one task each, stop and join) costs 8-12 ms.
#: Each bound is where two children began to beat the calling process
#: alone, measured on a 2-CPU host (Python 3.11.7, numpy 2.4.6):
#: - `row_rounds`, rows times boosting rounds of `train`: on 11 columns at
#:   depth 4 and 10 rounds, 3000 row-rounds (120-130 ms alone) gained 4-6%,
#:   5000 (170 ms) 18-22% and 7000 (205 ms) a fifth. pipeline_tc trains
#:   3561 rows for 60 rounds.
#: - `row_leaves`, rows times ensemble leaves of `attribute`: on a 600-tree
#:   model of 7941 leaves, 8 rows (64k, 64-74 ms alone) took as long or
#:   longer and 12 rows (95k, 84 ms) 6-7% less. pipeline_tc explains 40 rows
#:   of that model.
#: - `cells`, rows times columns of the files `pipeline.Prepared.write`
#:   writes: merged.csv, train.csv, test.csv and the meta of the first rows
#:   of ingest_tca_large's merge, at the minimum of 9 calls in each of five
#:   series, took as long or longer on two workers at 56-73k cells (25-36
#:   ms alone), less in four series and 3 ms more in one at 107k (44-50 ms
#:   alone), and 8-20% less in every series from 120k on (46-65 ms alone
#:   at 120-140k). The whole 1.29M took 0.38-0.39 s against 0.57-0.62 s.
#:   pipeline_tc writes 159k cells.
FORK_AT = {"row_rounds": 5_000, "row_leaves": 100_000, "cells": 120_000}


def worker_count(n_tasks: int, **work: int) -> int:
    """Children for `forked` to deal `n_tasks` independent tasks to: one per
    CPU this process may run on, at most one per task, where 1 means the
    tasks run in the calling process. It is 1 when the call's work, given in
    the units of `FORK_AT` (`row_rounds=` for `train`, `row_leaves=` for
    `attribute`, `cells=` for `pipeline.Prepared.write`), is below the bound
    for its unit, since the fork would cost more than it saves. It is also 1
    on a platform without `sched_getaffinity` (where
    `fork` is missing or unsafe), in a process running other threads, since
    a forked child could inherit a lock one of them holds, and in a daemonic
    process, such as a tuning fold worker, which may not start children."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1 \
            or multiprocessing.current_process().daemon \
            or any(size < FORK_AT[unit] for unit, size in work.items()):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _worker_main(task, conn, parent_ends) -> None:
    """A forked child: for each list of task arguments the parent sends,
    send back `(True, results)`, or `(False, exc)` for the first `Exception`
    a task raises, until the parent sends None or goes away. Only the task
    call is guarded, so a task's own `EOFError` or `ConnectionError` is a
    reply like any other error, not the parent going away. Each reply is
    pickled whole and loaded back before a byte is written: one that does
    not pickle, or does not load (an exception whose `__init__` takes other
    arguments than its `args`), is replaced by `(False, RuntimeError)`
    naming the task's exception, or saying the results could not be sent,
    so the parent always reads a reply it can load and the pipe stays in
    step."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    for end in parent_ends:  # else they stay open here and hide the parent's exit
        end.close()
    try:
        while (chunk := conn.recv()) is not None:
            try:
                reply = True, [task(*args) for args in chunk]
            except Exception as exc:
                reply = False, exc
            try:
                message = ForkingPickler.dumps(reply)
                ForkingPickler.loads(message)  # as the parent will
            except Exception as exc:  # pickling and loading run the objects' own code
                what = "results" if reply[0] else f"{type(reply[1]).__name__}: {reply[1]}"
                message = ForkingPickler.dumps((False, RuntimeError(
                    f"a task's {what} could not be sent from its worker process ({exc!r})")))
            conn.send_bytes(message)
    except (EOFError, ConnectionError):  # the parent went away
        pass


@contextmanager
def forked(task, lost: Exception, n_tasks: int, **work: int):
    """Yield `run(tasks)`, which returns `[task(*args) for args in tasks]`.
    This is the one place rfclass starts a process: `train`'s tree workers,
    `attribute`'s row workers, the tuner's fold workers and the data file
    writers of `pipeline.Prepared.write` all come from it, and the caller
    never sees how many there are.

    `worker_count(n_tasks, **work)` sets the workers: `n_tasks` caps them,
    as workers beyond the tasks of a `run` call would sit idle, and `work`
    is the call's size in `FORK_AT`'s units. With one worker the tasks run
    in this process. Otherwise that many children are forked on entry and
    get `task`, and all it refers to, through the fork. `run` deals the tasks by index: worker w
    gets `tasks[w::workers]` as one message and sends back one reply on its
    own pipe, and its results go back at the same indices, so the caller
    sees them in task order. Each worker gets a task of every stretch of
    `workers` consecutive tasks, so tasks whose cost changes slowly along
    the list are shared evenly. This process runs no task itself. The
    children are daemonic, so they start no children of their own, and they
    ignore Ctrl-C. An `Exception` a task raises is raised here unchanged,
    the first in worker order once every worker has replied. A child that
    goes away while `run` talks to it, or before the stop message it is
    sent when the block ends, raises `lost`, as when a child is killed. The
    block's own exceptions pass unchanged, and however it exits, every
    child is terminated and joined.
    """
    workers = worker_count(n_tasks, **work)
    if workers <= 1:
        yield lambda tasks: [task(*args) for args in tasks]
        return
    context = multiprocessing.get_context("fork")
    conns, children = [], []

    def run(tasks: list) -> list:
        try:
            for w, conn in enumerate(conns):
                conn.send(tasks[w::workers])
            replies = [conn.recv() for conn in conns]
        except (EOFError, ConnectionError):
            raise lost from None
        results = [None] * len(tasks)
        for w, (done, out) in enumerate(replies):
            if not done:
                raise out
            results[w::workers] = out
        return results

    try:
        for _ in range(workers):
            parent_end, child_end = context.Pipe()
            conns.append(parent_end)
            child = context.Process(target=_worker_main, args=(task, child_end, conns),
                                    daemon=True)
            child.start()
            children.append(child)
            child_end.close()  # so a child that dies gives this end EOF
        yield run
        try:
            for conn in conns:
                conn.send(None)
        except ConnectionError:
            raise lost from None
        for child in children:
            child.join()
    finally:
        for child in children:
            child.terminate()  # a joined child is not signalled again
            child.join()
        for conn in conns:
            conn.close()


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
    round; the training and eval margins each take one `_add_round` per
    round, so each round walks only its own trees over either set. A
    round's ten trees are ten `forked` tasks, which grow on
    `worker_count(10, row_rounds=rows * rounds)` children, or in this
    process if that is 1, and the model does not depend on how many.

    training_loss holds the training mlogloss before each round plus a
    final entry, so it has num_rounds + 1 values. Early stopping keeps the
    first best_round + 1 of them: entry r is the loss of the r-round
    margins, the same bits as the truncated model's, so no tree is walked
    again.
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
    ws = _Workspace(X)
    margins = np.zeros((n, k_classes))
    proba = softmax_margins(margins)
    if early_stopping:
        X_eval = np.ascontiguousarray(ensemble._as_matrix(eval_set[0]))
        eval_margins = np.zeros((X_eval.shape[0], k_classes))
    best_eval, best_round = math.inf, 0

    def grow_tree(k: int, p: np.ndarray, mask, cols) -> Tree:
        """Class k's tree from its probabilities p, row mask and columns."""
        return _grow_tree(ws, p - (y == k), p * (1.0 - p), _mask_rows(mask, n), hp, cols)

    with forked(grow_tree, TrainingError("a tree worker process exited mid-round"), k_classes,
                row_rounds=n * hp.num_rounds) as run:
        for _ in range(hp.num_rounds):
            ensemble.training_loss.append(mlogloss(proba, y))
            round_trees = run([(k, proba[:, k], _subsample_mask(rng, n, hp.subsample),
                                _sample_columns(rng, n, d, hp)) for k in range(k_classes)])
            _add_round(margins, round_trees, X)
            softmax_margins(margins, out=proba)
            ensemble.trees.append(round_trees)

            if early_stopping:
                _add_round(eval_margins, round_trees, X_eval)
                eval_loss = mlogloss(softmax_margins(eval_margins), eval_set[1])
                if eval_loss < best_eval:
                    best_eval, best_round = eval_loss, len(ensemble.trees)
                elif len(ensemble.trees) - best_round >= early_stopping_patience:
                    break

    ensemble.training_loss.append(mlogloss(proba, y))
    if early_stopping and ensemble.trees:
        del ensemble.trees[best_round:]
        del ensemble.training_loss[best_round + 1:]
        ensemble.best_round = best_round
    return ensemble


def _subsample_mask(rng, n: int, rate: float) -> np.ndarray | None:
    """One tree's Bernoulli row draw as a mask of n bytes, or None, for
    every row, at rate 1, which draws nothing."""
    return rng.random(n) < rate if rate < 1.0 else None


def _mask_rows(mask: np.ndarray | None, n: int) -> np.ndarray:
    """The rows a `_subsample_mask` draw keeps, ascending; every row if it keeps none."""
    rows = np.flatnonzero(mask) if mask is not None else np.arange(n)
    return rows if rows.size else np.arange(n)


def _sample_columns(rng, n: int, d: int, hp: Hyperparameters) -> list[np.ndarray]:
    """One tree's columns for each depth at which a node may split: below
    max_depth, and below n - 1, as a node at depth k holds at most n - k of
    the n rows and a split needs two."""
    if hp.colsample_bytree < 1.0:
        m = max(1, math.ceil(hp.colsample_bytree * d))
        tree_cols = np.sort(rng.choice(d, size=m, replace=False))
    else:
        tree_cols = np.arange(d)
    cols_by_depth = []
    for _ in range(max(1, min(hp.max_depth, n - 1))):
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


#: The keys and JSON types of a `serialize_ensemble` document.
_DOCUMENT = {"format": str, "version": int, "base_margin": float, "num_features": int,
             "feature_names": list[str], "hyperparameters": Hyperparameters,
             "training_loss": list[float], "best_round": int | None,
             "trees": list[list[Tree]]}


def load_ensemble(text: str) -> Ensemble:
    """Ensemble of a `serialize_ensemble` document. Raises ValueError for a
    document that `serialize_ensemble` could not have written: one with
    another format or version, a key `_DOCUMENT` does not list or a value of
    another JSON type, a base margin other than 0, hyperparameters other
    than a full `Hyperparameters.to_dict`, a tree `Tree.from_dict` refuses,
    or fields that disagree with each other."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != SERIALIZATION_FORMAT:
        raise ValueError("not an rfclass ensemble document")
    if json_value(doc.get("version"), int, "model.version") != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported ensemble version {doc['version']}")
    doc = json_object(doc, _DOCUMENT, "model")
    if doc["base_margin"] != 0:
        raise ValueError(f"base_margin must be 0.0, got {doc['base_margin']!r}")
    hp = Hyperparameters.from_dict(doc["hyperparameters"])
    missing = sorted(hp.to_dict().keys() - doc["hyperparameters"].keys())
    if missing:
        raise ValueError(f"model.hyperparameters needs a {missing[0]!r}")
    num_features, names = doc["num_features"], doc["feature_names"]
    if num_features < 1:
        raise ValueError(f"num_features must be at least 1, got {num_features}")
    if len(names) != num_features:
        raise ValueError(f"feature_names must be a list of {num_features} names")
    trees = []
    for r, round_trees in enumerate(doc["trees"]):
        if len(round_trees) != hp.num_class:
            raise ValueError(f"round {r} holds {len(round_trees)} trees, "
                             f"expected num_class = {hp.num_class}")
        trees.append([Tree.from_dict(node, num_features, hp) for node in round_trees])
    losses, best_round = doc["training_loss"], doc["best_round"]
    if len(losses) != len(trees) + 1:
        raise ValueError(f"training_loss must be a list of {len(trees) + 1} numbers")
    if best_round is not None and not 1 <= best_round <= len(trees):
        raise ValueError(f"best_round must be null or a round in [1, {len(trees)}], "
                         f"got {best_round!r}")
    return Ensemble(hp=hp, num_features=num_features, feature_names=tuple(names),
                    trees=trees, training_loss=losses, best_round=best_round)
