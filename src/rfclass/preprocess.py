"""Data preparation: range filters, missingness pruning, class binning,
RF-ordered windowed modal imputation, Gaussian rank standardization with
min-max normalization, and stratified splitting / fold generation.

Every operation is a pure function of its inputs; transform parameters are
fitted on training data only and applied unchanged elsewhere. All of them
work on the columnar Database: masks and column transforms over its value
matrix (NaN marks a missing cell), and imputation as a window scan over
each RF-sorted column array.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfinv

from .dataset import Database
from .errors import FitError, PipelineError

N_CLASSES = 10

_SQRT2 = math.sqrt(2.0)


def class_labels(db: Database) -> np.ndarray:
    """The class index of every record's recovery factor: tenth-wide bins,
    top class open above.

    Bins are left-closed: class c covers [c/10, (c+1)/10) for c < 9 and
    [0.9, inf) for class 9.
    """
    missing = np.isnan(db.rf)
    if missing.any():
        raise ValueError(f"records without RF cannot be binned: {db.keys[missing][:3].tolist()}")
    if (db.rf < 0).any():
        raise ValueError(f"recovery factor must be non-negative, got {db.rf[db.rf < 0][0]}")
    return np.minimum(np.floor(db.rf * 10.0), N_CLASSES - 1).astype(np.int64)


def filter_ranges(db: Database) -> Database:
    """Drop records with any present value outside its schema bounds.

    Missing values never trigger removal; bounds are inclusive.
    """
    lower = np.array([f.lower for f in db.schema.features])
    upper = np.array([f.upper for f in db.schema.features])
    outside = (db.values < lower) | (db.values > upper)  # False on NaN
    return db.take(~outside.any(axis=1))


@dataclass(frozen=True)
class PruneSpec:
    """The missingness limits of `prune_missing`, each in (0, 1)."""

    feature_threshold: float = 0.70
    record_threshold: float = 0.55

    def __post_init__(self):
        if not 0 < self.feature_threshold < 1 or not 0 < self.record_threshold < 1:
            raise ValueError("prune thresholds must lie in (0, 1)")


def prune_missing(db: Database, prune: PruneSpec = PruneSpec()) -> Database:
    """Drop features, then records, that are mostly missing.

    A feature goes when its missing fraction strictly exceeds
    `prune.feature_threshold`; afterwards a record goes when its missing
    fraction over the surviving features strictly exceeds
    `prune.record_threshold`.
    """
    if not len(db):
        return db
    fractions = np.isnan(db.values).mean(axis=0)
    keep_idx = np.flatnonzero(fractions <= prune.feature_threshold).tolist()
    if not keep_idx:
        raise PipelineError("every feature exceeds the missingness threshold")
    db = db.select_features(keep_idx)
    missing = np.count_nonzero(np.isnan(db.values), axis=1) / len(keep_idx)
    return db.take(missing <= prune.record_threshold)


def _window_modes(values: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Each window's most frequent exact value, the smallest on ties, or its
    median when all of its values are distinct.

    `values` are in column order and `window` holds each one's window id;
    the ids ascend from 0 and none is left out. Each value is replaced by
    its rank among the distinct values, and one sort of window-major keys
    then puts each window's equal values in runs, smallest first. -0.0 and
    0.0 share a rank, so a zero mode takes the sign of its window's first
    zero, as a count in order of appearance keeps the first key it meets.
    """
    distinct, rank = np.unique(values, return_inverse=True)
    keys = np.sort(window * distinct.size + rank)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    runs = np.flatnonzero(fresh)
    lengths = np.diff(runs, append=keys.size)
    in_window, rank = np.divmod(keys, distinct.size)
    ordered = distinct[rank]
    run_window = in_window[runs]
    top = np.maximum.reduceat(lengths, np.flatnonzero(np.diff(run_window, prepend=-1)))
    tops = np.flatnonzero(lengths == top[run_window])
    modes = ordered[runs[tops[np.diff(run_window[tops], prepend=-1) > 0]]]  # the first top run
    zeros = np.flatnonzero(values == 0)
    first = zeros[np.diff(window[zeros], prepend=-1) > 0]  # each window's first zero
    at = window[first]
    modes[at] = np.where(modes[at] == 0, values[first], modes[at])
    # a window of distinct values lies sorted in its place: take its middle
    counts = np.bincount(window)
    unique = np.flatnonzero(top == 1)
    middle = (np.cumsum(counts) - (counts + 1) // 2)[unique]  # the upper middle one
    modes[unique] = ordered[middle] + 0.0  # `np.median` sums from 0.0, so -0.0 gives 0.0
    even = counts[unique] % 2 == 0  # and it takes the mean of the middle two
    modes[unique[even]] = (ordered[middle[even] - 1] + ordered[middle[even]]) / 2
    return modes


def _windows(missing: np.ndarray) -> list[tuple[int, int, int]]:
    """The (start, scan position, end) of every window `_impute_column`
    fills, in scan order.

    The bounds depend only on where the holes are. Every entry before the
    scan position is present (original or filled), so a window's missing
    count is the number of holes from the scan position to its end, found
    by bisecting the hole positions. A run of complete windows is jumped
    over in one step, and a window grows forward straight to the least end
    its count allows (`start + 10 * count`, which holes met on the way only
    push further), so the work is per window, not per hole.
    """
    n = missing.size
    holes = np.flatnonzero(missing).tolist()
    bounds = []
    h, p, prev_start = 0, 0, None  # holes[h] is the first hole at or after the scan position p
    while h < len(holes):
        skip = (holes[h] - p) // 10  # complete windows ahead
        if skip:
            p += 10 * skip
            prev_start = p - 10
        start, end = p, p + 10
        if end > n:
            start = p if prev_start is None else prev_start
            end = n
        count = bisect_left(holes, end, h) - h
        while 10 * count > end - start and end < n:
            end = min(n, start + 10 * count)
            count = bisect_left(holes, end, h) - h
        if 10 * count > end - start:  # at the column end: grow backward over present entries
            start = max(0, end - 10 * count)
        bounds.append((start, p, end))
        h, p, prev_start = h + count, end, start
    return bounds


def _impute_column(column: np.ndarray) -> np.ndarray:
    """Fill one RF-ordered column (NaN = missing) by windowed modes.

    Scans disjoint windows of 10 entries. A complete window is skipped. A
    window whose missing share exceeds 10% grows forward one entry at a
    time until the share drops to 10% or the column end; at the end it grows
    backward instead. A window spanning the whole column is imputed
    regardless of its share. A tail shorter than 10 entries merges into the
    previous window. Missing entries take the window's modal present value.

    `_windows` finds every window first. A window that starts at its scan
    position reads only original values, so the modes of all of them come
    from one `_window_modes` call. Only the last window can reach back over
    earlier fills, as a merged tail or by growing backward, since both
    happen at the column end; it is filled after the others, from them.
    """
    out = column.copy()
    missing = np.isnan(column)
    bounds = _windows(missing)
    last = bounds.pop() if bounds and bounds[-1][0] < bounds[-1][1] else None
    if bounds:
        starts, _, ends = np.array(bounds).T
        lengths = ends - starts
        window = np.repeat(np.arange(lengths.size), lengths)
        index = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                     lengths)
        hole = missing[index]
        modes = _window_modes(column[index[~hole]], window[~hole])
        out[index[hole]] = modes[window[hole]]
    if last is not None:
        part = out[last[0]:last[2]]  # a view: filling it fills `out`
        hole = np.isnan(part)
        part[hole] = _window_modes(part[~hole], np.zeros(np.count_nonzero(~hole), dtype=int))
    return out


def impute(db: Database) -> Database:
    """Complete every feature column via windowed modal imputation.

    Records are ordered by ascending RF (stable on ties) for the window
    scan; the returned database keeps the original record order. Present
    values are never altered. Each column is filled by `_impute_column`
    with array operations per window, never a Python step per hole, and
    the filled columns are put back in record order at once. Intended for
    training/testing partitions only; independent databases are
    complete-case filtered instead.
    """
    if not len(db):
        return db
    if np.isnan(db.rf).any():
        raise ValueError("impute requires every record to carry an RF value")
    empty = np.flatnonzero(np.isnan(db.values).all(axis=0))
    if empty.size:
        raise PipelineError(
            f"feature {db.schema.names[empty[0]]!r} is entirely missing; prune it first"
        )
    order = np.argsort(db.rf, kind="stable")
    values = np.empty_like(db.values)
    values[order] = np.stack([_impute_column(column) for column in db.values[order].T], axis=1)
    return replace(db, values=values)


def complete_cases(db: Database) -> Database:
    """Drop every record with a missing feature value or missing RF."""
    return db.take(~np.isnan(db.values).any(axis=1) & ~np.isnan(db.rf))


@dataclass(frozen=True)
class FeatureTransform:
    """Fitted per-feature Gaussian-rank + min-max parameters."""

    values: np.ndarray  # sorted unique training values
    u: np.ndarray       # tie-averaged rank quantiles, one per unique value
    z_min: float
    z_max: float

    def z_of(self, x) -> np.ndarray:
        """Gaussian-rank output prior to min-max normalization."""
        u = np.interp(np.asarray(x, dtype=float), self.values, self.u)
        return _SQRT2 * erfinv(2.0 * u - 1.0)

    def normalized(self, x) -> np.ndarray:
        z = self.z_of(x)
        return np.clip((z - self.z_min) / (self.z_max - self.z_min), 0.0, 1.0)


@dataclass(frozen=True)
class TransformParams:
    feature_names: tuple[str, ...]
    transforms: tuple[FeatureTransform, ...]
    fitted_on: str

    def to_dict(self) -> dict:
        return {
            "fitted_on": self.fitted_on,
            "features": {
                name: {
                    "values": t.values.tolist(),
                    "u": t.u.tolist(),
                    "z_min": t.z_min,
                    "z_max": t.z_max,
                }
                for name, t in zip(self.feature_names, self.transforms)
            },
        }


def _rank_quantiles(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique values and their tie-averaged rank quantiles u=(r+0.5)/N."""
    n = column.size
    ordered = np.sort(column)
    uniques, starts, counts = np.unique(ordered, return_index=True, return_counts=True)
    # tie-averaged zero-based rank of a run starting at s with c members
    ranks = starts + (counts - 1) / 2.0
    u = (ranks + 0.5) / n
    return uniques, u


def fit_transforms(train: Database) -> TransformParams:
    """Fit Gaussian-rank + min-max parameters per feature on training data only."""
    if not train.is_complete():
        raise ValueError("fit_transforms requires a fully imputed training database")
    matrix = train.values
    transforms = []
    for j, name in enumerate(train.schema.names):
        uniques, u = _rank_quantiles(matrix[:, j])
        if uniques.size < 2:
            raise FitError(f"feature {name!r} is constant; cannot fit a rank transform")
        z = _SQRT2 * erfinv(2.0 * u - 1.0)
        transforms.append(
            FeatureTransform(values=uniques, u=u, z_min=float(z[0]), z_max=float(z[-1]))
        )
    fitted_on = f"{train.tag.value}:train:n={len(train)}"
    return TransformParams(
        feature_names=train.schema.names,
        transforms=tuple(transforms),
        fitted_on=fitted_on,
    )


def apply_transforms(db: Database, params: TransformParams) -> Database:
    """Map every value into [0, 1] using training parameters.

    A value's rank position is interpolated within the stored training
    values, pushed through the inverse error function, then min-max scaled
    with the training z-range; out-of-range values clip to [0, 1].
    """
    if db.schema.names != params.feature_names:
        raise ValueError(
            f"schema mismatch: database has {db.schema.names}, params fitted on {params.feature_names}"
        )
    if not db.is_complete():
        raise ValueError("apply_transforms requires complete data (impute or filter first)")
    values = np.empty_like(db.values)
    for j, t in enumerate(params.transforms):
        values[:, j] = t.normalized(db.values[:, j])
    return replace(db, values=values)


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.1
    k_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must lie in (0, 1)")
        if self.k_folds < 2:
            raise ValueError("k_folds must be at least 2")


def stratified_split(db: Database, spec: SplitSpec) -> tuple[Database, Database]:
    """Deterministic per-class split; round(fraction * class size) records test.

    Classes with at least two members contribute at least one test record
    and always keep one training record. Rounding is half-up.
    """
    if not len(db):
        raise ValueError("cannot split an empty database")
    labels = class_labels(db)
    rng = np.random.default_rng(spec.seed)
    is_test = np.zeros(len(db), dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        n_test = int(math.floor(spec.test_fraction * members.size + 0.5))
        if members.size >= 2:
            n_test = max(1, n_test)
        n_test = min(n_test, members.size - 1)
        is_test[rng.permutation(members)[:n_test]] = True
    return db.take(~is_test), db.take(is_test)


def stratified_kfold(train: Database, spec: SplitSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """k disjoint, covering (fit, validate) index partitions, stratified by
    class, each in ascending order.

    Each class's members, shuffled, are dealt round-robin to the folds, the
    deal going on where the previous class's ended. So per-class counts
    across folds differ by at most one, and with k at most the record count
    no fold is empty.
    """
    k = spec.k_folds
    if k > len(train):
        raise ValueError(f"k_folds={k} exceeds the {len(train)} training records")
    labels = class_labels(train)
    rng = np.random.default_rng(spec.seed)
    fold_of = np.empty(len(train), dtype=np.int64)
    offset = 0
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        fold_of[members] = (offset + np.arange(members.size)) % k
        offset = (offset + members.size) % k
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(k)]


def to_matrix(db: Database) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and class-label vector for model training/evaluation."""
    if not db.is_complete():
        raise ValueError("database must be complete before matrix conversion")
    return db.values, class_labels(db)
