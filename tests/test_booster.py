import ast
import json
import math
import multiprocessing
import os
import signal
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfclass import booster
from rfclass.booster import (Hyperparameters, _best_split,
                             leaf_weight, load_ensemble,
                             mlogloss, predict_class, predict_proba,
                             serialize_ensemble, softmax_margins, train)
from rfclass.errors import TrainingError
from rfclass.explain import attribute
from rfclass.pipeline import PipelineConfig, ingest, preprocess
from rfclass.preprocess import to_matrix

from conftest import cpus, interrupting_wait


def hp_with(**kwargs) -> Hyperparameters:
    defaults = dict(max_depth=3, min_child_weight=0.0, learning_rate=0.1,
                    subsample=1.0, colsample_bytree=1.0, colsample_bylevel=1.0,
                    alpha=0.0, lambda_=1.0, gamma=0.0, max_delta_step=0.0,
                    num_rounds=10)
    defaults.update(kwargs)
    return Hyperparameters(**defaults)


# ---------------------------------------------------------------- oracles

def find_best_split(g: np.ndarray, h: np.ndarray, column: np.ndarray, hp: Hyperparameters):
    """Best (threshold, gain) for one column, or None when no split qualifies.

    Runs the trainer's split kernel on a single column; the returned gain is
    the gamma-penalized split gain (the quantity the trainer maximizes).
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    column = np.asarray(column, dtype=float)
    if not g.size == h.size == column.size:
        raise ValueError("g, h and column must be aligned")
    ws = booster._Workspace(column.reshape(-1, 1))
    ws.gh.real = g
    ws.gh.imag = h
    found = _best_split(ws, float(g.sum()), float(h.sum()), ws.presorted, np.array([0]), hp)
    if found is None:
        return None
    _, threshold, gain = found
    return threshold, gain


def split_oracle(g, h, column, hp):
    """Exhaustive scan over all midpoint thresholds with direct summation."""
    order = np.argsort(column, kind="stable")
    xs = column[order]
    best = None
    for i in range(len(xs) - 1):
        if xs[i + 1] <= xs[i]:
            continue
        threshold = (xs[i] + xs[i + 1]) / 2
        if threshold <= xs[i]:
            continue
        left = column < threshold
        GL, HL = g[left].sum(), h[left].sum()
        GR, HR = g[~left].sum(), h[~left].sum()
        if HL < hp.min_child_weight or HR < hp.min_child_weight:
            continue
        G, H = GL + GR, HL + HR
        gain = 0.5 * (GL**2 / (HL + hp.lambda_) + GR**2 / (HR + hp.lambda_)
                      - G**2 / (H + hp.lambda_)) - hp.gamma
        if gain < 0:
            continue
        if best is None or gain > best[1]:
            best = (threshold, gain)
    return best


def oracle_best_split(X, g, h, rows, cols, hp):
    """Split search that re-sorts the node's rows on every candidate column."""
    n = rows.size
    if n < 2 or len(cols) == 0:
        return None
    Xn = X[np.ix_(rows, cols)]
    gn = g[rows]
    hn = h[rows]
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    GL = np.cumsum(gn[order], axis=0)[:-1]
    HL = np.cumsum(hn[order], axis=0)[:-1]
    G = float(gn.sum())
    H = float(hn.sum())
    GR = G - GL
    HR = H - HL
    mid = 0.5 * (Xs[:-1] + Xs[1:])
    lam = hp.lambda_
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = G * G / (H + lam) if H + lam > 0 else math.inf
        gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent) - hp.gamma
    valid = (
        (Xs[1:] > Xs[:-1])
        & (mid > Xs[:-1])
        & (HL >= hp.min_child_weight)
        & (HR >= hp.min_child_weight)
        & np.isfinite(gain)
        & (gain >= 0.0)
    )
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    best = None
    for c in range(len(cols)):
        pos = int(np.argmax(gain[:, c]))  # first max: smallest threshold
        score = gain[pos, c]
        if score == -np.inf:
            continue
        if best is None or score > best[2]:
            best = (int(cols[c]), float(mid[pos, c]), float(score))
    return best


def oracle_grow_tree(X, g, h, rows, hp, cols_by_depth):
    """Recursive grower over `oracle_best_split`: every node sorts afresh."""
    builder = booster._TreeBuilder()

    def grow(row_idx, depth):
        G = float(g[row_idx].sum())
        H = float(h[row_idx].sum())
        found = None
        if depth < hp.max_depth and row_idx.size >= 2:
            found = oracle_best_split(X, g, h, row_idx, cols_by_depth[depth], hp)
        if found is None:
            return builder.add_leaf(hp.learning_rate * leaf_weight(G, H, hp), H)
        col, threshold, gain = found
        node = builder.add_internal(col, threshold, gain, H)
        mask = X[row_idx, col] < threshold
        left = grow(row_idx[mask], depth + 1)
        right = grow(row_idx[~mask], depth + 1)
        builder.attach(node, left, right)
        return node

    grow(rows, 0)
    return builder.build()


def oracle_train(X, y, hp, seed):
    """`train` with the pre-sorted grower swapped for the per-node-sort one;
    row and column draws are untouched, so the models must match bit for bit."""
    def grow_tree(workspace, g, h, rows, hp, cols_by_depth):
        return oracle_grow_tree(workspace.XT.T, g, h, rows, hp, cols_by_depth)

    with mock.patch.object(booster, "_grow_tree", grow_tree):
        return train(X, y, hp, seed)


def random_split_instance(rng, dyadic):
    n = 20
    if dyadic:
        column = rng.integers(0, 6, size=n) / 4.0
        g = rng.integers(-8, 9, size=n) / 8.0
        h = rng.integers(1, 9, size=n) / 8.0
    else:
        column = rng.random(n)
        g = rng.normal(size=n)
        h = rng.random(n) + 0.01
    hp = hp_with(
        min_child_weight=float(rng.choice([0.0, 0.5, 1.5])),
        lambda_=float(rng.choice([0.0, 0.5, 1.0])),
        gamma=float(rng.choice([0.0, 0.1])),
    )
    return g, h, column, hp


# ---------------------------------------------------------------- leaf weight

class TestLeafWeight:
    def test_plain_ratio(self):
        assert leaf_weight(2.0, 3.0, hp_with(lambda_=1.0)) == -0.5

    def test_alpha_dead_zone(self):
        hp = hp_with(alpha=2.5)
        assert leaf_weight(2.0, 3.0, hp) == 0.0
        assert leaf_weight(-2.5, 3.0, hp) == 0.0

    def test_clip(self):
        hp = hp_with(lambda_=0.0, max_delta_step=0.2)
        assert leaf_weight(10.0, 1.0, hp) == -0.2
        assert leaf_weight(-10.0, 1.0, hp) == 0.2

    def test_soft_threshold_then_ratio(self):
        hp = hp_with(alpha=1.0, lambda_=1.0)
        assert leaf_weight(3.0, 1.0, hp) == -1.0

    def test_negative_hessian_rejected(self):
        with pytest.raises(ValueError):
            leaf_weight(1.0, -0.5, hp_with())

    def test_closed_form_random(self, rng):
        for _ in range(200):
            G = float(rng.normal() * 5)
            H = float(rng.random() * 5)
            hp = hp_with(alpha=float(rng.random()), lambda_=float(rng.random()),
                         max_delta_step=float(rng.choice([0.0, 0.3])))
            w = leaf_weight(G, H, hp)
            expected = -math.copysign(max(abs(G) - hp.alpha, 0.0), G) / (H + hp.lambda_)
            if hp.max_delta_step > 0:
                expected = max(-hp.max_delta_step, min(hp.max_delta_step, expected))
            assert abs(w - expected) < 1e-12


# ---------------------------------------------------------------- splits

class TestFindBestSplit:
    def test_closed_form_gain(self):
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.array([1.0, 1.0, 1.0, 1.0])
        column = np.array([0.0, 0.0, 1.0, 1.0])
        threshold, gain = find_best_split(g, h, column, hp_with(lambda_=1.0))
        assert threshold == 0.5
        assert abs(gain - 4.0 / 3.0) < 1e-12

    def test_constant_column(self):
        g = np.array([-1.0, 1.0])
        h = np.ones(2)
        assert find_best_split(g, h, np.array([2.0, 2.0]), hp_with()) is None

    def test_min_child_weight_binding(self):
        g = np.array([-1.0, 1.0])
        h = np.array([0.4, 0.4])
        hp = hp_with(min_child_weight=0.5)
        assert find_best_split(g, h, np.array([0.0, 1.0]), hp) is None

    def test_gamma_binding(self):
        g = np.array([-0.01, 0.01])
        h = np.ones(2)
        hp = hp_with(gamma=1.0, lambda_=1.0)
        assert find_best_split(g, h, np.array([0.0, 1.0]), hp) is None

    def test_tie_takes_smallest_threshold(self):
        # symmetric pattern: splitting after position 1 or 3 gives equal gain
        g = np.array([-1.0, 1.0, 1.0, -1.0])
        h = np.ones(4)
        column = np.array([0.0, 1.0, 2.0, 3.0])
        threshold, _ = find_best_split(g, h, column, hp_with(lambda_=1.0))
        assert threshold == 0.5

    def test_matches_enumeration_oracle(self, rng):
        for trial in range(120):
            g, h, column, hp = random_split_instance(rng, dyadic=trial % 2 == 0)
            got = find_best_split(g, h, column, hp)
            expected = split_oracle(g, h, column, hp)
            if expected is None:
                assert got is None, f"trial {trial}"
            else:
                assert got is not None, f"trial {trial}"
                assert got[0] == expected[0], f"trial {trial}"
                assert abs(got[1] - expected[1]) < 1e-12, f"trial {trial}"

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            find_best_split(np.ones(3), np.ones(2), np.ones(3), hp_with())


# ---------------------------------------------------------------- loss

class TestMlogloss:
    def test_uniform_ten_classes(self):
        proba = np.full((7, 10), 0.1)
        labels = np.arange(7) % 10
        assert abs(mlogloss(proba, labels) - math.log(10)) < 1e-12

    def test_perfect_one_hot(self):
        proba = np.eye(10)
        labels = np.arange(10)
        assert mlogloss(proba, labels) <= 1e-14

    def test_half_probability(self):
        proba = np.array([[0.5, 0.5] + [0.0] * 8])
        assert abs(mlogloss(proba, np.array([0])) - math.log(2)) < 1e-12

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            mlogloss(np.ones((3, 10)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            mlogloss(np.ones((0, 10)), np.zeros(0, dtype=int))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        proba = softmax_margins(rng.normal(size=(40, 10)) * 5)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_shift_invariance(self, c):
        margins = np.array([[0.1, -2.0, 3.0, 0.5]])
        a = np.argmax(softmax_margins(margins))
        b = np.argmax(softmax_margins(margins + c))
        assert a == b

    def test_extreme_margins_stable(self):
        proba = softmax_margins(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(proba).all()


# ---------------------------------------------------------------- training

def two_clusters(n_per=200, seed=0):
    rng = np.random.default_rng(seed)
    a = np.clip(rng.normal(0.25, 0.05, size=(n_per, 4)), 0, 1)
    b = np.clip(rng.normal(0.75, 0.05, size=(n_per, 4)), 0, 1)
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def tc_matrix(rows: int):
    """The first `rows` rows of a prepared synthetic TC training matrix."""
    config = PipelineConfig.from_dict({"combo": "TC", "seed": 1, "synth": {"n": rows * 3 // 5}})
    X, y = to_matrix(preprocess(ingest(config), config).train)
    assert X.shape[0] >= rows and X.shape[1] == 11
    return X[:rows], y[:rows]


def grown_alike(X, g, h, rows, hp, cols_by_depth):
    """The tree `_grow_tree` grows, after checking it against the per-node-sort grower."""
    tree = booster._grow_tree(booster._Workspace(X), g, h, rows, hp, cols_by_depth)
    expected = oracle_grow_tree(X, g, h, rows, hp, cols_by_depth)
    assert json.dumps(tree.to_dict()) == json.dumps(expected.to_dict())
    return tree


class TestTrain:
    def test_constant_labels_predicted_after_one_round(self, rng):
        X = rng.random((30, 3))
        y = np.full(30, 3)
        model = train(X, y, hp_with(num_rounds=1), seed=0)
        assert (predict_class(model, X) == 3).all()

    def test_levels_past_the_rows_draw_no_columns(self, rng):
        # no node below depth n - 2 holds two rows, so a deeper max_depth
        # grows the same trees from the same draws
        n = 12
        X = np.round(rng.normal(size=(n, 5)), 1)
        y = rng.integers(0, 10, n)
        models = [train(X, y, hp_with(max_depth=depth, colsample_bylevel=0.5, num_rounds=1),
                        seed=4) for depth in (n - 1, 10**5)]
        capped, deep = ([tree.to_dict() for tree in model.trees[0]] for model in models)
        assert deep == capped

    def test_zero_rounds_uniform(self, rng):
        X = rng.random((5, 3))
        model = train(X, rng.integers(0, 10, 5), hp_with(num_rounds=0), seed=0)
        proba = predict_proba(model, X)
        np.testing.assert_allclose(proba, 0.1, atol=1e-15)

    def test_two_clusters_with_tc_preset(self):
        X, y = two_clusters()
        # the settings the paper reports for TC, at 50 rounds
        hp = Hyperparameters(max_depth=2, min_child_weight=6, learning_rate=0.1, subsample=0.9,
                             colsample_bytree=0.9, colsample_bylevel=0.9, alpha=0.2,
                             lambda_=0.01, gamma=0.01, max_delta_step=0.1, num_rounds=50)
        model = train(X, y, hp, seed=1)
        acc = float(np.mean(predict_class(model, X) == y))
        assert acc >= 0.95

    def test_two_clusters_reference_comparison(self):
        sklearn = pytest.importorskip("sklearn.ensemble")
        X, y = two_clusters()
        reference = sklearn.GradientBoostingClassifier(
            max_depth=2, learning_rate=0.1, n_estimators=50, random_state=0
        ).fit(X, y)
        ref_acc = reference.score(X, y)
        # the settings the paper reports for TC, at 50 rounds
        hp = Hyperparameters(max_depth=2, min_child_weight=6, learning_rate=0.1, subsample=0.9,
                             colsample_bytree=0.9, colsample_bylevel=0.9, alpha=0.2,
                             lambda_=0.01, gamma=0.01, max_delta_step=0.1, num_rounds=50)
        model = train(X, y, hp, seed=1)
        acc = float(np.mean(predict_class(model, X) == y))
        assert ref_acc >= 0.95
        assert abs(acc - ref_acc) <= 0.05

    def test_monotone_training_loss(self, rng):
        X = rng.random((50, 5))
        y = rng.integers(0, 10, 50)
        hp = hp_with(subsample=1.0, colsample_bytree=1.0, colsample_bylevel=1.0,
                     gamma=0.0, num_rounds=40, max_delta_step=0.1)
        model = train(X, y, hp, seed=2)
        losses = np.array(model.training_loss)
        assert losses.size == 41
        assert (np.diff(losses) <= 1e-12).all()

    def test_deterministic_serialization(self, rng):
        X = rng.random((60, 4))
        y = rng.integers(0, 10, 60)
        hp = hp_with(subsample=0.8, colsample_bytree=0.75, colsample_bylevel=0.75,
                     num_rounds=5)
        a = serialize_ensemble(train(X, y, hp, seed=9))
        b = serialize_ensemble(train(X, y, hp, seed=9))
        assert a == b

    def test_different_seeds_differ(self, rng):
        X = rng.random((60, 4))
        y = rng.integers(0, 10, 60)
        hp = hp_with(subsample=0.7, num_rounds=3)
        a = serialize_ensemble(train(X, y, hp, seed=1))
        b = serialize_ensemble(train(X, y, hp, seed=2))
        assert a != b

    def test_label_out_of_range(self, rng):
        X = rng.random((10, 3))
        with pytest.raises(TrainingError):
            train(X, np.full(10, 10), hp_with(), seed=0)

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            train(np.zeros((0, 3)), np.zeros(0, dtype=int), hp_with(), seed=0)

    def test_non_finite_rejected(self):
        X = np.array([[0.1, np.nan], [0.2, 0.3]])
        with pytest.raises(TrainingError):
            train(X, np.array([0, 1]), hp_with(), seed=0)

    def test_structural_audit_passes(self, rng):
        X = rng.random((80, 5))
        y = rng.integers(0, 10, 80)
        hp = hp_with(min_child_weight=0.3, gamma=0.05, max_delta_step=0.2,
                     subsample=0.9, num_rounds=6)
        model = train(X, y, hp, seed=3)
        load_ensemble(serialize_ensemble(model))  # checks every tree against hp

    def test_collinearity_duplicate_column(self, rng):
        X = rng.random((70, 4))
        y = rng.integers(0, 5, 70)
        hp = hp_with(subsample=1.0, num_rounds=5)
        base = train(X, y, hp, seed=4)
        dup = train(np.hstack([X, X[:, [0]]]), y, hp, seed=4)
        np.testing.assert_array_equal(
            predict_class(base, X), predict_class(dup, np.hstack([X, X[:, [0]]]))
        )

    @pytest.mark.parametrize("block", [1, 250, 400])
    def test_column_blocks_do_not_change_the_model(self, block):
        # block 1 scores one column at a time; 250 and 400 split the root's
        # five columns into blocks of two and four, and smaller nodes into
        # fewer blocks; heavy ties and a duplicated column test the
        # tie-breaking across blocks
        data = np.random.default_rng(5)
        X = np.round(data.normal(size=(120, 4)), 1)
        X = np.hstack([X, X[:, [0]]])
        y = data.integers(0, 3, 120)
        hp = hp_with(max_depth=4, num_rounds=3, subsample=0.8)
        whole = serialize_ensemble(train(X, y, hp, seed=6))
        with mock.patch.object(booster, "SPLIT_BLOCK", block):
            assert serialize_ensemble(train(X, y, hp, seed=6)) == whole

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 5),
           decimals=st.sampled_from([1, 2]), max_depth=st.integers(1, 5),
           subsample=st.sampled_from([1.0, 0.6]),
           colsample_bytree=st.sampled_from([1.0, 0.5]),
           colsample_bylevel=st.sampled_from([1.0, 0.5]),
           min_child_weight=st.sampled_from([0.0, 0.5, 2.0]),
           labels=st.sampled_from([2, 3, 10]), num_rounds=st.integers(1, 3))
    @example(seed=7, n=60, d=5, decimals=1, max_depth=5, subsample=0.6,
             colsample_bytree=0.5, colsample_bylevel=0.5, min_child_weight=2.0,
             labels=3, num_rounds=3)
    def test_bit_identical_to_per_node_sort(self, seed, n, d, decimals, max_depth, subsample,
                                            colsample_bytree, colsample_bylevel,
                                            min_child_weight, labels, num_rounds):
        # rounding to 1-2 decimals gives heavy ties (and -0.0 next to 0.0)
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), decimals)
        y = data.integers(0, labels, n)
        hp = hp_with(max_depth=max_depth, subsample=subsample,
                     colsample_bytree=colsample_bytree, colsample_bylevel=colsample_bylevel,
                     min_child_weight=min_child_weight, num_rounds=num_rounds)
        got = serialize_ensemble(train(X, y, hp, seed))
        assert got == serialize_ensemble(oracle_train(X, y, hp, seed))

    def test_bit_identical_to_per_node_sort_at_benchmark_scale(self):
        # with blocks of 4000 cells the root's ~1800 rows span six column
        # blocks, and every node works in views of the workspace's buffers
        # at a shape of its own
        X, y = tc_matrix(2000)
        hp = Hyperparameters(max_depth=4, min_child_weight=2.0, learning_rate=0.1,
                             subsample=0.9, alpha=0.2, lambda_=0.03, gamma=0.01,
                             max_delta_step=0.2, num_rounds=3)
        with mock.patch.object(booster, "SPLIT_BLOCK", 2 * len(X)):
            got = serialize_ensemble(train(X, y, hp, seed=11))
        assert got == serialize_ensemble(oracle_train(X, y, hp, seed=11))

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_child_at_twice_min_child_weight(self, ulps):
        # the root splits feature 0 into rows 0-3 and rows 4-7. Rows 0-3 carry
        # hessians 1, 1, 1 and 1 + delta, so that child's H is 4 moved by
        # `ulps` units in the last place: 2 * min_child_weight or a neighbour.
        # Its one useful split puts HL = 2 on the left, which leaves
        # HR = H - 2 >= 2 only when H >= 4; below that the child skips its
        # sorted lists and must still grow the oracle's leaf
        delta = {-1: -2.0**-51, 0: 0.0, 1: 2.0**-50}[ulps]
        X = np.array([[0.0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [1, 3]])
        g = np.array([-0.1, -0.1, 0.1, 0.1, 3, 3, 3, 3])
        h = np.array([1, 1, 1, 1 + delta, 1, 1, 1, 1])
        assert h[:4].sum() == np.nextafter(4.0, 4.0 + ulps)
        hp = hp_with(max_depth=2, min_child_weight=2.0, lambda_=1.0)
        tree = grown_alike(X, g, h, np.arange(8), hp, [np.arange(2)] * 2).to_dict()
        assert tree["feature"] == 0
        assert ("feature" in tree["left"]) == (ulps >= 0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 3),
           max_depth=st.integers(1, 4), min_child_weight=st.sampled_from([0.0, 0.5, 2.0]),
           spread=st.integers(0, 3), subsample=st.sampled_from([1.0, 0.7]))
    @example(seed=3, n=24, d=2, max_depth=4, min_child_weight=2.0, spread=1, subsample=1.0)
    def test_grower_matches_per_node_sort_on_drawn_hessians(self, seed, n, d, max_depth,
                                                            min_child_weight, spread, subsample):
        # softmax hessians stay below 1/4; drawn ones near 1.0 (within
        # `spread` units in the last place) put many nodes' H next to
        # 2 * min_child_weight, where the grower skips a child's sorted lists
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), 1)
        g = np.round(data.normal(size=n), 2)
        h = 1.0 + data.integers(-spread, spread + 1, size=n) * 2.0**-52
        rows = booster._mask_rows(booster._subsample_mask(data, n, subsample), n)
        hp = hp_with(max_depth=max_depth, min_child_weight=min_child_weight, lambda_=0.5)
        grown_alike(X, g, h, rows, hp, [np.arange(d)] * max_depth)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_training_memory_is_bounded_by_the_workspace(self, n_cpus):
        # the ingest_tca_large shape: a split search or child filter that
        # allocates per-node (d, n) temporaries again would pass this bound;
        # with tree workers, the parent holds no more than alone
        n, d = 30_000, 12
        data = np.random.default_rng(8)
        X = np.round(data.normal(size=(n, d)), 2)
        y = data.integers(0, 10, n)
        cells = min(max(booster.SPLIT_BLOCK, n), n * d)
        presort = 2 * 8 * n * d  # the sorted columns and the transposed matrix
        workspace = 42 * cells + 17 * n  # words, floats and bools; gh and in_node
        lists = 2 * 8 * n * d  # a node's sorted lists and its child's
        margins = 2 * 80 * n + 2 * 8 * n  # margins and probabilities; g and h
        tracemalloc.start()
        try:
            with cpus(n_cpus):
                train(X, y, hp_with(max_depth=2, num_rounds=1, subsample=0.9), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < presort + workspace + lists + margins + 2**20

    def test_early_stopping_truncates(self, rng):
        # pure-noise labels: the model overfits and validation loss turns up
        X = rng.random((80, 4))
        y = rng.integers(0, 2, 80)
        X_val = rng.random((40, 4))
        y_val = rng.integers(0, 2, 40)
        hp = hp_with(num_rounds=200, learning_rate=0.3)
        model = train(X, y, hp, seed=5, eval_set=(X_val, y_val),
                      early_stopping_patience=5)
        assert model.best_round is not None
        assert model.num_rounds_trained == model.best_round
        assert model.num_rounds_trained < 200
        # the stop follows the patience rule on each prefix's validation loss,
        # scored through the ensemble's own margins
        full = train(X, y, hp, seed=5)
        best, best_round, since = math.inf, 0, 0
        for r in range(1, 201):
            prefix = booster.Ensemble(hp=hp, num_features=4, feature_names=full.feature_names,
                                      trees=full.trees[:r])
            loss = mlogloss(predict_proba(prefix, X_val), y_val)
            if loss < best:
                best, best_round, since = loss, r, 0
            else:
                since += 1
                if since >= 5:
                    break
        assert model.best_round == best_round
        truncated = booster.Ensemble(hp=hp, num_features=4, feature_names=full.feature_names,
                                     trees=full.trees[:best_round])
        assert np.array_equal(model.margins(X_val), truncated.margins(X_val))
        # the loss kept for the best round is the truncated model's, bit for bit
        assert len(model.training_loss) == model.best_round + 1
        assert model.training_loss[-1] == mlogloss(predict_proba(truncated, X), y)

    @pytest.mark.parametrize("kwargs, message", [
        ({"eval_set": "eval"}, "not one alone"),
        ({"early_stopping_patience": 3}, "not one alone"),
        ({"eval_set": "eval", "early_stopping_patience": 0}, "must be at least 1, got 0"),
    ], ids=["eval_set_alone", "patience_alone", "patience_zero"])
    def test_half_an_early_stopping_request_is_refused(self, rng, kwargs, message):
        X, y = rng.random((30, 3)), rng.integers(0, 3, 30)
        if kwargs.get("eval_set") == "eval":
            kwargs["eval_set"] = (X[:10], y[:10])
        with pytest.raises(TrainingError, match=message):
            train(X, y, hp_with(num_rounds=2), seed=0, **kwargs)


# ---------------------------------------------------------------- tree workers

def in_children(action):
    """A `_grow_tree` that runs `action()` first when called in a forked
    tree worker, and grows as before."""
    parent, grow = os.getpid(), booster._grow_tree

    def grow_tree(*args):
        if os.getpid() != parent:
            action()
        return grow(*args)
    return mock.patch.object(booster, "_grow_tree", grow_tree)


def worker_data(seed=2, n=120, d=4):
    data = np.random.default_rng(seed)
    return np.round(data.normal(size=(n, d)), 1), data.integers(0, 10, n)


class TestTreeWorkers:
    @pytest.fixture(autouse=True)
    def fork_for_any_fit(self):
        """Fork the tree workers for the small fits below, which the fork
        rule would keep in one process."""
        with mock.patch.dict(booster.FORK_AT, row_rounds=0):
            yield

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), d=st.integers(1, 4),
           max_depth=st.integers(1, 6), subsample=st.sampled_from([1.0, 0.6]),
           colsample_bytree=st.sampled_from([1.0, 0.5]),
           colsample_bylevel=st.sampled_from([1.0, 0.7]), early_stopping=st.booleans())
    @example(seed=5, n=50, d=3, max_depth=3, subsample=0.6, colsample_bytree=0.5,
             colsample_bylevel=0.7, early_stopping=True)
    def test_models_are_byte_identical_at_one_two_and_three_workers(
            self, seed, n, d, max_depth, subsample, colsample_bytree, colsample_bylevel,
            early_stopping):
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), 1)
        y = data.integers(0, 10, n)
        hp = hp_with(max_depth=max_depth, num_rounds=6, subsample=subsample,
                     colsample_bytree=colsample_bytree, colsample_bylevel=colsample_bylevel,
                     min_child_weight=0.1, learning_rate=0.5)
        stop = {}
        if early_stopping:
            stop = dict(eval_set=(X[::2], data.integers(0, 10, X[::2].shape[0])),
                        early_stopping_patience=2)
        models = []
        for n_cpus in (1, 2, 3):
            with cpus(n_cpus):
                models.append(train(X, y, hp, seed, **stop))
        docs = [serialize_ensemble(model) for model in models]
        assert docs[0] == docs[1] == docs[2]
        if early_stopping:  # the best round may be the last one grown
            model = models[0]
            assert len(model.training_loss) == model.best_round + 1
            assert model.training_loss[-1] == mlogloss(predict_proba(model, X), y)

    def test_children_share_the_round_and_none_outlives_train(self):
        parent, grow = os.getpid(), booster._grow_tree
        X, y = worker_data()
        for n_cpus in (1, 2, 3, 12):
            def grow_tree(*args, forking=n_cpus > 1):
                assert (os.getpid() != parent) == forking  # the caller grows no tree
                return grow(*args)
            with cpus(n_cpus), mock.patch.object(booster, "_grow_tree", grow_tree), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                train(X, y, hp_with(num_rounds=2), seed=0)
            assert fork.call_count == (min(n_cpus, 10) if n_cpus > 1 else 0)
            assert multiprocessing.active_children() == []

    def test_a_thread_or_a_daemonic_process_forks_nothing(self, monkeypatch):
        X, y = worker_data()
        want = serialize_ensemble(train(X, y, hp_with(num_rounds=3), seed=1))
        no_fork = mock.patch.object(os, "fork", side_effect=AssertionError("forked"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with cpus(2), no_fork:
                assert booster.worker_count(10) == 1
                assert serialize_ensemble(train(X, y, hp_with(num_rounds=3), seed=1)) == want
        finally:
            stop.set()
            thread.join()
        monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
        with cpus(2), no_fork:
            assert booster.worker_count(10) == 1
            assert serialize_ensemble(train(X, y, hp_with(num_rounds=3), seed=1)) == want

    def test_a_worker_that_dies_raises_training_error_and_leaves_no_child(self):
        X, y = worker_data()
        with cpus(3), in_children(lambda: os._exit(1)):
            with pytest.raises(TrainingError, match="tree worker process exited"):
                train(X, y, hp_with(num_rounds=3), seed=0)
        assert multiprocessing.active_children() == []

    def test_children_that_die_before_their_stop_message_raise_training_error(self):
        X, y = worker_data()
        parent, calls, softmax = os.getpid(), [], booster.softmax_margins

        def softmax_then_kill(*args, **kwargs):
            calls.append(None)
            if os.getpid() == parent and len(calls) == 4:  # after the last of three rounds
                for child in multiprocessing.active_children():
                    os.kill(child.pid, signal.SIGKILL)
                    child.join(10)
                    assert child.exitcode == -signal.SIGKILL
            return softmax(*args, **kwargs)
        with cpus(2), mock.patch.object(booster, "softmax_margins", softmax_then_kill):
            with pytest.raises(TrainingError, match="^a tree worker process exited mid-round$"):
                train(X, y, hp_with(num_rounds=3), seed=0)
        assert len(calls) == 4
        assert multiprocessing.active_children() == []

    def test_interrupt_mid_train_leaves_no_child(self):
        X, y = worker_data()
        with cpus(2), interrupting_wait(3, children=2):  # in the second round or later
            with pytest.raises(KeyboardInterrupt):
                train(X, y, hp_with(num_rounds=3), seed=0)
        assert multiprocessing.active_children() == []

    def test_workers_ignore_ctrl_c(self, capfd):
        X, y = worker_data()
        want = serialize_ensemble(train(X, y, hp_with(num_rounds=3), seed=4))
        with cpus(2), in_children(lambda: os.kill(os.getpid(), signal.SIGINT)):
            assert serialize_ensemble(train(X, y, hp_with(num_rounds=3), seed=4)) == want
        assert "Traceback" not in capfd.readouterr().err


class TestForkRule:
    def test_a_tiny_fit_or_attribution_forks_nothing(self, rng):
        X, y = rng.random((40, 4)), rng.integers(0, 10, 40)
        with cpus(2), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            model = train(X, y, hp_with(num_rounds=1), seed=0)
            attribute(model, X)

    def test_pipeline_tc_sized_training_and_explain_fork_on_two_cpus(self):
        # pipeline_tc trains on 3561 rows for 60 rounds and explains 40 rows
        # of the result, a model of 7941 leaves (seed 1); ingest_tca_large
        # explains 5 rows of a 10-tree model of 40 leaves
        with cpus(2):
            assert booster.worker_count(10, row_rounds=3561 * 60) == 2
            assert booster.worker_count(20, row_leaves=40 * 7941) == 2
            assert booster.worker_count(10, row_rounds=40 * 1) == 1
            assert booster.worker_count(3, row_leaves=5 * 40) == 1
        with cpus(1):
            assert booster.worker_count(10, row_rounds=3561 * 60) == 1

    def test_the_bound_of_each_unit_is_where_forking_starts(self):
        with cpus(3):
            for unit, bound in booster.FORK_AT.items():
                assert booster.worker_count(10, **{unit: bound - 1}) == 1
                assert booster.worker_count(10, **{unit: bound}) == 3
            assert booster.worker_count(2) == 2  # no size given: the tuner's folds


class TwoArgs(Exception):
    """Pickles, but does not load: loading calls `TwoArgs(*args)` with its one message."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestForked:
    LOST = RuntimeError("a worker process exited")

    @pytest.mark.parametrize("n_tasks", [2, 3, 7])  # fewer tasks than workers, as many, more
    def test_results_come_back_in_task_order_from_the_workers(self, n_tasks):
        parent = os.getpid()
        with cpus(3), booster.forked(lambda i: (i, os.getpid()), self.LOST, 3) as run:
            results = run([(i,) for i in range(n_tasks)])
            assert run([]) == []
        assert [i for i, _ in results] == list(range(n_tasks))
        assert parent not in {pid for _, pid in results}
        assert len({pid for _, pid in results}) == min(n_tasks, 3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [BrokenPipeError("the task's own error"),
                                       EOFError("the task's own error")],
                             ids=["BrokenPipeError", "EOFError"])
    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_tasks_connection_error_reaches_the_caller_unchanged(self, n_cpus, error):
        def task(i):
            if i == 1:
                raise error
            return i
        with cpus(n_cpus), pytest.raises(type(error)) as raised:
            with booster.forked(task, self.LOST, 2) as run:
                run([(0,), (1,), (2,)])
        assert type(raised.value) is type(error)
        assert raised.value.args == error.args
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fails", ["raises", "returns", "raises_what_does_not_load"])
    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_reply_that_does_not_pickle_reaches_the_caller_as_an_error(
            self, n_cpus, fails, capfd):
        class Local(Exception):  # a class defined in a function does not pickle
            pass

        def task(i):
            if i == 1 and fails == "raises":
                raise Local("the task's own error")
            if i == 1 and fails == "raises_what_does_not_load":
                raise TwoArgs("x", "y")
            return Local if i == 1 else i
        results = raised = None
        with cpus(n_cpus), booster.forked(task, self.LOST, 2) as run:
            try:
                results = run([(0,), (1,), (2,)])
            except Exception as exc:
                raised = exc
            assert run([(0,), (2,)]) == [0, 2]  # the workers stay in step
        if n_cpus == 1 and fails == "returns":
            assert results == [0, Local, 2]
        elif n_cpus == 1:
            error = Local if fails == "raises" else TwoArgs
            message = "the task's own error" if fails == "raises" else "x and y"
            assert type(raised) is error and raised.args == (message,)
        else:
            what = {"raises": "Local: the task's own error", "returns": "results",
                    "raises_what_does_not_load": "TwoArgs: x and y"}[fails]
            assert type(raised) is RuntimeError
            assert str(raised).startswith(
                f"a task's {what} could not be sent from its worker process (")
        assert "Traceback" not in capfd.readouterr().err
        assert multiprocessing.active_children() == []


#: The names through which code could start a process of its own, message
#: one or size a pool of them: `forked` alone decides how many workers run.
PROCESS_NAMES = {"Pool", "Process", "get_context", "os.fork", "Pipe", "wait", "multiprocessing",
                 "worker_count"}


def names_outside_booster(wanted: set[str]) -> list[str]:
    """`file:line name` for each name in `wanted` that a module under
    src/rfclass/ other than booster.py imports, assigns or reads, as a
    plain name, an attribute or `base.attribute`."""
    found = []
    for path in sorted(Path(booster.__file__).parent.rglob("*.py")):
        if path.name == "booster.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else ""
                names = [node.attr, f"{base}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]] + [
                    n for alias in node.names for n in (alias.name, f"{node.module}.{alias.name}")]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in wanted]
    return found


def test_booster_is_the_only_module_that_starts_a_process():
    """Every worker comes from `booster.forked`: no other module under
    src/rfclass/ imports multiprocessing or names a way to start a process,
    to send or wait for a message, or to count workers."""
    assert names_outside_booster(PROCESS_NAMES) == []


def test_booster_is_the_only_module_that_walks_a_tree_into_margins():
    """Every margin is summed by `booster._add_round`, from zero and round by
    round, which is what keeps a prefix of a model bit-identical to the
    shorter model: no other module walks a tree itself."""
    assert names_outside_booster({"predict_margin"}) == []


# ---------------------------------------------------------------- predict

class TestPredict:
    def test_arity_mismatch(self, rng):
        X = rng.random((20, 3))
        model = train(X, rng.integers(0, 3, 20), hp_with(num_rounds=2), seed=0)
        with pytest.raises(ValueError, match="features"):
            predict_proba(model, np.zeros(4))

    def test_single_row_shape(self, rng):
        X = rng.random((20, 3))
        model = train(X, rng.integers(0, 3, 20), hp_with(num_rounds=2), seed=0)
        proba = predict_proba(model, X[0])
        assert proba.shape == (10,)
        assert isinstance(predict_class(model, X[0]), int)

    def test_proba_normalized(self, rng):
        X = rng.random((30, 3))
        model = train(X, rng.integers(0, 10, 30), hp_with(num_rounds=4), seed=0)
        proba = predict_proba(model, X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)


class TestTreeWalk:
    @staticmethod
    def walk_each_row(tree, X):
        """A per-row reference walk: left when `value < threshold`, else right."""
        out = []
        for x in X:
            node = 0
            while tree.feature[node] >= 0:
                goes_left = x[tree.feature[node]] < tree.threshold[node]
                node = tree.left[node] if goes_left else tree.right[node]
            out.append(tree.value[node])
        return np.array(out, dtype=float)

    @staticmethod
    def trees(X, **kwargs):
        y = np.random.default_rng(3).integers(0, 4, X.shape[0])
        model = train(X, y, hp_with(max_depth=4, num_rounds=2, **kwargs), seed=3)
        return [tree for round_trees in model.trees for tree in round_trees]

    def assert_walks_alike(self, trees, X):
        for tree in trees:
            got = tree.predict_margin(X)
            assert got.tobytes() == self.walk_each_row(tree, X).tobytes()

    def test_deep_trees(self, rng):
        X = np.round(rng.normal(size=(80, 3)), 1)
        trees = self.trees(X)
        assert max(tree.depth for tree in trees) == 4
        self.assert_walks_alike(trees, np.vstack([X, X + 0.05]))

    def test_single_leaf_trees(self, rng):
        X = np.ones((30, 3))  # no split exists
        trees = self.trees(X)
        assert all(tree.n_nodes() == 1 and tree.depth == 0 for tree in trees)
        self.assert_walks_alike(trees, rng.normal(size=(7, 3)))

    def test_zero_rows(self, rng):
        for tree in self.trees(rng.normal(size=(40, 3))):
            assert tree.predict_margin(np.empty((0, 3))).shape == (0,)

    def test_fortran_ordered_and_column_sliced(self, rng):
        X = np.round(rng.normal(size=(60, 3)), 1)
        trees = self.trees(X)
        wide = np.zeros((60, 6))
        wide[:, ::2] = X
        for layout in (np.asfortranarray(X), wide[:, ::2]):
            assert not layout.flags.c_contiguous
            self.assert_walks_alike(trees, layout)

    def test_nan_cells_route_right(self, rng):
        X = np.round(rng.normal(size=(60, 3)), 1)
        trees = self.trees(X)
        probe = X[:20].copy()
        probe[rng.random(probe.shape) < 0.3] = np.nan
        self.assert_walks_alike(trees, probe)
        split = next(tree for tree in trees if tree.n_nodes() > 1)
        all_nan = np.full((1, 3), np.nan)
        right = 0
        while split.feature[right] >= 0:
            right = split.right[right]
        assert split.predict_margin(all_nan)[0] == split.value[right]


# ---------------------------------------------------------------- serialization

class TestSerialization:
    def test_bit_exact_round_trip(self, rng):
        X = rng.random((50, 4))
        y = rng.integers(0, 10, 50)
        model = train(X, y, hp_with(num_rounds=4, subsample=0.85), seed=6)
        text = serialize_ensemble(model)
        back = load_ensemble(text)
        assert serialize_ensemble(back) == text
        np.testing.assert_array_equal(model.margins(X), back.margins(X))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 4),
           max_depth=st.integers(1, 4), labels=st.sampled_from([2, 3, 10]),
           num_rounds=st.integers(0, 4), subsample=st.sampled_from([1.0, 0.7]),
           min_child_weight=st.sampled_from([0.0, 0.5, 2.0]),
           max_delta_step=st.sampled_from([0.0, 0.2]))
    def test_reloaded_model_predicts_like_the_original(self, seed, n, d, max_depth, labels,
                                                       num_rounds, subsample, min_child_weight,
                                                       max_delta_step):
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), 2)
        y = data.integers(0, labels, n)
        model = train(X, y, hp_with(max_depth=max_depth,
                                    num_rounds=num_rounds, subsample=subsample,
                                    min_child_weight=min_child_weight,
                                    max_delta_step=max_delta_step), seed)
        # loading checks every trained tree against the depth, cover, gain and leaf bounds
        back = load_ensemble(serialize_ensemble(model))
        # the training rows sit on the thresholds; the shifted and fresh rows fall between them
        probe = np.vstack([X, X + 1e-3, np.round(data.normal(size=(10, d)), 1)])
        assert back.margins(probe).tobytes() == model.margins(probe).tobytes()
        np.testing.assert_array_equal(predict_class(back, probe), predict_class(model, probe))

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="not an rfclass ensemble"):
            load_ensemble(json.dumps({"format": "other"}))

    def test_rejects_unknown_version(self):
        doc = {"format": "rfclass.ensemble", "version": 99}
        with pytest.raises(ValueError, match="version"):
            load_ensemble(json.dumps(doc))


class TestHyperparameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(max_depth=0)
        with pytest.raises(ValueError):
            Hyperparameters(subsample=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(learning_rate=1.5)
        with pytest.raises(ValueError):
            Hyperparameters(alpha=-0.1)

    def test_dict_round_trip_uses_lambda_key(self):
        hp = Hyperparameters(lambda_=0.25)
        data = hp.to_dict()
        assert data["lambda"] == 0.25
        assert Hyperparameters.from_dict(data) == hp

    @settings(max_examples=100, deadline=None)
    @given(max_depth=st.integers(1, 12), min_child_weight=st.floats(0, 10),
           learning_rate=st.floats(0, 1, exclude_min=True),
           subsample=st.floats(0, 1, exclude_min=True),
           colsample_bytree=st.floats(0, 1, exclude_min=True),
           colsample_bylevel=st.floats(0, 1, exclude_min=True),
           alpha=st.floats(0, 5), lambda_=st.floats(0, 5), gamma=st.floats(0, 5),
           max_delta_step=st.floats(0, 5),
           num_rounds=st.integers(0, 500))
    def test_dict_round_trip(self, **settings_):
        hp = Hyperparameters(**settings_)
        data = hp.to_dict()
        assert Hyperparameters.from_dict(data) == hp
        assert (data["objective"], data["eval_metric"]) == ("multi:softmax", "mlogloss")

    def test_objective_and_metric_are_fixed(self):
        assert len(fields(Hyperparameters)) == 11
        assert Hyperparameters.from_dict({"objective": "multi:softmax"}) == Hyperparameters()
        for key, value in (("objective", "reg:squarederror"), ("eval_metric", "merror"),
                           ("num_class", 12), ("num_class", 10.0), ("num_class", True)):
            with pytest.raises(ValueError, match=f"{key} must be"):
                Hyperparameters.from_dict({key: value})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_settings_raise_only_value_errors(self, data):
        doc = Hyperparameters().to_dict()
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(doc) + ["eta", "lambda_"]))
            mutation = data.draw(st.sampled_from(["drop", "retype", "out_of_range"]))
            if mutation == "drop":
                doc.pop(key, None)
            else:
                doc[key] = data.draw(
                    st.sampled_from([None, True, "x", [], {}, [1], 0.5, 7]) if mutation == "retype"
                    else st.one_of(st.integers(), st.floats(),
                                   st.sampled_from([10**400, -1, 0, 1.0, 10])))
        try:
            hp = Hyperparameters.from_dict(json.loads(json.dumps(doc)))
        except ValueError:
            return
        assert Hyperparameters.from_dict(hp.to_dict()) == hp
