import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfclass import booster
from rfclass.booster import (Hyperparameters, _best_split,
                             audit_ensemble, leaf_weight, load_ensemble,
                             mlogloss, predict_class, predict_proba,
                             serialize_ensemble, softmax_margins, train)
from rfclass.errors import TrainingError


def hp_with(**kwargs) -> Hyperparameters:
    defaults = dict(max_depth=3, min_child_weight=0.0, learning_rate=0.1,
                    subsample=1.0, colsample_bytree=1.0, colsample_bylevel=1.0,
                    alpha=0.0, lambda_=1.0, gamma=0.0, max_delta_step=0.0,
                    num_class=10, num_rounds=10)
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
    order = np.argsort(column, kind="stable").reshape(1, -1)
    found = _best_split(column.reshape(-1, 1), g, h, float(g.sum()), float(h.sum()),
                        order, np.array([0]), hp)
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
    def grow_tree(X, g, h, rows, hp, cols_by_depth, presorted):
        return oracle_grow_tree(X, g, h, rows, hp, cols_by_depth)

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


class TestTrain:
    def test_constant_labels_predicted_after_one_round(self, rng):
        X = rng.random((30, 3))
        y = np.full(30, 3)
        model = train(X, y, hp_with(num_rounds=1), seed=0)
        assert (predict_class(model, X) == 3).all()

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
        audit_ensemble(model)

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
        hp = hp_with(max_depth=4, num_class=3, num_rounds=3, subsample=0.8)
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
           num_class=st.sampled_from([2, 3, 10]), num_rounds=st.integers(1, 3))
    @example(seed=7, n=60, d=5, decimals=1, max_depth=5, subsample=0.6,
             colsample_bytree=0.5, colsample_bylevel=0.5, min_child_weight=2.0,
             num_class=3, num_rounds=3)
    def test_bit_identical_to_per_node_sort(self, seed, n, d, decimals, max_depth, subsample,
                                            colsample_bytree, colsample_bylevel,
                                            min_child_weight, num_class, num_rounds):
        # rounding to 1-2 decimals gives heavy ties (and -0.0 next to 0.0)
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), decimals)
        y = data.integers(0, num_class, n)
        hp = hp_with(max_depth=max_depth, subsample=subsample,
                     colsample_bytree=colsample_bytree, colsample_bylevel=colsample_bylevel,
                     min_child_weight=min_child_weight, num_class=num_class,
                     num_rounds=num_rounds)
        got = serialize_ensemble(train(X, y, hp, seed))
        assert got == serialize_ensemble(oracle_train(X, y, hp, seed))

    def test_early_stopping_truncates(self, rng):
        # pure-noise labels: the model overfits and validation loss turns up
        X = rng.random((80, 4))
        y = rng.integers(0, 2, 80)
        X_val = rng.random((40, 4))
        y_val = rng.integers(0, 2, 40)
        hp = hp_with(num_rounds=200, num_class=2, learning_rate=0.3)
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
           max_depth=st.integers(1, 4), num_class=st.sampled_from([2, 3, 10]),
           num_rounds=st.integers(0, 4), subsample=st.sampled_from([1.0, 0.7]))
    def test_reloaded_model_predicts_like_the_original(self, seed, n, d, max_depth, num_class,
                                                       num_rounds, subsample):
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), 2)
        y = data.integers(0, num_class, n)
        model = train(X, y, hp_with(max_depth=max_depth, num_class=num_class,
                                    num_rounds=num_rounds, subsample=subsample), seed)
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
