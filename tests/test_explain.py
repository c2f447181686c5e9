import itertools
import math
import multiprocessing
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfclass import booster, explain
from rfclass.booster import Ensemble, Hyperparameters, _TreeBuilder, train
from rfclass.errors import RfclassError
from rfclass.explain import (ROW_BLOCK, Attribution, _child_fractions,
                             aggregate_importance, attribute,
                             importance_from_database)

from conftest import complete_database, cpus, interrupting_wait, random_tree


def expected_margin(tree, x, coalition):
    """Conditional expectation of the tree output given the coalition's values.

    Splits on coalition features follow x; other splits average both
    children by their training-cover share.
    """
    shares = _child_fractions(tree)

    def walk(node):
        if tree.is_leaf(node):
            return float(tree.value[node])
        f = int(tree.feature[node])
        if f in coalition:
            child = tree.left[node] if x[f] < tree.threshold[node] else tree.right[node]
            return walk(int(child))
        return (shares[0, node] * walk(int(tree.left[node]))
                + shares[1, node] * walk(int(tree.right[node])))

    return walk(0)


MAX_ORACLE_FEATURES = 12


def exact_shapley_oracle(ensemble, x, class_index):
    """Classic Shapley values of the cover-weighted expectation game.

    Enumerates coalitions per tree over the features that tree actually
    uses (unused features are null players). Refuses ensembles wider than
    MAX_ORACLE_FEATURES.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    m = ensemble.num_features
    if m > MAX_ORACLE_FEATURES:
        raise ValueError(
            f"oracle enumeration limited to {MAX_ORACLE_FEATURES} features, got {m}"
        )
    if x.size != m:
        raise ValueError(f"expected {m} features, got {x.size}")
    phi = np.zeros(m)
    for tree in ensemble.class_trees(class_index):
        used = sorted({int(f) for f in tree.feature if f >= 0})
        if not used:
            continue
        values = {}
        for r in range(len(used) + 1):
            for combo in itertools.combinations(used, r):
                coalition = frozenset(combo)
                values[coalition] = expected_margin(tree, x, coalition)
        n_used = len(used)
        for f in used:
            others = [u for u in used if u != f]
            for r in range(len(others) + 1):
                coeff = (
                    math.factorial(r) * math.factorial(n_used - r - 1)
                    / math.factorial(n_used)
                )
                for combo in itertools.combinations(others, r):
                    coalition = frozenset(combo)
                    phi[f] += coeff * (values[coalition | {f}] - values[coalition])
    return phi


def oracle_tree_shap(ensemble, x, class_index):
    """(phi, base) by the per-row, per-tree polynomial path recursion of
    TreeSHAP (Lundberg et al. 2018, Algorithm 2): the reference the batched
    path kernel must reproduce."""
    x = np.asarray(x, dtype=float).reshape(-1)
    phi = [0.0] * ensemble.num_features
    base = 0.0
    for tree in ensemble.class_trees(class_index):
        _oracle_recurse(tree, x.tolist(), phi)
        base += expected_margin(tree, x, frozenset())
    return np.array(phi), base


def _oracle_recurse(tree, x, phi):
    """Accumulate one tree's attributions into phi. Each path element is
    [feature, zero_fraction, one_fraction, permutation weight]."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, value = tree.left.tolist(), tree.right.tolist(), tree.value.tolist()
    left_share, right_share = _child_fractions(tree).tolist()

    def extend(path, pz, po, pf):
        depth = len(path)
        path.append([pf, pz, po, 1.0 if depth == 0 else 0.0])
        for i in range(depth - 1, -1, -1):
            path[i + 1][3] += po * path[i][3] * (i + 1) / (depth + 1)
            path[i][3] = pz * path[i][3] * (depth - i) / (depth + 1)

    def unwind(path, index):
        depth = len(path) - 1
        po, pz = path[index][2], path[index][1]
        carry = path[depth][3]
        for i in range(depth - 1, -1, -1):
            if po != 0:
                tmp = path[i][3]
                path[i][3] = carry * (depth + 1) / ((i + 1) * po)
                carry = tmp - path[i][3] * pz * (depth - i) / (depth + 1)
            else:
                path[i][3] = path[i][3] * (depth + 1) / (pz * (depth - i))
        for i in range(index, depth):
            path[i][:3] = path[i + 1][:3]
        path.pop()

    def unwound_sum(path, index):
        depth = len(path) - 1
        po, pz = path[index][2], path[index][1]
        total = 0.0
        if po != 0:
            carry = path[depth][3]
            for i in range(depth - 1, -1, -1):
                tmp = carry * (depth + 1) / ((i + 1) * po)
                total += tmp
                carry = path[i][3] - tmp * pz * (depth - i) / (depth + 1)
        else:
            for i in range(depth - 1, -1, -1):
                total += path[i][3] * (depth + 1) / (pz * (depth - i))
        return total

    def recurse(node, parent_path, pz, po, pf):
        path = [element.copy() for element in parent_path]
        extend(path, pz, po, pf)
        if feature[node] < 0:
            for i in range(1, len(path)):
                w = unwound_sum(path, i)
                phi[path[i][0]] += w * (path[i][2] - path[i][1]) * value[node]
            return
        f = feature[node]
        fl, fr = left_share[node], right_share[node]
        if x[f] < threshold[node]:
            hot, cold, hot_fraction, cold_fraction = left[node], right[node], fl, fr
        else:
            hot, cold, hot_fraction, cold_fraction = right[node], left[node], fr, fl
        incoming_zero, incoming_one = 1.0, 1.0
        found = next((i for i, el in enumerate(path) if el[0] == f), None)
        if found is not None:
            incoming_zero, incoming_one = path[found][1], path[found][2]
            unwind(path, found)
        # both fractions zero: the subtree adds nothing and unwind would divide by 0
        if incoming_zero * hot_fraction != 0.0 or incoming_one != 0.0:
            recurse(hot, path, incoming_zero * hot_fraction, incoming_one, f)
        if incoming_zero * cold_fraction != 0.0:
            recurse(cold, path, incoming_zero * cold_fraction, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def brute_force_shap(ensemble, x, class_index):
    """Permutation-definition Shapley values of the expectation game."""
    m = ensemble.num_features
    trees = ensemble.class_trees(class_index)

    def value(coalition):
        return sum(expected_margin(t, x, frozenset(coalition)) for t in trees)

    phi = np.zeros(m)
    for perm in itertools.permutations(range(m)):
        for i in range(m):
            phi[perm[i]] += value(perm[: i + 1]) - value(perm[:i])
    return phi / math.factorial(m)


def stump(feature, threshold, left_value, right_value, left_cover, right_cover):
    builder = _TreeBuilder()
    node = builder.add_internal(feature, threshold, gain=1.0,
                                cover=left_cover + right_cover)
    l = builder.add_leaf(left_value, left_cover)
    r = builder.add_leaf(right_value, right_cover)
    builder.attach(node, l, r)
    return builder.build()


def ensemble_of(trees, n_features):
    hp = Hyperparameters(num_rounds=len(trees), min_child_weight=0.0, gamma=0.0)
    ens = Ensemble(hp=hp, num_features=n_features,
                   feature_names=tuple(f"f{j}" for j in range(n_features)))
    # place every tree on class 0; remaining classes get zero leaves
    for t in trees:
        zero = _TreeBuilder()
        zero.add_leaf(0.0, 1.0)
        row = [t] + [zero.build() for _ in range(hp.num_class - 1)]
        ens.trees.append(row)
    return ens


def row_shap(ensemble, x, class_index):
    """(phi, base) of one row's class margin, from `attribute` on that row alone."""
    attribution = attribute(ensemble, np.asarray(x, dtype=float).reshape(1, -1))
    return attribution.phi[0, class_index], attribution.base[class_index]


def random_ensemble(rng, n_features, n_trees=3, max_depth=3):
    trees = [random_tree(rng, n_features, max_depth) for _ in range(n_trees)]
    return ensemble_of(trees, n_features)


class TestTreeShapStump:
    def test_equal_cover_stump(self):
        a, b = 1.5, -0.5
        ens = ensemble_of([stump(2, 0.5, a, b, 10.0, 10.0)], n_features=4)
        x = np.array([0.9, 0.9, 0.1, 0.9])  # goes left
        phi, phi0 = row_shap(ens, x, class_index=0)
        assert phi[2] == pytest.approx(a - (a + b) / 2)
        for j in (0, 1, 3):
            assert phi[j] == 0.0
        assert phi0 == pytest.approx((a + b) / 2)
        np.testing.assert_allclose(phi, brute_force_shap(ens, x, 0), atol=1e-12)

    def test_unequal_cover_stump(self):
        ens = ensemble_of([stump(0, 0.3, 2.0, -1.0, 3.0, 1.0)], n_features=3)
        x = np.array([0.9, 0.0, 0.0])  # goes right
        phi, phi0 = row_shap(ens, x, 0)
        expected_base = (2.0 * 3.0 - 1.0 * 1.0) / 4.0
        assert phi0 == pytest.approx(expected_base)
        assert phi[0] == pytest.approx(-1.0 - expected_base)
        np.testing.assert_allclose(phi, brute_force_shap(ens, x, 0), atol=1e-12)


class TestLocalAccuracy:
    def test_on_trained_ensemble(self, rng):
        X = rng.random((150, 6))
        y = rng.integers(0, 10, 150)
        hp = Hyperparameters(max_depth=3, min_child_weight=0.1, learning_rate=0.2,
                             subsample=0.9, num_rounds=8, gamma=0.0,
                             alpha=0.1, lambda_=0.5, max_delta_step=0.5)
        model = train(X, y, hp, seed=11)
        margins = model.margins(X)
        for i in range(0, 150, 17):
            for c in (0, 3, 9):
                phi, phi0 = row_shap(model, X[i], c)
                assert phi0 + phi.sum() == pytest.approx(margins[i, c], abs=1e-6)


class TestOracleEquivalence:
    def test_random_ensembles(self, rng):
        for trial in range(25):
            n_features = int(rng.integers(2, 7))
            ens = random_ensemble(rng, n_features,
                                  n_trees=int(rng.integers(1, 4)),
                                  max_depth=int(rng.integers(1, 4)))
            x = rng.random(n_features)
            phi, _ = row_shap(ens, x, 0)
            oracle = exact_shapley_oracle(ens, x, 0)
            np.testing.assert_allclose(phi, oracle, atol=1e-6,
                                       err_msg=f"trial {trial}")

    def test_matches_permutation_definition(self, rng):
        for _ in range(5):
            ens = random_ensemble(rng, 4, n_trees=2, max_depth=3)
            x = rng.random(4)
            phi, _ = row_shap(ens, x, 0)
            np.testing.assert_allclose(phi, brute_force_shap(ens, x, 0), atol=1e-10)

    def test_repeated_feature_along_path(self, rng):
        # one feature split twice on the same path
        builder = _TreeBuilder()
        root = builder.add_internal(0, 0.5, 1.0, 8.0)
        inner = builder.add_internal(0, 0.25, 1.0, 5.0)
        leaf_a = builder.add_leaf(1.0, 2.0)
        leaf_b = builder.add_leaf(-1.0, 3.0)
        leaf_c = builder.add_leaf(0.5, 3.0)
        builder.attach(inner, leaf_a, leaf_b)
        builder.attach(root, inner, leaf_c)
        ens = ensemble_of([builder.build()], n_features=3)
        for x0 in (0.1, 0.3, 0.9):
            x = np.array([x0, 0.5, 0.5])
            phi, _ = row_shap(ens, x, 0)
            np.testing.assert_allclose(phi, brute_force_shap(ens, x, 0), atol=1e-10)


def random_class_ensemble(rng, n_features, rounds, classes, max_depth, zero_cover):
    """conftest.random_tree for the first `classes` classes of every round;
    the other classes get zero leaves."""
    hp = Hyperparameters(num_rounds=rounds, min_child_weight=0.0, gamma=0.0)
    ens = Ensemble(hp=hp, num_features=n_features,
                   feature_names=tuple(f"f{j}" for j in range(n_features)))
    zero = _TreeBuilder()
    zero.add_leaf(0.0, 1.0)
    ens.trees = [[random_tree(rng, n_features, max_depth, zero_cover=zero_cover)
                  for _ in range(classes)]
                 + [zero.build() for _ in range(hp.num_class - classes)] for _ in range(rounds)]
    return ens


def on_thresholds(rng, X, ens, share=0.3):
    """X with a share of its cells moved onto split thresholds, where ties
    decide the route (`x < threshold` goes left)."""
    thresholds = [t for row in ens.trees for tree in row
                  for t in tree.threshold[tree.feature >= 0]]
    if thresholds:
        mask = rng.random(X.shape) < share
        X[mask] = rng.choice(thresholds, size=int(mask.sum()))
    return X


class TestPathKernel:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_features=st.integers(1, 5),
           max_depth=st.integers(1, 6), rounds=st.integers(1, 3),
           classes=st.integers(2, 3), n_rows=st.integers(1, 9),
           zero_cover=st.sampled_from([0.0, 0.3]))
    def test_bit_identical_to_recursion_and_single_row_calls(
            self, seed, n_features, max_depth, rounds, classes, n_rows, zero_cover):
        # few features repeat splits along a path; zero-cover nodes take
        # the 0.5 shares
        rng = np.random.default_rng(seed)
        ens = random_class_ensemble(rng, n_features, rounds, classes, max_depth,
                                    zero_cover)
        X = on_thresholds(rng, rng.random((n_rows, n_features)), ens)
        attr = attribute(ens, X)
        for i in range(n_rows):
            for c in range(classes):
                phi, base = row_shap(ens, X[i], c)
                assert phi.tobytes() == attr.phi[i, c].tobytes()
                assert base == attr.base[c]
                want_phi, want_base = oracle_tree_shap(ens, X[i], c)
                assert phi.tobytes() == want_phi.tobytes()
                assert base == want_base

    def test_nan_and_inf_route_as_in_prediction(self, rng):
        X = rng.random((40, 4))
        y = rng.integers(0, 3, 40)
        hp = Hyperparameters(max_depth=3, num_rounds=4,
                             min_child_weight=0.0, gamma=0.0, subsample=1.0)
        model = train(X, y, hp, seed=5)
        X[::3, 1] = np.nan
        X[1::3, 2] = np.inf
        X[2::3, 0] = -np.inf
        attr = attribute(model, X)
        reconstructed = attr.base[None, :] + attr.phi.sum(axis=2)
        np.testing.assert_allclose(reconstructed, model.margins(X), rtol=0, atol=1e-9)
        for i in range(0, 40, 7):
            for c in range(3):
                assert attr.phi[i, c].tobytes() == oracle_tree_shap(model, X[i], c)[0].tobytes()


def in_workers(action):
    """A `_PathGroup.contributions` that runs `action()` first when called in
    a forked attribution worker, and attributes as before."""
    parent, contributions = os.getpid(), explain._PathGroup.contributions

    def wrapped(*args):
        if os.getpid() != parent:
            action()
        return contributions(*args)
    return mock.patch.object(explain._PathGroup, "contributions", wrapped)


def fork_at_rows(rows, ens):
    """Fork attribution workers for calls of at least `rows` rows on `ens`."""
    leaves = sum(tree.n_leaves() for round_trees in ens.trees for tree in round_trees)
    return mock.patch.dict(booster.FORK_AT, row_leaves=rows * leaves)


#: Rows from which the property below forks: a count of at least this many
#: rows is above the patched fork threshold.
FORK_ROWS = 9


class TestAttributionWorkers:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_features=st.integers(1, 3),
           max_depth=st.integers(2, 5), rounds=st.integers(1, 3),
           n_rows=st.sampled_from([1, ROW_BLOCK - 1, ROW_BLOCK + 1, FORK_ROWS])
           | st.integers(1, 20).map(lambda k: 2 * k + 1))
    @example(seed=3, n_features=2, max_depth=4, rounds=2, n_rows=2 * FORK_ROWS + 1)
    def test_phi_and_base_bytes_are_the_same_at_one_two_and_three_cpus(
            self, seed, n_features, max_depth, rounds, n_rows):
        # few features, so paths revisit a feature
        rng = np.random.default_rng(seed)
        ens = random_class_ensemble(rng, n_features, rounds, 3, max_depth, zero_cover=0.3)
        X = on_thresholds(rng, rng.random((n_rows, n_features)), ens)
        results, forks = [], []
        for n_cpus in (1, 2, 3):
            with cpus(n_cpus), fork_at_rows(FORK_ROWS, ens), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                attr = attribute(ens, X)
            results.append((attr.phi.tobytes(), attr.base.tobytes()))
            forks.append(fork.call_count)
        assert results[0] == results[1] == results[2]
        blocks = -(-n_rows // ROW_BLOCK)
        want = [min(n, blocks) if n_rows >= FORK_ROWS and n > 1 else 0 for n in (1, 2, 3)]
        assert forks == want

    def test_a_worker_that_exits_raises_a_clean_error_and_leaves_no_child(self, rng):
        ens = random_class_ensemble(rng, 3, 2, 3, 4, zero_cover=0.0)
        with cpus(3), fork_at_rows(0, ens), in_workers(lambda: os._exit(1)):
            with pytest.raises(RfclassError, match="^an attribution worker process exited"):
                attribute(ens, rng.random((9, 3)))
        assert multiprocessing.active_children() == []

    def test_interrupt_in_the_caller_leaves_no_child(self, rng):
        ens = random_class_ensemble(rng, 3, 2, 3, 4, zero_cover=0.0)
        with cpus(2), fork_at_rows(0, ens), interrupting_wait(1, children=2):
            with pytest.raises(KeyboardInterrupt):
                attribute(ens, rng.random((9, 3)))
        assert multiprocessing.active_children() == []

    def test_workers_ignore_ctrl_c(self, rng, capfd):
        ens = random_class_ensemble(rng, 3, 2, 3, 4, zero_cover=0.0)
        X = rng.random((9, 3))
        want = attribute(ens, X).phi.tobytes()
        with cpus(3), fork_at_rows(0, ens), \
                in_workers(lambda: os.kill(os.getpid(), signal.SIGINT)):
            assert attribute(ens, X).phi.tobytes() == want
        assert "Traceback" not in capfd.readouterr().err


class TestEdgeCases:
    def test_untrained_ensemble_zero(self):
        hp = Hyperparameters(num_rounds=0)
        ens = Ensemble(hp=hp, num_features=3, feature_names=("a", "b", "c"))
        phi, phi0 = row_shap(ens, np.zeros(3), 0)
        assert phi0 == 0.0
        np.testing.assert_array_equal(phi, np.zeros(3))

    def test_dummy_feature_exactly_zero(self, rng):
        # feature 3 never appears in any split
        trees = [stump(0, 0.5, 1.0, -1.0, 2.0, 2.0),
                 stump(1, 0.4, 0.5, 0.2, 1.0, 3.0)]
        ens = ensemble_of(trees, n_features=4)
        for _ in range(10):
            phi, _ = row_shap(ens, rng.random(4), 0)
            assert phi[2] == 0.0 and phi[3] == 0.0

    def test_oracle_refuses_wide_ensembles(self, rng):
        ens = random_ensemble(rng, 4)
        wide = Ensemble(hp=ens.hp, num_features=13,
                        feature_names=tuple(f"f{j}" for j in range(13)),
                        trees=ens.trees)
        with pytest.raises(ValueError, match="12"):
            exact_shapley_oracle(wide, np.zeros(13), 0)

    def test_symmetric_duplicate_trees(self):
        # identical games on features 0 and 1 must earn identical credit
        trees = [stump(0, 0.5, 1.0, -1.0, 2.0, 2.0),
                 stump(1, 0.5, 1.0, -1.0, 2.0, 2.0)]
        ens = ensemble_of(trees, n_features=2)
        phi, _ = row_shap(ens, np.array([0.2, 0.2]), 0)
        assert phi[0] == pytest.approx(phi[1])


class TestAggregation:
    def test_sign_cancels_under_abs(self):
        phi = np.zeros((2, 1, 3))
        phi[0, 0, 1] = 1.0
        phi[1, 0, 1] = -1.0
        attr = Attribution(phi=phi, base=np.zeros(1), feature_names=("a", "b", "c"))
        summary = aggregate_importance(attr)
        assert summary.per_class[0, 1] == 1.0
        assert summary.ranking[0] == "b"

    def test_row_permutation_invariant(self, rng):
        phi = rng.normal(size=(12, 2, 4))
        attr = Attribution(phi=phi, base=np.zeros(2),
                           feature_names=("a", "b", "c", "d"))
        shuffled = Attribution(phi=phi[rng.permutation(12)], base=np.zeros(2),
                               feature_names=("a", "b", "c", "d"))
        a = aggregate_importance(attr)
        b = aggregate_importance(shuffled)
        np.testing.assert_allclose(a.per_class, b.per_class)
        assert a.ranking == b.ranking

    def test_ranking_is_permutation(self, rng):
        phi = rng.normal(size=(5, 3, 6))
        names = tuple("abcdef")
        summary = aggregate_importance(Attribution(phi, np.zeros(3), names))
        assert sorted(summary.ranking) == sorted(names)

    def test_empty_rejected(self):
        attr = Attribution(phi=np.zeros((0, 2, 3)), base=np.zeros(2),
                           feature_names=("a", "b", "c"))
        with pytest.raises(ValueError):
            aggregate_importance(attr)

    def test_attribute_matches_margins(self, rng):
        X = rng.random((20, 4))
        y = rng.integers(0, 4, 20)
        hp = Hyperparameters(max_depth=2, num_rounds=3,
                             min_child_weight=0.0, gamma=0.0, subsample=1.0)
        model = train(X, y, hp, seed=3)
        attr = attribute(model, X)
        margins = model.margins(X)
        reconstructed = attr.base[None, :] + attr.phi.sum(axis=2)
        np.testing.assert_allclose(reconstructed, margins, atol=1e-6)

    def test_importance_csv_layout(self, rng):
        db = complete_database(40, seed=21)
        X, _ = db.feature_matrix(), None
        y = rng.integers(0, 10, 40)
        hp = Hyperparameters(max_depth=2, num_rounds=2, min_child_weight=0.0,
                             gamma=0.0, subsample=1.0)
        model = train(db.feature_matrix(), y, hp, seed=4,
                      feature_names=db.schema.names)
        summary = importance_from_database(model, db, sample=15, seed=0)
        lines = summary.to_csv().splitlines()
        assert lines[0] == "feature," + ",".join(f"class_{c}" for c in range(10)) + ",overall"
        assert len(lines) == 1 + 11
        first_feature = lines[1].split(",")[0]
        assert first_feature == summary.ranking[0]
