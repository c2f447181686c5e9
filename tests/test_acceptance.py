"""Acceptance suite: one pass/fail line per criterion, with stated budgets.

The database-dependence runs (criterion 8) are executed once per session and
reused by the importance (9) and determinism (10) checks.
"""

import math
import time

import numpy as np
import pytest

from rfclass.booster import Hyperparameters, leaf_weight, train
from rfclass.explain import attribute
from rfclass.metrics import accuracy, macro_f1, neighborhood_accuracy
from rfclass.pipeline import PipelineConfig, run_pipeline
from rfclass.preprocess import (SplitSpec, apply_transforms, class_labels,
                                fit_transforms, impute, stratified_kfold,
                                stratified_split)
from rfclass.synth import generate, preset

from conftest import complete_database, random_tree
from test_booster import find_best_split, random_split_instance, split_oracle
from test_explain import ensemble_of, exact_shapley_oracle
from test_preprocess import (db_from_column, erfinv_oracle,
                             impute_column_oracle, transform_db)


def report(number: int, description: str, elapsed: float, budget: float) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:6.2f}s / budget {budget:.0f}s): "
          f"{description}", flush=True)
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


# -------------------------------------------------------------- criterion 1

def test_criterion_01_metric_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, 10, n)
        actual = rng.integers(0, 10, n)
        acc = accuracy(pred, actual)
        neigh = neighborhood_accuracy(pred, actual)
        assert acc + neigh <= 1.0 + 1e-12
        within_one = float(np.mean(np.abs(pred - actual) <= 1))
        assert acc + neigh == pytest.approx(within_one, abs=1e-12)
    assert accuracy([2, 3, 4, 9], [2, 4, 0, 9]) == 0.5
    assert neighborhood_accuracy([2, 3, 4, 9], [2, 4, 0, 9]) == 0.25
    assert macro_f1([0, 0, 1], [0, 1, 1]) == pytest.approx(2 / 15, abs=1e-15)
    report(1, "metric identities on 1000 random arrays + hand cases",
           time.perf_counter() - start, 1.0)


# -------------------------------------------------------------- criterion 2

def test_criterion_02_boosting_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(500):
        g, h, column, hp = random_split_instance(rng, dyadic=trial % 2 == 0)
        got = find_best_split(g, h, column, hp)
        expected = split_oracle(g, h, column, hp)
        if expected is None:
            assert got is None, f"instance {trial}"
        else:
            assert got is not None and got[0] == expected[0], f"instance {trial}"
            # gains agree to float accumulation order (relative 1e-12)
            tol = 1e-12 * max(1.0, abs(expected[1]))
            assert abs(got[1] - expected[1]) < tol, f"instance {trial}"
    for _ in range(500):
        G = float(rng.normal() * 6)
        H = float(rng.random() * 4)
        hp = Hyperparameters(alpha=float(rng.random()), lambda_=float(rng.random()),
                             max_delta_step=float(rng.choice([0.0, 0.25])))
        expected = -math.copysign(max(abs(G) - hp.alpha, 0.0), G) / (H + hp.lambda_)
        if hp.max_delta_step > 0:
            expected = max(-hp.max_delta_step, min(hp.max_delta_step, expected))
        assert abs(leaf_weight(G, H, hp) - expected) < 1e-12
    report(2, "split search matches enumeration on 500 instances; "
              "leaf weight matches closed form at 1e-12",
           time.perf_counter() - start, 5.0)


# -------------------------------------------------------------- criterion 3

def test_criterion_03_monotone_training_loss():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(10):
        n = int(rng.integers(40, 70))
        X = rng.random((n, int(rng.integers(3, 6))))
        y = rng.integers(0, 10, n)
        hp = Hyperparameters(
            max_depth=2, min_child_weight=0.0, learning_rate=0.1,
            subsample=1.0, colsample_bytree=1.0, colsample_bylevel=1.0,
            alpha=0.0, lambda_=0.1, gamma=0.0, max_delta_step=0.1,
            num_rounds=100,
        )
        model = train(X, y, hp, seed=trial)
        losses = np.array(model.training_loss)
        assert losses.size == 101
        assert (np.diff(losses) <= 1e-12).all(), f"set {trial}"
    report(3, "training mlogloss non-increasing over 100 rounds on 10 sets",
           time.perf_counter() - start, 30.0)


# -------------------------------------------------------------- criterion 4

def test_criterion_04_shap_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(404)

    for trial in range(100):
        n_features = int(rng.integers(2, 13))
        n_trees = int(rng.integers(1, 4))
        trees = []
        while True:
            trees = [random_tree(rng, n_features, int(rng.integers(1, 4)))
                     for _ in range(n_trees)]
            if sum(t.n_leaves() for t in trees) <= 50:
                break
        ens = ensemble_of(trees, n_features)
        x = rng.random(n_features)
        phi = attribute(ens, x[None, :]).phi[0, 0]
        oracle = exact_shapley_oracle(ens, x, 0)
        np.testing.assert_allclose(phi, oracle, atol=1e-6,
                                   err_msg=f"ensemble {trial}")

    # local accuracy on every row of a 1000-row synthetic set
    X = rng.random((1000, 8))
    y = rng.integers(0, 10, 1000)
    hp = Hyperparameters(max_depth=3, min_child_weight=0.5, learning_rate=0.2,
                         subsample=0.9, alpha=0.1, lambda_=0.2, gamma=0.0,
                         max_delta_step=0.3, num_rounds=6)
    model = train(X, y, hp, seed=44)
    margins = model.margins(X)
    attribution = attribute(model, X)
    for i in range(1000):
        c = int(rng.integers(10))
        phi, phi0 = attribution.phi[i, c], attribution.base[c]
        assert abs(phi0 + phi.sum() - margins[i, c]) < 1e-6, f"row {i}"

    # dummy features earn exactly zero
    trees = [random_tree(rng, 3, 2) for _ in range(3)]
    ens = ensemble_of(trees, 6)  # features 3..5 never split
    for _ in range(20):
        phi = attribute(ens, rng.random((1, 6))).phi[0, 0]
        assert phi[3] == 0.0 and phi[4] == 0.0 and phi[5] == 0.0
    report(4, "tree SHAP = exact Shapley oracle on 100 ensembles at 1e-6; "
              "local accuracy on 1000 rows; dummies exactly zero",
           time.perf_counter() - start, 60.0)


# -------------------------------------------------------------- criterion 5

def test_criterion_05_imputation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for trial in range(200):
        n = int(rng.integers(5, 150))
        rate = 0.05 + 0.25 * rng.random()
        column = [None if rng.random() < rate else float(rng.integers(0, 7))
                  for _ in range(n)]
        if all(v is None for v in column):
            column[int(rng.integers(n))] = 3.0
        rfs = rng.random(n).tolist()
        out = impute(db_from_column(column, rfs))
        order = np.argsort(np.array(rfs), kind="stable")
        expected_sorted = impute_column_oracle([column[i] for i in order])
        expected = dict(zip(order.tolist(), expected_sorted))
        records = out.records
        got = [records[i].values[0] for i in range(n)]
        assert got == [expected[i] for i in range(n)], f"column {trial}"
    report(5, "windowed-mode imputer matches the straight-line oracle "
              "exactly on 200 randomized columns",
           time.perf_counter() - start, 5.0)


# -------------------------------------------------------------- criterion 6

def test_criterion_06_transform_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(606)

    # [0, 1] on training data and on shifted out-of-range test data
    for trial in range(20):
        train_db = complete_database(int(rng.integers(20, 200)), seed=trial)
        params = fit_transforms(train_db)
        out = apply_transforms(train_db, params)
        matrix = out.feature_matrix()
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0
        for t in params.transforms:
            probe = np.array([-1e6, 1e6, float(rng.normal(scale=100))])
            normalized = t.normalized(probe)
            assert normalized.min() >= 0.0 and normalized.max() <= 1.0

    # symmetric ranks: the training median lands on 0.5
    params = fit_transforms(transform_db([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert float(params.transforms[0].normalized(3.0)) == 0.5

    # N = 3 smallest value against the high-precision erfinv oracle
    params = fit_transforms(transform_db([5.0, 1.0, 3.0]))
    z = float(params.transforms[0].z_of(1.0))
    expected = math.sqrt(2.0) * erfinv_oracle(-2.0 / 3.0)
    assert abs(expected + 0.9674) < 1e-4
    assert abs(z - expected) < 1e-4
    report(6, "rank transform stays in [0,1]; median -> 0.5; "
              "N=3 case matches the erfinv oracle at 1e-4",
           time.perf_counter() - start, 1.0)


# -------------------------------------------------------------- criterion 7

def test_criterion_07_stratification():
    start = time.perf_counter()
    db = generate(preset("toris"), 5000, seed=77)
    db = impute(db)
    labels = class_labels(db)
    class_totals = {int(c): int((labels == c).sum()) for c in np.unique(labels)}

    for seed in range(100):
        _, test = stratified_split(db, SplitSpec(test_fraction=0.1, seed=seed))
        test_labels = class_labels(test)
        for c, total in class_totals.items():
            got = int((test_labels == c).sum())
            assert abs(got - 0.1 * total) <= 1, f"seed {seed}, class {c}"

    folds = stratified_kfold(db, SplitSpec(k_folds=10, seed=7))
    all_val = np.concatenate([val for _, val in folds])
    assert len(all_val) == len(db) and len(np.unique(all_val)) == len(db)
    for fit, val in folds:
        assert not set(fit.tolist()) & set(val.tolist())
    for c in class_totals:
        counts = [int((labels[val] == c).sum()) for _, val in folds]
        assert max(counts) - min(counts) <= 1
    report(7, "100 seeded splits within one record of 10% per class; "
              "10-fold partitions disjoint/covering with balanced classes",
           time.perf_counter() - start, 10.0)


# ---------------------------------------------------- criteria 8 + 9 + 10

ACCEPTANCE_HP = {
    "max_depth": 4, "min_child_weight": 2, "learning_rate": 0.1,
    "subsample": 0.9, "colsample_bytree": 1.0, "colsample_bylevel": 1.0,
    "alpha": 0.2, "lambda": 0.03, "gamma": 0.01, "max_delta_step": 0.2,
    "num_class": 10, "num_rounds": 60,
}

CORE_DRIVERS = {"reserves", "area", "thickness", "permeability"}


def dependence_config(combo: str, seed: int) -> PipelineConfig:
    return PipelineConfig.from_dict({
        "combo": combo,
        "seed": seed,
        "synth": {"n": 2000, "divergence": 1.0},
        "hyperparameters": dict(ACCEPTANCE_HP),
        "shap_sample": 40,
    })


@pytest.fixture(scope="module")
def dependence_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("dependence")
    start = time.perf_counter()
    runs = {}
    for combo in ("TC", "TA", "CA"):
        for seed in range(100, 110):
            result = run_pipeline(dependence_config(combo, seed),
                                  base / f"{combo.lower()}_{seed}")
            runs[(combo, seed)] = result
    runs[("TCA", 100)] = run_pipeline(dependence_config("TCA", 100), base / "tca_100")
    return {"runs": runs, "elapsed": time.perf_counter() - start, "base": base}


@pytest.mark.slow
def test_criterion_08_database_dependence(dependence_runs):
    runs = dependence_runs["runs"]
    for combo in ("TC", "TA", "CA"):
        ordered = 0
        for seed in range(100, 110):
            reports = runs[(combo, seed)].reports
            ordered += (reports["train"].accuracy >= reports["test"].accuracy
                        >= reports["independent"].accuracy)
        assert ordered >= 8, f"{combo}: only {ordered}/10 seeds ordered"

    tca = runs[("TCA", 100)]
    assert "independent" not in tca.reports
    summary = tca.summary_path.read_text().splitlines()
    assert summary[1].endswith(",,,,")  # no independent columns
    report(8, "train >= test >= independent in >= 8/10 seeds per combo; "
              "TCA emits no independent row",
           dependence_runs["elapsed"], 600.0)


@pytest.mark.slow
def test_criterion_09_importance_ground_truth(dependence_runs):
    runs = dependence_runs["runs"]
    hits = 0
    for seed in range(100, 110):
        top4 = set(runs[("TC", seed)].importance_ranking[:4])
        hits += len(top4 & CORE_DRIVERS) >= 3
    assert hits >= 8, f"core drivers in top-4 for only {hits}/10 runs"
    report(9, "reserves/area/thickness/permeability hold >= 3 of the top 4 "
              f"importance ranks in {hits}/10 runs (budget shared with 8)",
           0.0, 600.0)


@pytest.mark.slow
def test_criterion_10_determinism(dependence_runs, tmp_path):
    start = time.perf_counter()
    first = dependence_runs["runs"][("TC", 100)]
    rerun = run_pipeline(dependence_config("TC", 100), tmp_path / "rerun")
    assert rerun.summary_path.read_bytes() == first.summary_path.read_bytes()
    assert rerun.model_path.read_bytes() == first.model_path.read_bytes()
    report(10, "identical config + seed reproduce summary CSV and model "
               "byte-for-byte", time.perf_counter() - start, 600.0)
