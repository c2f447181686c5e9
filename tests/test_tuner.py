import itertools
import multiprocessing
import os
import signal
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfclass import booster, tuner
from rfclass.booster import Hyperparameters, mlogloss, predict_proba, softmax_margins, train
from rfclass.errors import TrainingError
from rfclass.preprocess import SplitSpec, stratified_kfold, to_matrix
from rfclass.tuner import (SearchGrid, TuningResult, cross_validate,
                           default_grid, pairwise_grid_search)

from conftest import bounded_wait, make_database, make_record


# ---------------------------------------------------------------- oracles

def oracle_cross_validate(train_db, hp, k, seed):
    """Mean validation mlogloss over k folds, one full training per fold."""
    X, y = to_matrix(train_db)
    folds = stratified_kfold(train_db, SplitSpec(k_folds=k, seed=seed))
    losses = []
    for fit_idx, val_idx in folds:
        if val_idx.size == 0:
            continue
        model = train(X[fit_idx], y[fit_idx], hp, seed,
                      feature_names=train_db.schema.names)
        losses.append(mlogloss(predict_proba(model, X[val_idx]), y[val_idx]))
    return float(sum(losses) / len(losses))


def oracle_pairwise_grid_search(train_db, grid, seed, *, k=10, start=None):
    """The search with no memo and no prefix scoring: every candidate,
    the start and each pair's current combination included, is trained
    from scratch in every fold."""
    hp = start if start is not None else Hyperparameters()
    evaluations = 0
    current_score = oracle_cross_validate(train_db, hp, k, seed)
    trace = [{"event": "start", "score": current_score, "hyperparameters": hp.to_dict()}]

    sweeps_run = 0
    for sweep in range(grid.max_sweeps):
        sweeps_run = sweep + 1
        changed = False
        for pair in grid.pairs:
            lists = [grid.candidates[name] for name in pair]
            best_combo = None
            best_score = None
            scores = []
            for combo in itertools.product(*lists):
                candidate = replace(hp, **dict(zip(pair, combo)))
                score = oracle_cross_validate(train_db, candidate, k, seed)
                evaluations += 1
                scores.append({"values": list(combo), "score": score})
                if best_score is None or score < best_score:
                    best_score = score
                    best_combo = combo
            previous = tuple(getattr(hp, name) for name in pair)
            hp = replace(hp, **dict(zip(pair, best_combo)))
            current_score = best_score
            if tuple(getattr(hp, name) for name in pair) != previous:
                changed = True
            trace.append({
                "event": "pair",
                "sweep": sweep,
                "pair": list(pair),
                "scores": scores,
                "adopted": list(best_combo),
                "score": best_score,
            })
        if not changed:
            break

    trace.append({
        "event": "done",
        "score": current_score,
        "sweeps": sweeps_run,
        "evaluations": evaluations,
        "hyperparameters": hp.to_dict(),
    })
    return TuningResult(hyperparameters=hp, cv_score=current_score,
                        sweeps=sweeps_run, evaluations=evaluations, trace=trace)


def labeled_database(n, seed, informative=True):
    """Two well-separated feature clusters mapped to RF classes 1 and 3."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        cls = i % 2
        center = 0.25 if cls == 0 else 0.75
        values = tuple(float(v) for v in np.clip(rng.normal(center, 0.08, 11), 0, 1))
        rf = 0.15 if cls == 0 else 0.35
        if not informative:
            rf = 0.15 if rng.random() < 0.5 else 0.35
        records.append(make_record(f"r{i}", values, rf))
    return make_database(records)


def conjunction_database(n=160, noise=0.02, seed=0):
    """Three-way conjunction target: needs three split levels on one path,
    so depth 2 cannot represent it while greedy depth 4 fits it exactly."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        bits = (rng.random(3) < 0.7).astype(int)
        values = [0.25 + 0.5 * bit + rng.normal(0, noise) for bit in bits]
        values += rng.random(8).tolist()
        rf = 0.35 if bits.all() else 0.15
        records.append(make_record(f"r{i}", values, rf))
    return make_database(records)


def fast_hp(**kwargs):
    base = dict(max_depth=3, min_child_weight=0.0, learning_rate=0.3,
                subsample=1.0, colsample_bytree=1.0, colsample_bylevel=1.0,
                alpha=0.0, lambda_=0.1, gamma=0.0, max_delta_step=0.0,
                num_rounds=8)
    base.update(kwargs)
    return Hyperparameters(**base)


class TestCrossValidate:
    def test_deterministic(self):
        db = labeled_database(60, seed=1)
        a = cross_validate(db, fast_hp(), k=3, seed=7)
        b = cross_validate(db, fast_hp(), k=3, seed=7)
        assert a == b

    def test_two_rows_two_folds(self):
        db = labeled_database(2, seed=2)
        score = cross_validate(db, fast_hp(num_rounds=1), k=2, seed=0)
        assert np.isfinite(score) and score > 0

    def test_constant_labels_loss_shrinks_with_rounds(self):
        records = [make_record(f"r{i}", list(np.linspace(0.1, 0.9, 11)), 0.25)
                   for i in range(30)]
        db = make_database(records)
        short = cross_validate(db, fast_hp(num_rounds=1), k=3, seed=0)
        long = cross_validate(db, fast_hp(num_rounds=30), k=3, seed=0)
        assert long < short
        assert long < 0.05

    def test_prefix_scores_equal_separate_trainings(self):
        db = labeled_database(40, seed=12)
        hp = fast_hp(num_rounds=6, subsample=0.7, colsample_bylevel=0.6)
        rounds = [6, 0, 3, 3, 1]
        with tuner._fold_pool(db, 3, 2) as scores:
            got = scores([replace(hp, num_rounds=r) for r in rounds])
        assert got == [oracle_cross_validate(db, replace(hp, num_rounds=r), 3, 2)
                       for r in rounds]
        assert cross_validate(db, hp, k=3, seed=2) == got[0]

    def test_informative_beats_noise(self):
        good = cross_validate(labeled_database(60, 3), fast_hp(), k=3, seed=1)
        noisy = cross_validate(labeled_database(60, 3, informative=False),
                               fast_hp(), k=3, seed=1)
        assert good < noisy


class TestSearchGridValidation:
    def test_default_grid_valid(self):
        grid = default_grid()
        paired = {name for pair in grid.pairs for name in pair}
        assert paired == set(grid.candidates)
        # the search seed values all appear in their candidate lists
        start = Hyperparameters()
        for name, values in grid.candidates.items():
            assert getattr(start, name) in values

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            SearchGrid(candidates={"max_depth": []}, pairs=(("max_depth",),))

    def test_unpaired_candidate_rejected(self):
        with pytest.raises(ValueError, match="appears in no pair"):
            SearchGrid(candidates={"max_depth": [2]}, pairs=())

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="not a tunable"):
            SearchGrid(candidates={"depth": [2]}, pairs=(("depth",),))

    def test_pair_without_candidates_rejected(self):
        with pytest.raises(ValueError, match="without candidates"):
            SearchGrid(candidates={"max_depth": [2]},
                       pairs=(("max_depth", "gamma"),))

    def test_oversized_pair_rejected(self):
        with pytest.raises(ValueError, match="one or two names"):
            SearchGrid(candidates={"max_depth": [2], "gamma": [0.0], "alpha": [0.0]},
                       pairs=(("max_depth", "gamma", "alpha"),))


class TestPairwiseGridSearch:
    def test_singleton_grid_adopts_after_one_sweep(self):
        db = labeled_database(40, seed=4)
        grid = SearchGrid(
            candidates={"max_depth": [2], "min_child_weight": [1.0],
                        "learning_rate": [0.2], "num_rounds": [3]},
            pairs=(("max_depth", "min_child_weight"),
                   ("learning_rate", "num_rounds")),
        )
        result = pairwise_grid_search(db, grid, seed=0, k=3, start=fast_hp())
        hp = result.hyperparameters
        assert (hp.max_depth, hp.min_child_weight) == (2, 1.0)
        assert (hp.learning_rate, hp.num_rounds) == (0.2, 3)
        assert result.sweeps <= 2  # adopting sweep plus the no-change sweep

    def test_depth_adopted_where_shallow_cannot_fit(self):
        db = conjunction_database()
        grid = SearchGrid(candidates={"max_depth": [2, 4]},
                          pairs=(("max_depth",),), max_sweeps=2)
        start = fast_hp(max_depth=2, num_rounds=12)
        shallow = cross_validate(db, start, k=3, seed=5)
        deep = cross_validate(db, fast_hp(max_depth=4, num_rounds=12), k=3, seed=5)
        assert deep < shallow  # the conjunction needs three interacting splits
        result = pairwise_grid_search(db, grid, seed=5, k=3, start=start)
        assert result.hyperparameters.max_depth == 4
        assert result.cv_score == deep

    def test_fixed_point_terminates_before_max_sweeps(self):
        db = labeled_database(40, seed=6)
        grid = SearchGrid(candidates={"max_depth": [2, 3]},
                          pairs=(("max_depth",),), max_sweeps=5)
        result = pairwise_grid_search(db, grid, seed=1, k=3, start=fast_hp())
        assert result.sweeps < 5

    def test_never_regresses_when_start_in_grid(self):
        db = labeled_database(50, seed=7)
        start = fast_hp(max_depth=2, num_rounds=4)
        grid = SearchGrid(
            candidates={"max_depth": [2, 3], "lambda_": [0.1, 1.0]},
            pairs=(("max_depth", "lambda_"),),
        )
        start_score = cross_validate(db, start, k=3, seed=2)
        result = pairwise_grid_search(db, grid, seed=2, k=3, start=start)
        assert result.cv_score <= start_score

    def test_adopted_values_from_candidate_lists(self):
        db = labeled_database(40, seed=8)
        grid = SearchGrid(
            candidates={"max_depth": [2, 4], "gamma": [0.0, 0.2]},
            pairs=(("max_depth", "gamma"),),
        )
        result = pairwise_grid_search(db, grid, seed=3, k=3, start=fast_hp())
        assert result.hyperparameters.max_depth in (2, 4)
        assert result.hyperparameters.gamma in (0.0, 0.2)

    def test_deterministic(self):
        db = labeled_database(40, seed=9)
        grid = SearchGrid(candidates={"max_depth": [2, 3]},
                          pairs=(("max_depth",),))
        a = pairwise_grid_search(db, grid, seed=4, k=3, start=fast_hp())
        b = pairwise_grid_search(db, grid, seed=4, k=3, start=fast_hp())
        assert a == b

    def test_trace_records_pairs_and_scores(self):
        db = labeled_database(30, seed=10)
        grid = SearchGrid(candidates={"max_depth": [2, 3]},
                          pairs=(("max_depth",),), max_sweeps=1)
        entries = pairwise_grid_search(db, grid, seed=0, k=3, start=fast_hp()).trace
        events = [e["event"] for e in entries]
        assert events[0] == "start" and events[-1] == "done"
        pair_events = [e for e in entries if e["event"] == "pair"]
        assert pair_events[0]["pair"] == ["max_depth"]
        assert len(pair_events[0]["scores"]) == 2
        assert pair_events[0]["adopted"][0] in (2, 3)


# ------------------------------------------------- memo and prefix scoring

#: values the property draws candidate lists from, per tuned name
PROPERTY_VALUES = {
    "max_depth": [1, 2, 3],
    "learning_rate": [0.1, 0.3],
    "subsample": [0.6, 0.8, 1.0],
    "colsample_bytree": [0.5, 1.0],
    "colsample_bylevel": [0.5, 1.0],
    "min_child_weight": [0.0, 0.5],
}


def small_database(n, seed):
    """Random features with three RF classes, so trees split on noise."""
    rng = np.random.default_rng(seed)
    return make_database(
        make_record(f"r{i}", rng.random(11).tolist(), float(rng.choice([0.05, 0.15, 0.25])))
        for i in range(n))


def property_start(max_depth, num_rounds):
    # row and column fractions below 1, so every round draws from the RNG
    return fast_hp(max_depth=max_depth, num_rounds=num_rounds, subsample=0.8,
                   colsample_bytree=0.7, colsample_bylevel=0.7)


@st.composite
def searches(draw):
    """(database, grid, start, k, seed) for a small search that always tunes
    num_rounds and max_depth, plus up to two more names, in random pairs."""
    n = draw(st.integers(8, 30))
    db = small_database(n, draw(st.integers(0, 2**32 - 1)))
    others = sorted(set(PROPERTY_VALUES) - {"max_depth"})
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
    names = draw(st.permutations(["num_rounds", "max_depth", *extra]))
    pairs, at = [], 0
    while at < len(names):
        size = draw(st.integers(1, min(2, len(names) - at)))
        pairs.append(tuple(names[at:at + size]))
        at += size
    candidates = {"num_rounds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))}
    for name in names:
        if name != "num_rounds":
            candidates[name] = draw(st.lists(st.sampled_from(PROPERTY_VALUES[name]),
                                             min_size=1, max_size=3))
    grid = SearchGrid(candidates=candidates, pairs=tuple(pairs),
                      max_sweeps=draw(st.integers(1, 2)))
    start = property_start(draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 3)))
    return db, grid, start, draw(st.integers(2, 3)), draw(st.integers(0, 1000))


class TestMemoAndPrefixScoring:
    @settings(max_examples=25, deadline=None)
    @given(search=searches())
    @example(search=(
        small_database(24, 3),
        SearchGrid(candidates={"num_rounds": [3, 0, 3, 1], "max_depth": [2, 1, 3]},
                   pairs=(("num_rounds", "max_depth"), ("max_depth",)), max_sweeps=2),
        property_start(2, 1), 3, 11))
    def test_bit_identical_to_search_without_memo_or_prefixes(self, search):
        db, grid, start, k, seed = search
        got = pairwise_grid_search(db, grid, seed, k=k, start=start)
        want = oracle_pairwise_grid_search(db, grid, seed, k=k, start=start)
        assert got.trace == want.trace
        assert got == want

    def test_trains_each_fold_model_once(self):
        db = labeled_database(40, seed=11)
        grid = SearchGrid(
            candidates={"learning_rate": [0.1, 0.2], "num_rounds": [2, 4],
                        "max_depth": [2, 3]},
            pairs=(("learning_rate", "num_rounds"), ("max_depth",)), max_sweeps=1)
        start = fast_hp(learning_rate=0.1, num_rounds=2, max_depth=2)
        # one CPU: the fold tasks run in this process, where the mock sees them
        with mock.patch.object(os, "sched_getaffinity", return_value={0}), \
                mock.patch.object(tuner, "train", wraps=tuner.train) as counted:
            result = pairwise_grid_search(db, grid, seed=0, k=3, start=start)
        # distinct groups: the start; learning rate 0.1 (4 rounds, 2 is the
        # start) and 0.2 (2 and 4 rounds from one 4-round model); depth 3 at
        # the adopted round count (depth 2 is the current setting)
        trained = [call.args[2].num_rounds for call in counted.call_args_list]
        assert trained == [2] * 3 + [4] * 3 + [4] * 3 + [result.hyperparameters.num_rounds] * 3
        assert result.evaluations == 6


class TestPrefixLosses:
    @pytest.mark.parametrize("rounds", [[0], [5], [0, 5], [5, 2, 0, 2], [1, 3, 4]])
    def test_equal_to_predict_proba_on_each_prefix(self, rounds):
        """The fold pool reads each listed prefix off `Ensemble.staged_margins`:
        its r-th yield is the r-round prefix's margins and loss, bit for bit."""
        db = small_database(40, seed=14)
        X, y = to_matrix(db)
        model = train(X[:30], y[:30], property_start(3, 5), seed=3,
                      feature_names=db.schema.names)
        staged = [(margins.tobytes(), mlogloss(softmax_margins(margins), y[30:]))
                  for margins in model.staged_margins(X[30:])]
        assert len(staged) == 6
        for r in rounds:
            prefix = replace(model, trees=model.trees[:r])
            assert staged[r] == (prefix.margins(X[30:]).tobytes(),
                                 mlogloss(predict_proba(prefix, X[30:]), y[30:]))


def cpus(n):
    """Patch the CPUs this process may run on, and so the fold workers."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(n)))


def small_search():
    db = labeled_database(40, seed=15)
    grid = SearchGrid(candidates={"learning_rate": [0.1, 0.2], "num_rounds": [2, 4],
                                  "max_depth": [2, 3]},
                      pairs=(("learning_rate", "num_rounds"), ("max_depth",)), max_sweeps=2)
    start = property_start(2, 2)
    return pairwise_grid_search(db, grid, seed=6, k=3, start=start)


def after_each_scoring(hook):
    """Patch the search's fold pool so that `hook(call)` runs in this process
    after its `call`-th scoring call (the start's is call 0) has returned:
    between two maps of the fold workers, while they are alive."""
    pool = tuner._fold_pool

    @contextmanager
    def hooked(*args):
        with pool(*args) as scores:
            calls = itertools.count()

            def scores_then_hook(candidates):
                result = scores(candidates)
                hook(next(calls))
                return result
            yield scores_then_hook
    return mock.patch.object(tuner, "_fold_pool", hooked)


class TestFoldPool:
    def test_one_worker_gives_the_same_result_and_trace_as_two(self):
        runs = []
        for n in (1, 2, 3):
            with cpus(n):
                assert booster.worker_count(3) == n
                runs.append((small_search(),
                             cross_validate(labeled_database(30, 16), fast_hp(), k=3, seed=1)))
        assert runs[0] == runs[1] == runs[2]
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller_and_leaves_no_child(self):
        with cpus(2), mock.patch.object(tuner, "train",
                                        side_effect=TrainingError("no split left")):
            with pytest.raises(TrainingError, match="^no split left$"):
                small_search()
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_training_error_and_leaves_no_child(self):
        parent = os.getpid()

        def dies_in_a_worker(*args, **kwargs):
            assert os.getpid() != parent  # with workers, this process trains nothing
            os._exit(1)
        with cpus(2), mock.patch.object(tuner, "train", dies_in_a_worker), bounded_wait():
            with pytest.raises(TrainingError, match="^a fold worker process exited mid-search$"):
                small_search()
        assert multiprocessing.active_children() == []

    def test_a_connection_error_between_maps_is_not_taken_for_a_lost_worker(self):
        def reader_gone(call):
            if call == 1:
                raise BrokenPipeError("the caller's reader went away")
        for n in (1, 2):
            with cpus(n), after_each_scoring(reader_gone), \
                    pytest.raises(BrokenPipeError, match="^the caller's reader went away$"):
                small_search()
        assert multiprocessing.active_children() == []

    def test_interrupt_mid_search_leaves_no_child(self):
        def interrupt(call):
            if call == 1:
                raise KeyboardInterrupt
        with cpus(2), after_each_scoring(interrupt), pytest.raises(KeyboardInterrupt):
            small_search()
        assert multiprocessing.active_children() == []

    def test_workers_ignore_ctrl_c(self, capfd):
        def ctrl_c(call):  # between two maps, as a terminal's Ctrl-C reaches the workers
            if call == 0:
                workers = multiprocessing.active_children()
                assert len(workers) == 2
                for child in workers:
                    os.kill(child.pid, signal.SIGINT)
        with cpus(2):
            with after_each_scoring(ctrl_c):
                interrupted = small_search()
            assert interrupted == small_search()
        assert "Traceback" not in capfd.readouterr().err
