"""Pairwise hyperparameter optimization under stratified k-fold CV on mlogloss.

The search walks an ordered schedule of hyperparameter pairs. For each pair
it scores the Cartesian product of the pair's candidates (everything else
held at the current values) and adopts the minimizer, earliest candidate on
ties. Full sweeps repeat until a sweep changes nothing or the sweep budget
runs out.

No setting is trained twice within one search. A memo maps each scored
setting to its CV score, so the start setting, each pair's current
combination and settings revisited in a later sweep are lookups. The
settings a pair still has to score are grouped by every field except
`num_rounds`: `train` draws its per-round random numbers independently of
the round count, so the first r rounds of a longer model are exactly the
r-round model. Each group trains one model per fold at its largest round
count and scores every smaller count on a prefix of its trees, and the
scores are bit-identical to training each count on its own. A pair then
costs folds x groups trainings instead of folds x candidates; one sweep of
the default grid falls from about 13.8k to 11.4k boosting rounds per fold.

The folds are independent, so every (group, fold) training of a pair is
one task. A search forks its fold workers once, one per available CPU,
through `booster.forked`, the lifecycle `train` and `attribute` use too.
The workers get the matrix and the folds through the fork and train one
task per message; the caller hands each task to whichever worker is free
and keeps the result at the task's index. Each mean is taken in fold order,
so scores do not depend on the worker count; with one CPU the tasks run in
the calling process. A fold worker is daemonic, so the `train` calls in it
grow their trees in it too. An exception a fold training raises reaches
the caller unchanged, at any worker count, and a worker that dies ends the
search with `TrainingError`.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from multiprocessing.connection import wait
from typing import Callable

import numpy as np

from .booster import (Ensemble, Hyperparameters, forked, mlogloss, softmax_margins, train,
                      worker_count)
from .booster import predict_proba  # noqa: F401 -- unused; perfbench/tracing.py wraps it here
from .dataset import Database
from .errors import TrainingError
from .preprocess import SplitSpec, stratified_kfold, to_matrix

TUNABLE = tuple(f.name for f in fields(Hyperparameters))


@dataclass(frozen=True)
class SearchGrid:
    candidates: dict[str, list] = field(default_factory=dict)
    pairs: tuple[tuple[str, ...], ...] = ()
    max_sweeps: int = 3

    def __post_init__(self):
        if not isinstance(self.candidates, dict) or not all(
                isinstance(values, (list, tuple)) for values in self.candidates.values()):
            raise ValueError(f"candidates must map names to lists, got {self.candidates!r}")
        if not isinstance(self.pairs, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and all(isinstance(name, str) for name in pair)
                for pair in self.pairs):
            raise ValueError(f"pairs must be lists of names, got {self.pairs!r}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        paired = {name for pair in self.pairs for name in pair}
        for name, values in self.candidates.items():
            if name not in TUNABLE:
                raise ValueError(f"{name!r} is not a tunable hyperparameter")
            if not values:
                raise ValueError(f"empty candidate list for {name!r}")
            if name not in paired:
                raise ValueError(f"{name!r} has candidates but appears in no pair")
            for value in values:  # a value the settings would reject
                Hyperparameters.from_dict({name: value})
        for pair in self.pairs:
            if not 1 <= len(pair) <= 2 or len(set(pair)) != len(pair):
                raise ValueError(f"pairs must hold one or two names, each once, got {pair}")
            for name in pair:
                if name not in self.candidates:
                    raise ValueError(f"pair references {name!r} without candidates")


def default_grid() -> SearchGrid:
    """Candidate lists bracketing the tuned per-combination settings.

    Every list contains the corresponding Hyperparameters() default, so a
    search started from the defaults can never end worse than them.
    """
    return SearchGrid(
        candidates={
            "max_depth": [2, 3, 4, 5, 6],
            "min_child_weight": [1.0, 2.0, 3.0, 6.0],
            "learning_rate": [0.03, 0.05, 0.1, 0.2],
            "num_rounds": [50, 100, 200, 400],
            "subsample": [0.8, 0.9, 1.0],
            "colsample_bytree": [0.9, 1.0],
            "alpha": [0.2, 0.3, 0.8, 0.9],
            "lambda_": [0.01, 0.03, 0.04, 0.06],
            "gamma": [0.0, 0.01, 0.1],
            "max_delta_step": [0.0, 0.1, 0.2],
            "colsample_bylevel": [0.9, 1.0],
        },
        pairs=(
            ("max_depth", "min_child_weight"),
            ("learning_rate", "num_rounds"),
            ("subsample", "colsample_bytree"),
            ("alpha", "lambda_"),
            ("gamma", "max_delta_step"),
            ("colsample_bylevel",),
        ),
    )


def _prefix_losses(model: Ensemble, X: np.ndarray, y: np.ndarray, rounds: list[int]) -> list[float]:
    """mlogloss on (X, y) of the first r rounds of `model`, for each r listed.

    The margins are added up round by round in round order, as
    `Ensemble.margins` adds them, so each loss equals `predict_proba` on the
    r-round prefix bit for bit while every tree is walked once.
    """
    X = np.ascontiguousarray(X)
    margins = np.zeros((X.shape[0], model.hp.num_class))
    losses, done = {}, 0
    for r in sorted(set(rounds)):
        for round_trees in model.trees[done:r]:
            for k, tree in enumerate(round_trees):
                margins[:, k] += tree.predict_margin(X)
        losses[r], done = mlogloss(softmax_margins(margins), y), r
    return [losses[r] for r in rounds]


@contextmanager
def _fold_pool(train_db: Database, k: int, seed: int):
    """Yield `means(jobs)`, which scores a list of (hp, rounds) jobs on the
    k stratified folds of `train_db`: for each job, the mean validation
    mlogloss of each listed prefix of hp's model, folds averaged in fold
    order.

    Every (job, fold) training of one call is one task. With one worker
    the tasks run in this process; otherwise `worker_count` workers are
    `forked` once, each holding the matrix and the folds from the fork and
    answering one (hp, rounds, fold) task per message until it is sent
    None, and this process only hands the next task to a free worker and
    files each result by task index. So the means do not depend on the
    worker count, and this process forks no tree workers beside them.
    """
    X, y = to_matrix(train_db)
    folds = [(fit_idx, val_idx) for fit_idx, val_idx
             in stratified_kfold(train_db, SplitSpec(k_folds=k, seed=seed)) if val_idx.size]

    def fold_losses(hp: Hyperparameters, rounds: list[int], fold: int) -> list[float]:
        """The fold's validation loss at each listed prefix of a model
        trained at `hp.num_rounds`."""
        fit_idx, val_idx = folds[fold]
        model = train(X[fit_idx], y[fit_idx], hp, seed, feature_names=train_db.schema.names)
        return _prefix_losses(model, X[val_idx], y[val_idx], rounds)

    def serve(conn) -> None:  # a fold worker's whole task
        while (task := conn.recv()) is not None:
            conn.send(fold_losses(*task))

    workers = worker_count(len(folds))
    works = [serve] * workers if workers > 1 else []
    with forked(works, TrainingError("a fold worker process exited mid-search")) as conns:
        def run(tasks: list) -> list[list[float]]:
            if not conns:
                return [fold_losses(*task) for task in tasks]
            losses, busy, idle = [None] * len(tasks), {}, list(conns)
            todo = list(enumerate(tasks))[::-1]
            while todo or busy:
                while idle and todo:
                    conn, (i, task) = idle.pop(), todo.pop()
                    conn.send(task)
                    busy[conn] = i
                for conn in wait(list(busy)):
                    losses[busy.pop(conn)] = conn.recv()
                    idle.append(conn)
            return losses

        def means(jobs: list[tuple[Hyperparameters, list[int]]]) -> list[list[float]]:
            losses = run([(hp, rounds, fold) for hp, rounds in jobs for fold in range(len(folds))])
            out = []
            for j, (_, rounds) in enumerate(jobs):
                per_fold = losses[j * len(folds):(j + 1) * len(folds)]
                out.append([float(sum(fold[i] for fold in per_fold) / len(per_fold))
                            for i in range(len(rounds))])
            return out

        yield means
        for conn in conns:
            conn.send(None)


def cross_validate(train_db: Database, hp: Hyperparameters, k: int, seed: int, *,
                   rounds: list[int] | None = None) -> float | list[float]:
    """Mean validation mlogloss over k stratified folds.

    With `rounds`, each fold's model is trained once at `hp.num_rounds` and
    scored on its first r rounds for every r listed; the result holds one
    mean per listed r, each equal to a plain call with `num_rounds=r`. The
    folds train in `_fold_pool`'s workers, and an exception a fold training
    raises reaches the caller unchanged.
    """
    prefixes = [hp.num_rounds] if rounds is None else list(rounds)
    if any(not 0 <= r <= hp.num_rounds for r in prefixes):
        raise ValueError(f"prefix round counts must lie in [0, {hp.num_rounds}]")
    with _fold_pool(train_db, k, seed) as means:
        [scores] = means([(hp, prefixes)])
    return scores[0] if rounds is None else scores


def _scores(means: Callable, candidates: list[Hyperparameters],
            memo: dict[Hyperparameters, float]) -> list[float]:
    """CV scores of `candidates` in order, filling `memo` with those not in it.

    Unscored candidates that differ only in `num_rounds` form one job,
    trained at their largest round count, and every job of the call is
    scored in one `means` call.
    """
    groups: dict[Hyperparameters, set[int]] = {}
    for hp in candidates:
        if hp not in memo:
            groups.setdefault(replace(hp, num_rounds=0), set()).add(hp.num_rounds)
    jobs = [(replace(base, num_rounds=max(counts)), sorted(counts))
            for base, counts in groups.items()]
    for (hp, rounds), scores in zip(jobs, means(jobs)):
        for r, score in zip(rounds, scores):
            memo[replace(hp, num_rounds=r)] = score
    return [memo[hp] for hp in candidates]


@dataclass(frozen=True)
class TuningResult:
    hyperparameters: Hyperparameters
    cv_score: float
    sweeps: int
    evaluations: int


def pairwise_grid_search(
    train_db: Database,
    grid: SearchGrid,
    seed: int,
    *,
    k: int = SplitSpec.k_folds,
    start: Hyperparameters | None = None,
    trace_sink: Callable[[dict], None] | None = None,
) -> TuningResult:
    """Coordinate-descent over hyperparameter pairs, minimizing CV mlogloss.

    Deterministic in (train_db, grid, seed): every candidate is scored on
    the same folds, so scores are comparable across the search, and one
    pool of fold workers serves the whole search. Every adopted value comes
    from its candidate list. `evaluations` counts the candidates scored,
    memo lookups included.
    """
    hp = start if start is not None else Hyperparameters()
    memo: dict[Hyperparameters, float] = {}
    evaluations = 0
    with _fold_pool(train_db, k, seed) as means:
        [current_score] = _scores(means, [hp], memo)
        if trace_sink:
            trace_sink({"event": "start", "score": current_score, "hyperparameters": hp.to_dict()})

        sweeps_run = 0
        for sweep in range(grid.max_sweeps):
            sweeps_run = sweep + 1
            changed = False
            for pair in grid.pairs:
                combos = list(itertools.product(*(grid.candidates[name] for name in pair)))
                candidates = [replace(hp, **dict(zip(pair, combo))) for combo in combos]
                scores = _scores(means, candidates, memo)
                evaluations += len(scores)
                best = min(range(len(scores)), key=scores.__getitem__)  # earliest of ties
                changed |= candidates[best] != hp
                hp, current_score = candidates[best], scores[best]
                if trace_sink:
                    trace_sink({
                        "event": "pair",
                        "sweep": sweep,
                        "pair": list(pair),
                        "scores": [{"values": list(combo), "score": score}
                                   for combo, score in zip(combos, scores)],
                        "adopted": list(combos[best]),
                        "score": current_score,
                    })
            if not changed:
                break

    if trace_sink:
        trace_sink({
            "event": "done",
            "score": current_score,
            "sweeps": sweeps_run,
            "evaluations": evaluations,
            "hyperparameters": hp.to_dict(),
        })
    return TuningResult(
        hyperparameters=hp,
        cv_score=current_score,
        sweeps=sweeps_run,
        evaluations=evaluations,
    )
