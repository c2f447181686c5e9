"""Pairwise hyperparameter optimization under stratified k-fold CV on mlogloss.

The search walks an ordered schedule of hyperparameter pairs. For each pair
it scores the Cartesian product of the pair's candidates (everything else
held at the current values) and adopts the minimizer, earliest candidate on
ties. Full sweeps repeat until a sweep changes nothing or the sweep budget
runs out. The search returns its trace with its pick: a start event, one
event per pair scored and a done event, the lines of `tuning_trace.jsonl`.

No setting is trained twice within one search. A search scores every
candidate through one fold pool (`_fold_pool`), which turns settings into
CV scores and keeps a memo of each setting it has scored, so the start
setting, each pair's current combination and settings revisited in a
later sweep are lookups. The settings a pair still has to score are
grouped by every field except `num_rounds`: `train` draws its per-round
random numbers independently of the round count, so the first r rounds of
a longer model are exactly the r-round model. Each group trains one model
per fold at its largest round count and reads every smaller count's
margins off `Ensemble.staged_margins` on the way, so the scores are
bit-identical to training each count on its own. A pair then costs
folds x groups trainings instead of folds x candidates; one sweep of the
default grid falls from about 13.8k to 11.4k boosting rounds per fold.

The folds are independent, so every (group, fold) training of a pair is
one task, listed group by group. A search forks its fold workers once,
one per available CPU, through `booster.forked`, the task map `train` and
`attribute` use too. The workers get the matrix and the folds through the
fork, and `forked` deals task i to worker i mod workers and gives the
results back in task order. There are never more workers than folds, so
each worker gets about the same share of every group's folds, and the
load stays even though groups cost different amounts. Each mean is taken
in fold order, so scores do not depend on the worker count; with one CPU
the tasks run in the calling process. A fold worker is daemonic, so the
`train` calls in it grow their trees in it too. An exception a fold
training raises reaches the caller unchanged, at any worker count, and a
worker that dies ends the search with `TrainingError`.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

from .booster import Hyperparameters, forked, mlogloss, softmax_margins, train
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


@contextmanager
def _fold_pool(train_db: Database, k: int, seed: int):
    """Yield `scores(candidates)`, the CV scores of a list of settings on
    the k stratified folds of `train_db`, in order: each the mean validation
    mlogloss over the folds, taken in fold order.

    The pool's memo answers every setting it has scored before. The others
    are grouped by every field except `num_rounds`, and each group is one
    job: one model per fold at the group's largest round count, scored at
    each of the group's counts off `Ensemble.staged_margins`. Every (job,
    fold) training of one call is one task of `fold_losses`, job j's fold f
    being task j * folds + f. `booster.forked` deals them to up to one child
    per fold, forked once, each holding the matrix and the folds from the
    fork, or runs them in this process with one worker. Results come back in
    task order, so the scores do not depend on the worker count, and this
    process forks no tree workers beside the fold workers.
    """
    X, y = to_matrix(train_db)
    folds = stratified_kfold(train_db, SplitSpec(k_folds=k, seed=seed))
    memo: dict[Hyperparameters, float] = {}

    def fold_losses(hp: Hyperparameters, rounds: list[int], fold: int) -> list[float]:
        """The fold's validation loss at each of the ascending round counts
        `rounds` of a model trained at `hp.num_rounds`, their largest."""
        fit_idx, val_idx = folds[fold]
        model = train(X[fit_idx], y[fit_idx], hp, seed, feature_names=train_db.schema.names)
        return [mlogloss(softmax_margins(margins), y[val_idx])
                for r, margins in enumerate(model.staged_margins(X[val_idx])) if r in rounds]

    lost = TrainingError("a fold worker process exited mid-search")
    with forked(fold_losses, lost, len(folds)) as run:
        def scores(candidates: list[Hyperparameters]) -> list[float]:
            groups: dict[Hyperparameters, set[int]] = {}
            for hp in candidates:
                if hp not in memo:
                    groups.setdefault(replace(hp, num_rounds=0), set()).add(hp.num_rounds)
            jobs = [(replace(base, num_rounds=max(counts)), sorted(counts))
                    for base, counts in groups.items()]
            losses = run([(hp, rounds, fold) for hp, rounds in jobs for fold in range(len(folds))])
            for j, (hp, rounds) in enumerate(jobs):
                per_fold = losses[j * len(folds):(j + 1) * len(folds)]
                for r, at_r in zip(rounds, zip(*per_fold)):  # at_r: one loss a fold
                    memo[replace(hp, num_rounds=r)] = float(sum(at_r) / len(per_fold))
            return [memo[hp] for hp in candidates]

        yield scores


def cross_validate(train_db: Database, hp: Hyperparameters, k: int, seed: int) -> float:
    """Mean validation mlogloss over k stratified folds: `_fold_pool`'s
    score of `hp`, its folds trained in the pool's forked workers or in this
    process. An exception a fold training raises reaches the caller
    unchanged.
    """
    with _fold_pool(train_db, k, seed) as scores:
        return scores([hp])[0]


@dataclass(frozen=True)
class TuningResult:
    hyperparameters: Hyperparameters
    cv_score: float
    sweeps: int
    evaluations: int
    trace: list[dict]  # the search's events in order, each a JSON object


def pairwise_grid_search(
    train_db: Database,
    grid: SearchGrid,
    seed: int,
    *,
    k: int = SplitSpec.k_folds,
    start: Hyperparameters | None = None,
) -> TuningResult:
    """Coordinate-descent over hyperparameter pairs, minimizing CV mlogloss.

    Deterministic in (train_db, grid, seed): every candidate is scored on
    the same folds, so scores are comparable across the search, and one
    fold pool, its workers and its memo serve the whole search. Every
    adopted value comes from its candidate list. `evaluations` counts the
    candidates scored, those the pool's memo answered included. `trace`
    holds a `start` event with the start setting's score, a `pair` event
    for each pair scored, with every candidate's score and the adopted
    values, and a `done` event with the result.
    """
    hp = start if start is not None else Hyperparameters()
    evaluations = 0
    with _fold_pool(train_db, k, seed) as scores_of:
        [current_score] = scores_of([hp])
        trace = [{"event": "start", "score": current_score, "hyperparameters": hp.to_dict()}]

        sweeps_run = 0
        for sweep in range(grid.max_sweeps):
            sweeps_run = sweep + 1
            changed = False
            for pair in grid.pairs:
                combos = list(itertools.product(*(grid.candidates[name] for name in pair)))
                candidates = [replace(hp, **dict(zip(pair, combo))) for combo in combos]
                scores = scores_of(candidates)
                evaluations += len(scores)
                best = min(range(len(scores)), key=scores.__getitem__)  # earliest of ties
                changed |= candidates[best] != hp
                hp, current_score = candidates[best], scores[best]
                trace.append({
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

    trace.append({
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
        trace=trace,
    )
