"""Evaluation: accuracy, neighborhood accuracy, macro-averaged f1, and the
confusion bubble counts behind the estimated-vs-actual charts, all read off
one table of (predicted, actual) label counts."""

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import csv_text
from .preprocess import N_CLASSES


def _counts(pred, actual) -> np.ndarray:
    """The (N_CLASSES, N_CLASSES) table of (predicted, actual) label counts,
    after checking the labels: aligned, one-dimensional, non-empty and in
    [0, N_CLASSES)."""
    pred = np.asarray(pred, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError("pred and actual must be aligned one-dimensional label arrays")
    if pred.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    if min(pred.min(), actual.min()) < 0 or max(pred.max(), actual.max()) >= N_CLASSES:
        raise ValueError(f"labels must lie in [0, {N_CLASSES})")
    cells = np.bincount(pred * N_CLASSES + actual, minlength=N_CLASSES * N_CLASSES)
    return cells.reshape(N_CLASSES, N_CLASSES)


def _accuracy(counts: np.ndarray) -> float:
    return int(np.trace(counts)) / int(counts.sum())


def _neighborhood_accuracy(counts: np.ndarray) -> float:
    return int(np.trace(counts, 1) + np.trace(counts, -1)) / int(counts.sum())


def _macro_f1(counts: np.ndarray) -> float:
    # a class's 2tp + fp + fn is its predicted count plus its actual count
    denominators = counts.sum(axis=1) + counts.sum(axis=0)
    total = 0.0
    for tp, denom in zip(np.diag(counts).tolist(), denominators.tolist()):  # in class order
        total += 2 * tp / denom if denom > 0 else 0.0
    return total / N_CLASSES


def _bubbles(counts: np.ndarray) -> dict[tuple[int, int], int]:
    pred, actual = np.nonzero(counts)  # in (predicted, actual) order
    return dict(zip(zip(pred.tolist(), actual.tolist()), counts[pred, actual].tolist()))


def accuracy(pred, actual) -> float:
    """Fraction of exact class matches."""
    return _accuracy(_counts(pred, actual))


def neighborhood_accuracy(pred, actual) -> float:
    """Fraction landing exactly one class above or below the actual class.

    Exact matches are excluded, so accuracy + neighborhood_accuracy never
    exceeds one and their sum is the within-one-class total accuracy.
    """
    return _neighborhood_accuracy(_counts(pred, actual))


def macro_f1(pred, actual) -> float:
    """Per-class f1 averaged over the fixed class count.

    Classes absent from both pred and actual contribute zero, which keeps
    the denominator at `N_CLASSES` regardless of which classes appear.
    """
    return _macro_f1(_counts(pred, actual))


def confusion_bubbles(pred, actual) -> dict[tuple[int, int], int]:
    """Sparse (predicted, actual) -> count table; diagonal mass = accuracy * N."""
    return _bubbles(_counts(pred, actual))


@dataclass(frozen=True)
class EvaluationReport:
    role: str          # train / test / independent
    tag: str           # database combination or independent source name
    sample_count: int
    accuracy: float
    neighborhood_accuracy: float
    total_accuracy: float
    macro_f1: float
    bubbles: tuple[tuple[int, int, int], ...]  # (predicted, actual, count)

    @classmethod
    def from_predictions(cls, role: str, tag: str, pred, actual) -> "EvaluationReport":
        counts = _counts(pred, actual)
        acc, neigh = _accuracy(counts), _neighborhood_accuracy(counts)
        return cls(
            role=role,
            tag=tag,
            sample_count=int(counts.sum()),
            accuracy=acc,
            neighborhood_accuracy=neigh,
            total_accuracy=acc + neigh,
            macro_f1=_macro_f1(counts),
            bubbles=tuple((p, a, c) for (p, a), c in _bubbles(counts).items()),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def bubbles_csv(self) -> str:
        return csv_text([("predicted_class", "actual_class", "count"), *self.bubbles])


def _acc_cell(report: EvaluationReport | None) -> str:
    if report is None:
        return ""
    return f"{report.accuracy:.4f} ({report.neighborhood_accuracy:.4f})"


def _f1_cell(report: EvaluationReport | None) -> str:
    return "" if report is None else f"{report.macro_f1:.4f}"


def summary_csv(
    combo: str,
    train: EvaluationReport,
    test: EvaluationReport,
    independent: EvaluationReport | None,
) -> str:
    """One-row summary table: per role, accuracy with neighborhood accuracy
    in parentheses, then macro f1; independent columns stay empty when the
    combination leaves no database out."""
    return csv_text([[
        "database",
        "n_train", "train_accuracy", "train_macro_f1",
        "n_test", "test_accuracy", "test_macro_f1",
        "independent_database", "n_independent",
        "independent_accuracy", "independent_macro_f1",
    ], [
        combo,
        train.sample_count, _acc_cell(train), _f1_cell(train),
        test.sample_count, _acc_cell(test), _f1_cell(test),
        independent.tag if independent else "",
        independent.sample_count if independent else "",
        _acc_cell(independent), _f1_cell(independent),
    ]])
