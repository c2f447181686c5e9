"""Evaluation: accuracy, neighborhood accuracy, macro-averaged f1, and the
confusion bubble counts behind the estimated-vs-actual charts."""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .preprocess import N_CLASSES


def _check(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError("pred and actual must be aligned one-dimensional label arrays")
    if pred.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    return pred, actual


def accuracy(pred, actual) -> float:
    """Fraction of exact class matches."""
    pred, actual = _check(pred, actual)
    return float(np.mean(pred == actual))


def neighborhood_accuracy(pred, actual) -> float:
    """Fraction landing exactly one class above or below the actual class.

    Exact matches are excluded, so accuracy + neighborhood_accuracy never
    exceeds one and their sum is the within-one-class total accuracy.
    """
    pred, actual = _check(pred, actual)
    return float(np.mean(np.abs(pred - actual) == 1))


def macro_f1(pred, actual) -> float:
    """Per-class f1 averaged over the fixed class count.

    Classes absent from both pred and actual contribute zero, which keeps
    the denominator at `N_CLASSES` regardless of which classes appear.
    """
    pred, actual = _check(pred, actual)
    if pred.max() >= N_CLASSES or actual.max() >= N_CLASSES:
        raise ValueError(f"labels must be below N_CLASSES={N_CLASSES}")
    total = 0.0
    for c in range(N_CLASSES):
        tp = float(np.sum((pred == c) & (actual == c)))
        fp = float(np.sum((pred == c) & (actual != c)))
        fn = float(np.sum((pred != c) & (actual == c)))
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom > 0 else 0.0
    return total / N_CLASSES


def confusion_bubbles(pred, actual) -> dict[tuple[int, int], int]:
    """Sparse (predicted, actual) -> count table; diagonal mass = accuracy * N."""
    pred, actual = _check(pred, actual)
    counts: dict[tuple[int, int], int] = {}
    for p, a in zip(pred.tolist(), actual.tolist()):
        counts[(p, a)] = counts.get((p, a), 0) + 1
    return counts


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
        pred, actual = _check(pred, actual)
        acc = accuracy(pred, actual)
        neigh = neighborhood_accuracy(pred, actual)
        bubbles = tuple(
            (p, a, c) for (p, a), c in sorted(confusion_bubbles(pred, actual).items())
        )
        return cls(
            role=role,
            tag=tag,
            sample_count=int(pred.size),
            accuracy=acc,
            neighborhood_accuracy=neigh,
            total_accuracy=acc + neigh,
            macro_f1=macro_f1(pred, actual),
            bubbles=bubbles,
        )

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "tag": self.tag,
            "sample_count": self.sample_count,
            "accuracy": self.accuracy,
            "neighborhood_accuracy": self.neighborhood_accuracy,
            "total_accuracy": self.total_accuracy,
            "macro_f1": self.macro_f1,
            "bubbles": [list(b) for b in self.bubbles],
        }

    def bubbles_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["predicted_class", "actual_class", "count"])
        for p, a, c in self.bubbles:
            writer.writerow([p, a, c])
        return buf.getvalue()


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "database",
        "n_train", "train_accuracy", "train_macro_f1",
        "n_test", "test_accuracy", "test_macro_f1",
        "independent_database", "n_independent",
        "independent_accuracy", "independent_macro_f1",
    ])
    writer.writerow([
        combo,
        train.sample_count, _acc_cell(train), _f1_cell(train),
        test.sample_count, _acc_cell(test), _f1_cell(test),
        independent.tag if independent else "",
        independent.sample_count if independent else "",
        _acc_cell(independent), _f1_cell(independent),
    ])
    return buf.getvalue()
