import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfclass.metrics import (EvaluationReport, accuracy, confusion_bubbles,
                             macro_f1, neighborhood_accuracy, summary_csv)

labels_arrays = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60)


class TestAccuracy:
    def test_half(self):
        assert accuracy([2, 3, 4, 9], [2, 4, 0, 9]) == 0.5

    def test_identity(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([0, 0], [1, 2]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestNeighborhoodAccuracy:
    def test_quarter(self):
        # only the 3-vs-4 pair lands one class away
        assert neighborhood_accuracy([2, 3, 4, 9], [2, 4, 0, 9]) == 0.25

    def test_exact_matches_excluded(self):
        assert neighborhood_accuracy([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_one_above(self):
        assert neighborhood_accuracy([1, 2, 3], [0, 1, 2]) == 1.0


class TestMacroF1:
    def test_hand_computed_two_classes(self):
        # class 0: P=1/2 R=1 f1=2/3; class 1: P=1 R=1/2 f1=2/3; rest 0
        assert abs(macro_f1([0, 0, 1], [0, 1, 1]) - 2 / 15) < 1e-12

    def test_perfect_all_ten_classes(self):
        labels = list(range(10)) * 3
        assert macro_f1(labels, labels) == 1.0

    def test_perfect_two_of_ten_classes(self):
        # fixed denominator: two perfect classes over ten
        labels = [0, 0, 1, 1]
        assert macro_f1(labels, labels) == pytest.approx(0.2)

    def test_zero_division_yields_zero(self):
        assert macro_f1([0, 0], [1, 1]) == 0.0

    def test_label_above_range_rejected(self):
        with pytest.raises(ValueError):
            macro_f1([10], [0])

    @given(labels_arrays, labels_arrays)
    def test_bounded(self, pred, actual):
        n = min(len(pred), len(actual))
        value = macro_f1(pred[:n], actual[:n])
        assert 0.0 <= value <= 1.0


class TestConfusionBubbles:
    def test_tally(self):
        assert confusion_bubbles([2, 2, 3], [2, 3, 3]) == {
            (2, 2): 1, (2, 3): 1, (3, 3): 1
        }

    def test_counts_conserve(self, rng):
        pred = rng.integers(0, 10, 200)
        actual = rng.integers(0, 10, 200)
        counts = confusion_bubbles(pred, actual)
        assert sum(counts.values()) == 200

    def test_diagonal_mass_equals_accuracy(self, rng):
        pred = rng.integers(0, 4, 150)
        actual = rng.integers(0, 4, 150)
        counts = confusion_bubbles(pred, actual)
        diagonal = sum(c for (p, a), c in counts.items() if p == a)
        assert diagonal == round(accuracy(pred, actual) * 150)

    def test_diagonal_only_iff_perfect(self):
        counts = confusion_bubbles([1, 2], [1, 2])
        assert all(p == a for p, a in counts)


class TestJointProperties:
    @given(labels_arrays, labels_arrays)
    def test_accuracy_plus_neighborhood_bounded(self, pred, actual):
        n = min(len(pred), len(actual))
        pred, actual = pred[:n], actual[:n]
        total = accuracy(pred, actual) + neighborhood_accuracy(pred, actual)
        assert total <= 1.0 + 1e-12
        within_one = np.mean(np.abs(np.array(pred) - np.array(actual)) <= 1)
        assert total == pytest.approx(float(within_one))

    @given(labels_arrays, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pred, rnd):
        actual = list(reversed(pred))
        order = list(range(len(pred)))
        rnd.shuffle(order)
        pred_s = [pred[i] for i in order]
        actual_s = [actual[i] for i in order]
        assert accuracy(pred_s, actual_s) == pytest.approx(accuracy(pred, actual))
        assert neighborhood_accuracy(pred_s, actual_s) == pytest.approx(
            neighborhood_accuracy(pred, actual))
        assert macro_f1(pred_s, actual_s) == pytest.approx(macro_f1(pred, actual))

    def test_equality_attainable(self):
        # every prediction within one class: accuracy + neighborhood = 1
        pred = [1, 2, 3, 3]
        actual = [1, 1, 3, 4]
        assert accuracy(pred, actual) + neighborhood_accuracy(pred, actual) == 1.0


class TestEvaluationReport:
    def test_from_predictions_invariants(self, rng):
        pred = rng.integers(0, 10, 300)
        actual = rng.integers(0, 10, 300)
        report = EvaluationReport.from_predictions("test", "TC", pred, actual)
        assert report.sample_count == 300
        assert report.total_accuracy == pytest.approx(
            report.accuracy + report.neighborhood_accuracy)
        assert report.total_accuracy <= 1.0
        assert sum(c for _, _, c in report.bubbles) == 300

    def test_bubbles_csv_header(self):
        report = EvaluationReport.from_predictions("test", "TC", [1], [1])
        lines = report.bubbles_csv().splitlines()
        assert lines[0] == "predicted_class,actual_class,count"
        assert lines[1] == "1,1,1"


class TestSummaryCsv:
    def _report(self, role, tag):
        return EvaluationReport.from_predictions(role, tag, [1, 2, 3, 4], [1, 2, 4, 6])

    def test_layout_with_independent(self):
        text = summary_csv("TC", self._report("train", "TC"),
                           self._report("test", "TC"),
                           self._report("independent", "Atlas"))
        header, row = text.splitlines()
        assert header.startswith("database,n_train,train_accuracy")
        cells = row.split(",")
        assert cells[0] == "TC"
        assert cells[2] == "0.5000 (0.2500)"
        assert "Atlas" in row

    def test_layout_without_independent(self):
        text = summary_csv("TCA", self._report("train", "TCA"),
                           self._report("test", "TCA"), None)
        row = text.splitlines()[1]
        assert row.endswith(",,,,")
        assert "independent" not in row
