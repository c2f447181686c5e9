import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfclass.dataset import canonical_schema
from rfclass.errors import FitError, PipelineError
from rfclass.preprocess import (SplitSpec, apply_transforms,
                                bin_rf, class_labels, complete_cases,
                                filter_ranges, fit_transforms, impute,
                                prune_missing, stratified_kfold,
                                stratified_split)

from conftest import complete_database, make_database, make_record

NAMES = canonical_schema().names


# ---------------------------------------------------------------- oracles

def erfinv_oracle(y: float) -> float:
    """Bisection on math.erf; independent of the scipy implementation."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def impute_column_oracle(values):
    """Straight-line transliteration of the windowed-mode procedure."""
    vals = list(values)
    n = len(vals)
    position = 0
    previous_start = None
    while position < n:
        start = position
        end = position + 10
        if end > n:  # tail shorter than ten entries
            end = n
            if previous_start is not None:
                start = previous_start
        window = vals[start:end]
        if any(v is None for v in window):
            # grow forward one at a time while the missing share exceeds 10%
            while True:
                window = vals[start:end]
                n_missing = sum(v is None for v in window)
                if n_missing / len(window) <= 0.10 or end >= n:
                    break
                end += 1
            # at the column end, grow backward instead
            while True:
                window = vals[start:end]
                n_missing = sum(v is None for v in window)
                if n_missing / len(window) <= 0.10 or start <= 0:
                    break
                start -= 1
            present = [v for v in vals[start:end] if v is not None]
            counts = Counter(present)
            top = max(counts.values())
            if top == 1:
                fill = float(np.median(present))
            else:
                fill = min(v for v, c in counts.items() if c == top)
            for i in range(start, end):
                if vals[i] is None:
                    vals[i] = fill
        previous_start = start
        position = end
    return vals


def db_from_column(column, rfs):
    records = [
        make_record(f"r{i:03d}", [v] + [1.0] * 10, rf)
        for i, (v, rf) in enumerate(zip(column, rfs))
    ]
    return make_database(records)


# ---------------------------------------------------------------- bin_rf

class TestBinRf:
    def test_interval_membership(self):
        assert bin_rf(0.25) == 2

    def test_top_class(self):
        assert bin_rf(0.95) == 9

    def test_clamps_above_one(self):
        # published RF maxima reach 1.44 and 2.32; both stay in class 9
        assert bin_rf(1.44) == 9
        assert bin_rf(2.32) == 9

    def test_left_closed_boundaries(self):
        assert bin_rf(0.0) == 0
        assert bin_rf(0.1) == 1
        assert bin_rf(0.9) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bin_rf(-0.01)

    @given(st.floats(min_value=0.0, max_value=2.32, allow_nan=False))
    def test_partitions_published_range(self, rf):
        c = bin_rf(rf)
        assert 0 <= c <= 9
        if c < 9:
            assert c / 10 <= rf < (c + 1) / 10
        else:
            assert rf >= 0.9


# ---------------------------------------------------------------- filters

class TestFilterRanges:
    def test_bo_below_range_removed(self):
        rec = make_record("a", [30.0, 0.5] + [1.0] * 9, 0.3)
        assert len(filter_ranges(make_database([rec]))) == 0

    def test_bo_in_range_retained(self):
        rec = make_record("a", [30.0, 2.0] + [1.0] * 9, 0.3)
        assert len(filter_ranges(make_database([rec]))) == 1

    def test_gor_above_range_removed(self):
        values = [30.0, 2.0, 70.0] + [1.0] * 8
        assert len(filter_ranges(make_database([make_record("a", values, 0.3)]))) == 0

    def test_missing_value_does_not_trigger(self):
        values = [30.0, None, None] + [1.0] * 8
        assert len(filter_ranges(make_database([make_record("a", values, 0.3)]))) == 1

    def test_bounds_inclusive(self):
        values = [30.0, 1.0, 60.0] + [1.0] * 8
        assert len(filter_ranges(make_database([make_record("a", values, 0.3)]))) == 1


class TestPruneMissing:
    def _db(self, missing_in_first: int, n: int = 100):
        records = []
        for i in range(n):
            first = None if i < missing_in_first else 1.0
            records.append(make_record(f"r{i}", [first] + [1.0] * 10, 0.3))
        return make_database(records)

    def test_feature_dropped_above_threshold(self):
        out = prune_missing(self._db(71))
        assert "api_gravity" not in out.schema.names
        assert len(out.schema.names) == 10

    def test_feature_kept_at_threshold(self):
        out = prune_missing(self._db(70))
        assert "api_gravity" in out.schema.names

    def test_record_dropped_above_threshold(self):
        # 7 of 11 surviving features missing = 63.6% > 55%
        good = make_record("good", [1.0] * 11, 0.3)
        bad = make_record("bad", [1.0] * 4 + [None] * 7, 0.3)
        out = prune_missing(make_database([good, bad]))
        assert [r.key for r in out.records] == ["good"]

    def test_record_kept_at_55_percent(self):
        # 6 of 11 missing = 54.5% <= 55%
        rec = make_record("edge", [1.0] * 5 + [None] * 6, 0.3)
        out = prune_missing(make_database([make_record("good", [1.0] * 11, 0.3), rec]))
        assert "edge" in {r.key for r in out.records}

    def test_all_features_dropped(self):
        records = [make_record(f"r{i}", [None] * 11, 0.3) for i in range(10)]
        with pytest.raises(PipelineError):
            prune_missing(make_database(records))

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            prune_missing(self._db(0), feature_threshold=1.5)


# ---------------------------------------------------------------- impute

class TestImpute:
    def test_hand_traced_window(self):
        column = [1.0, 1.0, 2.0, None, 3.0, 1.0, 1.0, 2.0, 2.0, 1.0]
        rfs = [i / 100 for i in range(10)]  # already RF-ordered
        records = impute(db_from_column(column, rfs)).records
        assert records[3].values[0] == 1.0  # window mode
        for i in (0, 1, 2, 4, 5, 6, 7, 8, 9):
            assert records[i].values[0] == column[i]

    def test_window_grows_to_twenty(self):
        # two missing of ten -> grow until 2/20 = 10%; mode over the 20 entries
        column = [5.0, 5.0, None, None, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0] + [7.0] * 10
        rfs = [i / 100 for i in range(20)]
        out = impute(db_from_column(column, rfs))
        filled = [out.records[i].values[0] for i in (2, 3)]
        # the grown 20-entry window holds ten 7s, so 7 is its mode
        assert filled == [7.0, 7.0]
        assert impute_column_oracle(column)[2:4] == [7.0, 7.0]

    def test_no_missing_is_noop(self):
        column = [float(i) for i in range(25)]
        rfs = [i / 100 for i in range(25)]
        db = db_from_column(column, rfs)
        assert impute(db).records == db.records

    def test_never_alters_present_values(self, rng):
        column = [None if rng.random() < 0.2 else float(rng.integers(5)) for _ in range(83)]
        if all(v is None for v in column):
            column[0] = 1.0
        rfs = rng.random(83).tolist()
        db = db_from_column(column, rfs)
        out = impute(db)
        for before, after in zip(db.records, out.records):
            if before.values[0] is not None:
                assert after.values[0] == before.values[0]

    def test_idempotent(self, rng):
        column = [None if rng.random() < 0.25 else float(rng.integers(4)) for _ in range(57)]
        column[10] = 2.0
        rfs = rng.random(57).tolist()
        once = impute(db_from_column(column, rfs))
        assert impute(once).records == once.records

    def test_entirely_missing_column_fails(self):
        records = [make_record(f"r{i}", [None] + [1.0] * 10, 0.3) for i in range(12)]
        with pytest.raises(PipelineError, match="entirely missing"):
            impute(make_database(records))

    def test_matches_straight_line_oracle(self, rng):
        for trial in range(60):
            n = int(rng.integers(5, 120))
            rate = 0.05 + 0.25 * rng.random()
            column = [
                None if rng.random() < rate else float(rng.integers(0, 6))
                for _ in range(n)
            ]
            if all(v is None for v in column):
                column[int(rng.integers(n))] = 1.0
            rfs = rng.random(n).tolist()
            db = db_from_column(column, rfs)
            out = impute(db)
            # oracle works on the RF-sorted column
            order = np.argsort(np.array(rfs), kind="stable")
            sorted_col = [column[i] for i in order]
            expected_sorted = impute_column_oracle(sorted_col)
            expected = dict(zip(order.tolist(), expected_sorted))
            records = out.records
            got = [records[i].values[0] for i in range(n)]
            assert got == [expected[i] for i in range(n)], f"trial {trial}"

    def test_requires_rf(self):
        with pytest.raises(ValueError):
            impute(make_database([make_record("a", [None] + [1.0] * 10, None)]))


# ---------------------------------------------------------------- transforms

def transform_db(column):
    rfs = [0.1 + 0.8 * i / max(len(column) - 1, 1) for i in range(len(column))]
    records = [
        make_record(f"r{i}", [v] + list(np.linspace(1, 2, 10) + i), rf)
        for i, (v, rf) in enumerate(zip(column, rfs))
    ]
    return make_database(records)


class TestFitTransforms:
    def test_three_value_rank_plateaus(self):
        params = fit_transforms(transform_db([5.0, 1.0, 3.0]))
        np.testing.assert_allclose(params.transforms[0].u, [1 / 6, 1 / 2, 5 / 6])

    def test_tie_averaged_rank(self):
        # values [1, 2, 2, 3]: the duplicated pair shares rank (1+2)/2 = 1.5
        params = fit_transforms(transform_db([1.0, 2.0, 2.0, 3.0]))
        t = params.transforms[0]
        np.testing.assert_allclose(t.values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(t.u, [0.5 / 4, 2.0 / 4, 3.5 / 4])

    def test_constant_feature_rejected(self):
        with pytest.raises(FitError, match="api_gravity"):
            fit_transforms(transform_db([2.0, 2.0, 2.0]))

    def test_smallest_of_three_matches_erfinv_oracle(self):
        params = fit_transforms(transform_db([5.0, 1.0, 3.0]))
        z = params.transforms[0].z_of(1.0)
        expected = math.sqrt(2.0) * erfinv_oracle(-2.0 / 3.0)
        assert abs(expected - (-0.9674)) < 1e-4
        assert abs(float(z) - expected) < 1e-9

    def test_z_range_symmetric_median_at_half(self):
        params = fit_transforms(transform_db([1.0, 2.0, 3.0, 4.0, 5.0]))
        t = params.transforms[0]
        assert t.z_min == -t.z_max
        assert float(t.normalized(3.0)) == 0.5


class TestApplyTransforms:
    def test_output_in_unit_interval(self, rng):
        train = complete_database(300, seed=5)
        test = complete_database(80, seed=6)
        params = fit_transforms(train)
        for db in (apply_transforms(train, params), apply_transforms(test, params)):
            matrix = db.feature_matrix()
            assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_training_extremes_map_to_unit_ends(self):
        train = transform_db([4.0, 2.0, 9.0, 7.0])
        params = fit_transforms(train)
        out = apply_transforms(train, params)
        values = [r.values[0] for r in out.records]
        assert min(values) == 0.0 and max(values) == 1.0
        assert values[1] == 0.0 and values[2] == 1.0

    def test_out_of_range_clips(self):
        train = transform_db([1.0, 2.0, 3.0])
        params = fit_transforms(train)
        t = params.transforms[0]
        assert float(t.normalized(-100.0)) == 0.0
        assert float(t.normalized(100.0)) == 1.0

    def test_gaussian_rank_output_symmetric_skew(self, rng):
        values = rng.lognormal(1.0, 1.0, size=400)
        values += np.arange(values.size) * 1e-9  # force distinct
        train = transform_db(values.tolist())
        params = fit_transforms(train)
        z = params.transforms[0].z_of(values)
        skew = float(np.mean((z - z.mean()) ** 3) / np.std(z) ** 3)
        assert abs(skew) < 0.3

    def test_schema_mismatch_rejected(self):
        from rfclass.dataset import Database, ReservoirRecord
        train = complete_database(30, seed=7)
        params = fit_transforms(train)
        schema = train.schema.subset(list(train.schema.names[:-1]))
        narrowed = Database.from_records(
            train.tag, schema,
            (ReservoirRecord(r.key, r.values[:-1], r.rf, r.source) for r in train.records),
        )
        with pytest.raises(ValueError, match="schema mismatch"):
            apply_transforms(narrowed, params)


# ---------------------------------------------------------------- splits

class TestStratifiedSplit:
    def test_even_class_allocation(self):
        records = []
        for i in range(50):
            records.append(make_record(f"a{i}", [1.0] * 11, 0.05))
        for i in range(50):
            records.append(make_record(f"b{i}", [1.0] * 11, 0.15))
        train, test = stratified_split(make_database(records), SplitSpec(seed=3))
        test_labels = class_labels(test)
        assert (test_labels == 0).sum() == 5
        assert (test_labels == 1).sum() == 5

    def test_overall_test_size(self):
        db = complete_database(1000, seed=8)
        train, test = stratified_split(db, SplitSpec(seed=1))
        assert abs(len(test) - 100) <= 10  # one record per class of slack

    def test_deterministic(self):
        db = complete_database(200, seed=9)
        a = stratified_split(db, SplitSpec(seed=42))
        b = stratified_split(db, SplitSpec(seed=42))
        assert [r.key for r in a[1].records] == [r.key for r in b[1].records]

    def test_partition(self):
        db = complete_database(157, seed=10)
        train, test = stratified_split(db, SplitSpec(seed=0))
        train_keys = {r.key for r in train.records}
        test_keys = {r.key for r in test.records}
        assert not train_keys & test_keys
        assert len(train_keys) + len(test_keys) == len(db)

    def test_per_class_proportion_bound(self):
        db = complete_database(500, seed=11)
        labels = class_labels(db)
        _, test = stratified_split(db, SplitSpec(seed=2))
        test_labels = class_labels(test)
        for c in np.unique(labels):
            total = (labels == c).sum()
            got = (test_labels == c).sum()
            assert abs(got - 0.1 * total) <= 1

    def test_small_class_keeps_a_training_record(self):
        records = [make_record("a", [1.0] * 11, 0.05),
                   make_record("b", [1.0] * 11, 0.07)]
        records += [make_record(f"c{i}", [1.0] * 11, 0.55) for i in range(20)]
        train, test = stratified_split(make_database(records), SplitSpec(seed=0))
        train_labels = class_labels(train).tolist()
        test_labels = class_labels(test).tolist()
        assert train_labels.count(0) == 1 and test_labels.count(0) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(make_database([]), SplitSpec(seed=0))


class TestStratifiedKfold:
    def test_even_folds(self):
        db = complete_database(100, seed=12, n_classes_span=0.2)
        folds = stratified_kfold(db, SplitSpec(seed=0, k_folds=10))
        assert all(val.size == 10 for _, val in folds)

    def test_class_of_ten_spreads_one_per_fold(self):
        records = [make_record(f"a{i}", [1.0] * 11, 0.05) for i in range(10)]
        records += [make_record(f"b{i}", [1.0] * 11, 0.15) for i in range(90)]
        db = make_database(records)
        labels = class_labels(db)
        folds = stratified_kfold(db, SplitSpec(seed=1, k_folds=10))
        for _, val in folds:
            assert (labels[val] == 0).sum() == 1

    def test_partition_laws(self):
        db = complete_database(123, seed=13)
        folds = stratified_kfold(db, SplitSpec(seed=5, k_folds=10))
        all_val = np.concatenate([val for _, val in folds])
        assert len(all_val) == len(db)
        assert len(np.unique(all_val)) == len(db)
        for fit, val in folds:
            assert not set(fit.tolist()) & set(val.tolist())
            assert len(fit) + len(val) == len(db)

    def test_per_class_fold_counts_within_one(self):
        db = complete_database(217, seed=14)
        labels = class_labels(db)
        folds = stratified_kfold(db, SplitSpec(seed=7, k_folds=10))
        for c in np.unique(labels):
            counts = [(labels[val] == c).sum() for _, val in folds]
            assert max(counts) - min(counts) <= 1

    def test_k_above_size_rejected(self):
        db = complete_database(5, seed=15)
        with pytest.raises(ValueError):
            stratified_kfold(db, SplitSpec(seed=0, k_folds=10))


def test_complete_cases():
    records = [
        make_record("full", [1.0] * 11, 0.3),
        make_record("hole", [1.0] * 10 + [None], 0.3),
        make_record("norf", [1.0] * 11, None),
    ]
    out = complete_cases(make_database(records))
    assert [r.key for r in out.records] == ["full"]
