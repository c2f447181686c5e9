"""The columnar data-preparation functions against their record-based forms.

The oracles below are the record-by-record implementations of
`deduplicate`, `filter_ranges`, `prune_missing` and `impute` that the
columnar ones replaced: every record a tuple of Python floats and None.
The property compares both on random record databases through the bytes of
`serialize_database` (or the error raised).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfclass.dataset import (_SOURCE_PRIORITY, Database, DatabaseTag,
                             ReservoirRecord, canonical_schema, deduplicate,
                             serialize_database)
from rfclass.errors import PipelineError
from rfclass.preprocess import PruneSpec, filter_ranges, impute, prune_missing

SCHEMA = canonical_schema()
SOURCES = (DatabaseTag.TORIS, DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS)


# ---------------------------------------------------------------- oracles

def oracle_deduplicate(db: Database) -> Database:
    groups: dict[str, list[tuple[int, ReservoirRecord]]] = {}
    for idx, rec in enumerate(db.records):
        groups.setdefault(rec.key, []).append((idx, rec))
    survivors = []
    for members in groups.values():
        best = min(
            members,
            key=lambda pair: (-pair[1].present_count(), _SOURCE_PRIORITY[pair[1].source], pair[0]),
        )
        survivors.append(best)
    survivors.sort(key=lambda pair: pair[0])
    return db.with_records(rec for _, rec in survivors)


def oracle_filter_ranges(db: Database) -> Database:
    kept = []
    for rec in db.records:
        ok = True
        for feature, value in zip(db.schema.features, rec.values):
            if value is not None and not (feature.lower <= value <= feature.upper):
                ok = False
                break
        if ok:
            kept.append(rec)
    return db.with_records(kept)


def oracle_prune_missing(db: Database, feature_threshold: float, record_threshold: float) -> Database:
    records = db.records
    if not records:
        return db
    fractions = np.isnan(db.feature_matrix()).mean(axis=0)
    keep_idx = [i for i, frac in enumerate(fractions) if frac <= feature_threshold]
    if not keep_idx:
        raise PipelineError("every feature exceeds the missingness threshold")
    schema = db.schema.subset([db.schema.names[i] for i in keep_idx])
    kept = []
    for rec in records:
        values = tuple(rec.values[i] for i in keep_idx)
        missing = sum(v is None for v in values) / len(values)
        if missing <= record_threshold:
            kept.append(ReservoirRecord(rec.key, values, rec.rf, rec.source))
    return Database.from_records(db.tag, schema, kept)


def oracle_window_mode(present: list[float]) -> float:
    counts = Counter(present)
    top = max(counts.values())
    if top == 1:
        return float(np.median(present))
    return min(v for v, c in counts.items() if c == top)


def oracle_impute_column(values: list[float | None]) -> list[float]:
    vals = list(values)
    n = len(vals)
    p = 0
    prev_start = None
    while p < n:
        start, end = p, p + 10
        if end > n:
            start = p if prev_start is None else prev_start
            end = n
        missing = [i for i in range(start, end) if vals[i] is None]
        if missing:
            while 10 * len(missing) > (end - start) and end < n:
                if vals[end] is None:
                    missing.append(end)
                end += 1
            while 10 * len(missing) > (end - start) and start > 0:
                start -= 1
                if vals[start] is None:
                    missing.append(start)
            fill = oracle_window_mode([vals[i] for i in range(start, end) if vals[i] is not None])
            for i in missing:
                vals[i] = fill
        prev_start = start
        p = end
    return vals


def oracle_impute(db: Database) -> Database:
    records = db.records
    if not records:
        return db
    rf = np.array([r.rf for r in records], dtype=float)
    order = np.argsort(rf, kind="stable")
    n, d = len(records), len(db.schema.features)
    columns = []
    for j in range(d):
        col = [records[i].values[j] for i in order]
        if all(v is None for v in col):
            raise PipelineError(
                f"feature {db.schema.names[j]!r} is entirely missing; prune it first"
            )
        columns.append(oracle_impute_column(col))
    filled_rows: list[list[float]] = [[None] * d for _ in range(n)]
    for j in range(d):
        for pos, i in enumerate(order):
            filled_rows[i][j] = columns[j][pos]
    return db.with_records(
        ReservoirRecord(rec.key, tuple(filled_rows[i]), rec.rf, rec.source)
        for i, rec in enumerate(records)
    )


# ---------------------------------------------------------------- property

def random_database(seed: int, n: int, n_keys: int, out_of_range: float) -> Database:
    """Records with tied values and RFs, repeated keys of unequal completeness
    and sources, and whole columns missing at or next to the prune thresholds."""
    rng = np.random.default_rng(seed)
    d = len(SCHEMA.features)
    values = rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, 0.0, -0.0], size=(n, d))
    odd = rng.random((n, d)) < out_of_range
    values[odd] = rng.choice([0.5, 61.0, -1.0, 3.5], size=int(odd.sum()))
    missing = rng.random((n, d)) < rng.choice([0.0, 0.05, 0.2, 0.5], size=d)
    for j in range(d):
        # a whole-column gap just below, at or just above 70% missing, or total
        kind = rng.integers(4)
        if kind < 3 and rng.random() < 0.4:
            count = min(n, max(0, int(0.7 * n) + int(kind) - 1))
        elif kind == 3 and rng.random() < 0.1:
            count = n
        else:
            continue
        missing[:, j] = False
        missing[rng.permutation(n)[:count], j] = True
    rf = rng.choice([0.05, 0.15, 0.2, 0.35, 0.5, 0.95], size=n)
    records = [
        ReservoirRecord(
            key=f"k{rng.integers(n_keys)}",
            values=tuple(None if missing[i, j] else float(values[i, j]) for j in range(d)),
            rf=float(rf[i]),
            source=SOURCES[rng.integers(3)],
        )
        for i in range(n)
    ]
    return Database.from_records(DatabaseTag.TCA, SCHEMA, records)


def outcome(fn, *args):
    """Serialized result of fn(*args), or the type and message of its error."""
    try:
        return serialize_database(fn(*args))
    except (PipelineError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 90), n_keys=st.integers(1, 90),
       out_of_range=st.sampled_from([0.0, 0.02]),
       feature_threshold=st.sampled_from([0.7, 0.5, 0.9]),
       record_threshold=st.sampled_from([0.55, 0.3, 0.8]))
@example(seed=11, n=57, n_keys=20, out_of_range=0.0, feature_threshold=0.7,
         record_threshold=0.55)
def test_columnar_preparation_equals_record_oracles(seed, n, n_keys, out_of_range,
                                                    feature_threshold, record_threshold):
    db = random_database(seed, n, max(1, min(n_keys, n)), out_of_range)
    assert outcome(deduplicate, db) == outcome(oracle_deduplicate, db)
    deduped = deduplicate(db)
    assert outcome(filter_ranges, deduped) == outcome(oracle_filter_ranges, deduped)
    filtered = filter_ranges(deduped)
    prune = PruneSpec(feature_threshold, record_threshold)
    assert (outcome(prune_missing, filtered, prune)
            == outcome(oracle_prune_missing, filtered, feature_threshold, record_threshold))
    # impute both the unpruned rows (long gaps, whole missing columns) and the pruned ones
    assert outcome(impute, filtered) == outcome(oracle_impute, filtered)
    try:
        pruned = prune_missing(filtered, prune)
    except PipelineError:
        return
    assert outcome(impute, pruned) == outcome(oracle_impute, pruned)


def test_records_round_trip_and_reject_non_finite():
    db = random_database(3, 40, 10, 0.02)
    assert Database.from_records(db.tag, db.schema, db.records).records == db.records
    assert serialize_database(db.with_records(db.records)) == serialize_database(db)
    bad = ReservoirRecord("x", (float("nan"),) + (1.0,) * 10, 0.3, DatabaseTag.TORIS)
    with pytest.raises(ValueError, match="non-finite"):
        Database.from_records(DatabaseTag.TORIS, SCHEMA, [bad])


def test_database_arrays_are_read_only_views_of_the_callers():
    db = random_database(4, 12, 5, 0.02)
    values = db.values.copy()
    built = Database(db.tag, db.schema, values, db.keys, db.rf, db.sources)
    assert not built.values.flags.writeable and not built.feature_matrix().flags.writeable
    assert values.flags.writeable  # the caller's own array is not frozen
    assert np.shares_memory(built.values, values)
