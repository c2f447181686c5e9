"""Reservoir databases: CSV ingestion, provenance tags, merging, de-duplication.

A Database is columnar and immutable: one read-only (n, d) float64 matrix
of feature values in schema order, NaN marking a missing cell, beside
per-row arrays of normalized keys, recovery factors and source tags (so
merged databases remain auditable). Operations are array operations that
return new databases. `Database.records` and `Database.from_records`
convert to and from ReservoirRecord rows, with None for a missing cell.
"""

import csv
import io
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import IngestError

RF_COLUMN = "RF"

# Cell tokens treated as missing (case-insensitive, after stripping).
MISSING_TOKENS = frozenset({"", "na", "n/a", "null"})


class DatabaseTag(Enum):
    TORIS = "TORIS"
    COMMERCIAL = "Commercial"
    ATLAS = "Atlas"
    TC = "TC"
    TA = "TA"
    CA = "CA"
    TCA = "TCA"

    @property
    def is_source(self) -> bool:
        return self in _SOURCE_PRIORITY

    @property
    def source_tags(self) -> tuple["DatabaseTag", ...]:
        """The source tags a merged tag is built from (a source maps to itself)."""
        return _MERGE_SOURCES.get(self, (self,))


_SOURCE_PRIORITY = {
    DatabaseTag.TORIS: 0,
    DatabaseTag.COMMERCIAL: 1,
    DatabaseTag.ATLAS: 2,
}

_MERGE_SOURCES = {
    DatabaseTag.TC: (DatabaseTag.TORIS, DatabaseTag.COMMERCIAL),
    DatabaseTag.TA: (DatabaseTag.TORIS, DatabaseTag.ATLAS),
    DatabaseTag.CA: (DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS),
    DatabaseTag.TCA: (DatabaseTag.TORIS, DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS),
}


#: A `source` cell's accepted spellings, compared in lower case.
_SOURCE_TOKENS = {name.lower(): tag for tag in _SOURCE_PRIORITY for name in (tag.value, tag.name)}


def parse_tag(text: str) -> DatabaseTag:
    for tag in DatabaseTag:
        if text.strip().lower() in (tag.value.lower(), tag.name.lower()):
            return tag
    raise ValueError(f"unknown database tag: {text!r}")


@dataclass(frozen=True)
class Feature:
    """One input feature with its unit and admissible value range."""

    name: str
    unit: str
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"feature {self.name}: lower bound must be below upper bound")


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[Feature, ...]
    target: str = RF_COLUMN

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def subset(self, keep: list[str]) -> "FeatureSchema":
        """Schema restricted to `keep`, preserving the original feature order."""
        kept = tuple(f for f in self.features if f.name in set(keep))
        return FeatureSchema(features=kept, target=self.target)


#: The eleven input features every source database reports, with the
#: published admissible ranges (Bo, GOR and reserves carry both bounds;
#: the rest only a physical non-negativity floor where one applies).
def canonical_schema(range_overrides: dict[str, tuple[float, float]] | None = None) -> FeatureSchema:
    base = [
        Feature("api_gravity", "degAPI"),
        Feature("bo", "RB/STB", 1.0, 3.0),
        Feature("gor", "MSCF/RB", 0.0, 60.0),
        Feature("water_saturation", "fraction", 0.0),
        Feature("temperature", "degF"),
        Feature("pressure", "psi", 0.0),
        Feature("thickness", "ft", 0.0),
        Feature("reserves", "STB", 0.0, 5.0e11),
        Feature("permeability", "mD", 0.0),
        Feature("porosity", "fraction", 0.0),
        Feature("area", "acre", 0.0),
    ]
    overrides = range_overrides or {}
    unknown = set(overrides) - {f.name for f in base}
    if unknown:
        raise ValueError(f"range override for unknown feature(s): {sorted(unknown)}")
    features = tuple(
        Feature(f.name, f.unit, *overrides[f.name]) if f.name in overrides else f
        for f in base
    )
    return FeatureSchema(features=features)


def normalize_key(text: str) -> str:
    """Reservoir identity used for de-duplication: lowercase, whitespace collapsed."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True)
class ReservoirRecord:
    """One row of a Database as plain Python values; None marks a missing cell."""

    key: str
    values: tuple[float | None, ...]
    rf: float | None
    source: DatabaseTag

    def present_count(self) -> int:
        return sum(v is not None for v in self.values)


def _nan_for_none(cells) -> np.ndarray:
    """Float array of numbers and None (any nesting), NaN for None; raises
    ValueError for a non-finite number, so NaN only ever means missing."""
    cells = np.array(cells, dtype=object)
    missing = np.equal(cells, None)
    cells[missing] = math.nan
    values = cells.astype(float)
    if not np.isfinite(values[~missing]).all():
        raise ValueError("records hold a non-finite number; None marks a missing value")
    return values


@dataclass(frozen=True, eq=False)
class Database:
    """Rows under one schema: an (n, d) `values` matrix, NaN where a cell is
    missing, and per-row `keys`, `rf` (NaN when missing) and `sources`."""

    tag: DatabaseTag
    schema: FeatureSchema
    values: np.ndarray
    keys: np.ndarray
    rf: np.ndarray
    sources: np.ndarray

    def __post_init__(self):
        n = self.keys.shape[0]
        if (self.values.shape != (n, len(self.schema.features))
                or self.rf.shape != (n,) or self.sources.shape != (n,)):
            raise ValueError("values, keys, rf and sources disagree on the row count "
                             "or the schema width")
        for name in ("values", "keys", "rf", "sources"):
            view = getattr(self, name).view()  # shares the data; the caller's array stays writable
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def from_records(cls, tag: DatabaseTag, schema: FeatureSchema, records) -> "Database":
        """Columnar database of ReservoirRecord rows (None marks a missing value)."""
        d = len(schema.features)
        keys, rows, rf, sources = list(zip(*((r.key, r.values, r.rf, r.source)
                                             for r in records))) or [()] * 4
        if any(len(row) != d for row in rows):
            raise ValueError(f"every record needs {d} values, one per schema feature")
        return cls(tag, schema, _nan_for_none(rows).reshape(len(rows), d),
                   np.array(keys, dtype=object), _nan_for_none(rf),
                   np.array(sources, dtype=object))

    @property
    def records(self) -> tuple[ReservoirRecord, ...]:
        """The rows as ReservoirRecords, NaN turned into None. Each access
        builds every record anew (O(n·d)): read it once, not per row."""
        def cells(array):
            out = array.astype(object)
            out[np.isnan(array)] = None
            return out.tolist()

        return tuple(
            ReservoirRecord(key, tuple(values), rf, source)
            for key, values, rf, source in zip(
                self.keys.tolist(), cells(self.values), cells(self.rf), self.sources.tolist())
        )

    def with_records(self, records) -> "Database":
        return Database.from_records(self.tag, self.schema, records)

    def take(self, rows) -> "Database":
        """The rows an index array or boolean mask selects, in that order."""
        return replace(self, values=self.values[rows], keys=self.keys[rows],
                       rf=self.rf[rows], sources=self.sources[rows])

    def select_features(self, indices: list[int]) -> "Database":
        """Only the feature columns at `indices` (ascending), schema narrowed to match."""
        schema = self.schema.subset([self.schema.names[i] for i in indices])
        return replace(self, schema=schema, values=self.values[:, indices])

    def __len__(self) -> int:
        return self.keys.shape[0]

    def feature_matrix(self) -> np.ndarray:
        """(n_records, n_features) read-only float matrix, NaN marking missing cells."""
        return self.values

    def is_complete(self) -> bool:
        return not (np.isnan(self.values).any() or np.isnan(self.rf).any())


def _parse_cell(token: str, line: int, column: str) -> float:
    """The cell's number, NaN for a missing token."""
    stripped = token.strip()
    if stripped.lower() in MISSING_TOKENS:
        return math.nan
    try:
        value = float(stripped)
    except ValueError:
        raise IngestError(f"line {line}, column {column!r}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise IngestError(f"line {line}, column {column!r}: non-finite value {token!r}")
    return value


def parse_database(
    csv_text: str,
    tag: DatabaseTag,
    schema: FeatureSchema,
    *,
    key_column: str = "key",
    rf_column: str = RF_COLUMN,
    column_map: dict[str, str] | None = None,
) -> Database:
    """Parse one CSV into a Database.

    Empty cells and missing tokens become missing values; rows without an RF
    value are dropped. A `source` column, when present, restores per-record
    provenance (required when `tag` is a merged tag); otherwise every record
    is tagged with `tag` itself. Malformed rows raise IngestError naming the
    line and column.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty CSV: no header row") from None
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}
    repeated = sorted({name for name in header if name and header.count(name) > 1})
    if repeated:  # blank cells, such as trailing commas, name no column
        raise IngestError(f"repeated column(s) in header: {repeated}")

    column_map = column_map or {}
    feature_cols = [column_map.get(f.name, f.name) for f in schema.features]
    needed = [key_column, rf_column, *feature_cols]
    missing_cols = [c for c in needed if c not in positions]
    if missing_cols:
        raise IngestError(f"missing column(s) in header: {missing_cols}")
    source_pos = positions.get("source")
    if source_pos is None and not tag.is_source:
        raise IngestError(f"merged tag {tag.value} requires a 'source' column")

    rf_pos, key_pos = positions[rf_column], positions[key_column]
    feature_pos = [positions[col] for col in feature_cols]
    keys, rfs, sources, rows = [], [], [], []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise IngestError(f"line {line}: expected {len(header)} fields, found {len(row)}")
        rf = _parse_cell(row[rf_pos], line, rf_column)
        if rf != rf:
            continue  # no target value: the row cannot be used at all
        if rf < 0:
            raise IngestError(f"line {line}, column {rf_column!r}: negative recovery factor {rf}")
        key = normalize_key(row[key_pos])
        if not key:
            raise IngestError(f"line {line}, column {key_column!r}: empty key")
        source = tag if source_pos is None else _SOURCE_TOKENS.get(row[source_pos].strip().lower())
        if source is None:
            raise IngestError(f"line {line}, column 'source': {row[source_pos]!r} is not a source tag")
        keys.append(key)
        rfs.append(rf)
        sources.append(source)
        rows.append([_parse_cell(row[p], line, col)
                     for p, col in zip(feature_pos, feature_cols)])
    return Database(tag, schema, np.array(rows, dtype=float).reshape(len(rows), len(feature_cols)),
                    np.array(keys, dtype=object), np.array(rfs, dtype=float),
                    np.array(sources, dtype=object))


def format_real(x: float) -> str:
    """Decimal rendering at 17 significant digits (round-trips float64 exactly)."""
    return format(float(x), ".17g")


#: Rows serialized at a time, each block into its own string. Converting a
#: whole 45k-row database to Python floats at once, and growing one buffer
#: to the full text, held about 20 MB beside the text, and the process's
#: peak memory varied by as much again from run to run with where the
#: allocator placed those blocks.
SERIALIZE_BLOCK = 1024


def serialize_database(db: Database) -> str:
    """Canonical CSV form: key, source, features in schema order, RF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["key", "source", *db.schema.names, RF_COLUMN])
    parts = [buf.getvalue()]
    numbers = np.column_stack([db.values, db.rf])
    for start in range(0, len(db), SERIALIZE_BLOCK):
        block = slice(start, start + SERIALIZE_BLOCK)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, source, cells in zip(db.keys[block].tolist(), db.sources[block].tolist(),
                                      numbers[block].tolist()):
            writer.writerow([key, source.value,
                             *("" if x != x else format_real(x) for x in cells)])
        parts.append(buf.getvalue())
    return "".join(parts)


def merge(sources: list[Database], combo: DatabaseTag) -> Database:
    """Concatenate source databases under a merged tag.

    The source tags must match the combo's required set exactly (no
    duplicates, no extras). Records keep their own source tags.
    """
    if combo.is_source:
        raise ValueError(f"{combo.value} is a source tag, not a merge combination")
    given = [db.tag for db in sources]
    required = set(combo.source_tags)
    if len(set(given)) != len(given):
        raise ValueError(f"duplicate source tags: {[t.value for t in given]}")
    if set(given) != required:
        raise ValueError(
            f"combo {combo.value} requires sources {sorted(t.value for t in required)}, "
            f"got {sorted(t.value for t in given)}"
        )
    schema = sources[0].schema
    for db in sources[1:]:
        if db.schema != schema:
            raise ValueError("cannot merge databases with different schemas")
    return Database(
        tag=combo, schema=schema,
        values=np.concatenate([db.values for db in sources]),
        keys=np.concatenate([db.keys for db in sources]),
        rf=np.concatenate([db.rf for db in sources]),
        sources=np.concatenate([db.sources for db in sources]),
    )


def deduplicate(db: Database) -> Database:
    """Keep one record per key: the most complete one.

    Ties break by source priority (TORIS, then Commercial, then Atlas), then
    by input order. Records with unique keys always survive, and survivors
    keep their input order.
    """
    first_seen: dict[str, int] = {}
    group = np.array([first_seen.setdefault(k, len(first_seen)) for k in db.keys.tolist()],
                     dtype=np.int64)
    present = np.count_nonzero(~np.isnan(db.values), axis=1)
    priority = np.array([_SOURCE_PRIORITY[s] for s in db.sources.tolist()], dtype=np.int64)
    # lexsort is stable, so input order settles what the other keys leave tied
    order = np.lexsort((priority, -present, group))
    _, first = np.unique(group[order], return_index=True)
    return db.take(np.sort(order[first]))
