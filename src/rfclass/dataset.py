"""Reservoir databases: CSV ingestion, provenance tags, merging, de-duplication.

A Database is columnar and immutable: one read-only (n, d) float64 matrix
of feature values in schema order, NaN marking a missing cell, beside
per-row arrays of normalized keys, recovery factors and source tags (so
merged databases remain auditable). Operations are array operations that
return new databases. `Database.records` and `Database.from_records`
convert to and from ReservoirRecord rows, with None for a missing cell.

One table, `_TAG_TOKENS`, maps the spellings of every tag for `parse_tag`
and for a CSV's `source` column, which takes only source tags. CSVs are
read and written CSV_BLOCK rows at a time. `parse_database` checks a block
column by column, parsing each distinct token once, and raises the fault a
row-by-row reading would meet first. `serialize_database` formats a block's
numbers with one `%` at 17 significant digits, so `parse_database` reads
back the same float64 bits.
"""

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress

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


#: Every tag by its value and its name, in lower case: the spellings
#: `parse_tag` and a `source` cell accept, ignoring case and padding.
_TAG_TOKENS = {name.lower(): tag for tag in DatabaseTag for name in (tag.value, tag.name)}


def parse_tag(text: str) -> DatabaseTag:
    try:
        return _TAG_TOKENS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown database tag: {text!r}") from None


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
        return FeatureSchema(features=kept)


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


#: Rows read or written at a time, each block into its own arrays or
#: string. Converting a whole 45k-row database to Python floats at once,
#: and growing one buffer to the full text, held about 20 MB beside the
#: text, and the process's peak memory varied by as much again from run to
#: run with where the allocator placed those blocks. Parsing a whole
#: source's columns at once likewise raised the parse's peak by half.
CSV_BLOCK = 1024

#: Characters for which `serialize_database` quotes a key. `csv.writer`
#: with a "\n" line end would leave a bare "\r" unquoted, and
#: `csv.reader` could not read that key back.
_QUOTABLE = re.compile(r'[,"\r\n]')


def _fault(line: int, reason, column: str | None = None) -> str:
    """The message of an IngestError at a CSV line, and column if one is at fault."""
    where = f"line {line}" if column is None else f"line {line}, column {column!r}"
    return f"{where}: {reason}"


def _parse_cell(token: str) -> float:
    """The cell's number, NaN for a missing token; ValueError says why a
    token is neither. A number `float` reads but a decimal grammar does
    not, one holding `_` (`1_5`) or a non-ASCII character (the
    Arabic-Indic digit `٢`), is refused."""
    try:
        value = float(token)  # which ignores padding, as `strip` does
    except ValueError:
        if token.strip().lower() in MISSING_TOKENS:  # none of them is a number
            return math.nan
        raise ValueError(f"cannot parse {token!r} as a number") from None
    if "_" in token or not token.isascii():
        raise ValueError(f"cannot parse {token!r} as a number")
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _parse_rf(token: str) -> float:
    rf = _parse_cell(token)
    if rf < 0:
        raise ValueError(f"negative recovery factor {rf}")
    return rf


def _parse_key(token: str) -> str:
    key = normalize_key(token)
    if not key:
        raise ValueError("empty key")
    return key


def _parse_source(token: str) -> DatabaseTag:
    source = _TAG_TOKENS.get(token.strip().lower())
    if source is None or not source.is_source:
        raise ValueError(f"{token!r} is not a source tag")
    return source


def _row_blocks(reader):
    """The rows after the header as (line numbers, rows) lists of up to
    CSV_BLOCK non-blank rows; the last pair may be empty. A row the reader
    cannot read, as for a field over the csv module's size limit, raises
    IngestError naming its line once the rows before it are yielded."""
    lines, rows = [], []
    try:
        for row in reader:
            if row:
                lines.append(reader.line_num)
                rows.append(row)
                if len(rows) == CSV_BLOCK:
                    yield lines, rows
                    lines, rows = [], []
    except csv.Error as exc:
        yield lines, rows  # a fault in an earlier row is met first
        raise IngestError(_fault(reader.line_num, exc)) from None
    yield lines, rows


class _Block:
    """One block of CSV rows, checked column by column.

    A check reads its column in every row before the first fault found so
    far, and a fault it finds cuts the block there: that fault lies in an
    earlier row, so it replaces the one before. As the checks run in the
    order a row's cells are checked, the fault left is the one a reading
    row by row would meet first.
    """

    def __init__(self, lines: list[int], rows: list[list[str]]):
        self.lines, self.rows, self.fault = lines, rows, None

    def cut(self, at: int, reason, column: str | None = None) -> None:
        self.fault = _fault(self.lines[at], reason, column)
        self.lines, self.rows = self.lines[:at], self.rows[:at]

    def keep(self, mask: np.ndarray) -> None:
        self.lines = list(compress(self.lines, mask))
        self.rows = list(compress(self.rows, mask))

    def column(self, position: int, name: str, parse, dtype=float) -> np.ndarray:
        """The column's cells by `parse`, called once per distinct token;
        a token it rejects with ValueError cuts the block at its first row.
        Distinct tokens come in the order they first occur, so the first
        one rejected is in the first row at fault."""
        tokens = [row[position] for row in self.rows]
        table = {}
        for token in dict.fromkeys(tokens):
            try:
                table[token] = parse(token)
            except ValueError as reason:
                self.cut(tokens.index(token), reason, name)
                tokens = tokens[:len(self.rows)]
                break
        return np.fromiter(map(table.__getitem__, tokens), dtype, len(tokens))


def parse_database(
    text: str,
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
    line, and the column where one is at fault.

    Rows are read CSV_BLOCK at a time and each block column by column: RF
    first, then the key, the source and the features, each distinct token
    parsed once. The error raised is the first fault in file order, with a
    row's cells checked in that order and the cells of a row without RF
    never checked.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty CSV: no header row") from None
    except csv.Error as exc:
        raise IngestError(_fault(reader.line_num, exc)) from None
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

    parts = []
    for lines, rows in _row_blocks(reader):
        block = _Block(lines, rows)
        ragged = next((i for i, row in enumerate(rows) if len(row) != len(header)), None)
        if ragged is not None:
            block.cut(ragged, f"expected {len(header)} fields, found {len(rows[ragged])}")
        rf = block.column(positions[rf_column], rf_column, _parse_rf)
        present = rf == rf  # a row without RF cannot be used at all
        block.keep(present)
        rf = rf[present]
        keys = block.column(positions[key_column], key_column, _parse_key, object)
        sources = (np.full(len(block.rows), tag, dtype=object) if source_pos is None
                   else block.column(source_pos, "source", _parse_source, object))
        columns = [block.column(positions[col], col, _parse_cell) for col in feature_cols]
        if block.fault is not None:
            raise IngestError(block.fault)
        values = np.empty((len(block.rows), len(columns)))
        for j, column in enumerate(columns):
            values[:, j] = column
        parts.append((values, keys, rf, sources))
    values, keys, rf, sources = (np.concatenate(arrays) for arrays in zip(*parts))
    return Database(tag, schema, values, keys, rf, sources)


def csv_text(rows) -> str:
    """The CSV text of an iterable of rows, each line ended by "\\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def serialize_database(db: Database) -> str:
    """Canonical CSV form: key, source, features in schema order, RF.

    Numbers are written at 17 significant digits, which read back as the
    same float64, and a missing one is written blank. Each block of
    CSV_BLOCK rows is formatted with one `%` on a row template repeated once
    per row, and its `nan`s are blanked at once. The numbers and source tags
    never need quoting; a key that `_QUOTABLE` matches is quoted as
    `csv.writer` quotes a field, its `"` doubled.
    """
    template = ",".join(["%.17g"] * (len(db.schema.features) + 1))
    parts = [csv_text([["key", "source", *db.schema.names, RF_COLUMN]])]
    for start in range(0, len(db), CSV_BLOCK):
        block = slice(start, start + CSV_BLOCK)
        cells = np.column_stack([db.values[block], db.rf[block]])
        numbers = "\n".join([template] * len(cells)) % tuple(cells.ravel().tolist())
        keys = ('"%s"' % key.replace('"', '""') if _QUOTABLE.search(key) else key
                for key in db.keys[block].tolist())
        sources = (source.value for source in db.sources[block].tolist())
        lines = zip(keys, sources, numbers.replace("nan", "").split("\n"))
        parts.append("\n".join(map(",".join, lines)) + "\n")
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
