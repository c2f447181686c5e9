import csv
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclass import dataset, synth
from rfclass.dataset import (MISSING_TOKENS, Database, DatabaseTag, Feature,
                             canonical_schema, deduplicate, merge, normalize_key,
                             parse_database, parse_tag, serialize_database)
from rfclass.errors import IngestError

from conftest import make_database, make_record

SCHEMA = canonical_schema()
NAMES = SCHEMA.names


def csv_with(rows, header=None):
    header = header or ["key", *NAMES, "RF"]
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def full_row(key, rf, fill="1.0"):
    return [key, *([fill] * len(NAMES)), str(rf)]


def padded(word):
    """`word` with each letter in either case, padded by blanks and tabs."""
    cased = st.tuples(*(st.sampled_from(sorted({c.lower(), c.upper()})) for c in word))
    pad = st.text(alphabet=" \t", max_size=3)
    return st.tuples(pad, cased.map("".join), pad).map("".join)


def spellings(tag):
    """The tag's value or name, each letter in either case, padded by blanks."""
    return st.sampled_from([tag.value, tag.name]).flatmap(padded)


class TestCanonicalSchema:
    def test_eleven_features(self):
        assert len(SCHEMA.features) == 11
        assert NAMES == ("api_gravity", "bo", "gor", "water_saturation",
                         "temperature", "pressure", "thickness", "reserves",
                         "permeability", "porosity", "area")

    def test_bounds_ordered(self):
        for f in SCHEMA.features:
            assert f.lower < f.upper

    def test_published_bounds(self):
        by_name = {f.name: f for f in SCHEMA.features}
        assert (by_name["bo"].lower, by_name["bo"].upper) == (1.0, 3.0)
        assert (by_name["gor"].lower, by_name["gor"].upper) == (0.0, 60.0)
        assert (by_name["reserves"].lower, by_name["reserves"].upper) == (0.0, 5.0e11)

    def test_range_override(self):
        schema = canonical_schema({"gor": (0.0, 1e8)})
        assert schema.features[schema.index("gor")].upper == 1e8

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown feature"):
            canonical_schema({"depth": (0.0, 1.0)})

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower bound"):
            Feature("x", "-", 2.0, 2.0)


class TestParse:
    def test_identity_ingest(self):
        text = csv_with([full_row(f"r{i}", 0.3) for i in range(3)])
        db = parse_database(text, DatabaseTag.TORIS, SCHEMA)
        assert len(db) == 3
        assert all(r.source is DatabaseTag.TORIS for r in db.records)

    def test_missing_rf_row_dropped(self):
        rows = [full_row("a", 0.3), ["b", *(["1.0"] * len(NAMES)), ""]]
        db = parse_database(csv_with(rows), DatabaseTag.TORIS, SCHEMA)
        assert len(db) == 1
        assert db.records[0].key == "a"

    def test_malformed_numeric_names_cell(self):
        row = full_row("a", 0.3)
        row[1 + NAMES.index("porosity")] = "12.x"
        with pytest.raises(IngestError, match=r"porosity.*12\.x|12\.x.*porosity"):
            parse_database(csv_with([row]), DatabaseTag.TORIS, SCHEMA)

    def test_ragged_row(self):
        text = csv_with([full_row("a", 0.3)]) + "b,1.0\n"
        with pytest.raises(IngestError, match="expected"):
            parse_database(text, DatabaseTag.TORIS, SCHEMA)

    @pytest.mark.parametrize("token", ["NA", "na", "N/A", "null", "NULL", ""])
    def test_missing_tokens(self, token):
        row = full_row("a", 0.3)
        row[1 + NAMES.index("bo")] = token
        db = parse_database(csv_with([row]), DatabaseTag.TORIS, SCHEMA)
        assert db.records[0].values[NAMES.index("bo")] is None

    def test_negative_rf_rejected(self):
        with pytest.raises(IngestError, match="negative recovery factor"):
            parse_database(csv_with([full_row("a", -0.1)]), DatabaseTag.TORIS, SCHEMA)

    def test_non_finite_rejected(self):
        row = full_row("a", 0.3)
        row[1 + NAMES.index("area")] = "inf"
        with pytest.raises(IngestError, match="non-finite"):
            parse_database(csv_with([row]), DatabaseTag.TORIS, SCHEMA)

    def test_missing_column(self):
        text = "key,RF\na,0.3\n"
        with pytest.raises(IngestError, match="missing column"):
            parse_database(text, DatabaseTag.TORIS, SCHEMA)

    def test_key_normalized(self):
        db = parse_database(csv_with([full_row("  Eagle   FORD ", 0.3)]),
                            DatabaseTag.TORIS, SCHEMA)
        assert db.records[0].key == "eagle ford"

    def test_empty_key_rejected(self):
        with pytest.raises(IngestError, match="empty key"):
            parse_database(csv_with([full_row("   ", 0.3)]), DatabaseTag.TORIS, SCHEMA)

    def test_merged_tag_requires_source_column(self):
        with pytest.raises(IngestError, match="source"):
            parse_database(csv_with([full_row("a", 0.3)]), DatabaseTag.TC, SCHEMA)

    def test_column_map(self):
        header = ["name", "API", *NAMES[1:], "recovery"]
        text = csv_with([["well 1", *(["1.0"] * len(NAMES)), "0.4"]], header)
        db = parse_database(text, DatabaseTag.ATLAS, SCHEMA, key_column="name",
                            rf_column="recovery", column_map={"api_gravity": "API"})
        assert len(db) == 1
        assert db.records[0].rf == 0.4

    def test_empty_csv(self):
        with pytest.raises(IngestError, match="empty CSV"):
            parse_database("", DatabaseTag.TORIS, SCHEMA)

    def test_unknown_source_token_names_line_and_column(self):
        header = ["key", "source", *NAMES, "RF"]
        rows = [["a", "TORIS", *full_row("a", 0.3)[1:]], ["b", "XX", *full_row("b", 0.4)[1:]]]
        with pytest.raises(IngestError, match=r"line 3, column 'source': 'XX' is not a source"):
            parse_database(csv_with(rows, header), DatabaseTag.TC, SCHEMA)

    @pytest.mark.parametrize("token", ["TC", " tca ", "Ca"])
    def test_a_merged_tag_is_not_a_source_tag(self, token):
        header = ["key", "source", *NAMES, "RF"]
        rows = [["a", token, *full_row("a", 0.3)[1:]]]
        with pytest.raises(IngestError, match=f"^line 2, column 'source': {token!r} is not a "
                                              f"source tag$"):
            parse_database(csv_with(rows, header), DatabaseTag.TC, SCHEMA)

    @given(tag=st.sampled_from(DatabaseTag.TCA.source_tags), data=st.data())
    def test_source_cell_takes_every_spelling_of_a_source_tag(self, tag, data):
        cell = data.draw(spellings(tag))
        header = ["key", "source", *NAMES, "RF"]
        db = parse_database(csv_with([["a", cell, *full_row("a", 0.3)[1:]]], header),
                            DatabaseTag.TC, SCHEMA)
        assert db.sources.tolist() == [tag]

    def test_a_row_with_several_faults_names_the_first_check_it_fails(self):
        # columns in reverse, so check order is not column order
        header = ["RF", "bo", "api_gravity", "source", "key", "x"]
        faults = [("x", None, "line 2: expected 6 fields, found 7"),
                  ("RF", "1e999", "line 2, column 'RF': non-finite value '1e999'"),
                  ("RF", "-2", "line 2, column 'RF': negative recovery factor -2.0"),
                  ("key", " ", "line 2, column 'key': empty key"),
                  ("source", "TC", "line 2, column 'source': 'TC' is not a source tag"),
                  ("api_gravity", "1.2.3",
                   "line 2, column 'api_gravity': cannot parse '1.2.3' as a number"),
                  ("bo", "nan", "line 2, column 'bo': non-finite value 'nan'")]
        good = {"RF": "0.3", "bo": "2", "api_gravity": "30", "source": "TORIS", "key": "a",
                "x": ""}
        schema = SCHEMA.subset(["api_gravity", "bo"])
        for first, (_, _, message) in enumerate(faults):
            row = dict(good, **{column: token for column, token, _ in reversed(faults[first:])
                                if token})  # the first fault of a column wins
            extra = ["9"] if first == 0 else []
            with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
                parse_database(csv_with([[*(row[c] for c in header), *extra]], header),
                               DatabaseTag.TC, schema)

    def test_repeated_header_column_rejected(self):
        header = ["key", *NAMES, "RF", "bo"]
        with pytest.raises(IngestError, match=r"repeated column\(s\) in header: \['bo'\]"):
            parse_database(csv_with([[*full_row("a", 0.3), "9.9"]], header),
                           DatabaseTag.TORIS, SCHEMA)

    def test_blank_header_cells_may_repeat(self):
        header = ["key", *NAMES, "RF", "", ""]
        db = parse_database(csv_with([[*full_row("a", 0.3), "", ""]], header),
                            DatabaseTag.TORIS, SCHEMA)
        assert len(db) == 1 and db.rf[0] == 0.3


def oracle_serialize(db):
    """The CSV text of `db`, each number formatted on its own at 17
    significant digits and each missing one blank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "source", *db.schema.names, "RF"])
    for key, source, values, rf in zip(db.keys, db.sources, db.values.tolist(), db.rf.tolist()):
        writer.writerow([key, source.value,
                         *("" if x != x else format(x, ".17g") for x in [*values, rf])])
    return buf.getvalue()


def canonical_bits(array):
    """The array's bytes with every NaN as the one NaN the parser writes."""
    return np.where(np.isnan(array), np.nan, array).tobytes()


#: Numbers at the edges of float64 that `%.17g` must write as `format` does.
EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789012345680.0]


@st.composite
def databases(draw, parseable=False):
    """Small databases over a subset of the features. Keys may hold `,`,
    `"`, a line break or the text `nan`; values may be NaN (missing),
    signed zeros, subnormals or near the float64 limits. With `parseable`,
    keys are normalized and non-empty and RF is present and non-negative,
    as `parse_database` requires to give a row back."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=len(NAMES)))
    schema = SCHEMA.subset(names)
    n = draw(st.integers(0, 6))
    numbers = st.one_of(st.sampled_from(EDGE_NUMBERS + [float("nan")]),
                        st.floats(allow_nan=True, allow_infinity=False))
    text = st.one_of(st.sampled_from(["nan", "NaN", "a,b", 'say "hi"', "x\ny", " pad "]),
                     st.text(alphabet='abn ,"\n.-1', max_size=8))
    keys = [draw(text) for _ in range(n)]
    if parseable:
        keys = [normalize_key(key) or "k" for key in keys]
    rf = st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats(0, 5))
    if parseable:
        rf = rf.map(abs)
    else:
        rf = st.one_of(rf, numbers)
    values = [[draw(numbers) for _ in names] for _ in range(n)]
    return Database(DatabaseTag.TC, schema, np.array(values, dtype=float).reshape(n, len(names)),
                    np.array(keys, dtype=object), np.array([draw(rf) for _ in range(n)]),
                    np.array([draw(st.sampled_from(DatabaseTag.TCA.source_tags))
                              for _ in range(n)], dtype=object))


def oracle_parse(text, tag, schema):
    """`parse_database` as a row-by-row loop: each row's cells are checked
    in turn (field count, RF, negative RF, key, source, then the features
    left to right) and the first fault raises."""
    def cell(token, line, column):
        stripped = token.strip()
        if stripped.lower() in MISSING_TOKENS:
            return math.nan
        try:
            value = float(stripped)
        except ValueError:
            raise IngestError(f"line {line}, column {column!r}: cannot parse {token!r} "
                              f"as a number") from None
        if not math.isfinite(value):
            raise IngestError(f"line {line}, column {column!r}: non-finite value {token!r}")
        return value

    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    positions = {name: i for i, name in enumerate(header)}
    source_pos = positions.get("source")
    keys, rfs, sources, rows = [], [], [], []
    try:
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(f"line {line}: expected {len(header)} fields, found {len(row)}")
            rf = cell(row[positions["RF"]], line, "RF")
            if rf != rf:
                continue
            if rf < 0:
                raise IngestError(f"line {line}, column 'RF': negative recovery factor {rf}")
            key = normalize_key(row[positions["key"]])
            if not key:
                raise IngestError(f"line {line}, column 'key': empty key")
            source = tag if source_pos is None else dataset._TAG_TOKENS.get(
                row[source_pos].strip().lower())
            if source is None or not source.is_source:
                raise IngestError(f"line {line}, column 'source': {row[source_pos]!r} is not a "
                                  f"source tag")
            keys.append(key)
            rfs.append(rf)
            sources.append(source)
            rows.append([cell(row[positions[name]], line, name) for name in schema.names])
    except csv.Error as exc:  # a row the reader cannot read, as for a field over its limit
        raise IngestError(f"line {reader.line_num}: {exc}") from None
    return Database(tag, schema, np.array(rows, dtype=float).reshape(len(rows), len(schema.names)),
                    np.array(keys, dtype=object), np.array(rfs, dtype=float),
                    np.array(sources, dtype=object))


def parsed(parse, text, tag, schema):
    """What `parse` makes of the text: the bits of its database, or its error."""
    try:
        db = parse(text, tag, schema)
    except IngestError as exc:
        return str(exc)
    return (db.values.shape, db.values.tobytes(), db.rf.tobytes(), db.keys.tolist(),
            db.sources.tolist())


def number_cells(numbers):
    """The numbers written as `repr`, at 17 digits or padded."""
    return numbers.flatmap(lambda x: st.sampled_from([repr(x), "%.17g" % x, f" {x!r}\t"]))


MISSING_CELLS = st.sampled_from(sorted(MISSING_TOKENS)).flatmap(padded)
NUMBER_CELLS = number_cells(st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats(-1e6, 1e6)))
RF_CELLS = number_cells(st.one_of(st.sampled_from(EDGE_NUMBERS).map(abs), st.floats(0, 5)))
GARBAGE_CELLS = st.one_of(
    st.sampled_from(["x", "1.2.3", "inf", "-Infinity", "nan", "1e999", "TC", "--1", "0x10", " "]),
    st.text(alphabet='ab1., "\n', max_size=5))
#: Keys; one in twenty holds a bare "\r", which `csv.writer` leaves unquoted
#: and `csv.reader` then cannot read.
KEYS = st.integers(0, 19).flatmap(
    lambda i: st.sampled_from(["a\rb", "a,\r\nb"]) if i == 0
    else st.text(alphabet='aB ,"\n.', min_size=1, max_size=6).filter(normalize_key))


@st.composite
def csv_cases(draw):
    """(CSV text, tag, schema) for `parse_database`: columns in any order,
    an optional `source` column, numbers, missing tokens in any case and
    padding, blank lines, keys holding `,`, `"` or line breaks, rows
    without RF whose other cells are garbage, up to two bad cells in
    different rows and columns, one row with several bad cells and a row
    with a field too few or too many."""
    schema = SCHEMA.subset(draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3)))
    with_source = draw(st.booleans())
    tag = draw(st.sampled_from(DatabaseTag if with_source else DatabaseTag.TCA.source_tags))
    header = draw(st.permutations(["key", *(["source"] * with_source), *schema.names, "RF"]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:  # no RF: the other cells are never checked
            row = {name: draw(st.one_of(GARBAGE_CELLS, KEYS, NUMBER_CELLS)) for name in header}
            row["RF"] = draw(MISSING_CELLS)
        else:
            row = {name: draw(st.one_of(NUMBER_CELLS, MISSING_CELLS)) for name in schema.names}
            row.update(key=draw(KEYS), RF=draw(RF_CELLS),
                       source=draw(st.sampled_from(DatabaseTag.TCA.source_tags).flatmap(spellings)))
        rows.append([row[name] for name in header])
    if rows:
        bad = {"key": st.sampled_from(["", " ", "\t"]),
               "RF": st.one_of(GARBAGE_CELLS, st.sampled_from(["-0.5", "-1e-300", " -3 "]))}
        faults = list(zip(draw(st.permutations(range(len(rows)))),
                          draw(st.permutations(range(len(header))))))[:draw(st.integers(0, 2))]
        if draw(st.booleans()):  # one row with several bad cells, met in check order
            row = draw(st.integers(0, len(rows) - 1))
            faults += [(row, j) for j in range(len(header)) if draw(st.booleans())]
        for i, j in faults:
            rows[i][j] = draw(bad.get(header[j], GARBAGE_CELLS))
        if draw(st.booleans()):  # a row with a field too few or too many
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "1"]
    lines = [csv_text_of(header)]
    for row in rows:
        lines.append("\n" * draw(st.integers(0, 2)) + csv_text_of(row))
    return "".join(lines), tag, schema


def csv_text_of(row):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


class TestParseEqualsTheRowLoop:
    @settings(max_examples=300)
    @given(case=csv_cases())
    def test_same_bits_or_the_same_error(self, case):
        text, tag, schema = case
        with mock.patch.object(dataset, "CSV_BLOCK", 3):  # blocks are crossed
            got = parsed(parse_database, text, tag, schema)
        assert got == parsed(oracle_parse, text, tag, schema)


class TestSerializeRoundTrip:
    def test_bit_exact_round_trip(self, rng):
        records = []
        for i in range(50):
            values = []
            for j in range(len(NAMES)):
                if rng.random() < 0.2:
                    values.append(None)
                else:
                    values.append(float(rng.lognormal(2, 3)))
            records.append(make_record(f"r{i}", values, float(rng.random() * 2)))
        # adversarial decimals
        records.append(make_record("pi", [1 / 3, 2 / 3, 0.1] , 0.1 + 0.2))
        db = make_database(records)
        text = serialize_database(db)
        back = parse_database(text, db.tag, db.schema)
        assert back.records == db.records

    def test_row_blocks_do_not_change_the_text(self, rng, monkeypatch):
        records = [make_record(f"r{i}", [None if rng.random() < 0.2 else float(rng.normal())
                                         for _ in NAMES], float(rng.random()))
                   for i in range(23)]
        db = make_database(records)
        whole = serialize_database(db)
        monkeypatch.setattr(dataset, "CSV_BLOCK", 5)
        assert serialize_database(db) == whole
        assert whole.count("\n") == len(records) + 1

    @given(db=databases())
    def test_text_equals_the_per_cell_oracle(self, db):
        assert serialize_database(db) == oracle_serialize(db)

    @given(db=databases(parseable=True))
    def test_parse_gives_back_the_value_bits(self, db):
        back = parse_database(serialize_database(db), db.tag, db.schema)
        assert back.keys.tolist() == db.keys.tolist()
        assert back.sources.tolist() == db.sources.tolist()
        assert canonical_bits(back.values) == canonical_bits(db.values)
        assert canonical_bits(back.rf) == canonical_bits(db.rf)

    def test_source_column_round_trip(self):
        records = [
            make_record("a", [1.0], 0.2, DatabaseTag.TORIS),
            make_record("b", [1.0], 0.3, DatabaseTag.ATLAS),
        ]
        db = Database.from_records(DatabaseTag.TA, SCHEMA, records)
        back = parse_database(serialize_database(db), DatabaseTag.TA, SCHEMA)
        assert [r.source for r in back.records] == [DatabaseTag.TORIS, DatabaseTag.ATLAS]


def traced_peak(call):
    """The peak of the memory Python allocates while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    """tracemalloc peaks over one 15,000-row synthetic source (2.24 MB of
    CSV), as multiples of its text's length. Measured on Python 3.11 and
    numpy 2.4: parsing row by row peaked at 8.5x and block by block at 6.3x,
    parsing the whole file's columns at once at 13.5x; serializing one row
    at a time peaked at 2.65x and block by block at 2.1x, formatting each
    column's distinct values once over the whole database at 5.9x and the
    whole database as one block at 5.3x."""

    @pytest.fixture(scope="class")
    def source(self):
        db = synth.generate(synth.preset("atlas"), 15_000, seed=0)
        return db, serialize_database(db)

    def test_parse_peak(self, source):
        db, text = source
        peak = traced_peak(lambda: parse_database(text, DatabaseTag.ATLAS, db.schema))
        assert peak <= 9 * len(text)

    def test_serialize_peak(self, source):
        db, text = source
        assert traced_peak(lambda: serialize_database(db)) <= 3 * len(text)


class TestMerge:
    def _dbs(self, n_toris=10, n_commercial=5, n_atlas=4):
        toris = make_database([make_record(f"t{i}", [1.0], 0.2) for i in range(n_toris)])
        commercial = make_database(
            [make_record(f"c{i}", [1.0], 0.3, DatabaseTag.COMMERCIAL) for i in range(n_commercial)],
            DatabaseTag.COMMERCIAL)
        atlas = make_database(
            [make_record(f"a{i}", [1.0], 0.4, DatabaseTag.ATLAS) for i in range(n_atlas)],
            DatabaseTag.ATLAS)
        return toris, commercial, atlas

    def test_tc_cardinality(self):
        toris, commercial, _ = self._dbs()
        merged = merge([toris, commercial], DatabaseTag.TC)
        assert len(merged) == 15
        assert merged.tag is DatabaseTag.TC

    def test_tca_cardinality(self):
        toris, commercial, atlas = self._dbs()
        merged = merge([toris, commercial, atlas], DatabaseTag.TCA)
        assert len(merged) == 19

    def test_wrong_sources_rejected(self):
        toris, _, atlas = self._dbs()
        with pytest.raises(ValueError, match="requires sources"):
            merge([toris, atlas], DatabaseTag.CA)

    def test_duplicate_sources_rejected(self):
        toris, _, _ = self._dbs()
        with pytest.raises(ValueError, match="duplicate"):
            merge([toris, toris], DatabaseTag.TC)

    def test_source_tag_not_a_combo(self):
        toris, _, _ = self._dbs()
        with pytest.raises(ValueError, match="source tag"):
            merge([toris], DatabaseTag.TORIS)

    def test_order_insensitive_multiset(self):
        toris, commercial, _ = self._dbs()
        a = merge([toris, commercial], DatabaseTag.TC)
        b = merge([commercial, toris], DatabaseTag.TC)
        assert sorted(r.key for r in a.records) == sorted(r.key for r in b.records)

    def test_records_keep_sources(self):
        toris, commercial, _ = self._dbs()
        merged = merge([toris, commercial], DatabaseTag.TC)
        sources = {r.source for r in merged.records}
        assert sources == {DatabaseTag.TORIS, DatabaseTag.COMMERCIAL}


class TestDeduplicate:
    def test_most_complete_survives(self):
        rich = make_record("dup", [1.0] * 8, 0.2, DatabaseTag.ATLAS)
        poor = make_record("dup", [1.0] * 5, 0.3, DatabaseTag.TORIS)
        db = make_database([poor, rich])
        out = deduplicate(db)
        assert len(out) == 1
        assert out.records[0].present_count() == 8

    def test_unique_keys_noop(self):
        db = make_database([make_record(f"k{i}", [1.0], 0.2) for i in range(5)])
        assert deduplicate(db).records == db.records

    def test_tie_breaks_by_source_priority(self):
        # equal completeness: the TORIS record must win over the Atlas one
        atlas = make_record("dup", [1.0] * 7, 0.4, DatabaseTag.ATLAS)
        toris = make_record("dup", [2.0] * 7, 0.3, DatabaseTag.TORIS)
        out = deduplicate(make_database([atlas, toris]))
        assert out.records[0].source is DatabaseTag.TORIS

    def test_full_tie_breaks_by_input_order(self):
        first = make_record("dup", [1.0] * 7, 0.3)
        second = make_record("dup", [2.0] * 7, 0.4)
        out = deduplicate(make_database([first, second]))
        assert out.records[0].values[0] == 1.0

    def test_idempotent(self, rng):
        records = [
            make_record(f"k{rng.integers(6)}", [1.0] * int(rng.integers(1, 11)),
                        float(rng.random()))
            for _ in range(40)
        ]
        db = make_database(records)
        once = deduplicate(db)
        assert deduplicate(once).records == once.records

    def test_never_removes_unique_key(self, rng):
        records = [make_record(f"k{i % 7}", [1.0] * int(rng.integers(1, 11)),
                               float(rng.random())) for i in range(30)]
        records.append(make_record("lonely", [1.0], 0.5))
        out = deduplicate(make_database(records))
        assert "lonely" in {r.key for r in out.records}


def test_normalize_key():
    assert normalize_key("  Big\tWell  7 ") == "big well 7"


@given(tag=st.sampled_from(DatabaseTag), data=st.data())
def test_parse_tag_takes_every_spelling_of_every_tag(tag, data):
    assert parse_tag(data.draw(spellings(tag))) is tag


@pytest.mark.parametrize("text", ["", "T", "TORIS-C", "TC A", "source"])
def test_parse_tag_rejects_other_text(text):
    with pytest.raises(ValueError, match=f"^unknown database tag: {text!r}$"):
        parse_tag(text)


def test_tag_source_sets():
    assert DatabaseTag.TC.source_tags == (DatabaseTag.TORIS, DatabaseTag.COMMERCIAL)
    assert DatabaseTag.TA.source_tags == (DatabaseTag.TORIS, DatabaseTag.ATLAS)
    assert DatabaseTag.CA.source_tags == (DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS)
    assert set(DatabaseTag.TCA.source_tags) == {
        DatabaseTag.TORIS, DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS
    }
