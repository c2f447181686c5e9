import pytest

from rfclass import dataset
from rfclass.dataset import (Database, DatabaseTag, Feature, canonical_schema,
                             deduplicate, format_real, merge, normalize_key,
                             parse_database, serialize_database)
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
        monkeypatch.setattr(dataset, "SERIALIZE_BLOCK", 5)
        assert serialize_database(db) == whole
        assert whole.count("\n") == len(records) + 1

    def test_format_real_round_trips(self, rng):
        for x in [1 / 3, 1e-300, 5.0e11, 0.1, -0.0, 2.32, *rng.normal(size=20).tolist()]:
            assert float(format_real(x)) == x

    def test_source_column_round_trip(self):
        records = [
            make_record("a", [1.0], 0.2, DatabaseTag.TORIS),
            make_record("b", [1.0], 0.3, DatabaseTag.ATLAS),
        ]
        db = Database.from_records(DatabaseTag.TA, SCHEMA, records)
        back = parse_database(serialize_database(db), DatabaseTag.TA, SCHEMA)
        assert [r.source for r in back.records] == [DatabaseTag.TORIS, DatabaseTag.ATLAS]


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


def test_tag_source_sets():
    assert DatabaseTag.TC.source_tags == (DatabaseTag.TORIS, DatabaseTag.COMMERCIAL)
    assert DatabaseTag.TA.source_tags == (DatabaseTag.TORIS, DatabaseTag.ATLAS)
    assert DatabaseTag.CA.source_tags == (DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS)
    assert set(DatabaseTag.TCA.source_tags) == {
        DatabaseTag.TORIS, DatabaseTag.COMMERCIAL, DatabaseTag.ATLAS
    }
