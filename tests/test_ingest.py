import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meterfuse import (
    ColumnMap,
    MeasurementId,
    SystemTag,
    TimeFormat,
    load_corpus,
    load_manifest,
    parse_csv,
    series_to_csv,
)
from meterfuse.errors import (
    DuplicateId,
    IoError,
    ManifestError,
    MeterFuseError,
    MissingColumn,
    UnparseableTime,
    UnparseableValue,
)

from conftest import mkseries

ION_X = MeasurementId(SystemTag.ION, "ION-X")
COLS = ColumnMap("ts", "val")


def test_parse_epoch_millis():
    s = parse_csv(b"ts,val\n1000,0.5\n2000,0.7\n", ION_X, COLS, TimeFormat.EPOCH_MILLIS)
    assert s.samples == [(1000, 0.5), (2000, 0.7)]


def test_parse_epoch_seconds_scales():
    s = parse_csv(b"ts,val\n1000,0.5\n2000,0.7\n", ION_X, COLS, TimeFormat.EPOCH_SECONDS)
    assert s.samples == [(1_000_000, 0.5), (2_000_000, 0.7)]


def test_parse_iso8601():
    s = parse_csv(
        b"ts,val\n1970-01-01T00:00:01Z,1.5\n1970-01-01T00:00:02+00:00,2.5\n",
        ION_X,
        COLS,
        TimeFormat.ISO8601,
    )
    assert s.samples == [(1000, 1.5), (2000, 2.5)]


def test_missing_column():
    with pytest.raises(MissingColumn):
        parse_csv(b"ts,other\n1,2\n", ION_X, COLS)


def test_blank_value_rows_skipped():
    s = parse_csv(b"ts,val\n1,\n2,5.0\n3,  \n", ION_X, COLS)
    assert s.samples == [(2, 5.0)]


def test_unparseable_time_reports_row():
    with pytest.raises(UnparseableTime) as exc:
        parse_csv(b"ts,val\n1,1.0\nnope,2.0\n", ION_X, COLS)
    assert exc.value.row == 2


def test_negative_epoch_rejected():
    with pytest.raises(UnparseableTime):
        parse_csv(b"ts,val\n-5,1.0\n", ION_X, COLS)


def test_unparseable_value_reports_row():
    with pytest.raises(UnparseableValue) as exc:
        parse_csv(b"ts,val\n1,abc\n", ION_X, COLS)
    assert exc.value.row == 1


def test_parse_sorts_out_of_order_rows():
    s = parse_csv(b"ts,val\n5,1.0\n2,2.0\n", ION_X, COLS)
    assert s.samples == [(2, 2.0), (5, 1.0)]


@given(
    st.lists(
        st.tuples(st.integers(0, 10**13), st.floats(-1e9, 1e9, allow_nan=False)),
        max_size=40,
    )
)
def test_csv_round_trip(pairs):
    from meterfuse import validate_series

    s = validate_series(mkseries(pairs, name="ION-X"))
    text = series_to_csv(s, TimeFormat.EPOCH_MILLIS)
    assert parse_csv(text, s.id) == s


def test_round_trip_epoch_seconds():
    s = mkseries([(1500, 0.25), (7000, -3.5)], name="ION-X")
    text = series_to_csv(s, TimeFormat.EPOCH_SECONDS)
    assert parse_csv(text, s.id, time_format=TimeFormat.EPOCH_SECONDS) == s


def _write_corpus(tmp_path, names):
    entries = []
    for system, name in names:
        path = tmp_path / f"{name}.csv"
        path.write_text("timestamp,value\n1000,1.0\n2000,2.0\n", encoding="utf-8")
        entries.append(
            {
                "system": system,
                "name": name,
                "path": path.name,
                "time_column": "timestamp",
                "value_column": "value",
                "time_format": "EPOCH_MILLIS",
            }
        )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    return manifest


def test_load_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": []}), encoding="utf-8")
    corpus = load_corpus(load_manifest(manifest))
    assert len(corpus) == 0


def test_load_corpus_partitions(tmp_path):
    manifest = _write_corpus(
        tmp_path,
        [("ION", "ION-1"), ("ION", "ION-2"), ("HIST", "H-1"), ("HIST", "H-2"), ("HIST", "H-3")],
    )
    corpus = load_corpus(load_manifest(manifest))
    assert len(corpus.partition(SystemTag.ION)) == 2
    assert len(corpus.partition(SystemTag.HIST)) == 3


def test_duplicate_id_rejected(tmp_path):
    manifest = _write_corpus(tmp_path, [("ION", "ION-1"), ("ION", "ION-1")])
    with pytest.raises(DuplicateId):
        load_corpus(load_manifest(manifest))


def test_missing_file_is_io_error(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "system": "ION",
                        "name": "ION-1",
                        "path": "nowhere.csv",
                        "time_column": "timestamp",
                        "value_column": "value",
                        "time_format": "EPOCH_MILLIS",
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(IoError):
        load_corpus(load_manifest(manifest))


def test_parse_error_tagged_with_entry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,value\nx,1.0\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "system": "HIST",
                        "name": "HIST-bad",
                        "path": "bad.csv",
                        "time_column": "timestamp",
                        "value_column": "value",
                        "time_format": "EPOCH_MILLIS",
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(UnparseableTime) as exc:
        load_corpus(load_manifest(manifest))
    assert exc.value.entry == "HIST-bad"


def test_load_corpus_deterministic(tmp_path):
    manifest = _write_corpus(tmp_path, [("ION", "ION-1"), ("HIST", "H-1")])
    a = load_corpus(load_manifest(manifest))
    b = load_corpus(load_manifest(manifest))
    assert a.series_by_id == b.series_by_id


GOOD_ENTRY = {"system": "ION", "name": "ION-1", "path": "ION-1.csv"}


@pytest.mark.parametrize(
    "doc, entry",
    [
        ({}, None),  # no entries key
        ({"entries": [{"system": "ION", "path": "x.csv"}]}, 0),  # no name: the index
        ({"entries": [GOOD_ENTRY, {"name": "H-1", "path": "x.csv"}]}, "H-1"),  # no system
        ({"entries": [{"system": "HIST", "name": "H-1"}]}, "H-1"),  # no path
        ({"entries": [{**GOOD_ENTRY, "system": "SCADA"}]}, "ION-1"),  # unknown system
        ({"entries": [{**GOOD_ENTRY, "time_format": "JULIAN"}]}, "ION-1"),  # unknown time format
    ],
    ids=["no-entries", "no-name", "no-system", "no-path", "unknown-system", "unknown-time-format"],
)
def test_malformed_manifest_is_typed_and_names_entry(tmp_path, doc, entry):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError) as exc:
        load_manifest(manifest)
    assert exc.value.entry == entry


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def _field(*valid):
    return st.sampled_from(valid) | JSON_VALUES


ENTRIES = st.fixed_dictionaries({}, optional={
    "system": _field("ION", "HIST"),
    "name": _field("ION-1", "H-1"),
    "path": _field("a.csv", "/abs/b.csv", ""),
    "time_column": _field("timestamp"),
    "value_column": _field("value"),
    "time_format": _field("ISO8601", "EPOCH_SECONDS"),
})
MANIFESTS = JSON_VALUES | st.fixed_dictionaries(
    {"entries": st.lists(ENTRIES | JSON_VALUES, max_size=3)}
)


@settings(max_examples=200, deadline=None)
@given(doc=MANIFESTS)
def test_load_manifest_raises_only_meterfuse_errors(tmp_path_factory, doc):
    manifest = tmp_path_factory.getbasetemp() / "fuzz-manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_manifest(manifest)
    except MeterFuseError:
        pass
