import csv
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
from meterfuse import ingest, synth
from meterfuse.errors import (
    DuplicateId,
    IoError,
    MalformedCsv,
    ManifestError,
    MeterFuseError,
    MissingColumn,
    UnparseableTime,
    UnparseableValue,
)

import reference_ingest
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
    assert parse_csv(series_to_csv(s), s.id) == s


def test_parse_fractional_epoch_seconds():
    s = mkseries([(1500, 0.25), (7000, -3.5)], name="ION-X")
    text = "timestamp,value\n1.5,0.25\n7,-3.5\n"
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
    with pytest.raises(DuplicateId) as exc:
        load_corpus(load_manifest(manifest))
    assert exc.value.entry == "ION-1"


def test_name_shared_across_systems_rejected(tmp_path):
    # --series, Corpus.get and every output address a series by name alone
    manifest = _write_corpus(tmp_path, [("ION", "X"), ("HIST", "X")])
    with pytest.raises(DuplicateId) as exc:
        load_manifest(manifest)
    assert exc.value.entry == "X"


def test_corpus_with_a_name_shared_across_systems_is_not_written(tmp_path):
    # one X.csv would hold only the last series' values
    series = [synth.constant_series("X", system, value, 3, 1000)
              for system, value in ((SystemTag.ION, 1.0), (SystemTag.HIST, 2.0))]
    corpus = ingest.Corpus({s.id: s for s in series})
    with pytest.raises(DuplicateId) as exc:
        synth.write_corpus(corpus, tmp_path / "c")
    assert exc.value.entry == "X"
    assert not any((tmp_path / "c").iterdir())


def test_corpus_over_a_manifest_directory_is_not_written(tmp_path):
    # every file is staged before any is replaced, so no CSV is left behind
    out = tmp_path / "c"
    (out / "manifest.json").mkdir(parents=True)
    with pytest.raises(IoError) as exc:
        synth.write_corpus(synth.demo_corpus(hist_points=50), out)
    assert "cannot write" in str(exc.value)
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_empty_manifest_path_is_typed_and_named():
    entry = ingest.ManifestEntry(MeasurementId(SystemTag.HIST, "H-2"), "")
    with pytest.raises(ManifestError) as exc:
        ingest.CorpusManifest((entry,))
    assert exc.value.entry == "H-2"


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
    with pytest.raises(IoError) as exc:
        load_corpus(load_manifest(manifest))
    assert exc.value.entry == "ION-1"


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


@pytest.mark.parametrize(
    "body, error",
    [
        (b"timestamp,value\n1000,1.0\n2000,\xff\n", MalformedCsv),
        (b"timestamp,value\n1000," + b"1" * 200_000 + b"\n", MalformedCsv),
        (b"timestamp,value\n99999999999999999999,1.0\n", UnparseableTime),
    ],
    ids=["not-utf8", "field-over-csv-limit", "millis-over-int64"],
)
def test_unreadable_series_file_is_typed_and_names_entry(tmp_path, body, error):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    (tmp_path / "H-1.csv").write_bytes(body)
    with pytest.raises(error) as exc:
        load_corpus(load_manifest(manifest))
    assert exc.value.entry == "H-1"


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


CSV_CELLS = (
    st.integers().map(str)
    | st.floats().map(repr)
    | st.text(max_size=8)
    | st.sampled_from(["", "1e999", "nan", "2020-01-01T00:00:00Z", "99999999999999999999"])
)
CSV_ROWS = st.lists(st.tuples(CSV_CELLS, CSV_CELLS), max_size=6).map(
    lambda rows: "".join(f"{t},{v}\n" for t, v in rows)
)
CSV_FILES = st.binary(max_size=200) | st.builds(
    lambda header, rows: (header + rows).encode("utf-8", "surrogatepass"),
    st.sampled_from(["ts,val\n", "val,ts\r\n", "ts\n", ""]) | st.text(max_size=12),
    CSV_ROWS,
)


@settings(max_examples=300, deadline=None)
@given(data=CSV_FILES, time_format=st.sampled_from(TimeFormat))
def test_parse_csv_raises_only_meterfuse_errors(data, time_format):
    try:
        series = parse_csv(data, ION_X, COLS, time_format)
    except MeterFuseError:
        return
    assert series.id == ION_X


def test_canonical_export_never_reaches_the_row_loop(monkeypatch):
    def row_loop(*args, **kwargs):
        raise AssertionError("csv.DictReader reached")

    monkeypatch.setattr(ingest.csv, "DictReader", row_loop)
    edge = mkseries(
        [(0, 0.0), (1, -0.0), (2, 1e16), (3, -1e-300), (4, 2.5), (2**62, -123456789.0)],
        name="ION-edge",
    )
    corpus = synth.demo_corpus(hist_points=500)
    for s in [edge, *corpus.series_by_id.values()]:
        assert parse_csv(series_to_csv(s).encode("utf-8"), s.id) == s


# Differential test: parse_csv against the row-by-row parser it replaced.
# Clean files hold cells that int() and float() accept and take the
# column-wise path; the rest mix in everything the row loop must handle.
GOOD_TIMES = st.integers(0, 2**63 - 1).map(str) | st.sampled_from([" 7 ", "1_0", "١٢٣", "0"])
GOOD_VALUES = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-(10**20), 10**20).map(str)
    | st.sampled_from(["1_0", "١٢", " 5 ", "-0.0", "1e-320"])
)
BAD_TIMES = st.integers(-(2**70), 2**70).map(str) | st.sampled_from([
    "", " ", "nan", "1.5", "-1", "-0", str(2**63), "99999999999999999999", '"1000"', "1\x002",
    "1970-01-01T00:00:01Z", "2020-01-01T00:00:00+01:00", "2020-01-01 00:00:00",
])
BAD_VALUES = st.floats().map(repr) | st.sampled_from([
    "", " ", "\t", "nan", "-inf", "1e999", '"5"', '"1,5"', 'a"b', "x", "1" * 40,
])
CLEAN_HEADERS = st.sampled_from([
    ["ts", "val"], ["val", "ts"], ["ts", "val", "extra"], ["extra", "val", "ts"],
    ["ts", "val", "val"], ["val", "ts", "val"], ["ts", "ts", "val"], ["", "ts", "val"],
])
ANY_HEADERS = CLEAN_HEADERS | st.sampled_from([["ts"], ["val"], ["ts", "value"]]) | st.lists(
    st.sampled_from(["ts", "val", "x", " ts", ""]), min_size=1, max_size=4
)


@st.composite
def csv_inputs(draw):
    """Plain files, each perturbed or not in its cells, one line and its line endings."""
    messy = st.sampled_from([False, False, True])
    messy_cells, messy_eol = draw(messy), draw(messy)
    header = draw(ANY_HEADERS if messy_cells else CLEAN_HEADERS)
    times = GOOD_TIMES | BAD_TIMES if messy_cells else GOOD_TIMES
    values = GOOD_VALUES | BAD_VALUES if messy_cells else GOOD_VALUES

    def row(width):  # cells past the header, like the ts column, hold integers
        names = header + ["ts"] * width
        return ",".join(draw(times if name == "ts" else values) for name in names[:width])

    width = len(header)
    lines = [row(width) for _ in range(draw(st.integers(0, 5)))]
    fault = draw(st.sampled_from([None, None, "blank", "ragged", "shifted"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "blank":
        lines[at:at] = [draw(st.sampled_from(["", " "]))]
    elif fault == "ragged":
        lines[at:at] = [row(draw(st.sampled_from([max(width - 1, 0), width + 1, width + 2])))]
    elif fault == "shifted":  # one cell moved to the line before: the comma total still fits
        lines[at:at] = [row(width + 1), row(width - 1)]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"])) if messy_eol else "\n"
    text = eol.join([",".join(header), *lines]) + draw(st.sampled_from([eol, eol, ""]))
    return text.encode("utf-8") if draw(st.booleans()) else text


def _outcome(parse, data, columns, time_format):
    try:
        s = parse(data, ION_X, columns, time_format)
    except MeterFuseError as e:
        return type(e), str(e)
    return s.t.tolist(), s.v.tobytes()


@settings(max_examples=500, deadline=None)
@given(
    data=csv_inputs(),
    columns=st.sampled_from([ColumnMap("ts", "val"), ColumnMap("ts", "ts")]),
    time_format=st.sampled_from([TimeFormat.EPOCH_MILLIS] * 3 + list(TimeFormat)),
    field_limit=st.sampled_from([None] * 4 + [8, 24]),
)
def test_parse_csv_matches_row_by_row_reference(data, columns, time_format, field_limit):
    old_limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        got = _outcome(parse_csv, data, columns, time_format)
        want = _outcome(reference_ingest.parse_csv, data, columns, time_format)
    finally:
        csv.field_size_limit(old_limit)
    assert got == want


@pytest.mark.parametrize(
    "body",
    [
        "ts,val\n1,2\n3,4\n",  # plain
        "ts,val\n1,2\n3,4",  # no final newline
        "ts,val\n",  # header only
        "ts,val",  # header only, no newline
        "ts,val,val\n1,2,3\n",  # repeated name: its last column
        "val,ts,x\n2,1,9\n",  # reordered and extra columns
        "ts,val\n1,2,3\n4\n",  # ragged lines whose cells add up to whole rows
        "ts,val\n1,2\n\n3,4\n",  # blank line
        "ts,val\n1,\n2,5\n",  # blank value
        "ts,val\r\n1,2\r\n",  # CRLF
        'ts,val\n1,"2"\n',  # quoted cell
        "ts,val\n-1,2\n",  # negative millis
        "ts,val\n9223372036854775808,2\n",  # millis past int64
        "ts,val\n1,x\n",  # unparseable value
    ],
)
def test_parse_csv_matches_reference_on_edge_files(body):
    for data in (body, body.encode("utf-8")):
        assert _outcome(parse_csv, data, COLS, TimeFormat.EPOCH_MILLIS) == _outcome(
            reference_ingest.parse_csv, data, COLS, TimeFormat.EPOCH_MILLIS
        )
