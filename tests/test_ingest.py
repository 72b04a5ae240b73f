import csv
import errno
import importlib.util
import json
import logging
import os
import re
import sys
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meterfuse import (
    ColumnMap,
    MeasurementId,
    SystemTag,
    TimeFormat,
    TimeSeries,
    load_corpus,
    load_manifest,
    parse_csv,
    series_to_csv,
)
from meterfuse import ingest, synth
from meterfuse.errors import (
    DuplicateId,
    InvalidArgument,
    IoError,
    MalformedCsv,
    ManifestError,
    MeterFuseError,
    MissingColumn,
    NonFiniteValue,
    UnparseableTime,
    UnparseableValue,
)

import reference_ingest
from conftest import mkseries, traced_peak

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


def test_parse_iso8601_without_zone_is_utc(monkeypatch):
    # read in the local zone, five hours west of UTC, each time would move by 18,000,000 ms
    monkeypatch.setenv("TZ", "EST5")
    time.tzset()
    try:
        s = parse_csv(b"ts,val\n1970-01-01T00:00:01,1.5\n2020-01-01 00:00:00,2.5\n", ION_X, COLS,
                      TimeFormat.ISO8601)
    finally:
        monkeypatch.undo()
        time.tzset()
    assert s.samples == [(1000, 1.5), (1_577_836_800_000, 2.5)]


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
    assert not (tmp_path / "c").exists()


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
        # csv.writer quotes a line feed but not a bare CR, which would split the name's table rows
        ({"entries": [{**GOOD_ENTRY, "name": "ION\r1"}]}, "ION\r1"),
        # a NUL would reach the file system as an untyped ValueError
        ({"entries": [{**GOOD_ENTRY, "path": "ION-1\0.csv"}]}, "ION-1"),
    ],
    ids=["no-entries", "no-name", "no-system", "no-path", "unknown-system", "unknown-time-format",
         "bare-cr-in-name", "nul-in-path"],
)
def test_malformed_manifest_is_typed_and_names_entry(tmp_path, doc, entry):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError) as exc:
        load_manifest(manifest)
    assert exc.value.entry == entry


@pytest.mark.parametrize("body", [b'{"entries": [\xff]}', b"{not json", b""],
                         ids=["not-utf8", "not-json", "empty"])
def test_manifest_that_is_not_utf8_json_is_typed(tmp_path, body):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(body)
    with pytest.raises(ManifestError, match=f"^{re.escape(str(manifest))} is not a JSON manifest: "):
        load_manifest(manifest)


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


# Differential test: series_to_csv against the per-row writer it replaced.
# Integral values at the 1e16 switch, -0.0, 2**53 + 1, subnormals and the
# ends of the float range, among any other finite double.
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, 2.5, 1e16 - 2, -(1e16 - 2), 1e16, -1e16, 2.0**53 + 1,
               -(2.0**53 + 1), 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
WHOLE_VALUES = st.integers(-(10**17), 10**17).map(float)
CHUNK = ingest._CHUNK_ROWS


@st.composite
def written_series(draw):
    """A series of any length around one or two chunks, whole-valued or mixed."""
    n = draw(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1])
             | st.integers(0, 40))
    values = WHOLE_VALUES if draw(st.booleans()) else (
        st.sampled_from(EDGE_VALUES) | WHOLE_VALUES | st.floats(allow_nan=False, allow_infinity=False))
    pool = draw(st.lists(values, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.integers(0, 2**63 - 1, n, dtype=np.int64, endpoint=True)
    return TimeSeries(ION_X, t, rng.choice(np.array(pool), n))


@settings(max_examples=200, deadline=None)
@given(written_series())
@example(TimeSeries(ION_X, [0, 1, 2**63 - 1, *range(3, len(EDGE_VALUES))], EDGE_VALUES))
@example(TimeSeries(ION_X, [0], [-0.0]))
@example(TimeSeries(ION_X, [], []))
def test_series_to_csv_matches_per_row_reference(s):
    # lines, not one string: pytest's diff of two long strings takes minutes
    assert series_to_csv(s).split("\n") == reference_ingest.series_to_csv(s).split("\n")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_series_with_a_non_finite_value_is_not_written(tmp_path, bad):
    # the loader rejects nan and inf with NonFiniteValue, so the writer refuses them first
    spiky = mkseries([(0, 1.0), (1000, 2.0), (2000, bad), (3000, bad)], name="HIST-N", system=SystemTag.HIST)
    with pytest.raises(NonFiniteValue) as exc:
        series_to_csv(spiky)
    assert (exc.value.index, exc.value.entry) == (2, "HIST-N")
    corpus = synth.demo_corpus(hist_points=50)
    corpus.series_by_id[spiky.id] = spiky
    with pytest.raises(NonFiniteValue):
        synth.write_corpus(corpus, tmp_path / "c")
    assert not (tmp_path / "c").exists()


def test_series_with_a_negative_timestamp_is_not_written(tmp_path):
    # the loader reads `-5000,1` as an unparseable time, so the writer refuses it first
    early = mkseries([(0, 2.0), (-9000, 1.0), (-5000, 1.0)], name="HIST-E", system=SystemTag.HIST)
    with pytest.raises(InvalidArgument, match=r"negative timestamp -9000 at sample index 1") as exc:
        series_to_csv(early)
    assert exc.value.entry == "HIST-E"
    corpus = synth.demo_corpus(hist_points=50)
    corpus.series_by_id[early.id] = early
    with pytest.raises(InvalidArgument):
        synth.write_corpus(corpus, tmp_path / "c")
    assert not (tmp_path / "c").exists()


def test_builders_refuse_timestamps_past_int64():
    # int64 arithmetic would wrap sample 10 of a 1e18 ms cadence below 0
    with pytest.raises(InvalidArgument, match=r"sample 19 .* past int64") as exc:
        synth.demo_corpus(hist_points=20, hist_cadence_ms=10**18, ion_cadence_ms=10**18)
    assert exc.value.entry == "HIST-23-S"
    for build in (
        lambda n: synth.constant_series("C", SystemTag.HIST, 1.0, n, 10**18),
        lambda n: synth.line_series("L", SystemTag.HIST, 1.0, 0.5, n, 10**18),
        lambda n: synth.random_walk_series("W", SystemTag.HIST, n, 10**18, seed=1),
    ):
        assert build(10).t[-1] == synth.START_EPOCH_MS + 9 * 10**18  # the last that fits
        with pytest.raises(InvalidArgument) as exc:
            build(11)
        assert exc.value.entry in "CLW"


# write_outputs renders series files on every usable CPU: the caller and
# forked workers, which take files from one queue (ingest._stage).


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _counted_forks(monkeypatch) -> list[int]:
    forks, fork = [], os.fork
    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_written(out, corpus):
    texts = {name: v if isinstance(v, str) else series_to_csv(v)
             for name, v in synth.corpus_files(corpus).items()}
    assert sorted(p.name for p in out.iterdir()) == sorted(texts)
    # one flag per file: pytest's diff of two long CSVs takes minutes
    assert [name for name, text in texts.items() if (out / name).read_bytes() != text.encode()] == []


def _assert_nothing_left(out):
    with pytest.raises(ChildProcessError):  # no worker left running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert list(out.glob(".*.tmp")) == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_series_files_are_the_same_on_one_and_two_cpus(tmp_path, monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    forks = _counted_forks(monkeypatch)
    corpus = synth.demo_corpus(hist_points=3000, seed=11)
    synth.write_corpus(corpus, tmp_path / "c")
    _assert_written(tmp_path / "c", corpus)
    assert len(forks) == cpus - 1
    _assert_nothing_left(tmp_path / "c")


def test_text_files_and_a_single_series_file_fork_nothing(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    s = synth.constant_series("H", SystemTag.HIST, 1.5, 40, 1000)
    ingest.write_outputs(tmp_path / "a", {"a.json": "{}\n", "b.csv": "x\n"})
    ingest.write_outputs(tmp_path / "b", {"H.csv": s, "a.json": "{}\n"})
    assert forks == []
    assert (tmp_path / "b" / "H.csv").read_text() == series_to_csv(s)


@pytest.mark.parametrize("cpus", [1, 2])
def test_queue_longer_than_one_round_stages_every_file(tmp_path, monkeypatch, cpus):
    # two files a round: [HIST-23-S, HIST-40-S], [HIST-44-S, ION-4-3472]
    # fork one worker each on 2 CPUs; [ION-5-139, manifest.json] holds one
    # series and forks none; on 1 CPU this process drains every round alone
    monkeypatch.setattr(ingest, "_QUEUE_JOBS", 2)
    _usable_cpus(monkeypatch, cpus)
    forks = _counted_forks(monkeypatch)
    corpus = synth.demo_corpus(hist_points=500)
    synth.write_corpus(corpus, tmp_path / "c")
    _assert_written(tmp_path / "c", corpus)
    assert len(forks) == 2 * (cpus - 1)
    _assert_nothing_left(tmp_path / "c")


@pytest.mark.parametrize("owner, name", [(Path, "write_text"), (os, "replace")],
                         ids=["staging", "replace"])
def test_failed_write_names_its_target_not_the_staged_file(tmp_path, monkeypatch, owner, name):
    out, real = tmp_path / "c", getattr(owner, name)

    def full(*args, **kwargs):
        if "b.csv" in str(args[0]):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, full)
    with pytest.raises(IoError) as exc:
        ingest.write_outputs(out, {"a.csv": "a\n", "b.csv": "b\n"})
    assert str(exc.value) == f"cannot write {out / 'b.csv'}: [Errno 28] No space left on device"
    _assert_nothing_left(out)


def _cannot_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def _await_worker(marks: Path):
    """Wait, up to 10 s, until a worker has marked that it took a file."""
    deadline = time.monotonic() + 10
    while not list(marks.glob("worker.*")) and time.monotonic() < deadline:
        time.sleep(0.01)


@pytest.mark.parametrize("failure", ["raises", "exits", "cannot fork"])
def test_failed_worker_gives_the_serial_result(tmp_path, monkeypatch, failure):
    # the caller stages every file it did not take itself
    _usable_cpus(monkeypatch, 2)
    parent, render = os.getpid(), ingest.series_to_csv

    def fails_in_a_worker(s):
        if os.getpid() != parent:
            (tmp_path / f"worker.{os.getpid()}").touch()
            if failure == "raises":
                raise RuntimeError("rendered outside the caller")
            os._exit(3)
        if failure != "cannot fork":
            _await_worker(tmp_path)  # so the worker takes a file before this process takes all
        return render(s)

    monkeypatch.setattr(ingest, "series_to_csv", fails_in_a_worker)
    if failure == "cannot fork":
        monkeypatch.setattr(os, "fork", _cannot_fork)
    corpus = synth.demo_corpus(hist_points=500)
    synth.write_corpus(corpus, tmp_path / "c")
    monkeypatch.setattr(ingest, "series_to_csv", render)
    _assert_written(tmp_path / "c", corpus)
    assert len(list(tmp_path.glob("worker.*"))) == (failure != "cannot fork")
    _assert_nothing_left(tmp_path / "c")


def test_interrupted_write_kills_its_workers_and_unlinks_staged_files(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    parent, render = os.getpid(), ingest.series_to_csv
    calls = []

    def interrupted(s):
        if os.getpid() != parent:  # a worker would be rendering still
            (tmp_path / f"worker.{os.getpid()}").touch()
            time.sleep(60)
        calls.append(s.id.name)
        if len(calls) == 2:  # once this caller has staged one file
            _await_worker(tmp_path)
            raise KeyboardInterrupt
        return render(s)

    monkeypatch.setattr(ingest, "series_to_csv", interrupted)
    out = tmp_path / "c"
    with pytest.raises(KeyboardInterrupt):
        synth.write_corpus(synth.demo_corpus(hist_points=500), out)
    assert len(list(tmp_path.glob("worker.*"))) == 1
    assert list(out.iterdir()) == []
    _assert_nothing_left(out)


def test_series_files_fork_nothing_while_another_thread_runs(tmp_path, monkeypatch):
    # a fork would leave the other thread's locks without their owner
    _usable_cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    stop = threading.Event()
    idle = threading.Thread(target=stop.wait)
    idle.start()
    try:
        corpus = synth.demo_corpus(hist_points=500)
        synth.write_corpus(corpus, tmp_path / "c")
    finally:
        stop.set()
        idle.join()
    assert forks == []
    _assert_written(tmp_path / "c", corpus)


def test_first_refused_series_by_name_is_raised_before_any_write(tmp_path, monkeypatch):
    # every series is checked in the caller, in name order, before a worker starts
    _usable_cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    corpus = synth.demo_corpus(hist_points=3000)
    for name in ("HIST-40-S", "ION-4-3472"):  # the second and the fourth by name
        s = corpus.get(name)
        v = s.v.copy()
        v[3] = np.nan
        corpus.series_by_id[s.id] = s.with_values(v)
    with pytest.raises(NonFiniteValue) as exc:
        synth.write_corpus(corpus, tmp_path / "c")
    assert (exc.value.entry, exc.value.index) == ("HIST-40-S", 3)
    assert not (tmp_path / "c").exists()
    assert forks == []


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
        "\ufeffts,val\n1,2\n3,4\n",  # byte-order mark
        '\ufeffts,val\r\n1,"2"\r\n3,4\r\n',  # byte-order mark, CRLF and a quoted cell: the row loop
    ],
)
def test_parse_csv_matches_reference_on_edge_files(body):
    for data in (body, body.encode("utf-8")):
        assert _outcome(parse_csv, data, COLS, TimeFormat.EPOCH_MILLIS) == _outcome(
            reference_ingest.parse_csv, data, COLS, TimeFormat.EPOCH_MILLIS
        )


def test_files_with_a_byte_order_mark_load_the_same_corpus(tmp_path):
    # Windows export tools often start a UTF-8 file with U+FEFF
    corpus = synth.demo_corpus(hist_points=50)
    plain, marked = (synth.write_corpus(corpus, tmp_path / d) for d in ("plain", "marked"))
    for path in marked.parent.iterdir():
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    want = _contents(load_corpus(load_manifest(plain)))
    assert _contents(load_corpus(load_manifest(marked))) == want == _contents(corpus)


# Parse cache: load_corpus keeps each parsed series beside its file.
CACHE = ".meterfuse-cache"


def _manifest_for(directory, files):
    """A manifest over (file name, text, time format, columns) tuples, one HIST entry each."""
    entries = []
    for name, text, time_format, columns in files:
        (directory / name).write_bytes(text.encode("utf-8"))
        entries.append({"system": "HIST", "name": f"H-{name}", "path": name,
                        "time_column": columns.time_column, "value_column": columns.value_column,
                        "time_format": time_format.value})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    return manifest


def _contents(corpus):
    """Each series' name, times and value bytes: equal only if bit-identical."""
    return {mid.name: (s.t.tolist(), s.v.tobytes()) for mid, s in corpus.series_by_id.items()}


@contextmanager
def _read_only(directory):
    """directory made read-only for the block; for root, whom its mode does not stop, mkdir fails."""
    directory.chmod(0o555)
    try:
        with pytest.MonkeyPatch.context() as mp:
            if os.geteuid() == 0:
                real = Path.mkdir

                def mkdir(self, *args, **kwargs):
                    if self.parent == directory:
                        raise PermissionError(errno.EACCES, "Permission denied", str(self))
                    return real(self, *args, **kwargs)

                mp.setattr(Path, "mkdir", mkdir)
            yield
    finally:
        directory.chmod(0o755)


def _no_parse(*args, **kwargs):
    raise AssertionError("parsed although the cache holds the entry")


@st.composite
def series_files(draw):
    """A series file: a plain export, or one only the row loop reads (ISO8601 or
    epoch-seconds times, quoted cells, blank values, CRLF, an extra column)."""
    time_format = draw(st.sampled_from(TimeFormat))
    rows = draw(st.lists(st.tuples(
        st.integers(0, 4 * 10**12), st.none() | st.floats(-1e9, 1e9, allow_nan=False)
    ), max_size=12))
    quoting, extra = draw(st.booleans()), draw(st.booleans())

    def cell(text):
        return f'"{text}"' if quoting and draw(st.booleans()) else text

    def time_cell(ms):
        if time_format is TimeFormat.EPOCH_MILLIS:
            return str(ms)
        if time_format is TimeFormat.EPOCH_SECONDS:
            return repr(ms / 1000)
        return datetime.fromtimestamp(ms / 1000, timezone.utc).isoformat().replace("+00:00", "Z")

    lines = ["ts,val,note" if extra else "ts,val"]
    for ms, value in rows:
        cells = [cell(time_cell(ms)), cell("" if value is None else repr(value))]
        lines.append(",".join(cells + [cell("x")] * extra))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return eol.join(lines) + eol, time_format


@settings(max_examples=60, deadline=None)
@given(files=st.lists(series_files(), min_size=1, max_size=3))
def test_cold_warm_and_read_only_loads_are_identical(tmp_path_factory, files):
    named = [(f"s{i}.csv", text, fmt, COLS) for i, (text, fmt) in enumerate(files)]
    cold_dir, ro_dir = tmp_path_factory.mktemp("cold"), tmp_path_factory.mktemp("ro")
    manifest = _manifest_for(cold_dir, named)
    cold = load_corpus(load_manifest(manifest))
    cached = sorted(p.name for p in (cold_dir / CACHE).iterdir())
    assert [re.sub(r"\.[0-9a-f]{8}\.columns$", "", n) for n in cached] == [n for n, *_ in named]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_parse_columns", _no_parse)
        warm = load_corpus(load_manifest(manifest))
    ro_manifest = _manifest_for(ro_dir, named)
    with _read_only(ro_dir):
        read_only = load_corpus(load_manifest(ro_manifest))
    assert not (ro_dir / CACHE).exists()
    parsed = {f"H-{n}": parse_csv(text, ION_X, cols, fmt) for n, text, fmt, cols in named}
    assert _contents(cold) == _contents(warm) == _contents(read_only) == {
        name: (s.t.tolist(), s.v.tobytes()) for name, s in parsed.items()
    }


def test_same_length_edit_invalidates_the_entry(tmp_path):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    assert load_corpus(load_manifest(manifest)).get("H-1").v.tolist() == [1.0, 2.0]
    path = tmp_path / "H-1.csv"
    path.write_text(path.read_text().replace("2.0", "2.5"), encoding="utf-8")
    assert load_corpus(load_manifest(manifest)).get("H-1").v.tolist() == [1.0, 2.5]


def _good_cache(tmp_path):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    want = _contents(load_corpus(load_manifest(manifest)))
    (cache,) = (tmp_path / CACHE).iterdir()
    return manifest, want, cache, cache.read_bytes()


@pytest.mark.parametrize(
    "damage",
    [
        lambda good: good[:-3],  # truncated in the values
        lambda good: good[: good.index(b"\n") + 1],  # header only
        lambda good: b"",
        lambda good: b"\x93NUMPY\x01\x00garbage\n" + good,
        lambda good: good.replace(b"[", b"{", 1),  # a header that is not JSON
        lambda good: good + b"\0" * 16,  # one row more than the header says
        lambda good: good.replace(b'"EPOCH_MILLIS", 0, 2]', b'"EPOCH_MILLIS", 0, "2"]'),
    ],
    ids=["truncated", "header-only", "empty", "garbage", "bad-header", "too-long", "row-count-text"],
)
def test_unusable_cache_file_is_reparsed_and_rewritten(tmp_path, caplog, damage):
    manifest, want, cache, good = _good_cache(tmp_path)
    cache.write_bytes(damage(good))
    caplog.set_level(logging.INFO, logger="meterfuse.ingest")
    assert _contents(load_corpus(load_manifest(manifest))) == want
    assert "H-1: loaded 2 samples from" in caplog.text and caplog.text.endswith("(parsed)\n")
    assert cache.read_bytes() == good


def test_directory_at_the_cache_file_path_is_left_out(tmp_path, caplog):
    # write_outputs refuses a target that is a directory, and the load goes on without a cache
    manifest, want, cache, _ = _good_cache(tmp_path)
    cache.unlink()
    cache.mkdir()
    caplog.set_level(logging.DEBUG, logger="meterfuse.ingest")
    assert _contents(load_corpus(load_manifest(manifest))) == want
    assert caplog.text.count("(parsed)\n") == 1
    assert f"{cache}: not cached: cannot write {cache}: is a directory" in caplog.text
    assert cache.is_dir() and list(cache.iterdir()) == []
    _assert_nothing_left(tmp_path / CACHE)


@pytest.mark.parametrize("kept", [1, 0])
def test_skipped_row_warning_repeats_on_a_hit(tmp_path, caplog, kept):
    # with no row kept, validate_series also warns of an empty series on both loads
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    body = "timestamp,value\n1,\n2,5.0\n3, \n" if kept else "timestamp,value\n1,\n3, \n"
    (tmp_path / "H-1.csv").write_text(body, encoding="utf-8")
    caplog.set_level(logging.INFO, logger="meterfuse.ingest")
    logs = []
    for _ in range(2):
        caplog.clear()
        load_corpus(load_manifest(manifest))
        logs.append([(r.levelname, r.getMessage()) for r in caplog.records])
    path = tmp_path / "H-1.csv"
    empty = [] if kept else [("WARNING", "series H-1 is empty")]
    assert logs == [
        [("WARNING", "H-1: skipped 2 rows with empty value cells"), *empty,
         ("INFO", f"H-1: loaded {kept} samples from {path} ({how})")]
        for how in ("parsed", "cached")
    ]


@pytest.mark.parametrize(
    "body, error",
    [(b"timestamp,value\n1000,abc\n", UnparseableValue), (b"timestamp,value\n1000,nan\n", NonFiniteValue)],
    ids=["unparseable", "non-finite"],
)
def test_failed_parse_is_never_cached(tmp_path, body, error):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    (tmp_path / "H-1.csv").write_bytes(body)
    raised = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            load_corpus(load_manifest(manifest))
        raised.append((str(exc.value), exc.value.entry))
        assert not (tmp_path / CACHE).exists()
    assert raised[0] == raised[1] == (raised[0][0], "H-1")


def test_changed_column_map_misses_the_cache(tmp_path):
    text = "timestamp,a,b\n1000,1.0,10.0\n2000,2.0,20.0\n"
    values = {}
    for column in ("a", "b", "a"):
        manifest = _manifest_for(tmp_path, [("s.csv", text, TimeFormat.EPOCH_MILLIS,
                                            ColumnMap("timestamp", column))])
        values[column] = load_corpus(load_manifest(manifest)).get("H-s.csv").v.tolist()
    assert values == {"a": [1.0, 2.0], "b": [10.0, 20.0]}


def test_entries_reading_one_file_through_other_columns_keep_their_own_cache(tmp_path, caplog):
    (tmp_path / "s.csv").write_text("a,b\n1000,7\n2000,3\n", encoding="utf-8")
    entries = [{"system": system, "name": name, "path": "s.csv",
                "time_column": time_column, "value_column": value_column}
               for system, name, time_column, value_column in [("ION", "I", "a", "b"),
                                                               ("HIST", "H", "b", "a")]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    caplog.set_level(logging.INFO, logger="meterfuse.ingest")
    sources = []
    for _ in range(2):
        caplog.clear()
        corpus = load_corpus(load_manifest(manifest))
        sources.append([r.getMessage().rsplit(" ", 1)[1] for r in caplog.records])
        assert [(s.t.tolist(), s.v.tolist()) for s in (corpus.get("I"), corpus.get("H"))] == [
            ([1000, 2000], [7.0, 3.0]), ([3, 7], [2000.0, 1000.0]),
        ]
    assert sources == [["(parsed)", "(parsed)"], ["(cached)", "(cached)"]]
    assert len(list((tmp_path / CACHE).iterdir())) == 2


def test_parser_versions_keep_their_own_cache_files(tmp_path, monkeypatch, caplog):
    # two versions of this module alternating on one corpus each read their own cache file
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    caplog.set_level(logging.INFO, logger="meterfuse.ingest")
    sources = []
    for code_crc in (0xA, 0xB, 0xA, 0xB):
        monkeypatch.setattr(ingest, "_CODE_CRC", code_crc)
        caplog.clear()
        load_corpus(load_manifest(manifest))
        sources.append(caplog.records[-1].getMessage().rsplit(" ", 1)[1])
    assert sources == ["(parsed)", "(parsed)", "(cached)", "(cached)"]
    assert len(list((tmp_path / CACHE).iterdir())) == 2


def test_load_with_digests_fails_on_a_file_changed_since_the_first_load(tmp_path):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    digests = {}
    for _ in range(2):  # the same bytes load again
        assert load_corpus(load_manifest(manifest), digests).get("H-1").v.tolist() == [1.0, 2.0]
    path = tmp_path / "H-1.csv"
    path.write_text(path.read_text().replace("2.0", "2.5"), encoding="utf-8")  # same length
    with pytest.raises(IoError) as exc:
        load_corpus(load_manifest(manifest), digests)
    assert (str(exc.value), exc.value.entry) == (
        f"cannot reload {path}: its bytes changed since it was first loaded", "H-1"
    )
    assert load_corpus(load_manifest(manifest)).get("H-1").v.tolist() == [1.0, 2.5]


def test_file_changed_between_its_digest_and_its_parse_fails_uncached(tmp_path, monkeypatch):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    path = tmp_path / "H-1.csv"
    digest = ingest._digest

    def digest_then_edit(p):
        found = digest(p)
        path.write_text(path.read_text().replace("2.0", "2.5"), encoding="utf-8")  # same length
        return found

    monkeypatch.setattr(ingest, "_digest", digest_then_edit)
    with pytest.raises(IoError) as exc:
        load_corpus(load_manifest(manifest))
    assert (str(exc.value), exc.value.entry) == (
        f"cannot read {path}: its bytes changed while it was loaded", "H-1"
    )
    assert not (tmp_path / CACHE).exists()


def test_cache_hit_never_holds_the_series_file(tmp_path):
    rows = 34_560  # two days at 5 s: the file takes 1.1 MB, its cached columns 0.55 MB
    t = 1_700_000_000_000 + 5_000 * np.arange(rows)
    v = np.cumsum(np.random.default_rng(4).normal(0, 1, rows))
    manifest = _manifest_for(tmp_path, [("s.csv", "timestamp,value\n" + "".join(
        f"{a},{b!r}\n" for a, b in zip(t.tolist(), v.tolist())), TimeFormat.EPOCH_MILLIS, ColumnMap())])
    entries = load_manifest(manifest)
    assert load_corpus(entries).get("H-s.csv").v.tobytes() == v.tobytes()  # parsed, and cached
    peak = traced_peak(load_corpus, entries)
    assert peak < 16 * rows + 2 * ingest._READ_BYTES  # the cached columns, not the file


@pytest.mark.parametrize("setting", ["field-limit", "python-version"])
def test_parser_settings_are_part_of_the_key(tmp_path, monkeypatch, caplog, setting):
    manifest = _write_corpus(tmp_path, [("HIST", "H-1")])
    # a 30-character cell parses under the default csv field limit, not under 24
    (tmp_path / "H-1.csv").write_text("timestamp,value\n1000,1." + "0" * 28 + "\n", encoding="utf-8")
    load_corpus(load_manifest(manifest))
    if setting == "field-limit":
        old_limit = csv.field_size_limit(24)
        try:
            with pytest.raises(MalformedCsv):
                load_corpus(load_manifest(manifest))
        finally:
            csv.field_size_limit(old_limit)
    else:
        monkeypatch.setattr(ingest.sys, "version_info", (3, 99, 0))
        caplog.set_level(logging.INFO, logger="meterfuse.ingest")
        load_corpus(load_manifest(manifest))
        assert caplog.text.endswith("(parsed)\n")


def _edited_ingest(tmp_path, monkeypatch, old, new):
    """A copy of meterfuse.ingest whose source has old replaced by new, imported under another name."""
    source = Path(ingest.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1
    path = tmp_path / "edited_ingest.py"
    path.write_text(source.replace(old, new), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("meterfuse.edited_ingest", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "old, new, time_format",
    [
        ("    return t, v\n\n\ndef _parse_rows", "    return t, v + 1\n\n\ndef _parse_rows",
         TimeFormat.EPOCH_MILLIS),
        ("v = float(value_cell)\n", "v = float(value_cell) + 1\n", TimeFormat.EPOCH_SECONDS),
    ],
    ids=["column-wise", "row-loop"],
)
def test_edited_parser_misses_a_warm_cache(tmp_path, monkeypatch, old, new, time_format):
    # no version is bumped by hand: the key holds the CRC of the module's source
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    manifest = _manifest_for(corpus_dir, [("s.csv", "ts,val\n1000,1.5\n2000,2.5\n", time_format, COLS)])
    assert load_corpus(load_manifest(manifest)).get("H-s.csv").v.tolist() == [1.5, 2.5]
    edited = _edited_ingest(tmp_path, monkeypatch, old, new)
    assert edited.load_corpus(edited.load_manifest(manifest)).get("H-s.csv").v.tolist() == [2.5, 3.5]
    assert load_corpus(load_manifest(manifest)).get("H-s.csv").v.tolist() == [1.5, 2.5]


def test_csv_text_refuses_a_bare_carriage_return():
    with pytest.raises(InvalidArgument, match="carriage return outside a CR LF pair"):
        ingest.csv_text([["rank", "name"], [1, "H\r1"]])
    text = ingest.csv_text([["rank", "name"], [1, "H\r\n1"], (2, "H,2")])
    assert list(csv.reader(text.splitlines(keepends=True))) == [["rank", "name"], ["1", "H\r\n1"], ["2", "H,2"]]
