"""CSV corpus loading driven by a JSON manifest.

One CSV file per measurement keeps the cadence mismatch between the two
systems trivial to represent.  The manifest maps each measurement id to
its file, names the time/value columns explicitly, and states the time
encoding, so nothing is guessed from headers.

Manifest JSON::

    { "entries": [ { "system": "ION"|"HIST", "name": str, "path": str,
                     "time_column": str, "value_column": str,
                     "time_format": "EPOCH_MILLIS"|"EPOCH_SECONDS"|"ISO8601" } ] }

Series CSV (canonical export): header ``timestamp,value``, LF endings,
value as decimal text (see `series_to_csv`).  `series_to_csv` renders
series files, `manifest_text` the manifest, `csv_text` every other table
and `json_text` the other JSON files, and `write_outputs`, the one code
that writes a file, writes a directory's files whole, rendering its
series files on every usable CPU.

An ``EPOCH_MILLIS`` file of plain shape, as every canonical export is,
is parsed column-wise: split on commas and converted with ``int``/``float``
in bulk.  Plain means no quote, CR or NUL, no line over the csv field
limit, and the header's comma count on every data line.  Everything
else (quoted cells, CRLF, blank or ragged lines, blank values, cells that
do not convert, out-of-range millis, the other time formats) goes through
the csv.DictReader row loop, the only source of skip counts and of errors
that name a row.  Both give the same series.

`load_corpus` parses each series file once.  It keeps every series it
parsed, with its skip count, in
``.meterfuse-cache/<file name>.<parse crc>.columns`` beside the file, as
``__pycache__`` sits beside Python sources; ``<parse crc>`` is the
CRC-32, in hex, of the entry's time and value columns and time format,
the csv field limit, the Python version and the CRC-32 of this module's
source.  So two entries that read one file through different columns,
and two versions of the parser, keep one cache file each.  A later load
reads the arrays back when the cache file's key matches: all of that and
the file's byte length and zlib CRC-32, so editing the parser needs no
version to be bumped by hand.  The length and CRC come from fixed-size
reads, so a load that hits the cache never holds the series file; a miss
reads it whole once more, and parses it only if those bytes give the same
length and CRC.  A changed file overwrites its
cache file, which `write_outputs` stages and replaces as it does every
output.  A file that fails to parse or validate is never cached, a cache
that cannot be written is left out, and an unusable cache file is a
miss, so no output depends on the cache.  Deleting the directory is
always safe.  The cache is the one thing a load writes, and it writes
it beside the series files, not under a command's --out.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import sys
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateId,
    InvalidArgument,
    IoError,
    MalformedCsv,
    ManifestError,
    MissingColumn,
    UnparseableTime,
    UnparseableValue,
    naming,
)
from .model import MeasurementId, SystemTag, TimeSeries, check_cell, finite_values, validate_series

log = logging.getLogger(__name__)

_CHUNK_ROWS = 2048  # rows the column-wise parse converts, and series_to_csv renders, at once
# Files one write_outputs round queues: their 4-byte indices fill one page,
# Linux's smallest pipe, so the one write that queues them never blocks,
# although no process reads the pipe until it is written, workers or none.
_QUEUE_JOBS = 4096 // 4
# A file write_outputs stages: its target, the temporary file beside it, and its value.
_Staged = tuple[Path, Path, str | bytes | TimeSeries]

_READ_BYTES = 1 << 16  # per read of a series file's digest: a cache hit never holds the file
_CACHE_DIR = ".meterfuse-cache"  # beside each series file, as __pycache__ beside sources
# This module's own bytes: any edit to the parser or to the cache file's
# form changes the key, so no entry outlives the code that wrote it.
_CODE_CRC = zlib.crc32(Path(__file__).read_bytes())


class TimeFormat(Enum):
    EPOCH_MILLIS = "EPOCH_MILLIS"
    EPOCH_SECONDS = "EPOCH_SECONDS"
    ISO8601 = "ISO8601"


@dataclass(frozen=True)
class ColumnMap:
    time_column: str = "timestamp"
    value_column: str = "value"


@dataclass(frozen=True)
class ManifestEntry:
    id: MeasurementId
    path: str
    columns: ColumnMap = ColumnMap()
    time_format: TimeFormat = TimeFormat.EPOCH_MILLIS


@dataclass(frozen=True)
class CorpusManifest:
    """Entries with names unique across both systems, since a series is addressed by name alone."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for e in self.entries:
            with naming(e.id.name):
                if not e.path:
                    raise ManifestError(f"entry {e.id} has an empty path")
                if e.id.name in seen:
                    raise DuplicateId(e.id.name)
            seen.add(e.id.name)

    def select(self, name: str) -> CorpusManifest:
        """The one-entry manifest of the entry called name."""
        for e in self.entries:
            if e.id.name == name:
                return CorpusManifest((e,))
        available = ", ".join(sorted(repr(e.id.name) for e in self.entries))
        with naming(name, ManifestError):
            raise ManifestError(f"no series named {name!r}; available: {available}")


@dataclass
class Corpus:
    """Validated series keyed by id, partitionable by system tag."""

    series_by_id: dict[MeasurementId, TimeSeries] = field(default_factory=dict)

    def partition(self, tag: SystemTag) -> list[TimeSeries]:
        """Series of one system, sorted by name for deterministic iteration."""
        part = [s for mid, s in self.series_by_id.items() if mid.system is tag]
        part.sort(key=lambda s: s.id.name)
        return part

    def get(self, name: str) -> TimeSeries | None:
        for mid, s in self.series_by_id.items():
            if mid.name == name:
                return s
        return None

    def __len__(self) -> int:
        return len(self.series_by_id)


def _parse_time(cell: str, fmt: TimeFormat, row: int) -> int:
    try:
        if fmt is TimeFormat.EPOCH_MILLIS:
            millis = int(cell)
        elif fmt is TimeFormat.EPOCH_SECONDS:
            millis = round(float(cell) * 1000)
        else:
            text = cell.strip()
            if text.endswith("Z"):
                text = text[:-1] + "+00:00"
            dt = datetime.fromisoformat(text)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            millis = round(dt.timestamp() * 1000)
    except (ValueError, OverflowError):
        raise UnparseableTime(row, cell) from None
    if not 0 <= millis < 2**63:  # int64 epoch millis
        raise UnparseableTime(row, cell)
    return millis


def parse_csv(
    data: bytes | str,
    id: MeasurementId,
    columns: ColumnMap = ManifestEntry.columns,
    time_format: TimeFormat = ManifestEntry.time_format,
) -> TimeSeries:
    """Parse one measurement's CSV, its bytes or its text, into a validated series.

    Expects UTF-8 text with a header row; one leading byte-order mark is
    skipped.  Text that is not UTF-8 or that the csv module rejects raises
    MalformedCsv.  Rows with an empty value cell are skipped (zero is
    meaningful in this data, so blanks are never zero-filled); the skip
    count is logged.  Row numbers in errors are 1-based over data rows.
    """
    return _validated(id, *_parse_columns(data, columns, time_format))


def _parse_columns(
    data: bytes | str, columns: ColumnMap, time_format: TimeFormat
) -> tuple[np.ndarray, np.ndarray, int]:
    """Time and value columns of a CSV, and the number of rows skipped for a blank value."""
    try:
        text = (data.decode("utf-8") if isinstance(data, bytes) else data).removeprefix("\ufeff")
        if time_format is TimeFormat.EPOCH_MILLIS:
            raw = data if isinstance(data, bytes) else text.encode("utf-8", "surrogatepass")
            plain = _parse_plain(text, raw, columns)
            if plain is not None:
                return (*plain, 0)
        return _parse_rows(text, columns, time_format)
    except (UnicodeDecodeError, csv.Error) as e:
        raise MalformedCsv(f"malformed CSV: {e}") from None


def _validated(id: MeasurementId, t: np.ndarray, v: np.ndarray, skipped: int) -> TimeSeries:
    if skipped:
        log.warning("%s: skipped %d rows with empty value cells", id, skipped)
    return validate_series(TimeSeries(id, t, v))


def _parse_plain(
    text: str, raw: bytes, columns: ColumnMap
) -> tuple[np.ndarray, np.ndarray] | None:
    """Epoch-millis columns of a plain file, parsed in bulk; None if not plain.

    Plain means no quote, CR or NUL, no line over the csv field limit, the
    named columns in the header and exactly len(header) - 1 commas on every
    data line, so splitting on commas gives the cells csv.DictReader would.
    Any cell that int() or float() rejects, a blank value included, and any
    millis outside int64 also give None: the row loop then skips or names
    the row as it always has.
    """
    if '"' in text or "\r" in text or "\0" in text:  # csv.reader's NUL rule varies by version
        return None
    header = text.partition("\n")[0].split(",")
    index = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
    if columns.time_column not in index or columns.value_column not in index:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not len(ends) or ends[-1] != len(buf) - 1:
        ends = np.append(ends, len(buf))  # a last line without a newline
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() == 0 or lengths.max() >= csv.field_size_limit():
        return None
    line_of_comma = np.searchsorted(ends, np.flatnonzero(buf == ord(",")))
    commas = np.bincount(line_of_comma, minlength=len(ends))
    if (commas[1:] != len(header) - 1).any():
        return None
    rows, width = len(ends) - 1, len(header)
    ti, vi = index[columns.time_column], index[columns.value_column]
    t, v = np.empty(rows, np.int64), np.empty(rows, np.float64)
    try:
        for a in range(0, rows, _CHUNK_ROWS):  # a chunk at a time bounds the cell strings held
            b = min(a + _CHUNK_ROWS, rows)
            chunk = raw[ends[a] + 1 : ends[b]].decode("utf-8", "surrogatepass")
            cells = chunk.replace("\n", ",").split(",")
            t[a:b] = np.fromiter(map(int, cells[ti::width]), np.int64, b - a)
            v[a:b] = np.fromiter(map(float, cells[vi::width]), np.float64, b - a)
    except (ValueError, OverflowError):
        return None
    if rows and t.min() < 0:
        return None
    return t, v


def _parse_rows(
    text: str, columns: ColumnMap, time_format: TimeFormat
) -> tuple[np.ndarray, np.ndarray, int]:
    """Time and value columns read one csv.DictReader row at a time, and the rows skipped."""
    ts: list[int] = []
    vs: list[float] = []
    skipped = 0
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    for col in (columns.time_column, columns.value_column):
        if col not in header:
            raise MissingColumn(col)

    for row_num, row in enumerate(reader, start=1):
        value_cell = row.get(columns.value_column) or ""
        if value_cell.strip() == "":
            skipped += 1
            continue
        time_cell = row.get(columns.time_column) or ""
        t = _parse_time(time_cell, time_format, row_num)
        try:
            v = float(value_cell)
        except ValueError:
            raise UnparseableValue(row_num, value_cell) from None
        ts.append(t)
        vs.append(v)

    return np.array(ts, dtype=np.int64), np.array(vs, dtype=np.float64), skipped


# Manifest entry keys: the required ones, then the optional ones with their defaults,
# which are ColumnMap's and ManifestEntry's.
_ENTRY_KEYS = {
    "system": None,
    "name": None,
    "path": None,
    "time_column": ColumnMap.time_column,
    "value_column": ColumnMap.value_column,
    "time_format": ManifestEntry.time_format.value,
}


def _manifest_entry(raw, base: Path) -> ManifestEntry:
    if not isinstance(raw, dict):
        raise ManifestError("entry is not a JSON object")
    fields = {}
    for key, default in _ENTRY_KEYS.items():
        if key not in raw and default is None:
            raise ManifestError(f"missing key {key!r}")
        value = raw.get(key, default)
        if not isinstance(value, str) or not value:
            raise ManifestError(f"{key!r} must be a non-empty string")
        if "\0" in value:
            raise ManifestError(f"{key!r} holds a NUL character")
        fields[key] = value
    try:
        measurement = MeasurementId(SystemTag(fields["system"]), fields["name"])
        time_format = TimeFormat(fields["time_format"])
    except ValueError as e:  # InvalidArgument too: a name `check_cell` refuses
        raise ManifestError(str(e)) from None
    return ManifestEntry(
        id=measurement,
        path=str(base / fields["path"]),  # an absolute path replaces base
        columns=ColumnMap(fields["time_column"], fields["value_column"]),
        time_format=time_format,
    )


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a manifest file; a malformed one raises ManifestError naming the entry."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as e:
        raise IoError(str(path), e) from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ManifestError(f"{path} is not a JSON manifest: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ManifestError(f"{path} has no 'entries' list")
    entries = []
    for index, raw in enumerate(doc["entries"]):
        name = raw.get("name") if isinstance(raw, dict) else None
        with naming(name if isinstance(name, str) and name else index, ManifestError):
            entries.append(_manifest_entry(raw, path.parent))
    return CorpusManifest(tuple(entries))


def manifest_text(entries: Iterable[ManifestEntry]) -> str:
    """The manifest file of ``entries``, every key written; paths are relative to its directory."""
    rows = [
        {"system": e.id.system.value, "name": e.id.name, "path": e.path,
         "time_column": e.columns.time_column, "value_column": e.columns.value_column,
         "time_format": e.time_format.value}
        for e in entries
    ]
    return json_text({"entries": rows})


def load_corpus(
    manifest: CorpusManifest, digests: dict[str, tuple[int, int]] | None = None
) -> Corpus:
    """Load and validate every manifest entry.

    Deterministic: the same manifest and files produce an identical
    corpus, whether each series is parsed or read from the parse cache
    (module docstring).  Read and parse errors name the offending entry.

    ``digests``, when given, maps entry names to the byte length and
    CRC-32 of the file each was first loaded from.  An entry not in it is
    added; an entry in it whose file now holds other bytes raises IoError,
    so a caller that loads an entry again sees the data it loaded first.
    """
    corpus = Corpus()
    digests = {} if digests is None else digests
    for entry in manifest.entries:
        with naming(entry.id.name):
            series, source = _load_entry(entry, digests)
        log.info("%s: loaded %d samples from %s (%s)", entry.id, len(series), entry.path, source)
        corpus.series_by_id[entry.id] = series
    return corpus


def _load_entry(
    entry: ManifestEntry, digests: dict[str, tuple[int, int]]
) -> tuple[TimeSeries, str]:
    """The entry's series, and whether it was "parsed" or read from the cache ("cached").

    One cache file per series file, parse setting and parser (module docstring).
    """
    path = Path(entry.path)
    with _os_errors(entry.path, "read"):
        digest = _digest(path)
    if digests.setdefault(entry.id.name, digest) != digest:
        raise IoError(entry.path, ValueError("its bytes changed since it was first loaded"),
                      action="reload")
    # Everything the parser's output depends on: the csv module's field limit
    # and the Python version (datetime.fromisoformat, csv's NUL rule) too.
    parser = [_CODE_CRC, f"{sys.version_info[0]}.{sys.version_info[1]}", csv.field_size_limit()]
    parse = [entry.columns.time_column, entry.columns.value_column, entry.time_format.value]
    key = [*parser, *digest, *parse]
    name = f"{path.name}.{zlib.crc32(json.dumps([*parser, *parse]).encode()):08x}.columns"
    cache = path.parent / _CACHE_DIR / name
    cached = _read_cache(cache, key)
    if cached is not None:
        return _validated(entry.id, *cached), "cached"
    with _os_errors(entry.path, "read"):
        blob = path.read_bytes()
    if (len(blob), zlib.crc32(blob)) != digest:  # the parser sees only the bytes digested
        raise IoError(entry.path, ValueError("its bytes changed while it was loaded"))
    t, v, skipped = _parse_columns(blob, entry.columns, entry.time_format)
    series = _validated(entry.id, t, v, skipped)  # a failed parse raises before any write
    _write_cache(cache, key, series, skipped)
    return series, "parsed"


def _digest(path: Path) -> tuple[int, int]:
    """Byte length and zlib CRC-32 of the file at path, read `_READ_BYTES` at a time."""
    size, crc = 0, 0
    buf = bytearray(_READ_BYTES)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            size, crc = size + n, zlib.crc32(memoryview(buf)[:n], crc)
    return size, crc


def _read_cache(path: Path, key: list) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The columns and skip count cached at path under key; None if path holds no such entry.

    The file is one JSON header line, [*key, skipped, rows], padded to a
    multiple of 8 bytes, then the rows' little-endian int64 times and their
    float64 values.  A missing, truncated or foreign file is a miss.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    end = data.find(b"\n") + 1
    try:
        *stored, skipped, rows = json.loads(data[:end])
        if stored != key or type(skipped) is not int or len(data) != end + 16 * rows:
            return None
        t = np.frombuffer(data, "<i8", rows, end)
        v = np.frombuffer(data, "<f8", rows, end + 8 * rows)
    except (ValueError, TypeError):  # not a header _write_cache wrote
        return None
    return t, v, skipped


def _write_cache(path: Path, key: list, series: TimeSeries, skipped: int):
    """Store a parsed series for _read_cache as one `write_outputs` file; one it refuses is left out."""
    header = json.dumps([*key, skipped, len(series)]).encode()
    header += b" " * (-(len(header) + 1) % 8) + b"\n"  # the arrays start 8-byte aligned
    blob = b"".join((header, series.t.astype("<i8", copy=False), series.v.astype("<f8", copy=False)))
    try:
        write_outputs(path.parent, {path.name: blob})
    except (OSError, IoError) as e:
        log.debug("%s: not cached: %s", path, e)


def series_to_csv(s: TimeSeries) -> str:
    """Canonical epoch-millis CSV export, which `parse_csv` reads back as the same series.

    Each row is the timestamp as an integer and the value as text: an
    integral value below 1e16 in magnitude as an integer (-0.0 as ``0``),
    any other as Python's shortest ``repr``.  The loader refuses a NaN or
    infinite value and a negative timestamp, so the writer refuses them
    first, before it renders anything: NonFiniteValue names the first
    such value's index and InvalidArgument the first negative timestamp,
    each with the series as its ``entry``.  The loader sorts by timestamp,
    so an unsorted series reads back sorted.

    One ``%`` call renders each _CHUNK_ROWS rows, so the cells held at
    once stay bounded by the chunk; it takes about half csv.writer's time.
    """
    _check_loadable(s)
    parts = [f"{ColumnMap.time_column},{ColumnMap.value_column}\n"]
    for a in range(0, len(s), _CHUNK_ROWS):
        v = s.v[a : a + _CHUNK_ROWS]
        values = v.astype(object)  # Python floats, whose %s is their repr
        whole = (v == np.trunc(v)) & (np.abs(v) < 1e16)
        values[whole] = v[whole].astype(np.int64)
        cells = [None] * (2 * len(v))
        cells[::2], cells[1::2] = s.t[a : a + _CHUNK_ROWS].tolist(), values.tolist()
        parts.append(("%d,%s\n" * len(v)) % tuple(cells))
    return "".join(parts)


def _check_loadable(s: TimeSeries):
    """Refuse a series whose file the loader would refuse (`series_to_csv`)."""
    with naming(s.id.name):
        finite_values(s.v)
        if len(s) and s.t.min() < 0:
            i = int(np.argmax(s.t < 0))
            raise InvalidArgument(f"negative timestamp {int(s.t[i])} at sample index {i}")


def csv_text(rows) -> str:
    """The package's table form: csv.writer's minimal quoting and LF line ends.

    A cell holding a comma, a double quote or a line feed is quoted, any
    other is written as it is; a float as its repr.  A text cell that
    `check_cell` refuses raises InvalidArgument.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([check_cell(c) if isinstance(c, str) else c for c in row])
    return out.getvalue()


def json_text(doc) -> str:
    """The package's JSON file form: sorted keys, indent 2, a trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_outputs(out_dir: Path, files: dict[str, str | bytes | TimeSeries]):
    """Write every file under out_dir, or none and leave the files there as they were.

    The one writer of the package's files, the parse cache's included.  A
    file's value is its text, its bytes, or a series that `series_to_csv`
    renders.  Every series is checked first, in order, as `series_to_csv`
    checks it, so a refused series raises before anything is written or
    the directory made.  Each file is then staged as a temporary file
    beside its target (`_stage`), and the targets are replaced only once
    every file is staged.  A target that is a directory is refused up
    front: its os.replace would fail after the earlier targets were
    replaced.  Any OSError, from making out_dir to the last os.replace,
    raises as IoError naming the target file or out_dir, never a staged
    name; no staged file is left behind.
    """
    for value in files.values():
        if isinstance(value, TimeSeries):
            _check_loadable(value)
    targets = [out_dir / name for name in files]
    for path in targets:
        with _os_errors(path, "write"):
            if path.is_dir():
                raise IsADirectoryError("is a directory")
    with _os_errors(out_dir, "write"):
        out_dir.mkdir(parents=True, exist_ok=True)
    staged = [(path, path.with_name(f".{path.name}.{os.getpid()}.tmp"), value)
              for path, value in zip(targets, files.values())]
    try:
        for a in range(0, len(staged), _QUEUE_JOBS):
            with _os_errors(out_dir, "write"):  # the job queue's pipe
                _stage(staged, range(a, min(a + _QUEUE_JOBS, len(staged))))
        for path, tmp, _ in staged:
            with _os_errors(path, "write"):
                os.replace(tmp, path)
    except BaseException:
        for _, tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _os_errors(path: str | Path, action: str):
    """Raise an OSError of the block as IoError naming path: ``cannot <action> <path>``."""
    try:
        yield
    except OSError as e:
        raise IoError(str(path), e, action=action) from None


def _stage(staged: list[_Staged], jobs: range):
    """Stage each job's value in its temporary file, on every usable CPU when there are series.

    The jobs' indices go into one pipe, which one process per usable CPU
    (`os.sched_getaffinity`), and no more than there are series among the
    jobs, drains: this one and forked workers, which leave by `os._exit`.
    With one CPU, or no series, this process drains the queue alone.
    Workers are forked, not spawned: a spawned worker would import numpy
    and meterfuse again (about 0.15 s), more than a corpus's whole write.
    Nothing is forked while another Python thread runs, since a fork would
    leave that thread's locks without their owner.  This process waits for
    every worker; when one raised or died, it stages every job again, so
    any error arises here, as on one CPU.  A fork that fails leaves the
    queue to the processes already running.  Leaving by an exception,
    KeyboardInterrupt included, kills and reaps every worker before the
    caller unlinks the staged files.
    """
    series = sum(isinstance(staged[i][2], TimeSeries) for i in jobs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forks = min(cpus, series) - 1 if threading.active_count() == 1 else 0
    read_fd, write_fd = os.pipe()
    os.write(write_fd, b"".join(i.to_bytes(4, "little") for i in jobs))
    os.close(write_fd)
    pids, failed = [], False
    try:
        for _ in range(forks):
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                break
            if pid == 0:
                code = 1
                try:
                    _take_jobs(read_fd, staged)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        _take_jobs(read_fd, staged)
        while pids:
            failed |= os.waitstatus_to_exitcode(os.waitpid(pids[-1], 0)[1]) != 0
            pids.pop()
    finally:
        os.close(read_fd)
        if pids:  # left by an exception
            import signal  # here: its enums cost every command 0.1 MB and 0.4 ms

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failed:
        for i in jobs:
            _stage_file(*staged[i])


def _take_jobs(read_fd: int, staged: list[_Staged]):
    """Stage the files whose indices this process reads from the job queue."""
    while job := os.read(read_fd, 4):
        _stage_file(*staged[int.from_bytes(job, "little")])


def _stage_file(path: Path, tmp: Path, value: str | bytes | TimeSeries):
    """Write value to path's temporary file tmp; an OSError raises as IoError naming path."""
    with _os_errors(path, "write"):
        if isinstance(value, bytes):
            tmp.write_bytes(value)
        else:
            tmp.write_text(value if isinstance(value, str) else series_to_csv(value), encoding="utf-8")
