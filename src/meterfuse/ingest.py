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
value as decimal text.  `series_to_csv` and `json_text` render the
package's files, and `write_outputs` writes a directory's files whole.

An ``EPOCH_MILLIS`` file of plain shape, as every canonical export is,
is parsed column-wise: split on commas and converted with ``int``/``float``
in bulk.  Plain means no quote, CR or NUL, no line over the csv field
limit, and the header's comma count on every data line.  Everything
else (quoted cells, CRLF, blank or ragged lines, blank values, cells that
do not convert, out-of-range millis, the other time formats) goes through
the csv.DictReader row loop, the only source of skip counts and of errors
that name a row.  Both give the same series.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateId,
    IoError,
    MalformedCsv,
    ManifestError,
    MeterFuseError,
    MissingColumn,
    UnparseableTime,
    UnparseableValue,
    naming,
)
from .model import MeasurementId, SystemTag, TimeSeries, validate_series

log = logging.getLogger(__name__)

_CHUNK_ROWS = 2048  # data rows split and converted at once by the column-wise path


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
        available = ", ".join(sorted(e.id.name for e in self.entries))
        raise MeterFuseError(f"no series named {name!r}; available: {available}")


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
    data: bytes | str | io.IOBase,
    id: MeasurementId,
    columns: ColumnMap = ManifestEntry.columns,
    time_format: TimeFormat = ManifestEntry.time_format,
) -> TimeSeries:
    """Parse one measurement's CSV into a validated series.

    Expects UTF-8 text with a header row; text that is not UTF-8 or that
    the csv module rejects raises MalformedCsv.  Rows with an empty value
    cell are skipped (zero is meaningful in this data, so blanks are never
    zero-filled); the skip count is logged.  Row numbers in errors are
    1-based over data rows.
    """
    try:
        if not isinstance(data, (bytes, str)):
            data = data.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        plain = None
        if time_format is TimeFormat.EPOCH_MILLIS:
            raw = data if isinstance(data, bytes) else text.encode("utf-8", "surrogatepass")
            plain = _parse_plain(text, raw, columns)
        t, v = plain if plain is not None else _parse_rows(text, id, columns, time_format)
    except (UnicodeDecodeError, csv.Error) as e:
        raise MalformedCsv(f"malformed CSV: {e}") from None
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
    text: str, id: MeasurementId, columns: ColumnMap, time_format: TimeFormat
) -> tuple[np.ndarray, np.ndarray]:
    """Time and value columns read one csv.DictReader row at a time."""
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

    if skipped:
        log.warning("%s: skipped %d rows with empty value cells", id, skipped)
    return np.array(ts, dtype=np.int64), np.array(vs, dtype=np.float64)


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
        fields[key] = value
    try:
        system = SystemTag(fields["system"])
        time_format = TimeFormat(fields["time_format"])
    except ValueError as e:
        raise ManifestError(str(e)) from None
    return ManifestEntry(
        id=MeasurementId(system, fields["name"]),
        path=str(base / fields["path"]),  # an absolute path replaces base
        columns=ColumnMap(fields["time_column"], fields["value_column"]),
        time_format=time_format,
    )


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a manifest file; a malformed one raises ManifestError naming the entry."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
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


def load_corpus(manifest: CorpusManifest) -> Corpus:
    """Load and validate every manifest entry.

    Deterministic: the same manifest and files produce an identical
    corpus.  Read and parse errors name the offending entry.
    """
    corpus = Corpus()
    for entry in manifest.entries:
        with naming(entry.id.name):
            try:
                blob = Path(entry.path).read_bytes()
            except OSError as e:
                raise IoError(entry.path, e) from None
            series = parse_csv(blob, entry.id, entry.columns, entry.time_format)
        log.info("%s: loaded %d samples from %s", entry.id, len(series), entry.path)
        corpus.series_by_id[entry.id] = series
    return corpus


def series_to_csv(s: TimeSeries) -> str:
    """Canonical epoch-millis CSV export; re-parsing yields an identical series."""
    lines = [f"{t},{_format_value(v)}\n" for t, v in zip(s.t.tolist(), s.v.tolist())]
    return "timestamp,value\n" + "".join(lines)


def _format_value(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:  # False for NaN and infinities
        return str(int(v))
    return repr(v)


def json_text(doc) -> str:
    """The package's JSON file form: sorted keys, indent 2, a trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_outputs(out_dir: Path, files: dict[str, str]):
    """Write every file under out_dir, or none and leave the files there as they were.

    Each file is staged as a temporary file beside its target, and the
    targets are replaced only once every file is staged.  A target that is
    a directory is refused up front: its os.replace would fail after the
    earlier targets were replaced.
    """
    targets = [out_dir / name for name in files]
    for path in targets:
        if path.is_dir():
            raise IoError(str(path), IsADirectoryError("is a directory"), action="write")
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[Path] = []
    try:
        for path, text in zip(targets, files.values()):
            staged.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            staged[-1].write_text(text, encoding="utf-8")
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in zip(staged, targets):
        os.replace(tmp, path)
