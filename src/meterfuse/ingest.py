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
value as decimal text.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateId,
    IoError,
    ManifestError,
    MeterFuseError,
    MissingColumn,
    UnparseableTime,
    UnparseableValue,
)
from .model import MeasurementId, SystemTag, TimeSeries, validate_series

log = logging.getLogger(__name__)


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
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        seen: set[MeasurementId] = set()
        for e in self.entries:
            if not e.path:
                raise ValueError(f"entry {e.id} has an empty path")
            if e.id in seen:
                raise DuplicateId(e.id.name)
            seen.add(e.id)

    def select(self, name: str) -> CorpusManifest:
        """The one-entry manifest of the first entry called name."""
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
    if millis < 0:
        raise UnparseableTime(row, cell)
    return millis


def parse_csv(
    data: bytes | str | io.IOBase,
    id: MeasurementId,
    columns: ColumnMap = ColumnMap(),
    time_format: TimeFormat = TimeFormat.EPOCH_MILLIS,
) -> TimeSeries:
    """Parse one measurement's CSV into a validated series.

    Expects UTF-8 text with a header row.  Rows with an empty value cell
    are skipped (zero is meaningful in this data, so blanks are never
    zero-filled); the skip count is logged.  Row numbers in errors are
    1-based over data rows.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    elif isinstance(data, str):
        text = data
    else:
        raw = data.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    for col in (columns.time_column, columns.value_column):
        if col not in header:
            raise MissingColumn(col)

    ts: list[int] = []
    vs: list[float] = []
    skipped = 0
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
    series = TimeSeries(id, np.array(ts, dtype=np.int64), np.array(vs, dtype=np.float64))
    return validate_series(series)


# Manifest entry keys: the required ones, then the optional ones with their defaults.
_ENTRY_KEYS = {
    "system": None,
    "name": None,
    "path": None,
    "time_column": "timestamp",
    "value_column": "value",
    "time_format": "EPOCH_MILLIS",
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
        try:
            entries.append(_manifest_entry(raw, path.parent))
        except ManifestError as e:
            name = raw.get("name") if isinstance(raw, dict) else None
            e.entry = name if isinstance(name, str) and name else index
            raise
    return CorpusManifest(tuple(entries))


def load_corpus(manifest: CorpusManifest) -> Corpus:
    """Load and validate every manifest entry.

    Deterministic: the same manifest and files produce an identical
    corpus.  Parse errors are re-raised tagged with the offending entry.
    """
    corpus = Corpus()
    for entry in manifest.entries:
        if entry.id in corpus.series_by_id:
            raise DuplicateId(entry.id.name)
        try:
            blob = Path(entry.path).read_bytes()
        except OSError as e:
            raise IoError(entry.path, e) from None
        try:
            series = parse_csv(blob, entry.id, entry.columns, entry.time_format)
        except MeterFuseError as e:
            e.entry = entry.id.name
            raise
        log.info("%s: loaded %d samples from %s", entry.id, len(series), entry.path)
        corpus.series_by_id[entry.id] = series
    return corpus


def series_to_csv(s: TimeSeries, time_format: TimeFormat = TimeFormat.EPOCH_MILLIS) -> str:
    """Canonical CSV export; re-parsing yields an identical series."""
    lines = ["timestamp,value"]
    for t, v in zip(s.t, s.v):
        lines.append(f"{_format_time(int(t), time_format)},{_format_value(float(v))}")
    return "\n".join(lines) + "\n"


def _format_time(millis: int, fmt: TimeFormat) -> str:
    if fmt is TimeFormat.EPOCH_MILLIS:
        return str(millis)
    if fmt is TimeFormat.EPOCH_SECONDS:
        if millis % 1000 == 0:
            return str(millis // 1000)
        return repr(millis / 1000.0)
    return (
        datetime.fromtimestamp(millis / 1000.0, tz=timezone.utc).isoformat().replace("+00:00", "Z")
    )


def _format_value(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)
