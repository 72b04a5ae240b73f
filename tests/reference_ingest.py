"""Row-by-row `parse_csv` and CSV renderers, kept as references for the bulk ones.

`parse_csv` is the earlier implementation of `meterfuse.ingest.parse_csv`:
every file goes through `csv.DictReader` one row at a time.  It is slow
but each rule (blank-value skips, the row number in errors, the millis
range) is easy to check by eye, so `parse_csv` must return the same
series and raise the same errors on every input.

`series_to_csv` and `anomalies_to_csv` are the earlier per-row renderers
of `meterfuse.ingest.series_to_csv` and `meterfuse.detectors.anomalies_to_csv`:
one f-string per row.  The chunked renderers must write the same bytes
for every series they accept.
"""

from __future__ import annotations

import csv
import io
import logging
from datetime import datetime, timezone

import numpy as np

from meterfuse.errors import MalformedCsv, MissingColumn, UnparseableTime, UnparseableValue
from meterfuse.ingest import ColumnMap, TimeFormat
from meterfuse.merge import ORIGIN_NAMES, MergedSeries
from meterfuse.model import MeasurementId, TimeSeries, validate_series

log = logging.getLogger(__name__)


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
    columns: ColumnMap = ColumnMap(),
    time_format: TimeFormat = TimeFormat.EPOCH_MILLIS,
) -> TimeSeries:
    """Parse one measurement's CSV into a validated series.

    Expects UTF-8 text with a header row; one leading byte-order mark is
    skipped.  Text that is not UTF-8 or that the csv module rejects raises
    MalformedCsv.  Rows with an empty value cell are skipped (zero is
    meaningful in this data, so blanks are never zero-filled); the skip
    count is logged.  Row numbers in errors are 1-based over data rows.
    """
    ts: list[int] = []
    vs: list[float] = []
    skipped = 0
    try:
        if isinstance(data, bytes):
            text = data.decode("utf-8")
        elif isinstance(data, str):
            text = data
        else:
            raw = data.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        text = text.removeprefix("\ufeff")  # one leading byte-order mark

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
    except (UnicodeDecodeError, csv.Error) as e:
        raise MalformedCsv(f"malformed CSV: {e}") from None

    if skipped:
        log.warning("%s: skipped %d rows with empty value cells", id, skipped)
    series = TimeSeries(id, np.array(ts, dtype=np.int64), np.array(vs, dtype=np.float64))
    return validate_series(series)


def series_to_csv(s: TimeSeries) -> str:
    """Canonical epoch-millis CSV export; re-parsing yields an identical series."""
    lines = [f"{t},{_format_value(v)}\n" for t, v in zip(s.t.tolist(), s.v.tolist())]
    return "timestamp,value\n" + "".join(lines)


def _format_value(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:  # False for NaN and infinities
        return str(int(v))
    return repr(v)


def anomalies_to_csv(anomalies, s: TimeSeries | MergedSeries) -> str:
    """Flagged rows as ``index,timestamp,value,score[,origin]``."""
    origins = s.origin if isinstance(s, MergedSeries) else None
    lines = ["index,timestamp,value,score" + (",origin" if origins is not None else "")]
    for idx, score in zip(anomalies.flagged, anomalies.scores):
        i = int(idx)
        row = f"{i},{int(s.t[i])},{float(s.v[i])!r},{float(score)!r}"
        if origins is not None:
            row += f",{ORIGIN_NAMES[int(origins[i])]}"
        lines.append(row)
    return "\n".join(lines) + "\n"
