"""Row-by-row `parse_csv`, kept as a reference for the column-wise ingest path.

This is the earlier implementation of `meterfuse.ingest.parse_csv`: every
file goes through `csv.DictReader` one row at a time.  It is slow but each
rule (blank-value skips, the row number in errors, the millis range) is
easy to check by eye, so `parse_csv` must return the same series and
raise the same errors on every input.
"""

from __future__ import annotations

import csv
import io
import logging
from datetime import datetime, timezone

import numpy as np

from meterfuse.errors import MalformedCsv, MissingColumn, UnparseableTime, UnparseableValue
from meterfuse.ingest import ColumnMap, TimeFormat
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

    Expects UTF-8 text with a header row; text that is not UTF-8 or that
    the csv module rejects raises MalformedCsv.  Rows with an empty value
    cell are skipped (zero is meaningful in this data, so blanks are never
    zero-filled); the skip count is logged.  Row numbers in errors are
    1-based over data rows.
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
