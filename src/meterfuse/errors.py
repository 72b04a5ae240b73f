"""Exception hierarchy shared across the package.

An error raised for one corpus entry carries an ``entry`` attribute naming
it: the entry's name, or its manifest index when it has no usable name.
`naming` sets it on the errors raised inside a block; `DuplicateId` sets it
itself.  Errors that name their entry: every error of loading an entry's
manifest record or file, the `ManifestError` of a name that
`CorpusManifest.select` does not find, `DuplicateId`, `EmptyInput` and
`NonFiniteValue` of a series `match_all` samples, `TooShort`,
`NonFiniteValue` and `CostOverflow` of a named series a detector scores,
`EmptyWindow`, `TooFewSamples` and `NonFiniteValue` of the CLI's
injection, `NonFiniteValue` and `InvalidArgument` of a series
`series_to_csv` or `write_outputs` refuses, and the `InvalidArgument` of a
`synth` builder whose timestamps pass int64.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class MeterFuseError(Exception):
    """Base class for all package errors."""

    entry: str | int | None = None


@contextmanager
def naming(entry: str | int | None, *kinds: type[MeterFuseError]) -> Iterator[None]:
    """Set ``entry`` on an error of ``kinds`` (any MeterFuseError if none) raised in the block."""
    try:
        yield
    except kinds or MeterFuseError as err:
        err.entry = entry
        raise


class NonFiniteValue(MeterFuseError):
    """A sample value is NaN or infinite."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value at sample index {index}")


class MissingColumn(MeterFuseError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column {name!r} not found in header")


class UnparseableTime(MeterFuseError):
    def __init__(self, row: int, cell: str = ""):
        self.row = row
        super().__init__(f"cannot parse timestamp {cell!r} at data row {row}")


class UnparseableValue(MeterFuseError):
    def __init__(self, row: int, cell: str = ""):
        self.row = row
        super().__init__(f"cannot parse value {cell!r} at data row {row}")


class IoError(MeterFuseError):
    def __init__(self, path: str, cause: Exception | None = None, action: str = "read"):
        self.path = path
        super().__init__(f"cannot {action} {path}: {cause}")


class MalformedCsv(MeterFuseError):
    """A series file that is not UTF-8 text or that the csv module cannot split."""


class ManifestError(MeterFuseError):
    """A corpus manifest that is not JSON, lacks a field or has an unknown value."""


class DuplicateId(MeterFuseError):
    def __init__(self, name: str):
        self.name = self.entry = name
        super().__init__(f"duplicate measurement id {name!r}")


class InvalidArgument(MeterFuseError, ValueError):
    """An argument outside its allowed range, such as a negative radius or a zero step."""


class EmptyInput(MeterFuseError):
    """A distance computation received an empty value sequence."""


class CostOverflow(MeterFuseError):
    """A warped distance or a detector's scores too large for float64."""


class TooShort(MeterFuseError):
    """Series shorter than the detector or transform requires."""


class EmptyPartition(MeterFuseError):
    """A corpus side holds no series, so no pairs can be ranked."""


class EmptyWindow(MeterFuseError):
    """An injection window contains no samples."""


class TooFewSamples(MeterFuseError):
    """More injection targets requested than samples available."""


class SeriesMismatch(MeterFuseError):
    """Detection output and injection label refer to different series."""


class UndefinedBaseline(MeterFuseError):
    """Percent change requested against a zero individual count."""
