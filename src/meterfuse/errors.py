"""Exception hierarchy shared across the package.

Every error raised on a per-corpus-entry basis carries an optional
``entry`` attribute naming the offending measurement, filled in by the
manifest and corpus loaders: the entry's name, or its index in the
manifest when it has no usable name.
"""

from __future__ import annotations


class MeterFuseError(Exception):
    """Base class for all package errors."""

    entry: str | int | None = None


class NonFiniteValue(MeterFuseError):
    """A sample value is NaN or infinite."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value at sample index {index}")


class InvalidRange(MeterFuseError):
    """A time range with start > end."""


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
        self.name = name
        super().__init__(f"duplicate measurement id {name!r}")


class InvalidArgument(MeterFuseError, ValueError):
    """A numeric argument outside its allowed range, such as a negative radius."""


class ZeroStep(MeterFuseError):
    """Sampling step below 1."""


class EmptyInput(MeterFuseError):
    """A distance computation received an empty value sequence."""


class CostOverflow(MeterFuseError):
    """A warped distance whose accumulated cost is too large for float64."""


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
