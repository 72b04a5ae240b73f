"""Canonical time-series types shared by every other module.

Timestamps are integer milliseconds since the Unix epoch (UTC).  The two
metering systems run at very different cadences (seconds vs hours);
integer millis keep merge tie-breaking free of float-equality hazards.
Values are unit-agnostic finite reals.

All types are immutable after construction and safe to share across
workers; the operations here are pure functions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import InvalidArgument, NonFiniteValue

log = logging.getLogger(__name__)


class SystemTag(Enum):
    """Which of the two metering systems a measurement belongs to."""

    ION = "ION"
    HIST = "HIST"


@dataclass(frozen=True)
class MeasurementId:
    """Identity of one measurement: its system plus a per-system-unique name."""

    system: SystemTag
    name: str

    def __post_init__(self):
        if not self.name:
            raise InvalidArgument("measurement name must be non-empty")
        check_cell(self.name)

    def __str__(self) -> str:
        return self.name


def check_cell(text: str) -> str:
    """``text``, or InvalidArgument when it holds a carriage return outside a CR LF pair.

    csv.writer quotes a cell holding its line terminator, a line feed, but
    not a bare CR, at which csv.reader ends a record, so such a cell would
    split its table row.  Every name and every text cell of a table pass here.
    """
    if "\r" in text.replace("\r\n", ""):
        raise InvalidArgument(f"{text!r} holds a carriage return outside a CR LF pair")
    return text


def value_eq(self, other) -> bool:
    """``__eq__`` of a dataclass holding arrays: each field equal, arrays by `np.array_equal`."""
    if not isinstance(other, type(self)):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A timestamp-ordered sequence of samples with an identity.

    ``t`` and ``v`` are parallel read-only numpy arrays (int64 millis,
    float64 values).  After `validate_series` the timestamps are
    non-decreasing and all values finite.
    """

    id: MeasurementId
    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.int64)
        v = np.asarray(self.v, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("t and v must be parallel 1-D arrays")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_samples(cls, id: MeasurementId, samples: Iterable[tuple[int, float]]) -> "TimeSeries":
        pts = list(samples)
        t = np.array([p[0] for p in pts], dtype=np.int64)
        v = np.array([p[1] for p in pts], dtype=np.float64)
        return cls(id, t, v)

    @property
    def samples(self) -> list[tuple[int, float]]:
        return list(zip(self.t.tolist(), self.v.tolist()))

    def __len__(self) -> int:
        return len(self.t)

    __eq__ = value_eq

    def with_values(self, v: np.ndarray) -> "TimeSeries":
        """Same identity and timestamps, different values."""
        return TimeSeries(self.id, self.t, np.asarray(v, dtype=np.float64))


def validate_series(raw: TimeSeries) -> TimeSeries:
    """Sort a series by timestamp and reject non-finite values.

    The sort is stable, so samples sharing a timestamp keep their input
    order.  Duplicate timestamps are retained.  An empty series is legal
    but logged as a warning.  Idempotent.

    Raises NonFiniteValue with the index (in input order) of the first
    NaN/Inf value.
    """
    finite_values(raw.v)
    if len(raw) == 0:
        log.warning("series %s is empty", raw.id)
    return sorted_by_time(raw)


def sorted_by_time(s: TimeSeries) -> TimeSeries:
    """``s`` stably sorted by timestamp: ``s`` itself when it is sorted already."""
    if (s.t[1:] >= s.t[:-1]).all():  # the stable sort would be the identity
        return s
    order = np.argsort(s.t, kind="stable")
    return TimeSeries(s.id, s.t[order], s.v[order])


def finite_values(a) -> np.ndarray:
    """``a`` as float64; NonFiniteValue names the index of the first NaN or infinite value."""
    v = np.asarray(a, dtype=np.float64)
    finite = np.isfinite(v)
    if not finite.all():
        raise NonFiniteValue(int(np.argmin(finite)))
    return v


def check_seed(seed: int | None) -> int | None:
    """``seed`` for np.random.default_rng; a negative one raises InvalidArgument, not ValueError."""
    if seed is not None and seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    return seed


def slice_by_range(s: TimeSeries, start: int, end: int) -> TimeSeries:
    """Samples with start <= t <= end, order and identity preserved."""
    if start > end:
        raise InvalidArgument(f"start {start} > end {end}")
    lo = int(np.searchsorted(s.t, start, side="left"))
    hi = int(np.searchsorted(s.t, end, side="right"))
    return TimeSeries(s.id, s.t[lo:hi], s.v[lo:hi])
