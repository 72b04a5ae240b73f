"""Unsupervised anomaly detectors: autoregression, level shift, rolling average.

Each detector scores every eligible index and flags the outliers of its
own score distribution with a robust rule: an index is anomalous when
its score deviates from the median score by more than ``k`` times the
scores' interquartile range.  The IQR is floored at a small fraction of
the series' own spread, so constant and straight-line inputs never flag
on numerical noise, while a spike among otherwise-identical residuals
(which leaves the IQR at exactly zero) is still caught.

The median and the quartiles of a score set come from one `np.partition`,
with numpy's own median and linear-percentile arithmetic redone on the
selected elements (`_order_stats`), so they equal `np.median` and
`np.percentile` bit for bit without their extra passes; level shift's
window medians come from a sorting network over the window's shifted
slices up to `_NETWORK_MAX_WIDTH` values, and from one `np.partition`
along wider windows.  The noise floor depends on the series alone
(`noise_floor`), so a caller that runs every kind on one series computes
it once and passes it to each run.

``DETECTORS`` holds each kind's facts; `run_detector` is the one entry point.

Detectors see index order only; timestamps never enter the computation,
so a merged series is detected exactly like a plain one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import InvalidArgument, TooShort, naming
from .merge import ORIGIN_NAMES, MergedSeries
from .model import TimeSeries

# Score variation below these fractions of the series' own spread and
# magnitude is treated as numerical noise rather than signal.  The
# magnitude term matters when values sit on a large offset: float
# granularity there is ulp(|y|), independent of the series' spread.
RELATIVE_NOISE_FLOOR = 1e-8
MAGNITUDE_NOISE_FLOOR = 1e-10

_RIDGE = 1e-8

# Windows of up to this many values take their medians from the sorting
# network in `_window_medians`, wider ones from `np.partition`.  On a
# 17,280-point random walk, as the median of six best-of-40 timings, the
# network took 0.15 ms against the partition's 0.99 ms at w = 5, 0.88
# against 1.40 ms at w = 11, 1.23 against 1.64 ms at w = 13 and 1.84 against
# 1.38 ms at w = 15 (2 vCPUs, numpy 2.4).  The partition places two ranks
# at even widths and takes 2-3x as long there (3.76 ms at w = 12), so the
# network wins at every width up to 14.
_NETWORK_MAX_WIDTH = 14


class DetectorKind(Enum):
    AR = "autoregression"
    LEVEL_SHIFT = "level_shift"
    ROLLING_AVERAGE = "rolling_average"


@dataclass(frozen=True)
class DetectorParams:
    """Settings for one detector run.

    ``size`` is the AR order or the RA/LS window (per side for LS), as
    ``DETECTORS[kind].size`` names it; ``threshold_k`` is the multiplier of
    the outlier rule.
    """

    kind: DetectorKind
    size: int
    threshold_k: float

    def __post_init__(self):
        kind = self.kind.value
        if self.size < 1:
            name = DETECTORS[self.kind].size
            raise InvalidArgument(f"{kind} {name} must be >= 1, got {self.size}")
        if self.threshold_k <= 0:
            raise InvalidArgument(f"{kind} threshold_k must be > 0, got {self.threshold_k}")


def default_params(kind: DetectorKind) -> DetectorParams:
    spec = DETECTORS[kind]
    return DetectorParams(kind, spec.default_size, spec.default_k)


@dataclass(frozen=True, eq=False)
class AnomalySet:
    """Flagged sample indices with their scores for one detector run."""

    series_name: str
    params: DetectorParams
    flagged: np.ndarray  # sorted int indices into the series
    scores: np.ndarray  # deviation score per flagged index

    @property
    def count(self) -> int:
        return len(self.flagged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnomalySet):
            return NotImplemented
        return (
            self.series_name == other.series_name
            and self.params == other.params
            and np.array_equal(self.flagged, other.flagged)
            and np.array_equal(self.scores, other.scores)
        )


SeriesLike = Union[TimeSeries, MergedSeries, np.ndarray]


def _values_and_name(s: SeriesLike) -> tuple[np.ndarray, str]:
    if isinstance(s, TimeSeries):
        return s.v, s.id.name
    if isinstance(s, MergedSeries):
        return s.v, s.name
    return np.asarray(s, dtype=np.float64), ""


def _linear(n: int, q: float) -> tuple[int, int, float]:
    """The two ranks numpy's linear percentile at fraction ``q`` of ``n`` values reads, and its weight.

    The virtual index is ``(n-1)*q``; at or above ``n-1`` numpy reads the
    last element twice and takes the weight against index -1.
    """
    v = (n - 1) * q
    if v >= n - 1:
        return n - 1, n - 1, v + 1
    i = int(v)
    return i, i + 1, v - i


def _order_stats(x: np.ndarray, quartiles: bool) -> tuple[float, ...]:
    """``np.median(x)``, then ``np.percentile(x, 25)`` and ``(x, 75)`` when ``quartiles``.

    One `np.partition` places every element these read, and the last one:
    NaN sorts last, so a NaN there makes every result that NaN, as numpy
    gives it.  The median is numpy's mean of the middle one or two, a sum
    that starts from 0.0; a percentile between ranks holding ``a`` and
    ``b`` at weight ``t`` (`_linear`) is ``a + (b-a)*t`` below ``t = 0.5``
    and ``b - (b-a)*(1-t)`` from it.  The arithmetic is on Python floats,
    which round as float64 does and never warn, so the results are numpy's
    bit for bit, NaN for NaN; only a zero percentile's sign can differ, as
    it follows where a partition leaves equal zeros.  ``x`` is 1-D and not
    empty.
    """
    n = len(x)
    lerps = [_linear(n, q) for q in (0.25, 0.75)] if quartiles else []
    ranks = sorted({(n - 1) // 2, n // 2, n - 1, *(r for i, j, _ in lerps for r in (i, j))})
    at = dict(zip(ranks, np.partition(x, ranks)[ranks].tolist()))
    if math.isnan(at[n - 1]):
        return (at[n - 1],) * (1 + len(lerps))
    h = n // 2
    stats = [0.0 + at[h] if n % 2 else (0.0 + at[h - 1] + at[h]) / 2]
    for i, j, t in lerps:
        a, b = at[i], at[j]
        stats.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return tuple(stats)


def noise_floor(values: np.ndarray) -> float:
    """The floor under the interquartile range of every score set of one series.

    It is `RELATIVE_NOISE_FLOOR` of the values' largest distance from their
    median plus `MAGNITUDE_NOISE_FLOOR` of their largest magnitude; 0 when
    there are none.
    """
    if not len(values):
        return 0.0
    (median,) = _order_stats(values, quartiles=False)
    centered = values - median
    return float(
        RELATIVE_NOISE_FLOOR * np.max(np.abs(centered))
        + MAGNITUDE_NOISE_FLOOR * np.max(np.abs(values))
    )


def _flag_outliers(scores: np.ndarray, floor: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions (into `scores`) whose deviation exceeds the threshold."""
    if len(scores) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    median, q1, q3 = _order_stats(scores, quartiles=True)
    dev = np.abs(scores - median)
    threshold = k * max(q3 - q1, floor)
    positions = np.nonzero(dev > threshold)[0]
    return positions, dev[positions]


def fit_ar_predict(values: np.ndarray, p: int) -> np.ndarray:
    """Residuals of a single global least-squares AR(p) fit with intercept.

    Coefficients minimize the squared one-step prediction error over
    t = p .. len-1, with a tiny ridge term (1e-8) so degenerate designs
    such as constant series stay solvable and predict the constant.
    Returns the residual for each of those t (length len - p); the first
    p positions carry no residual.
    """
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    if n <= p:
        raise TooShort(f"AR({p}) needs more than {p} samples, got {n}")
    rows = n - p
    # Ridge via the augmented system: argmin |Xc - y|^2 + 1e-8 |c|^2,
    # with the design X the top rows of the one augmented matrix.
    aug = np.empty((rows + p + 1, p + 1))
    design = aug[:rows]
    design[:, 0] = 1.0
    for lag in range(1, p + 1):
        design[:, lag] = y[p - lag : n - lag]
    aug[rows:] = np.sqrt(_RIDGE) * np.eye(p + 1)
    target = y[p:]
    rhs = np.concatenate([target, np.zeros(p + 1)])
    coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return target - design @ coef


def _window_medians(values: np.ndarray, w: int) -> np.ndarray:
    """``np.median`` of every ``w`` consecutive values, bit for bit.

    Up to `_NETWORK_MAX_WIDTH` values, ``w`` rounds of odd-even
    transposition sort the ``w`` shifted slices (row i holds each window's
    i-th value) with `np.minimum` and `np.maximum`.  Both give NaN on both
    outputs when either input is NaN, and over ``w`` rounds a NaN reaches
    every row, so a window holding NaN gets NaN.  Wider windows take one
    `np.partition` along the windows, which places the last rank too when
    the input holds NaN: NaN sorts last, and a window's NaN there replaces
    its upper middle value.  The arithmetic is `_order_stats`': the middle
    one or two summed from 0.0, so a zero median is +0.0 whichever equal
    zeros the selection leaves in the middle.
    """
    g, h = (w - 1) // 2, w // 2
    if w <= _NETWORK_MAX_WIDTH:
        m = len(values) - w + 1
        rows = [values[i : i + m] for i in range(w)]
        for r in range(w):
            for i in range(r % 2, w - 1, 2):
                a, b = rows[i], rows[i + 1]
                rows[i], rows[i + 1] = np.minimum(a, b), np.maximum(a, b)
        lower, upper = rows[g], rows[h]
    else:
        nan = bool(np.isnan(values).any())
        ranks = sorted({g, h, *([w - 1] if nan else [])})
        part = np.partition(np.lib.stride_tricks.sliding_window_view(values, w), ranks, axis=1)
        lower, upper = part[:, g], part[:, h]
        if nan:
            upper = np.where(np.isnan(part[:, -1]), part[:, -1], upper)
    return 0.0 + upper if w % 2 else (0.0 + lower + upper) / 2


def level_shift_scores(values: np.ndarray, w: int) -> np.ndarray:
    """|median of the w before t - median of the w from t| for t = w .. len-w."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2 * w:
        raise TooShort(f"level shift needs at least {2 * w} samples, got {n}")
    medians = _window_medians(values, w)
    # medians[i] covers values[i : i+w]; score at t pairs windows ending
    # at t-1 and starting at t.
    return np.abs(medians[: n - 2 * w + 1] - medians[w:])


def rolling_average_residuals(values: np.ndarray, w: int) -> np.ndarray:
    """value minus the mean of its w predecessors, for t = w .. len-1."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n <= w:
        raise TooShort(f"rolling average needs more than {w} samples, got {n}")
    means = np.mean(np.lib.stride_tricks.sliding_window_view(values, w), axis=1)
    return values[w:] - means[: n - w]


class DetectorSpec(NamedTuple):
    tag: str  # names the kind's CLI flags (--ra-window) and files (eval.ra.json)
    score: Callable[[np.ndarray, int], np.ndarray]
    size: str  # what DetectorParams.size means here: "order_p" or "window_w"
    default_size: int
    default_k: float


# Every detector kind, in report-column order, with its default settings.
# LS gets a larger multiplier: median windows absorb spikes, so its score
# distribution is tighter and noisier shifts would over-flag.
DETECTORS = {
    DetectorKind.ROLLING_AVERAGE: DetectorSpec("ra", rolling_average_residuals, "window_w", 10, 3.0),
    DetectorKind.AR: DetectorSpec("ar", fit_ar_predict, "order_p", 10, 3.0),
    DetectorKind.LEVEL_SHIFT: DetectorSpec("ls", level_shift_scores, "window_w", 5, 6.0),
}


def run_detector(params: DetectorParams, s: SeriesLike, floor: float | None = None) -> AnomalySet:
    """Flag the outliers of the scores of the detector named in params.

    The size is also the first index the kind scores, so it offsets the
    flagged positions.  ``floor`` is ``noise_floor`` of the series' values,
    computed here when not given.  TooShort names the series as its ``entry``.
    """
    values, name = _values_and_name(s)
    with naming(name or None, TooShort):
        scores = DETECTORS[params.kind].score(values, params.size)
    if floor is None:
        floor = noise_floor(values)
    positions, deviations = _flag_outliers(scores, floor, params.threshold_k)
    return AnomalySet(name, params, positions + params.size, deviations)


def anomalies_to_csv(anomalies: AnomalySet, s: TimeSeries | MergedSeries) -> str:
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
