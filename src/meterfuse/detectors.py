"""Unsupervised anomaly detectors: autoregression, level shift, rolling average.

Each detector scores every eligible index and flags the outliers of its
own score distribution with a robust rule: an index is anomalous when
its score deviates from the median score by more than ``k`` times the
scores' interquartile range.  The IQR is floored at a small fraction of
the series' own spread, so constant and straight-line inputs never flag
on numerical noise, while a spike among otherwise-identical residuals
(which leaves the IQR at exactly zero) is still caught.

The median and the quartiles of a score set come from one `np.sort`,
with numpy's own median and linear-percentile arithmetic redone on the
selected elements (`_order_stats`), so they equal `np.median` and
`np.percentile` bit for bit without their extra passes; level shift's
window medians come from a sorting network over the window's shifted
slices up to `_NETWORK_MAX_WIDTH` values, and from `np.partition` along
wider windows, `_BLOCK` windows at a time.  The noise floor depends on the
series alone (`noise_floor`), so a caller that runs every kind on one
series computes it once and passes it to each run.

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

from .errors import CostOverflow, InvalidArgument, NonFiniteValue, TooShort, naming
from .ingest import csv_text
from .merge import ORIGIN_NAMES, MergedSeries
from .model import TimeSeries, finite_values, value_eq

# Score variation below these fractions of the series' own spread and
# magnitude is treated as numerical noise rather than signal.  The
# magnitude term matters when values sit on a large offset: float
# granularity there is ulp(|y|), independent of the series' spread.
RELATIVE_NOISE_FLOOR = 1e-8
MAGNITUDE_NOISE_FLOOR = 1e-10

_RIDGE = 1e-8

# Rows per block of the AR fit's QR (`fit_ar_predict`), and windows per
# block of level shift's medians (`_window_medians`).  Summed over a seed-1
# `fullres` pipeline (median of six processes, 2 vCPUs, one BLAS thread),
# the AR fits took 25.6 ms at 512 rows, 22.3 at 1,024, 19.4 at 2,048 and
# 20.1 at 4,096, where minor faults rose from 23 to 177.  Level shift on a
# 34,560-point walk at w = 5 (median of 31 calls in one process) took
# 1.39 ms at 512 windows, 0.90 at 1,024, 0.66 at 2,048 and 0.42 at 4,096,
# and at w = 20 about 10 ms at every size.
_BLOCK = 2048

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
        if not math.isfinite(self.threshold_k):
            raise InvalidArgument(f"{kind} threshold_k must be finite, got {self.threshold_k}")
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

    __eq__ = value_eq


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

    One `np.sort` places every element these read, and the last one: NaN
    sorts last, so a NaN there makes every result that NaN, as numpy gives
    it.  (A partition at several ranks leaves numpy 2.4's SIMD path and
    takes about 3x the sort's time.)  The median is numpy's mean of the
    middle one or two, a sum that starts from 0.0; a percentile between
    ranks holding ``a`` and ``b`` at weight ``t`` (`_linear`) is
    ``a + (b-a)*t`` below ``t = 0.5`` and ``b - (b-a)*(1-t)`` from it.  The
    arithmetic is on Python floats, which round as float64 does and never
    warn, so the results are numpy's bit for bit, NaN for NaN; only a zero
    percentile's sign can differ, as it follows where equal zeros sort.
    That sign changes no nonzero IQR, and a zero IQR of either sign gives
    the same `_flag_outliers` flags and scores.  ``x`` is 1-D and not empty.
    """
    n = len(x)
    lerps = [_linear(n, q) for q in (0.25, 0.75)] if quartiles else []
    ranks = sorted({(n - 1) // 2, n // 2, n - 1, *(r for i, j, _ in lerps for r in (i, j))})
    at = dict(zip(ranks, np.sort(x)[ranks].tolist()))
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
    there are none.  A distance past float64's range makes it infinite,
    without a warning.
    """
    if not len(values):
        return 0.0
    (median,) = _order_stats(values, quartiles=False)
    with np.errstate(over="ignore", invalid="ignore"):
        scratch = values - median  # one temporary takes both absolute values in turn
    spread = np.max(np.abs(scratch, out=scratch))
    magnitude = np.max(np.abs(values, out=scratch))
    return float(RELATIVE_NOISE_FLOOR * spread + MAGNITUDE_NOISE_FLOOR * magnitude)


def _flag_outliers(scores: np.ndarray, floor: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions (into `scores`, not empty) whose deviation exceeds the threshold.

    `CostOverflow` unless the floor, the threshold and every deviation are
    finite.
    """
    median, q1, q3 = _order_stats(scores, quartiles=True)
    dev = scores - median
    np.abs(dev, out=dev)
    threshold = k * max(q3 - q1, floor)
    if not (math.isfinite(floor) and math.isfinite(threshold) and np.isfinite(dev).all()):
        raise CostOverflow("detector scores overflow float64")
    positions = np.nonzero(dev > threshold)[0]
    return positions, dev[positions]


def fit_ar_predict(values: np.ndarray, p: int) -> np.ndarray:
    """Residuals of a single global least-squares AR(p) fit with intercept.

    Coefficients minimize the squared one-step prediction error over
    t = p .. len-1, with a tiny ridge term (1e-8) so degenerate designs
    such as constant series stay solvable and predict the constant.
    Returns the residual for each of those t (length len - p); the first
    p positions carry no residual.

    The fit never builds the design matrix: a Householder QR takes its
    rows `_BLOCK` at a time into one (p+2)-square triangle, and
    `np.linalg.lstsq` solves that triangle with the singular-value cutoff
    it would apply to the whole ridge-augmented design.  So it holds one
    block, the residuals and one temporary of their length, whatever the
    series' length.  `CostOverflow` when the triangle is not finite, before
    `lstsq` reads it: LAPACK would print to stdout and fail untyped.
    """
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    if n <= p:
        raise TooShort(f"AR({p}) needs more than {p} samples, got {n}")
    rows = n - p
    # Rows [1, y[t-p] .. y[t-1], y[t]] go in a block at a time below the
    # triangle R of the rows so far, and R becomes the triangle of both.
    # R starts as the ridge rows; the target's, R[p+1, p+1], moves no coefficient.
    buf = np.empty((_BLOCK + p + 2, p + 2))
    buf[: p + 2] = np.sqrt(_RIDGE) * np.eye(p + 2)
    buf[p + 2 :, 0] = 1.0
    for s in range(0, rows, _BLOCK):
        b = min(_BLOCK, rows - s)
        buf[p + 2 : p + 2 + b, 1:] = np.lib.stride_tricks.sliding_window_view(y[s : s + b + p], p + 1)
        buf[: p + 2] = np.linalg.qr(buf[: p + 2 + b], mode="r")
    if not np.isfinite(buf[: p + 2]).all():
        raise CostOverflow(f"AR({p}) fit overflows float64")
    # R's singular values are the augmented design's: cut them where lstsq cut that.
    rcond = np.finfo(np.float64).eps * (rows + p + 1)
    coef = np.linalg.lstsq(buf[: p + 1, : p + 1], buf[: p + 1, p + 1], rcond=rcond)[0]
    predicted = np.full(rows, coef[0])
    for k in range(p):
        predicted += coef[k + 1] * y[k : k + rows]
    return y[p:] - predicted


def _window_medians(values: np.ndarray, w: int) -> np.ndarray:
    """``np.median`` of every ``w`` consecutive values, bit for bit.

    The windows go `_BLOCK` at a time, so beside its output this holds one
    block: ``w + 1`` rows of `_BLOCK` values for the network, a copy of
    `_BLOCK` windows for the partition.  Up to `_NETWORK_MAX_WIDTH` values,
    ``w`` rounds of odd-even transposition sort the block's ``w`` shifted
    slices (row i holds each window's i-th value) with `np.minimum` and
    `np.maximum` into the rows.  Both give NaN on both outputs when either
    input is NaN, and over ``w`` rounds a NaN reaches every row, so a
    window holding NaN gets NaN.  Wider windows take one `np.partition`
    along the block's windows, which places the last rank too when the
    block holds NaN: NaN sorts last, and a window's NaN there replaces its
    upper middle value.  The arithmetic is `_order_stats`': the middle one
    or two summed from 0.0, so a zero median is +0.0 whichever equal zeros
    the selection leaves in the middle.
    """
    g, h = (w - 1) // 2, w // 2
    m = len(values) - w + 1
    medians = np.empty(m)
    network = w <= _NETWORK_MAX_WIDTH
    buf = np.empty((w + 1, min(_BLOCK, m)) if network else (min(_BLOCK, m), w))
    for s in range(0, m, _BLOCK):
        b = min(_BLOCK, m - s)
        block = values[s : s + b + w - 1]
        if network:
            *rows, spare = (row[:b] for row in buf)
            for i in range(w):
                rows[i][...] = block[i : i + b]
            for r in range(w):
                for i in range(r % 2, w - 1, 2):
                    lo, hi = rows[i], rows[i + 1]
                    np.minimum(lo, hi, out=spare)
                    np.maximum(lo, hi, out=hi)
                    rows[i], spare = spare, lo
            lower, upper = rows[g], rows[h]
        else:
            nan = bool(np.isnan(block).any())
            ranks = sorted({g, h, *([w - 1] if nan else [])})
            part = buf[:b]
            part[...] = np.lib.stride_tricks.sliding_window_view(block, w)
            part.partition(ranks, axis=1)
            lower, upper = part[:, g], part[:, h]
            if nan:
                upper = np.where(np.isnan(part[:, -1]), part[:, -1], upper)
        out = medians[s : s + b]
        np.add(0.0, upper if w % 2 else lower, out=out)
        if not w % 2:
            out += upper
            out /= 2
    return medians


def level_shift_scores(values: np.ndarray, w: int) -> np.ndarray:
    """|median of the w before t - median of the w from t| for t = w .. len-w."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2 * w:
        raise TooShort(f"level shift needs at least {2 * w} samples, got {n}")
    medians = _window_medians(values, w)
    # medians[i] covers values[i : i+w]; score at t pairs windows ending
    # at t-1 and starting at t.
    scores = medians[: n - 2 * w + 1] - medians[w:]
    return np.abs(scores, out=scores)


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
    computed here when not given.  Values must be finite (`NonFiniteValue`),
    and so must the scores and the floor computed from them, without a
    warning (`CostOverflow`).  These errors and TooShort name the series as
    their ``entry``.
    """
    values, name = _values_and_name(s)
    with naming(name or None, TooShort, NonFiniteValue, CostOverflow):
        finite_values(values)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = DETECTORS[params.kind].score(values, params.size)
            if floor is None:
                floor = noise_floor(values)
            positions, deviations = _flag_outliers(scores, floor, params.threshold_k)
    return AnomalySet(name, params, positions + params.size, deviations)


def anomalies_to_csv(anomalies: AnomalySet, s: TimeSeries | MergedSeries) -> str:
    """Flagged rows as ``index,timestamp,value,score[,origin]``, value and score as their repr."""
    i = anomalies.flagged
    cols = [i.tolist(), s.t[i].tolist(), s.v[i].tolist(), anomalies.scores.tolist()]
    header = ["index", "timestamp", "value", "score"]
    if isinstance(s, MergedSeries):
        cols.append([ORIGIN_NAMES[o] for o in s.origin[i].tolist()])
        header.append("origin")
    return csv_text([header, *zip(*cols)])
