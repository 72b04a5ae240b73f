"""Unsupervised anomaly detectors: autoregression, level shift, rolling average.

Each detector scores every eligible index and flags the outliers of its
own score distribution with a robust rule: an index is anomalous when
its score deviates from the median score by more than ``k`` times the
scores' interquartile range.  The IQR is floored at a small fraction of
the series' own spread, so constant and straight-line inputs never flag
on numerical noise, while a spike among otherwise-identical residuals
(which leaves the IQR at exactly zero) is still caught.  A mean/std rule
is available behind a flag for comparison.

Detectors see index order only; timestamps never enter the computation,
so a merged series is detected exactly like a plain one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import InvalidArgument, TooShort
from .merge import ORIGIN_NAMES, MergedSeries
from .model import TimeSeries

# Score variation below these fractions of the series' own spread and
# magnitude is treated as numerical noise rather than signal.  The
# magnitude term matters when values sit on a large offset: float
# granularity there is ulp(|y|), independent of the series' spread.
RELATIVE_NOISE_FLOOR = 1e-8
MAGNITUDE_NOISE_FLOOR = 1e-10

_RIDGE = 1e-8


class DetectorKind(Enum):
    AR = "autoregression"
    LEVEL_SHIFT = "level_shift"
    ROLLING_AVERAGE = "rolling_average"


@dataclass(frozen=True)
class DetectorParams:
    """Knobs for one detector run.

    ``order_p`` applies to AR, ``window_w`` to LS (per side) and RA,
    ``threshold_k`` to all.  ``use_std`` switches the robust median/IQR
    rule to a classical mean/std rule.
    """

    kind: DetectorKind
    order_p: int = 10
    window_w: int = 10
    threshold_k: float = 3.0
    use_std: bool = False

    def __post_init__(self):
        kind = self.kind.value
        if self.order_p < 1:
            raise InvalidArgument(f"{kind} order_p must be >= 1, got {self.order_p}")
        if self.window_w < 1:
            raise InvalidArgument(f"{kind} window_w must be >= 1, got {self.window_w}")
        if self.threshold_k <= 0:
            raise InvalidArgument(f"{kind} threshold_k must be > 0, got {self.threshold_k}")


def default_params(kind: DetectorKind) -> DetectorParams:
    # LS gets a larger multiplier: median windows absorb spikes, so its
    # score distribution is tighter and noisier shifts would over-flag.
    if kind is DetectorKind.LEVEL_SHIFT:
        return DetectorParams(kind, window_w=5, threshold_k=6.0)
    return DetectorParams(kind)


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


def _flag_outliers(
    scores: np.ndarray, values: np.ndarray, k: float, use_std: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (into `scores`) whose deviation exceeds the threshold."""
    if len(scores) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if use_std:
        dev = np.abs(scores - scores.mean())
        spread = scores.std()
    else:
        dev = np.abs(scores - np.median(scores))
        spread = np.percentile(scores, 75) - np.percentile(scores, 25)
    if len(values):
        centered = values - np.median(values)
        floor = RELATIVE_NOISE_FLOOR * np.max(np.abs(centered))
        floor += MAGNITUDE_NOISE_FLOOR * np.max(np.abs(values))
    else:
        floor = 0.0
    threshold = k * max(spread, floor)
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
    design = np.empty((rows, p + 1))
    design[:, 0] = 1.0
    for lag in range(1, p + 1):
        design[:, lag] = y[p - lag : n - lag]
    target = y[p:]
    # Ridge via the augmented system: argmin |Xc - y|^2 + 1e-8 |c|^2.
    aug = np.vstack([design, np.sqrt(_RIDGE) * np.eye(p + 1)])
    rhs = np.concatenate([target, np.zeros(p + 1)])
    coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return target - design @ coef


def detect_autoregression(s: SeriesLike, p: int = 10, k: float = 3.0, use_std: bool = False) -> AnomalySet:
    """Flag indices whose AR(p) one-step prediction error is an outlier."""
    values, name = _values_and_name(s)
    residuals = fit_ar_predict(values, p)
    positions, scores = _flag_outliers(residuals, values, k, use_std)
    params = DetectorParams(DetectorKind.AR, order_p=p, threshold_k=k, use_std=use_std)
    return AnomalySet(name, params, positions + p, scores)


def level_shift_scores(values: np.ndarray, w: int) -> np.ndarray:
    """|median of the w before t - median of the w from t| for t = w .. len-w."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2 * w:
        raise TooShort(f"level shift needs at least {2 * w} samples, got {n}")
    medians = np.median(np.lib.stride_tricks.sliding_window_view(values, w), axis=1)
    # medians[i] covers values[i : i+w]; score at t pairs windows ending
    # at t-1 and starting at t.
    return np.abs(medians[: n - 2 * w + 1] - medians[w:])


def detect_level_shift(s: SeriesLike, w: int = 5, k: float = 6.0, use_std: bool = False) -> AnomalySet:
    """Flag sustained changes in level via two adjacent sliding medians."""
    values, name = _values_and_name(s)
    scores_all = level_shift_scores(values, w)
    positions, scores = _flag_outliers(scores_all, values, k, use_std)
    params = DetectorParams(DetectorKind.LEVEL_SHIFT, window_w=w, threshold_k=k, use_std=use_std)
    return AnomalySet(name, params, positions + w, scores)


def rolling_average_residuals(values: np.ndarray, w: int) -> np.ndarray:
    """value minus the mean of its w predecessors, for t = w .. len-1."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n <= w:
        raise TooShort(f"rolling average needs more than {w} samples, got {n}")
    means = np.mean(np.lib.stride_tricks.sliding_window_view(values, w), axis=1)
    return values[w:] - means[: n - w]


def detect_rolling_average(s: SeriesLike, w: int = 10, k: float = 3.0, use_std: bool = False) -> AnomalySet:
    """Flag indices deviating from the mean of their preceding window."""
    values, name = _values_and_name(s)
    residuals = rolling_average_residuals(values, w)
    positions, scores = _flag_outliers(residuals, values, k, use_std)
    params = DetectorParams(DetectorKind.ROLLING_AVERAGE, window_w=w, threshold_k=k, use_std=use_std)
    return AnomalySet(name, params, positions + w, scores)


def run_detector(params: DetectorParams, s: SeriesLike) -> AnomalySet:
    """Dispatch to the detector named in params; params are recorded as given.

    TooShort names the series as its ``entry``.
    """
    try:
        if params.kind is DetectorKind.AR:
            result = detect_autoregression(s, params.order_p, params.threshold_k, params.use_std)
        elif params.kind is DetectorKind.LEVEL_SHIFT:
            result = detect_level_shift(s, params.window_w, params.threshold_k, params.use_std)
        else:
            result = detect_rolling_average(s, params.window_w, params.threshold_k, params.use_std)
    except TooShort as err:
        err.entry = _values_and_name(s)[1] or None
        raise
    return AnomalySet(result.series_name, params, result.flagged, result.scores)


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
