"""Unsupervised anomaly detectors: autoregression, level shift, rolling average.

Each detector scores every eligible index and flags the outliers of its
own score distribution with a robust rule: an index is anomalous when
its score deviates from the median score by more than ``k`` times the
scores' interquartile range.  The IQR is floored at a small fraction of
the series' own spread, so constant and straight-line inputs never flag
on numerical noise, while a spike among otherwise-identical residuals
(which leaves the IQR at exactly zero) is still caught.

``DETECTORS`` holds each kind's facts; `run_detector` is the one entry point.

Detectors see index order only; timestamps never enter the computation,
so a merged series is detected exactly like a plain one.
"""

from __future__ import annotations

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


def _flag_outliers(
    scores: np.ndarray, values: np.ndarray, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (into `scores`) whose deviation exceeds the threshold."""
    if len(scores) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
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


def run_detector(params: DetectorParams, s: SeriesLike) -> AnomalySet:
    """Flag the outliers of the scores of the detector named in params.

    The size is also the first index the kind scores, so it offsets the
    flagged positions.  TooShort names the series as its ``entry``.
    """
    values, name = _values_and_name(s)
    with naming(name or None, TooShort):
        scores = DETECTORS[params.kind].score(values, params.size)
    positions, deviations = _flag_outliers(scores, values, params.threshold_k)
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
