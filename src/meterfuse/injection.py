"""Synthetic attack injection with ground-truth labels, plus scoring.

Two attack shapes: a zero-run (values forced to 0 over a short time
window, the signature of dropped transmissions) and seeded Gaussian
perturbation of individual samples (data tampering).  Injection never
changes series length or timestamps, only values, and every injection
returns a label naming exactly the affected indices so detector output
can be scored with precision/recall/F1.

Randomness comes from numpy's default generator (PCG64) seeded
explicitly; identical (series, params, seed) reproduce identical output
and labels bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .detectors import AnomalySet
from .errors import EmptyWindow, InvalidArgument, SeriesMismatch, TooFewSamples
from .ingest import json_text
from .model import TimeSeries, check_seed, finite_values

# The zero-run duration, when not chosen by the caller, is drawn from
# this interval (milliseconds): long enough to span a few samples at a
# seconds-scale cadence, short enough to stay a transient.
DEFAULT_ZERO_RUN_RANGE_MS = (6000, 8000)


class InjectionKind(Enum):
    DOS_ZERO_RUN = "DOS_ZERO_RUN"
    GAUSSIAN_NOISE = "GAUSSIAN_NOISE"


@dataclass(frozen=True)
class InjectionLabel:
    """Ground truth for one injection: which indices were touched."""

    kind: InjectionKind
    affected: tuple[int, ...]
    window: tuple[int, int]
    series_name: str
    seed: int | None = None


@dataclass(frozen=True)
class EvalScore:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalScore":
        precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return cls(tp, fp, fn, precision, recall, f1)


def draw_zero_run_duration_ms(rng: np.random.Generator) -> int:
    lo, hi = DEFAULT_ZERO_RUN_RANGE_MS
    return int(rng.integers(lo, hi + 1))


def inject_zero_run(s: TimeSeries, at: int, duration_ms: int) -> tuple[TimeSeries, InjectionLabel]:
    """Zero every sample with at <= t <= at + duration_ms.

    The label covers exactly those indices even if some values were
    already zero.  Raises EmptyWindow when no sample falls inside.
    """
    if duration_ms <= 0:
        raise InvalidArgument(f"duration_ms must be > 0, got {duration_ms}")
    if len(s) == 0:
        raise EmptyWindow("series is empty")
    end = at + duration_ms
    mask = (s.t >= at) & (s.t <= end)
    affected = np.nonzero(mask)[0]
    if len(affected) == 0:
        raise EmptyWindow(f"no samples in [{at}, {end}]")
    v = s.v.copy()
    v[mask] = 0.0
    label = InjectionLabel(
        InjectionKind.DOS_ZERO_RUN,
        tuple(int(i) for i in affected),
        (at, end),
        s.id.name,
    )
    return s.with_values(v), label


def inject_gaussian_noise(
    s: TimeSeries, n: int, sigma: float, seed: int
) -> tuple[TimeSeries, InjectionLabel]:
    """Perturb n uniformly-chosen samples by Normal(0, sigma^2) draws.

    Indices are chosen without replacement from a PCG64 stream seeded
    with ``seed``; the perturbations come from the same stream.  A finite
    sigma can still draw a value past float64's range: NonFiniteValue then
    names the first non-finite sample of the result.
    """
    if n < 1:
        raise InvalidArgument(f"noise count n must be >= 1, got {n}")
    if not np.isfinite(sigma):
        raise InvalidArgument(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise InvalidArgument(f"sigma must be >= 0, got {sigma}")
    if len(s) == 0:
        raise EmptyWindow("series is empty")
    if n > len(s):
        raise TooFewSamples(f"requested {n} injections into {len(s)} samples")
    rng = np.random.default_rng(check_seed(seed))
    chosen = rng.choice(len(s), size=n, replace=False)
    noise = rng.normal(0.0, sigma, size=n)
    v = s.v.copy()
    v[chosen] += noise
    finite_values(v)
    affected = np.sort(chosen)
    label = InjectionLabel(
        InjectionKind.GAUSSIAN_NOISE,
        tuple(int(i) for i in affected),
        (int(s.t[affected[0]]), int(s.t[affected[-1]])),
        s.id.name,
        seed=seed,
    )
    return s.with_values(v), label


def evaluate(detected: AnomalySet, label: InjectionLabel, slack: int = 0) -> EvalScore:
    """Score detection against a label with an index slack window.

    A labeled index is a true positive when some detected index lies
    within +-slack of it; detected indices matching no labeled index are
    false positives; labeled indices never matched are false negatives.
    """
    if slack < 0:
        raise InvalidArgument(f"slack must be >= 0, got {slack}")
    if detected.series_name != label.series_name:
        raise SeriesMismatch(
            f"anomalies are for {detected.series_name!r}, label for {label.series_name!r}"
        )
    detected_idx = np.sort(np.asarray(detected.flagged, dtype=np.int64))
    labeled_idx = np.sort(np.asarray(label.affected, dtype=np.int64))
    if len(detected_idx) and len(labeled_idx):
        tp = int(np.count_nonzero(_nearest_gap(labeled_idx, detected_idx) <= slack))
        fp = int(np.count_nonzero(_nearest_gap(detected_idx, labeled_idx) > slack))
    else:
        tp, fp = 0, len(detected_idx)
    fn = len(labeled_idx) - tp
    return EvalScore.from_counts(tp, fp, fn)


def _nearest_gap(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The distance from each x to the nearest value of ``ref``, which is sorted and not empty.

    That value is the last of ``ref`` at or below x or the first above it.
    """
    i = np.searchsorted(ref, x)
    below, above = ref[np.maximum(i - 1, 0)], ref[np.minimum(i, len(ref) - 1)]
    return np.minimum(np.abs(x - below), np.abs(above - x))


def label_to_json(label: InjectionLabel) -> str:
    doc = {
        "kind": label.kind.value,
        "indices": list(label.affected),
        "window": [label.window[0], label.window[1]],
        "seed": label.seed,
        "series": label.series_name,
    }
    return json_text(doc)

