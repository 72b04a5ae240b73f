"""Descriptive statistics and merged-vs-individual anomaly comparison.

Summation is compensated (math.fsum) so means and standard deviations on
million-point series agree with a naive oracle to full precision.  The
standard deviation is the population one.  Values whose centred squares
overflow float64's range, or underflow its normal range, are summed scaled
by a power of two.

The comparison arithmetic is deliberately explicit about undefined
cases: percent change has no value when the individual baseline is zero,
and a coverage ratio against a zero single-view count is reported as
"all anomalies missed by the single view" rather than a number.  Both
ratio denominators (each single system) are reported because either
reading is defensible.  `build_report` gives each pair in its report.json
form, a plain dict, and `report_csv` renders those dicts as report.csv.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Sequence, Union

import numpy as np

from .detectors import DETECTORS, AnomalySet, DetectorKind
from .dtw import MatchResult
from .errors import UndefinedBaseline
from .merge import MergedSeries
from .model import TimeSeries


# `describe` scales values by a power of two to below 2**_SCALED_EXPONENT when
# their centred squares overflow or underflow: the squares of values that size,
# summed over any array that fits in memory, stay finite, and those of centred
# values down to 2**(_SCALED_EXPONENT - 1074) stay in float64's normal range.
_SCALED_EXPONENT = 256


@dataclass(frozen=True)
class SummaryStats:
    """count/mean/std/min/max of a series' values; empty series have count 0."""

    count: int
    mean: float | None
    std: float | None
    min: float | None
    max: float | None


def describe(s: Union[TimeSeries, MergedSeries, np.ndarray]) -> SummaryStats:
    values = s.v if isinstance(s, (TimeSeries, MergedSeries)) else np.asarray(s, dtype=np.float64)
    n = len(values)
    if n == 0:
        return SummaryStats(0, None, None, None, None)
    lo, hi = float(values.min()), float(values.max())
    with np.errstate(over="ignore"):
        try:
            mean, var = _mean_var(values)
        except OverflowError:  # fsum's partial sums passed float64's range
            mean, var = math.inf, math.inf
    overflow = math.isinf(var) and math.isfinite(lo) and math.isfinite(hi)
    if overflow or (var < sys.float_info.min and lo < hi):
        # Finite values past about 1e154 from their mean square past float64's
        # range.  Values that differ but whose variance is below its normal
        # range lost bits when squared, or rounded to 0.  Scale them by a
        # power of two, which rounds nothing unless it takes a value below the
        # normal range, and the results back.
        shift = math.frexp(max(-lo, hi))[1] - _SCALED_EXPONENT
        mean, var = _mean_var(np.ldexp(values, -shift))
        mean, std = math.ldexp(mean, shift), math.ldexp(math.sqrt(var), shift)
    else:
        std = math.sqrt(var)
    return SummaryStats(n, mean, std, lo, hi)


def _mean_var(values: np.ndarray) -> tuple[float, float]:
    """The mean and population variance of values, each sum compensated by fsum."""
    # fsum over a memoryview: the same doubles as the array, without a numpy scalar per element
    mean = math.fsum(memoryview(values)) / len(values)
    centered = values - mean
    return mean, math.fsum(memoryview(centered * centered)) / len(values)


def percent_change(individual_total: int, merged: int) -> float:
    """100 * (merged - individual) / individual; undefined at baseline 0."""
    if individual_total <= 0:
        raise UndefinedBaseline("individual anomaly total is zero")
    return 100.0 * (merged - individual_total) / individual_total


def coverage_ratio(single: int, combined: int) -> float | None:
    """combined / single, with None meaning the single view saw nothing.

    Both zero counts agree vacuously and yield 1.
    """
    if single > 0:
        return combined / single
    if combined > 0:
        return None
    return 1.0


def build_report(
    match: MatchResult,
    anomaly_sets: dict[DetectorKind, tuple[AnomalySet, AnomalySet, AnomalySet]],
    stats: Sequence[SummaryStats],
) -> dict:
    """The report.json form of one matched pair.

    ``anomaly_sets`` holds each detector's (ion, hist, merged) sets and
    ``stats`` the three views' `describe`, in the same order.  There is one
    row per detector given, in DETECTORS order, beside the match's rank,
    distance and names and each view's summary statistics.  A detector
    whose merged count drops below the sum of the individual counts is
    flagged as a merge loss; it can happen because the robust thresholds
    are recomputed on the denser merged score distribution.
    """
    detectors = {}
    for kind in DETECTORS:
        if kind not in anomaly_sets:
            continue
        ion_n, hist_n, merged_n = (s.count for s in anomaly_sets[kind])
        individual = ion_n + hist_n
        detectors[kind.value] = {
            "ion": ion_n,
            "hist": hist_n,
            "merged": merged_n,
            "percent_change": percent_change(individual, merged_n) if individual > 0 else None,
            "ratio": {
                "vs_ion": coverage_ratio(ion_n, individual),
                "vs_hist": coverage_ratio(hist_n, individual),
                "missed_by_ion": individual if ion_n == 0 else 0,
                "missed_by_hist": individual if hist_n == 0 else 0,
            },
            "merge_loss": merged_n < individual,
        }
    return {
        "rank": match.rank,
        "distance": match.distance,
        "ion": match.ion_id.name,
        "hist": match.hist_id.name,
        "detectors": detectors,
        "stats": {view: asdict(summary) for view, summary in zip(("ion", "hist", "merged"), stats)},
    }


def report_csv(pairs: list[dict]) -> str:
    """report.csv from pairs in report.json form, as `build_report` gives them.

    Each pair gives an ion, a hist and a merged row; there is one count
    column per detector present, in DETECTORS order.
    """
    present = {name for pair in pairs for name in pair["detectors"]}
    names = [kind.value for kind in DETECTORS if kind.value in present]
    lines = [",".join(["pair_rank", "measurement_name", *names])]
    for pair in pairs:
        ion, hist, counts = pair["ion"], pair["hist"], pair["detectors"]
        for label, view in ((ion, "ion"), (hist, "hist"), (f"{ion}+{hist}", "merged")):
            row = [str(pair["rank"]), label, *(str(counts[name][view]) for name in names)]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"
