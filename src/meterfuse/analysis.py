"""Descriptive statistics and merged-vs-individual anomaly comparison.

Summation is compensated (math.fsum) so means and standard deviations on
million-point series agree with a naive oracle to full precision.  The
standard deviation is the population one.

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
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .detectors import DETECTORS, AnomalySet, DetectorKind
from .dtw import MatchResult
from .errors import UndefinedBaseline
from .merge import MergedSeries
from .model import TimeSeries


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
    mean = math.fsum(values) / n
    centered = values - mean
    var = math.fsum(centered * centered) / n
    return SummaryStats(n, mean, math.sqrt(var), float(values.min()), float(values.max()))


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
    ion: TimeSeries,
    hist: TimeSeries,
    merged: MergedSeries,
    anomaly_sets: dict[DetectorKind, tuple[AnomalySet, AnomalySet, AnomalySet]],
) -> dict:
    """The report.json form of one matched pair from its (ion, hist, merged) anomaly sets.

    One row per detector given, in DETECTORS order, beside the match's rank
    and distance and each view's summary statistics.  A detector whose
    merged count drops below the sum of the individual counts is flagged as
    a merge loss; it can happen because the robust thresholds are
    recomputed on the denser merged score distribution.
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
        "ion": ion.id.name,
        "hist": hist.id.name,
        "detectors": detectors,
        "stats": {
            "ion": asdict(describe(ion)),
            "hist": asdict(describe(hist)),
            "merged": asdict(describe(merged)),
        },
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
