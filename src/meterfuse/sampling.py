"""Reduced representative samples of series, taken before distance ranking.

Three strategies: every k-th point, the first n points, or a date window
combined with a step.  Step sampling always starts at index 0.  A step of
1 is a passthrough, so the fidelity/run-time trade-off stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidArgument
from .model import SystemTag, TimeSeries, slice_by_range


class SamplingKind(Enum):
    STEP_SIZE = "step"
    FIRST_N = "first-n"
    DATE_RANGE = "date-range"


@dataclass(frozen=True)
class SamplingRecipe:
    """How to thin each side of the corpus before pairwise matching.

    Only the fields relevant to ``kind`` are consulted: steps for
    STEP_SIZE and DATE_RANGE, ``n_points`` for FIRST_N, the range bounds
    for DATE_RANGE.
    """

    kind: SamplingKind
    hist_step: int = 1
    ion_step: int = 1
    n_points: int = 100
    range_start: int = 0
    range_end: int = 0

    def __post_init__(self):
        for name in ("hist_step", "ion_step", "n_points"):
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kind is SamplingKind.DATE_RANGE and self.range_start > self.range_end:
            raise InvalidArgument(
                f"range_start must be <= range_end, got {self.range_start} > {self.range_end}"
            )

    def step_for(self, system: SystemTag) -> int:
        return self.hist_step if system is SystemTag.HIST else self.ion_step


def sample_step(s: TimeSeries, k: int) -> TimeSeries:
    """Samples at indices 0, k, 2k, ... of s; length ceil(len(s)/k)."""
    if k < 1:
        raise InvalidArgument(f"step must be >= 1, got {k}")
    return TimeSeries(s.id, s.t[::k], s.v[::k])


def sample_first_n(s: TimeSeries, n: int) -> TimeSeries:
    """The first min(n, len(s)) samples of s."""
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    return TimeSeries(s.id, s.t[:n], s.v[:n])


def sample_date_range(s: TimeSeries, start: int, end: int, k: int) -> TimeSeries:
    """Equal to sample_step(slice_by_range(s, start, end), k)."""
    return sample_step(slice_by_range(s, start, end), k)


def apply_recipe(s: TimeSeries, recipe: SamplingRecipe) -> TimeSeries:
    if recipe.kind is SamplingKind.STEP_SIZE:
        return sample_step(s, recipe.step_for(s.id.system))
    if recipe.kind is SamplingKind.FIRST_N:
        return sample_first_n(s, recipe.n_points)
    return sample_date_range(
        s, recipe.range_start, recipe.range_end, recipe.step_for(s.id.system)
    )
