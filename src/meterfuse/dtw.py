"""Warped-distance computation between value sequences and pairwise ranking.

Both engines run one banded dynamic program: row ``i`` of the lattice is
evaluated over the columns ``lo[i]..hi[i]`` only, with ``lo`` and ``hi``
non-decreasing, and the path is recovered by backtracking over the stored
rows (diagonal preferred on ties, then the row step, then the column step,
so paths are unique and reproducible).  They differ only in the band:

* `dtw_exact` passes the full band (``lo = 0``, ``hi = len_b - 1``) and is
  the oracle of record: the globally minimal warped distance.

* `fastdtw` is the multiresolution approximation: halve both series by
  pairwise averaging, solve the coarse problem recursively, project the
  coarse path back to fine resolution, dilate it by ``radius`` cells in
  both axes, and run the banded program inside that band only.  Its
  distance is an upper bound on the exact one and converges to it as the
  radius grows; work is linear in series length at fixed radius.

Rows run over the shorter input, so per-row overhead stays small; the
transposed lattice holds the same values, and swapping the tie order of
the row and column steps with it keeps the same path.

`match_all` ranks pairs by distance alone, so it builds no path at the
finest level.  It groups the pairs whose lattice is solved exactly by
shape, and sweeps each group that holds enough cells per anti-diagonal
with one batched wavefront: three diagonals live, vectorised over the
pairs.  Every other pair runs the banded program without the final
backtrack.  Each cell is still the minimum of the same three neighbours
plus the same cost, so the distances and cell counts equal `fastdtw`'s
bit for bit.

Costs are pointwise |a-b| for L1 and (a-b)^2 for L2, computed one row (or
diagonal) at a time with numpy; an L2 distance is the square root of the
accumulated total, matching the usual Euclidean convention.  Inputs of
unequal length are accepted as is, without resampling; NaN or infinite
values are rejected, since no warped distance over them is meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, product
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyInput, EmptyPartition, InvalidArgument, NonFiniteValue, TooShort
from .model import MeasurementId, TimeSeries
from .sampling import SamplingRecipe, apply_recipe

_BASE_CASE_MIN = 16
# Mean cells per anti-diagonal from which one batched wavefront beats a
# `_banded` call per pair: a diagonal costs a few numpy calls, about as
# long as 100-odd cells of the row loop (2 vCPUs, numpy 2.4).
_WAVEFRONT_MIN_WIDTH = 128
_INF = float("inf")


class Metric(Enum):
    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class WarpPath:
    """Aligned index pairs realizing a warped distance.

    Starts at (0, 0), ends at (len_a-1, len_b-1); each step increments
    i, j, or both by exactly 1.
    """

    pairs: tuple[tuple[int, int], ...]

    def is_valid(self, len_a: int, len_b: int) -> bool:
        if not self.pairs:
            return False
        if self.pairs[0] != (0, 0) or self.pairs[-1] != (len_a - 1, len_b - 1):
            return False
        for (i0, j0), (i1, j1) in zip(self.pairs, self.pairs[1:]):
            di, dj = i1 - i0, j1 - j0
            if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
                return False
        return True


@dataclass(frozen=True)
class DtwResult:
    distance: float
    path: WarpPath
    metric: Metric
    cells_evaluated: int


@dataclass(frozen=True)
class MatchResult:
    ion_id: MeasurementId
    hist_id: MeasurementId
    distance: float
    rank: int
    cells_evaluated: int


@dataclass(frozen=True)
class MatchRun:
    """All cross-system pair distances, ranked, plus loop wall time."""

    results: tuple[MatchResult, ...]
    elapsed_seconds: float

    @property
    def cells_evaluated(self) -> int:
        return sum(r.cells_evaluated for r in self.results)


def _values(a: Sequence[float]) -> np.ndarray:
    """``a`` as float64; NonFiniteValue names the first NaN or infinite value."""
    v = np.asarray(a, dtype=np.float64)
    finite = np.isfinite(v)
    if not finite.all():
        raise NonFiniteValue(int(np.argmin(finite)))
    return v


def _banded(
    a: np.ndarray, b: np.ndarray, lo: list[int], hi: list[int], metric: Metric
) -> Iterator[list[float]]:
    """The accumulated-cost rows over row ``i``'s columns ``lo[i]..hi[i]``, one at a time.

    The band starts at (0, 0) and ends at (len_a-1, len_b-1); ``lo`` and
    ``hi`` are non-decreasing and leave no gap between rows
    (``lo[i] <= hi[i-1] + 1``).  Every cell in it is then reachable, so a
    row splits into three runs that need no range test: cells with a
    neighbour above, the one cell just past the row above, and a tail
    reached only from the left.  Cells outside the band read as infinite.
    Only the row above is held, so a caller that needs only the total
    keeps two rows live.
    """
    l1 = metric is Metric.L1
    prev: list[float] = []
    for i, (lo_i, hi_i) in enumerate(zip(lo, hi)):
        d = a[i] - b[lo_i : hi_i + 1]
        cost = (np.abs(d) if l1 else d * d).tolist()
        if not i:
            prev = list(accumulate(cost))
            yield prev
            continue
        prev_lo, prev_hi = lo[i - 1], hi[i - 1]
        row: list[float] = []
        n = prev_hi - lo_i + 1  # cells with a neighbour above
        if n:
            s = lo_i - prev_lo
            left = (prev[s - 1] if s and prev[s - 1] < prev[s] else prev[s]) + cost[0]
            row.append(left)
            for best, up, c in zip(prev[s:], prev[s + 1 :], cost[1:n]):
                if up < best:
                    best = up
                if left < best:
                    best = left
                left = best + c
                row.append(left)
        if hi_i > prev_hi:
            best = prev[-1]
            if n and left < best:
                best = left
            row.extend(accumulate(cost[n + 1 :], initial=best + cost[n]))
        prev = row
        yield row


def _backtrack(rows: list[list[float]], lo: list[int], len_b: int, flip: bool) -> WarpPath:
    """The path through `_banded`'s rows, ties resolved diagonal first, then the row step.

    ``flip`` marks a transposed lattice and swaps the tie order of the row
    and column steps to match.
    """
    i, j = len(rows) - 1, len_b - 1
    rev = [(i, j)]
    while i and j:
        row, prev, k = rows[i], rows[i - 1], j - lo[i - 1]
        up = prev[k] if k < len(prev) else _INF
        diag = prev[k - 1] if 0 < k <= len(prev) else _INF
        left = row[j - lo[i] - 1] if j > lo[i] else _INF
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up < left or (up == left and not flip):
            i -= 1
        else:
            j -= 1
        rev.append((i, j))
    rev += [(0, jj) for jj in range(j - 1, -1, -1)] + [(ii, 0) for ii in range(i - 1, -1, -1)]
    rev.reverse()
    return WarpPath(tuple(rev))


def _wavefront(a: np.ndarray, b: np.ndarray, metric: Metric) -> np.ndarray:
    """Exact accumulated totals for every row of ``a`` against every row of ``b``.

    ``a`` is (n, la) and ``b`` is (m, lb) with la <= lb; the result is
    (n, m).  The lattices are swept one anti-diagonal at a time, all
    n * m of them at once: diagonal ``d`` holds the cells (i, d - i) at
    position i + 1 of an (n, m, la + 1) array whose position 0 is an
    infinite sentinel, and only the last three diagonals are live.  Each
    cell is the minimum of the same three neighbours plus the same cost
    as in `_banded`, and ``min`` is exact, so the totals are the same
    floats.  Positions past a diagonal's last row are never written and
    stay infinite; the diagonal's own cells never read a neighbour past
    column lb - 1, so stale values below its first row go unread.
    """
    n, la = a.shape
    m, lb = b.shape
    l1 = metric is Metric.L1
    b_rev = b[:, ::-1]  # column lb-1-j, so each diagonal's columns are one ascending slice
    d2, d1, d0 = (np.full((n, m, la + 1), _INF) for _ in range(3))
    cost = np.empty((n, m, la))
    for d in range(la + lb - 1):
        i0, i1 = max(0, d - lb + 1), min(d, la - 1) + 1
        c = cost[:, :, : i1 - i0]
        # (n, 1, k) against (1, m, k): b is not tiled per pair
        np.subtract(a[:, None, i0:i1], b_rev[None, :, lb - 1 - d + i0 : lb - d + i1 - 1], out=c)
        if l1:
            np.abs(c, out=c)
        else:
            np.multiply(c, c, out=c)
        cell = d0[:, :, i0 + 1 : i1 + 1]
        if d:
            np.minimum(d2[:, :, i0:i1], d1[:, :, i0:i1], out=cell)  # diagonal, up
            np.minimum(cell, d1[:, :, i0 + 1 : i1 + 1], out=cell)  # left
            np.add(cell, c, out=cell)
        else:
            cell[...] = c  # the origin has no predecessor
        d2, d1, d0 = d1, d0, d2
    return d1[:, :, la]


def _distance(total: float | np.ndarray, metric: Metric) -> float | np.ndarray:
    """The warped distance of an accumulated total: the square root for L2."""
    return total if metric is Metric.L1 else np.sqrt(total)


def dtw_exact(a: Sequence[float], b: Sequence[float], metric: Metric = Metric.L2) -> DtwResult:
    """Globally minimal warped distance: the banded program over the full lattice."""
    av, bv = _values(a), _values(b)
    if len(av) == 0 or len(bv) == 0:
        raise EmptyInput("both sequences must be non-empty")
    return _warp(av, bv, None, metric)


def _halve(v: np.ndarray) -> np.ndarray:
    if len(v) < 2:
        raise TooShort("need at least 2 points to halve")
    out = (v[0 : len(v) - 1 : 2] + v[1::2]) / 2.0
    return np.append(out, v[-1]) if len(v) % 2 else out


def _projected_band(
    coarse_path: WarpPath, len_a: int, len_b: int, radius: int
) -> tuple[list[int], list[int]]:
    """Per-row column bounds of the fine cells a coarse path admits.

    Each coarse cell projects to its (at most) 2x2 fine block, dilated by
    ``radius`` in both axes and clipped to the lattice.  The coarse path
    is monotone, so a coarse row's columns run from its first cell to its
    last, and fine row ``i`` takes coarse rows (i-radius)//2 .. (i+radius)//2.
    """
    ci, cj = np.asarray(coarse_path.pairs, dtype=np.int64).T
    first = np.flatnonzero(np.diff(ci, prepend=-1))
    top = len(first) - 1
    rows = np.arange(len_a)
    c_lo = cj[first][np.clip((rows - radius) // 2, 0, top)]
    c_hi = cj[np.append(first[1:], len(cj)) - 1][np.clip((rows + radius) // 2, 0, top)]
    lo = np.maximum(2 * c_lo - radius, 0)
    hi = np.minimum(2 * c_hi + 1 + radius, len_b - 1)
    return lo.tolist(), hi.tolist()


def fastdtw(
    a: Sequence[float],
    b: Sequence[float],
    radius: int = 1,
    metric: Metric = Metric.L2,
) -> DtwResult:
    """Multiresolution approximate warped distance.

    Sequences at or below the base-case length, max(radius + 2, 16), are
    solved exactly, so tiny inputs delegate to `dtw_exact` bit for bit.
    The returned distance is always >= the exact distance and equals it
    once the radius reaches the longer input's length.
    """
    av, bv = _values(a), _values(b)
    if len(av) == 0 or len(bv) == 0:
        raise EmptyInput("both sequences must be non-empty")
    return _warp(av, bv, radius, metric)


def _check_radius(radius: int | None) -> None:
    if radius is not None and radius < 0:
        raise InvalidArgument(f"radius must be >= 0, got {radius}")


def _is_exact(la: int, lb: int, radius: int | None) -> bool:
    """Whether FastDTW solves an ``la`` x ``lb`` lattice exactly, with no coarser level."""
    return radius is None or min(la, lb) <= max(radius + 2, _BASE_CASE_MIN)


def _warp(av: np.ndarray, bv: np.ndarray, radius: int | None, metric: Metric) -> DtwResult:
    """FastDTW, or the exact distance when ``radius`` is None, rows over the shorter input."""
    _check_radius(radius)
    flip = len(av) > len(bv)
    if not flip:
        return _fastdtw(av, bv, radius, metric, flip)
    r = _fastdtw(bv, av, radius, metric, flip)
    return replace(r, path=WarpPath(tuple((i, j) for j, i in r.path.pairs)))


def _band(
    av: np.ndarray, bv: np.ndarray, radius: int | None, metric: Metric, flip: bool
) -> tuple[list[int], list[int], int]:
    """Row bounds of the finest level's band, and the cells of it and every coarser level."""
    la, lb = len(av), len(bv)
    if _is_exact(la, lb, radius):
        lo, hi, cells = [0] * la, [lb - 1] * la, 0
    else:
        coarse = _fastdtw(_halve(av), _halve(bv), radius, metric, flip)
        lo, hi = _projected_band(coarse.path, la, lb, radius)
        cells = coarse.cells_evaluated
    return lo, hi, cells + sum(hi) - sum(lo) + la


def _fastdtw(
    av: np.ndarray, bv: np.ndarray, radius: int | None, metric: Metric, flip: bool
) -> DtwResult:
    lo, hi, cells = _band(av, bv, radius, metric, flip)
    rows = list(_banded(av, bv, lo, hi, metric))
    path = _backtrack(rows, lo, len(bv), flip)
    return DtwResult(float(_distance(rows[-1][-1], metric)), path, metric, cells)


def _warp_distance(
    av: np.ndarray, bv: np.ndarray, radius: int, metric: Metric
) -> tuple[float, int]:
    """`_warp`'s distance and cells, without the finest level's backtrack."""
    flip = len(av) > len(bv)
    if flip:
        av, bv = bv, av
    lo, hi, cells = _band(av, bv, radius, metric, flip)
    for row in _banded(av, bv, lo, hi, metric):
        pass
    return float(_distance(row[-1], metric)), cells


def z_normalize(values: np.ndarray) -> np.ndarray:
    """Center to zero mean, scale to unit variance (zeros when constant)."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    centered = values - values.mean()
    if std == 0:
        return centered
    return centered / std


def match_all(
    ion: Sequence[TimeSeries],
    hist: Sequence[TimeSeries],
    recipe: SamplingRecipe,
    radius: int = 1,
    metric: Metric = Metric.L2,
    normalize: bool = False,
) -> MatchRun:
    """Rank every cross-system pair by warped distance, ascending.

    Series are sampled per the recipe, and every pair is checked, before
    the recorded wall time starts, so it covers the distance loop only.
    The ranking reads no path, so none is built at the finest level.
    Pairs whose lattice FastDTW solves exactly are grouped by shape (ION
    length, HIST length), and each group with enough cells per
    anti-diagonal (`_WAVEFRONT_MIN_WIDTH`) is swept at once by
    `_wavefront`; every other pair runs `_warp_distance`.  Distances and
    ``cells_evaluated`` equal `fastdtw`'s bit for bit.  Ties in distance
    break lexicographically on (ion name, hist name), making the ranking
    deterministic regardless of evaluation order.
    """
    if not ion or not hist:
        raise EmptyPartition("both corpus partitions must contain at least one series")

    def prep(s: TimeSeries) -> np.ndarray:
        sampled = apply_recipe(s, recipe)
        try:
            return _values(z_normalize(sampled.v) if normalize else sampled.v)
        except NonFiniteValue as err:
            err.entry = s.id.name
            raise

    ion_sorted = sorted(ion, key=lambda s: s.id.name)
    hist_sorted = sorted(hist, key=lambda s: s.id.name)
    ion_vals = [prep(s) for s in ion_sorted]
    hist_vals = [prep(s) for s in hist_sorted]
    for ion_s, a in zip(ion_sorted, ion_vals):
        for hist_s, b in zip(hist_sorted, hist_vals):
            # in the order, and with the checks, of one solver call per pair
            if len(a) == 0 or len(b) == 0:
                raise EmptyInput(f"sampled series is empty for pair ({ion_s.id}, {hist_s.id})")
            _check_radius(radius)

    start = time.perf_counter()
    dist = np.empty((len(ion_vals), len(hist_vals)))
    cells = np.empty(dist.shape, dtype=np.int64)
    for la, rows in _by_length(ion_vals).items():
        for lb, cols in _by_length(hist_vals).items():
            if _is_exact(la, lb, radius) and (
                len(rows) * len(cols) * la * lb >= _WAVEFRONT_MIN_WIDTH * (la + lb - 1)
            ):
                a = np.stack([ion_vals[i] for i in rows])
                b = np.stack([hist_vals[j] for j in cols])
                totals = _wavefront(a, b, metric) if la <= lb else _wavefront(b, a, metric).T
                dist[np.ix_(rows, cols)] = _distance(totals, metric)
                cells[np.ix_(rows, cols)] = la * lb
                continue
            for i, j in product(rows, cols):
                dist[i, j], cells[i, j] = _warp_distance(ion_vals[i], hist_vals[j], radius, metric)
    elapsed = time.perf_counter() - start

    scored = [
        (d, ion_s.id, hist_s.id, c)
        for ion_s, d_row, c_row in zip(ion_sorted, dist.tolist(), cells.tolist())
        for hist_s, d, c in zip(hist_sorted, d_row, c_row)
    ]
    scored.sort(key=lambda r: (r[0], r[1].name, r[2].name))
    results = tuple(
        MatchResult(ion_id, hist_id, d, rank, c)
        for rank, (d, ion_id, hist_id, c) in enumerate(scored, start=1)
    )
    return MatchRun(results, elapsed)


def _by_length(values: list[np.ndarray]) -> dict[int, list[int]]:
    """Indices of ``values`` grouped by length, in order."""
    groups: dict[int, list[int]] = {}
    for k, v in enumerate(values):
        groups.setdefault(len(v), []).append(k)
    return groups
