"""Warped-distance computation between value sequences and pairwise ranking.

Both engines run one banded dynamic program: row ``i`` of the lattice is
evaluated over the columns ``lo[i]..hi[i]`` only, with ``lo`` and ``hi``
non-decreasing, and the path is recovered by walking back over the stored
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

Every row is scanned in numpy (`_scan`).  Round-to-nearest addition is
monotone, so ``fl(min(x, y) + c) == min(fl(x + c), fl(y + c))``, and a cell
``min(diag, up, left) + cost`` equals ``min(D, left + cost)`` with
``D = min(diag, up) + cost`` computed for the whole row at once.  The row is
then runs that keep ``D`` and chains from the left, each summed by
``np.add.accumulate``, which adds in sequence and so rounds as a cell by
cell loop does.  The walk back needs only each row's first and last path
column (`_spans`): the coarse levels hand those straight to
`_projected_band`, and in every row one vectorised search (`_skip_columns`)
finds where the column steps end and whether the walk leaves the row
diagonally or by the row step.  One recursive
function (`_level`) solves a level: it bands it by the coarser level's
spans, runs the program, and returns the total, the cells of it and every
coarser level, and, when asked, its own spans.

`match_all` ranks pairs by distance alone, so it builds no path at the
finest level.  It groups the pairs whose lattice is solved exactly by
shape, and sweeps each group that holds enough cells per anti-diagonal
with one batched wavefront: three diagonals live, vectorised over the
pairs, each laid out (la + 1, n, m) with the pair axes innermost so that
a diagonal and the neighbours it reads are contiguous blocks.  Every
other pair runs the banded program without the final walk back.  Each
cell is still the minimum of the same three neighbours plus the same
cost, so the distances and cell counts equal `fastdtw`'s bit for bit.

Costs are pointwise |a-b| for L1 and (a-b)^2 for L2, computed one row (or
diagonal) at a time with numpy; an L2 distance is the square root of the
accumulated total, matching the usual Euclidean convention.  Inputs of
unequal length are accepted as is, without resampling; NaN or infinite
values are rejected, since no warped distance over them is meaningful,
and finite input whose accumulated cost overflows float64 raises
`CostOverflow`.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CostOverflow, EmptyInput, EmptyPartition, InvalidArgument, NonFiniteValue, naming,
)
from .model import MeasurementId, TimeSeries, finite_values

_BASE_CASE_MIN = 16
# Mean cells per anti-diagonal from which one batched wavefront beats a
# distance-only `_level` call per pair.  A diagonal costs a few numpy calls;
# on random walks 8 pairs of 16 x 2,000 (127 cells per diagonal) took 0.95x
# the wavefront's time per pair, and 16 such pairs 1.4x (2 vCPUs, numpy 2.4).
_WAVEFRONT_MIN_WIDTH = 128
# `_scan` searches for a chain's end over windows that start this many cells
# wide and double.
_SCAN_WINDOW = 128
_INF = float("inf")


class Metric(Enum):
    L1 = "l1"
    L2 = "l2"


# The radius and metric a caller that names none gets, and the defaults of --radius and --metric.
DEFAULT_RADIUS = 1
DEFAULT_METRIC = Metric.L2


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


def _banded(
    a: np.ndarray, b: np.ndarray, lo: list[int], hi: list[int], metric: Metric
) -> Iterator[np.ndarray]:
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
    for i, (lo_i, hi_i) in enumerate(zip(lo, hi)):
        d = a[i] - b[lo_i : hi_i + 1]
        cost = np.abs(d) if l1 else d * d
        if i:
            prev = _scan(prev, cost, lo_i - lo[i - 1], hi[i - 1] - lo_i + 1)
        else:
            prev = np.add.accumulate(cost)
        yield prev


def _scan(prev: np.ndarray, cost: np.ndarray, s: int, n: int) -> np.ndarray:
    """One row of `_banded` after the first, from the row above (``prev``) and the row's costs.

    The row's first ``n`` cells lie under ``prev[s:]``.  A cell's value is
    ``min(diag, up, left) + cost``; rounding to nearest is monotone, so that
    equals ``min(D, left + cost)`` with ``D = min(diag, up) + cost``, bit
    for bit.  ``D`` is one numpy pass (infinite on the tail, which has no
    neighbour above); the row is then runs that keep ``D`` and runs where
    the chain from the left wins, summed by ``np.add.accumulate`` in a
    cell by cell loop's order.  A chain's end is searched over a window
    that doubles while it holds none.
    """
    w = len(cost)
    m = min(n + 1, w)  # cells with a neighbour above or diagonally above
    out = np.full(w, _INF)
    if s:
        out[:m] = prev[s - 1 : s - 1 + m]
    else:
        out[1:m] = prev[: m - 1]
    np.minimum(out[:n], prev[s : s + n], out=out[:n])
    out[:m] += cost[:m]
    # stop[k]: cell k + 1 is taken by the left chain when cell k kept D
    stop = out[1:] > out[:-1] + cost[1:]
    k = 0
    while k < w - 1:
        t = int(stop[k:].argmax())
        if not stop[k + t]:
            break
        k += t  # cell k keeps D; a chain from it takes cell k + 1
        win = _SCAN_WINDOW
        while True:
            e = min(k + win, w - 1)  # the chain's cells k + 1..e, summed on from out[k]
            acc = cost[k : e + 1].copy()
            acc[0] = out[k]
            np.add.accumulate(acc, out=acc)
            ends = out[k + 1 : e + 1] <= acc[1:]  # D wins back
            t = int(ends.argmax())
            if ends[t]:
                out[k + 1 : k + 1 + t] = acc[1 : t + 1]
                k += t + 1
                break
            out[k + 1 : e + 1] = acc[1:]
            k = e
            if k == w - 1:
                break
            win *= 2
    return out


def _spans(
    rows: list[np.ndarray], lo: list[int], len_b: int, flip: bool
) -> tuple[list[int], list[int]]:
    """First and last path column of each of `_banded`'s rows.

    The path is walked back from (len_a-1, len_b-1), ties resolved diagonal
    first, then the row step, then the column step; ``flip`` marks a
    transposed lattice and swaps the tie order of the row and column steps
    to match.  `_skip_columns` finds where the walk leaves each row.
    """
    first, last = [0] * len(rows), [0] * len(rows)
    j = len_b - 1
    for i in range(len(rows) - 1, 0, -1):
        last[i] = j
        first[i], step = _skip_columns(rows[i], rows[i - 1], lo[i], lo[i - 1], j, flip)
        j = first[i] - step
    last[0] = j
    return first, last


def _skip_columns(
    row: np.ndarray, prev: np.ndarray, lo_i: int, prev_lo: int, j: int, flip: bool
) -> tuple[int, int]:
    """Where `_spans`'s walk, entering row ``i`` at column ``j``, leaves it.

    The column is the last one in ``lo_i + 1..j`` where the diagonal or the
    row step wins under the walk's tie rules; cells right of it take the
    column step.  The step is 1 when the walk leaves diagonally, else 0.
    When no column qualifies, the row's first column, with no neighbour to
    its left, ends it.
    """
    # the row above, read as infinite out to this row's last column
    above = np.full(lo_i + len(row) - prev_lo, _INF)
    above[: len(prev)] = prev
    left = row[: j - lo_i]
    up = above[lo_i + 1 - prev_lo : j + 1 - prev_lo]
    diag = above[lo_i - prev_lo : j - prev_lo]
    diagonal = (diag <= up) & (diag <= left)
    at = np.flatnonzero(diagonal | (up < left if flip else up <= left))
    if at.size:
        k = int(at[-1])
        return lo_i + 1 + k, int(diagonal[k])
    k = lo_i - prev_lo  # the row's first column: the diagonal against the row step alone
    return lo_i, int(0 < k and above[k - 1] <= above[k])


def _wavefront(a: np.ndarray, b: np.ndarray, metric: Metric) -> np.ndarray:
    """Exact accumulated totals for every row of ``a`` against every row of ``b``.

    ``a`` is (n, la) and ``b`` is (m, lb) with la <= lb; the result is
    (n, m).  The lattices are swept one anti-diagonal at a time, all
    n * m of them at once: diagonal ``d`` holds the cells (i, d - i) at
    position i + 1 of an (la + 1, n, m) array whose position 0 is an
    infinite sentinel, and only the last three diagonals are live.  The
    pair axes are innermost, so a diagonal's cells, and each neighbour it
    reads, are one contiguous block.  Each cell is the minimum of the same
    three neighbours plus the same cost as in `_banded`, and ``min`` is
    exact, so the totals are the same floats.  Positions past a diagonal's
    last row are never written and stay infinite; the diagonal's own cells
    never read a neighbour past column lb - 1, so stale values below its
    first row go unread.
    """
    n, la = a.shape
    m, lb = b.shape
    l1 = metric is Metric.L1
    a_t = np.ascontiguousarray(a.T)
    # column lb-1-j of b as row j, so each diagonal's columns are one ascending slice
    b_rev = np.ascontiguousarray(b[:, ::-1].T)
    d2, d1, d0 = (np.full((la + 1, n, m), _INF) for _ in range(3))
    cost = np.empty((la, n, m))
    for d in range(la + lb - 1):
        i0, i1 = max(0, d - lb + 1), min(d, la - 1) + 1
        c = cost[: i1 - i0]
        # (k, n, 1) against (k, 1, m): b is not tiled per pair
        np.subtract(a_t[i0:i1, :, None], b_rev[lb - 1 - d + i0 : lb - d + i1 - 1, None, :], out=c)
        if l1:
            np.abs(c, out=c)
        else:
            np.multiply(c, c, out=c)
        cell = d0[i0 + 1 : i1 + 1]
        if d:
            np.minimum(d2[i0:i1], d1[i0:i1], out=cell)  # diagonal, up
            np.minimum(cell, d1[i0 + 1 : i1 + 1], out=cell)  # left
            np.add(cell, c, out=cell)
        else:
            cell[...] = c  # the origin has no predecessor
        d2, d1, d0 = d1, d0, d2
    return d1[la]


def _distance(total: float | np.ndarray, metric: Metric) -> float | np.ndarray:
    """The warped distance of an accumulated total: the square root for L2."""
    return total if metric is Metric.L1 else np.sqrt(total)


def dtw_exact(a: Sequence[float], b: Sequence[float], metric: Metric = DEFAULT_METRIC) -> DtwResult:
    """Globally minimal warped distance: the banded program over the full lattice."""
    return _warp(a, b, None, metric)


def _halve(v: np.ndarray) -> np.ndarray:
    x, y = v[0 : len(v) - 1 : 2], v[1::2]
    with np.errstate(over="ignore"):
        out = (x + y) / 2.0
    # a sum past float64's range: halve first, so finite input stays finite
    big = ~np.isfinite(out)
    out[big] = x[big] / 2.0 + y[big] / 2.0
    return np.append(out, v[-1]) if len(v) % 2 else out


def _projected_band(
    first: list[int], last: list[int], len_a: int, len_b: int, radius: int
) -> tuple[list[int], list[int]]:
    """Per-row column bounds of the fine cells a coarse path admits.

    ``first`` and ``last`` are the coarse path's first and last column in
    each coarse row.  Each coarse cell projects to its (at most) 2x2 fine
    block, dilated by ``radius`` in both axes and clipped to the lattice.
    The coarse path is monotone, so fine row ``i`` takes coarse rows
    (i-radius)//2 .. (i+radius)//2, from the first's first column to the
    last's last.
    """
    rows, top = np.arange(len_a), len(first) - 1
    c_lo = np.asarray(first)[np.clip((rows - radius) // 2, 0, top)]
    c_hi = np.asarray(last)[np.clip((rows + radius) // 2, 0, top)]
    lo = np.maximum(2 * c_lo - radius, 0)
    hi = np.minimum(2 * c_hi + 1 + radius, len_b - 1)
    return lo.tolist(), hi.tolist()


def fastdtw(
    a: Sequence[float],
    b: Sequence[float],
    radius: int = DEFAULT_RADIUS,
    metric: Metric = DEFAULT_METRIC,
) -> DtwResult:
    """Multiresolution approximate warped distance.

    Sequences at or below the base-case length, max(radius + 2, 16), are
    solved exactly, so tiny inputs delegate to `dtw_exact` bit for bit.
    The returned distance is always >= the exact distance and equals it
    once the radius reaches the longer input's length.  `CostOverflow` is
    raised when the accumulated cost of this or a coarser level overflows
    float64.
    """
    return _warp(a, b, radius, metric)


def _check_radius(radius: int | None) -> None:
    if radius is not None and radius < 0:
        raise InvalidArgument(f"radius must be >= 0, got {radius}")


def _is_exact(la: int, lb: int, radius: int | None) -> bool:
    """Whether FastDTW solves an ``la`` x ``lb`` lattice exactly, with no coarser level."""
    return radius is None or min(la, lb) <= max(radius + 2, _BASE_CASE_MIN)


def _warp(a: Sequence[float], b: Sequence[float], radius: int | None, metric: Metric) -> DtwResult:
    """FastDTW, or the exact distance when ``radius`` is None, rows over the shorter input."""
    av, bv = finite_values(a), finite_values(b)
    if len(av) == 0 or len(bv) == 0:
        raise EmptyInput("both sequences must be non-empty")
    _check_radius(radius)
    flip = len(av) > len(bv)
    if flip:
        av, bv = bv, av
    with np.errstate(over="ignore", invalid="ignore"):
        total, cells, (first, last) = _level(av, bv, radius, metric, flip, True)
    pairs = [(i, j) for i, (f, l) in enumerate(zip(first, last)) for j in range(f, l + 1)]
    path = WarpPath(tuple((j, i) for i, j in pairs) if flip else tuple(pairs))
    return DtwResult(float(_distance(total, metric)), path, cells)


def _level(
    av: np.ndarray, bv: np.ndarray, radius: int | None, metric: Metric, flip: bool, spans: bool
) -> tuple[float, int, tuple[list[int], list[int]] | None]:
    """One level of `_warp`: its total, the cells of it and every coarser level, and its spans.

    The band is the full lattice when the level is solved exactly, else the
    projection of the coarser level's spans.  The spans (`_spans`) come
    only when ``spans`` is set; otherwise only the last row is kept.
    `CostOverflow` unless the total is finite.
    """
    la, lb = len(av), len(bv)
    if _is_exact(la, lb, radius):
        lo, hi, cells = [0] * la, [lb - 1] * la, 0
    else:
        _, cells, coarse = _level(_halve(av), _halve(bv), radius, metric, flip, True)
        lo, hi = _projected_band(*coarse, la, lb, radius)
    rows = _banded(av, bv, lo, hi, metric)
    kept = list(rows) if spans else deque(rows, maxlen=1)
    total = float(kept[-1][-1])
    if not math.isfinite(total):
        raise CostOverflow("warped cost overflows float64")
    cells += sum(hi) - sum(lo) + la
    return total, cells, _spans(kept, lo, lb, flip) if spans else None


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
    radius: int = DEFAULT_RADIUS,
    metric: Metric = DEFAULT_METRIC,
    normalize: bool = False,
) -> MatchRun:
    """Rank every cross-system pair by warped distance, ascending.

    The series are ranked as given: a caller that ranks on reduced
    samples (`sampling.apply_recipe`) passes the samples, and holds only
    them while this runs.  Every series is checked, in name order, ION
    then HIST, before the recorded wall time starts, so it covers the
    distance loop only.
    The ranking reads no path, so none is built at the finest level.
    Pairs whose lattice FastDTW solves exactly are grouped by shape (ION
    length, HIST length), and each group with enough cells per
    anti-diagonal (`_WAVEFRONT_MIN_WIDTH`) is swept at once by
    `_wavefront`; every other pair runs `_level` without spans.  Distances and
    ``cells_evaluated`` equal `fastdtw`'s bit for bit.  Ties in distance
    break lexicographically on (ion name, hist name), making the ranking
    deterministic regardless of evaluation order.  `CostOverflow` names the
    first pair in that name order whose accumulated cost overflows float64.
    """
    if not ion or not hist:
        raise EmptyPartition("both corpus partitions must contain at least one series")

    def prep(s: TimeSeries) -> np.ndarray:
        with naming(s.id.name, EmptyInput, NonFiniteValue):
            if len(s) == 0:
                raise EmptyInput("sampled series is empty")
            return finite_values(z_normalize(s.v) if normalize else s.v)

    ion_sorted = sorted(ion, key=lambda s: s.id.name)
    hist_sorted = sorted(hist, key=lambda s: s.id.name)
    ion_vals = [prep(s) for s in ion_sorted]
    hist_vals = [prep(s) for s in hist_sorted]
    _check_radius(radius)  # after the inputs, as `fastdtw` checks them

    start = time.perf_counter()
    dist = np.empty((len(ion_vals), len(hist_vals)))
    cells = np.empty(dist.shape, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for la, rows in _by_length(ion_vals).items():
            for lb, cols in _by_length(hist_vals).items():
                flip = la > lb  # rows over the shorter input, as in `_warp`
                if _is_exact(la, lb, radius) and (
                    len(rows) * len(cols) * la * lb >= _WAVEFRONT_MIN_WIDTH * (la + lb - 1)
                ):
                    a = np.stack([ion_vals[i] for i in rows])
                    b = np.stack([hist_vals[j] for j in cols])
                    totals = _wavefront(b, a, metric).T if flip else _wavefront(a, b, metric)
                    dist[np.ix_(rows, cols)] = _distance(totals, metric)
                    cells[np.ix_(rows, cols)] = la * lb
                    continue
                for i, j in product(rows, cols):
                    a, b = (hist_vals[j], ion_vals[i]) if flip else (ion_vals[i], hist_vals[j])
                    try:
                        total, cells[i, j], _ = _level(a, b, radius, metric, flip, False)
                    except CostOverflow:
                        total = _INF
                    dist[i, j] = _distance(total, metric)
    elapsed = time.perf_counter() - start
    overflow = np.flatnonzero(~np.isfinite(dist))
    if overflow.size:  # the first pair in (ion name, hist name) order
        i, j = divmod(int(overflow[0]), len(hist_vals))
        raise CostOverflow(
            f"warped cost overflows float64 for pair ({ion_sorted[i].id}, {hist_sorted[j].id})"
        )

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
