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

A row narrower than `_SCAN_MIN_WIDTH` cells is filled by a scalar loop.
A wider one is scanned in numpy (`_scan`).  Round-to-nearest addition is
monotone, so ``fl(min(x, y) + c) == min(fl(x + c), fl(y + c))``, and a cell
``min(diag, up, left) + cost`` equals ``min(D, left + cost)`` with
``D = min(diag, up) + cost`` computed for the whole row at once.  The row is
then runs that keep ``D`` and chains from the left, each summed by
``np.add.accumulate``, which adds in sequence and so rounds as the loop
does.  A row whose chains come shorter than `_SCAN_CELLS_PER_CHAIN` cells
on average finishes on the scalar loop, and the next `_SCAN_RETRY` rows
take it too.  The walk back needs only each row's first and last path
column (`_spans`): the coarse levels hand those straight to
`_projected_band`, and in a scanned row one vectorised search
(`_skip_columns`) finds where the column steps end.

`match_all` ranks pairs by distance alone, so it builds no path at the
finest level.  It groups the pairs whose lattice is solved exactly by
shape, and sweeps each group that holds enough cells per anti-diagonal
with one batched wavefront: three diagonals live, vectorised over the
pairs.  Every other pair runs the banded program without the final
walk back.  Each cell is still the minimum of the same three neighbours
plus the same cost, so the distances and cell counts equal `fastdtw`'s
bit for bit.

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
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, product
from typing import Iterator, Sequence

import numpy as np

from .errors import CostOverflow, EmptyInput, EmptyPartition, InvalidArgument, NonFiniteValue, TooShort
from .model import MeasurementId, TimeSeries
from .sampling import SamplingRecipe, apply_recipe

_BASE_CASE_MIN = 16
# Mean cells per anti-diagonal from which one batched wavefront beats a
# `_warp_distance` call per pair.  A diagonal costs a few numpy calls; on
# random walks 8 pairs of 16 x 2,000 (127 cells per diagonal) took 0.95x
# the wavefront's time per pair, and 16 such pairs 1.4x (2 vCPUs, numpy 2.4).
_WAVEFRONT_MIN_WIDTH = 128
# Rows at least this wide are scanned by `_scan`, narrower ones take the
# scalar loop.  `_warp_distance` at radius 1 with every row scanned took,
# as a share of the time with none scanned: on a 48-point line against the
# line it samples every B-th point of (the `fullres` twin pairs' shape)
# 1.47x, 0.88x, 0.59x and 0.26x at finest rows of 65, 127, 253 and 1,005
# cells on average; on a random walk against those points 1.21x at 99
# cells and 0.82x at 195 and 387 (2 vCPUs, numpy 2.4).
_SCAN_MIN_WIDTH = 256
# A scan gives up once its chains average fewer than `_SCAN_CELLS_PER_CHAIN`
# cells, as one chain costs a few numpy calls, and the next `_SCAN_RETRY`
# rows then take the scalar loop: a row that gives up has paid for its
# whole-row numpy passes for nothing.  On white noise 48 x 34,560
# `_warp_distance` took 49 and 251 ms at radius 1 and 10 with no rows
# skipped, 43 and 202 ms with 8; integer ties 48 x 34,560, which give up in
# fewer rows, 47 and 57 ms (medians of 9 runs, 2 vCPUs, numpy 2.4).
_SCAN_CELLS_PER_CHAIN = 64
_SCAN_RETRY = 8
# Chain ends, and where a wide row's column steps end, are searched over
# windows that start `_SCAN_WINDOW` cells wide and double.
_SCAN_WINDOW = 128
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
) -> Iterator[list[float] | np.ndarray]:
    """The accumulated-cost rows over row ``i``'s columns ``lo[i]..hi[i]``, one at a time.

    The band starts at (0, 0) and ends at (len_a-1, len_b-1); ``lo`` and
    ``hi`` are non-decreasing and leave no gap between rows
    (``lo[i] <= hi[i-1] + 1``).  Every cell in it is then reachable, so a
    row splits into three runs that need no range test: cells with a
    neighbour above, the one cell just past the row above, and a tail
    reached only from the left.  Cells outside the band read as infinite.
    A row `_scan` fills is an array, a row from a scalar loop a list.
    Only the row above is held, so a caller that needs only the total
    keeps two rows live.
    """
    l1 = metric is Metric.L1
    prev: list[float] | np.ndarray = []
    resume = 0  # rows before this one take the scalar loop after a scan gave up
    for i, (lo_i, hi_i) in enumerate(zip(lo, hi)):
        d = a[i] - b[lo_i : hi_i + 1]
        cost = np.abs(d) if l1 else d * d
        wide = len(cost) >= _SCAN_MIN_WIDTH and i >= resume
        if not i:
            prev = np.add.accumulate(cost) if wide else list(accumulate(cost.tolist()))
            yield prev
            continue
        prev_lo, prev_hi = lo[i - 1], hi[i - 1]
        if wide:
            prev = _scan(np.asarray(prev), cost, lo_i - prev_lo, prev_hi - lo_i + 1)
            if isinstance(prev, list):
                resume = i + 1 + _SCAN_RETRY
        else:
            prev, cost = (prev if isinstance(prev, list) else prev.tolist()), cost.tolist()
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
        yield prev


def _scan(prev: np.ndarray, cost: np.ndarray, s: int, n: int) -> np.ndarray | list[float]:
    """One wide row of `_banded`, from the row above (``prev``) and the row's costs.

    The row's first ``n`` cells lie under ``prev[s:]``.  A cell's value is
    ``min(diag, up, left) + cost``; rounding to nearest is monotone, so that
    equals ``min(D, left + cost)`` with ``D = min(diag, up) + cost``, bit
    for bit.  ``D`` is one numpy pass (infinite on the tail, which has no
    neighbour above); the row is then runs that keep ``D`` and runs where
    the chain from the left wins, summed by ``np.add.accumulate`` in the
    loop's order.  A chain's end is searched over a window that doubles
    while it holds none.  Once the chains so far average fewer than
    `_SCAN_CELLS_PER_CHAIN` cells, the rest of the row takes a scalar loop
    over ``D`` and the row comes back as a list.
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
    k, chains = 0, 0
    while k < w - 1:
        t = int(stop[k:].argmax())
        if not stop[k + t]:
            break
        k += t  # cell k keeps D; a chain from it takes cell k + 1
        chains += 1
        if chains * _SCAN_CELLS_PER_CHAIN > k + _SCAN_CELLS_PER_CHAIN:
            row = out[: k + 1].tolist()
            left = row[-1]
            for dk, c in zip(out[k + 1 :].tolist(), cost[k + 1 :].tolist()):
                left += c
                if dk < left:
                    left = dk
                row.append(left)
            return row
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
    rows: list[list[float] | np.ndarray], lo: list[int], len_b: int, flip: bool
) -> tuple[list[int], list[int]]:
    """First and last path column of each of `_banded`'s rows.

    The path is walked back from (len_a-1, len_b-1), ties resolved diagonal
    first, then the row step, then the column step; ``flip`` marks a
    transposed lattice and swaps the tie order of the row and column steps
    to match.  In a scanned row `_skip_columns` finds where the column
    steps end in one vectorised search; other rows are walked cell by cell.
    """
    first, last = [0] * len(rows), [0] * len(rows)
    j = len_b - 1
    for i in range(len(rows) - 1, 0, -1):
        row, prev, lo_i, prev_lo = rows[i], rows[i - 1], lo[i], lo[i - 1]
        last[i] = j
        if isinstance(row, np.ndarray):
            j = _skip_columns(row, prev, lo_i, prev_lo, j, flip)
        step = 0  # 1 when the walk leaves the row diagonally
        while j:
            k = j - prev_lo
            up = prev[k] if k < len(prev) else _INF
            diag = prev[k - 1] if 0 < k <= len(prev) else _INF
            left = row[j - lo_i - 1] if j > lo_i else _INF
            if diag <= up and diag <= left:
                step = 1
                break
            if up < left or (up == left and not flip):
                break
            j -= 1
        first[i] = j
        j -= step
    last[0] = j
    return first, last


def _skip_columns(
    row: np.ndarray, prev: list[float] | np.ndarray, lo_i: int, prev_lo: int, j: int, flip: bool
) -> int:
    """The last column at or left of ``j`` where `_spans`'s walk leaves row ``i``.

    Cells right of it take the column step: neither the diagonal nor the
    row step wins under the walk's tie rules.  The search runs leftwards
    over a window that doubles while every cell in it takes the column step.
    """
    # the row above, read as infinite out to this row's last column
    above = np.concatenate((prev, np.full(lo_i + len(row) - prev_lo - len(prev), _INF)))
    win = _SCAN_WINDOW
    while j > lo_i:
        q0 = max(lo_i + 1, j - win + 1)
        left = row[q0 - lo_i - 1 : j - lo_i]
        up = above[q0 - prev_lo : j - prev_lo + 1]
        diag = above[q0 - prev_lo - 1 : j - prev_lo]
        leaves = (diag <= up) & (diag <= left) | (up < left if flip else up <= left)
        at = np.flatnonzero(leaves)
        if at.size:
            return q0 + int(at[-1])
        j, win = q0 - 1, 2 * win
    return j


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
    radius: int = 1,
    metric: Metric = Metric.L2,
) -> DtwResult:
    """Multiresolution approximate warped distance.

    Sequences at or below the base-case length, max(radius + 2, 16), are
    solved exactly, so tiny inputs delegate to `dtw_exact` bit for bit.
    The returned distance is always >= the exact distance and equals it
    once the radius reaches the longer input's length.  `CostOverflow` is
    raised when the accumulated cost of this or a coarser level overflows
    float64.
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
    if flip:
        av, bv = bv, av
    with np.errstate(over="ignore", invalid="ignore"):
        rows, lo, cells = _rows(av, bv, radius, metric, flip)
    first, last = _spans(rows, lo, len(bv), flip)
    pairs = [(i, j) for i, (f, l) in enumerate(zip(first, last)) for j in range(f, l + 1)]
    path = WarpPath(tuple((j, i) for i, j in pairs) if flip else tuple(pairs))
    return DtwResult(float(_distance(rows[-1][-1], metric)), path, metric, cells)


def _band(
    av: np.ndarray, bv: np.ndarray, radius: int | None, metric: Metric, flip: bool
) -> tuple[list[int], list[int], int]:
    """Row bounds of the finest level's band, and the cells of it and every coarser level."""
    la, lb = len(av), len(bv)
    if _is_exact(la, lb, radius):
        lo, hi, cells = [0] * la, [lb - 1] * la, 0
    else:
        half_b = _halve(bv)
        rows, c_lo, cells = _rows(_halve(av), half_b, radius, metric, flip)
        lo, hi = _projected_band(*_spans(rows, c_lo, len(half_b), flip), la, lb, radius)
    return lo, hi, cells + sum(hi) - sum(lo) + la


def _rows(
    av: np.ndarray, bv: np.ndarray, radius: int | None, metric: Metric, flip: bool
) -> tuple[list[list[float] | np.ndarray], list[int], int]:
    """Every row of one level's DP, their ``lo`` bounds, and the cells of it and every coarser level."""
    lo, hi, cells = _band(av, bv, radius, metric, flip)
    rows = list(_banded(av, bv, lo, hi, metric))
    _total(rows[-1])
    return rows, lo, cells


def _total(row: list[float] | np.ndarray) -> float:
    """A level's accumulated total, the last cell of its last row; CostOverflow unless finite."""
    total = float(row[-1])
    if not math.isfinite(total):
        raise CostOverflow("warped cost overflows float64")
    return total


def _warp_distance(
    av: np.ndarray, bv: np.ndarray, radius: int, metric: Metric
) -> tuple[float, int]:
    """`_warp`'s distance and cells, without the finest level's walk back."""
    flip = len(av) > len(bv)
    if flip:
        av, bv = bv, av
    lo, hi, cells = _band(av, bv, radius, metric, flip)
    for row in _banded(av, bv, lo, hi, metric):
        pass
    return float(_distance(_total(row), metric)), cells


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
    deterministic regardless of evaluation order.  `CostOverflow` names the
    first pair in that name order whose accumulated cost overflows float64.
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
    with np.errstate(over="ignore", invalid="ignore"):
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
                    try:
                        dist[i, j], cells[i, j] = _warp_distance(
                            ion_vals[i], hist_vals[j], radius, metric
                        )
                    except CostOverflow:
                        dist[i, j] = _INF
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
