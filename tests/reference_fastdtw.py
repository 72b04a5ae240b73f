"""Cell-set FastDTW, kept as a bit-identity reference for the banded kernel.

This is the earlier implementation of `meterfuse.dtw`: the window is a set
of (i, j) cells, each row's column range is read back from that set, and
the dynamic program tests every neighbour against the window.  It is slow
and memory-hungry, but each step is easy to check by eye, so the banded
kernel must reproduce its distance, path and cell count exactly.
"""

from __future__ import annotations

import math

_BASE_CASE_MIN = 16
_INF = float("inf")


def _cost(metric: str):
    if metric == "l1":
        return lambda x, y: abs(x - y)
    return lambda x, y: (x - y) * (x - y)


def _finish(total: float, metric: str) -> float:
    return math.sqrt(total) if metric == "l2" else total


def _backtrack(acc_at, la: int, lb: int) -> tuple[tuple[int, int], ...]:
    # Ties resolved diagonal first, then the row step, then the column step.
    i, j = la - 1, lb - 1
    rev = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = acc_at(i - 1, j - 1)
            up = acc_at(i - 1, j)
            left = acc_at(i, j - 1)
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        rev.append((i, j))
    rev.reverse()
    return tuple(rev)


def dtw_exact(av: list[float], bv: list[float], metric: str):
    """(distance, path, cells_evaluated) over the full lattice."""
    la, lb = len(av), len(bv)
    cost = _cost(metric)
    acc = [[0.0] * lb for _ in range(la)]
    acc[0][0] = cost(av[0], bv[0])
    for j in range(1, lb):
        acc[0][j] = acc[0][j - 1] + cost(av[0], bv[j])
    for i in range(1, la):
        row, prev, x = acc[i], acc[i - 1], av[i]
        row[0] = prev[0] + cost(x, bv[0])
        for j in range(1, lb):
            row[j] = min(prev[j - 1], prev[j], row[j - 1]) + cost(x, bv[j])
    path = _backtrack(lambda i, j: acc[i][j], la, lb)
    return _finish(acc[-1][-1], metric), path, la * lb


def coarsen(av: list[float]) -> list[float]:
    out = [(av[2 * i] + av[2 * i + 1]) / 2.0 for i in range(len(av) // 2)]
    if len(av) % 2:
        out.append(av[-1])
    return out


def expand_window(coarse_path, len_a: int, len_b: int, radius: int) -> set[tuple[int, int]]:
    cells: set[tuple[int, int]] = set()
    for ci, cj in coarse_path:
        for i in range(max(0, 2 * ci - radius), min(len_a, 2 * ci + 2 + radius)):
            for j in range(max(0, 2 * cj - radius), min(len_b, 2 * cj + 2 + radius)):
                cells.add((i, j))
    return cells


def windowed_dtw(av: list[float], bv: list[float], cells: set[tuple[int, int]], metric: str):
    la = len(av)
    cost = _cost(metric)
    rows: dict[int, tuple[int, int]] = {}
    for i, j in cells:
        lo, hi = rows.get(i, (j, j))
        rows[i] = (min(lo, j), max(hi, j))

    seg: dict[int, tuple[int, list[float]]] = {}
    evaluated = 0
    for i in range(la):
        if i not in rows:
            continue
        lo, hi = rows[i]
        vals = [0.0] * (hi - lo + 1)
        prev = seg.get(i - 1)
        for j in range(lo, hi + 1):
            evaluated += 1
            if i == 0 and j == 0:
                vals[0] = cost(av[0], bv[0])
                continue
            best = _INF
            if prev is not None:
                plo, pvals = prev
                pj = j - plo
                if 0 <= pj < len(pvals) and pvals[pj] < best:
                    best = pvals[pj]
                if 0 <= pj - 1 < len(pvals) and pvals[pj - 1] < best:
                    best = pvals[pj - 1]
            if j - 1 >= lo and vals[j - 1 - lo] < best:
                best = vals[j - 1 - lo]
            vals[j - lo] = _INF if best == _INF else best + cost(av[i], bv[j])
        seg[i] = (lo, vals)

    def acc_at(i: int, j: int) -> float:
        lo, vals = seg.get(i, (0, []))
        return vals[j - lo] if lo <= j < lo + len(vals) else _INF

    total = acc_at(la - 1, len(bv) - 1)
    return _finish(total, metric), _backtrack(acc_at, la, len(bv)), evaluated


def fastdtw(av: list[float], bv: list[float], radius: int, metric: str):
    """(distance, path, cells_evaluated) of multiresolution FastDTW."""
    base = max(radius + 2, _BASE_CASE_MIN)
    if len(av) <= base or len(bv) <= base:
        return dtw_exact(av, bv, metric)
    _, coarse_path, coarse_cells = fastdtw(coarsen(av), coarsen(bv), radius, metric)
    window = expand_window(coarse_path, len(av), len(bv), radius)
    distance, path, evaluated = windowed_dtw(av, bv, window, metric)
    return distance, path, coarse_cells + evaluated
