import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meterfuse import (
    Metric,
    SamplingKind,
    SamplingRecipe,
    SystemTag,
    apply_recipe,
    dtw_exact,
    fastdtw,
    match_all,
)
from meterfuse import dtw
from meterfuse.dtw import _halve, _projected_band, z_normalize
from meterfuse.errors import CostOverflow, EmptyInput, EmptyPartition, NonFiniteValue

import reference_fastdtw
from conftest import mkvalues, traced_peak


def oracle_dtw(a, b, metric=Metric.L2):
    """Independent top-down DP over the full lattice."""

    def cost(i, j):
        d = a[i] - b[j]
        return abs(d) if metric is Metric.L1 else d * d

    @lru_cache(maxsize=None)
    def best(i, j):
        c = cost(i, j)
        if i == 0 and j == 0:
            return c
        options = []
        if i > 0 and j > 0:
            options.append(best(i - 1, j - 1))
        if i > 0:
            options.append(best(i - 1, j))
        if j > 0:
            options.append(best(i, j - 1))
        return c + min(options)

    total = best(len(a) - 1, len(b) - 1)
    return math.sqrt(total) if metric is Metric.L2 else total


def path_cost(a, b, path, metric=Metric.L2):
    total = 0.0
    for i, j in path.pairs:
        d = a[i] - b[j]
        total += abs(d) if metric is Metric.L1 else d * d
    return math.sqrt(total) if metric is Metric.L2 else total


def test_identical_series_zero_distance_diagonal_path():
    r = dtw_exact([0, 1, 2], [0, 1, 2], Metric.L1)
    assert r.distance == 0
    assert r.path.pairs == ((0, 0), (1, 1), (2, 2))


def test_one_to_many_mapping():
    r = dtw_exact([0, 0, 1], [0, 1], Metric.L1)
    assert r.distance == 0
    assert r.path.pairs == ((0, 0), (1, 0), (2, 1))


def test_single_cell_lattice():
    r = dtw_exact([0], [5], Metric.L1)
    assert r.distance == 5
    assert r.path.pairs == ((0, 0),)


def test_l2_aggregates_squared_costs():
    r = dtw_exact([0.0, 3.0], [0.0], Metric.L2)
    assert r.distance == pytest.approx(3.0)
    assert r.cells_evaluated == 2


def test_exact_matches_oracle_on_random_pairs(rng):
    for _ in range(30):
        a = rng.uniform(-10, 10, rng.integers(1, 20)).tolist()
        b = rng.uniform(-10, 10, rng.integers(1, 20)).tolist()
        for metric in Metric:
            got = dtw_exact(a, b, metric).distance
            assert got == pytest.approx(oracle_dtw(a, b, metric), rel=1e-12, abs=1e-12)


def test_path_cost_equals_distance(rng):
    for _ in range(20):
        a = rng.uniform(-5, 5, rng.integers(2, 25)).tolist()
        b = rng.uniform(-5, 5, rng.integers(2, 25)).tolist()
        r = dtw_exact(a, b)
        assert path_cost(a, b, r.path) == pytest.approx(r.distance, rel=1e-12)


def test_fastdtw_path_cost_equals_its_distance(rng):
    for _ in range(10):
        a = np.cumsum(rng.normal(size=150)).tolist()
        b = np.cumsum(rng.normal(size=130)).tolist()
        for metric in Metric:
            r = fastdtw(a, b, radius=1, metric=metric)
            assert path_cost(a, b, r.path, metric) == pytest.approx(r.distance, rel=1e-12)


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        dtw_exact([], [1.0])
    with pytest.raises(EmptyInput):
        fastdtw([1.0], [])


def test_exact_symmetry_integer_values(rng):
    for _ in range(20):
        a = rng.integers(-20, 20, rng.integers(1, 30)).astype(float).tolist()
        b = rng.integers(-20, 20, rng.integers(1, 30)).astype(float).tolist()
        assert dtw_exact(a, b).distance == dtw_exact(b, a).distance


# FastDTW's coarsening step is `_halve`; its window is the band `_projected_band` returns.
def test_coarsen_pairwise_means():
    assert _halve(np.array([0.0, 2, 4, 6])).tolist() == [1, 5]


def test_coarsen_odd_trailing_element():
    assert _halve(np.ones(5)).tolist() == [1, 1, 1]


def test_coarsen_single_pair():
    assert _halve(np.array([0.0, 10])).tolist() == [5]


def test_coarsen_sum_past_float64_range():
    # a sum that overflows averages as halves; every other pair keeps (x + y) / 2
    v = np.array([1e308, 1e308, -1.7e308, -1.6e308, 5e-324, 5e-324, 3.0, 0.5, 7.0])
    assert _halve(v).tolist() == [1e308, -1.7e308 / 2 + -1.6e308 / 2, 5e-324, 1.75, 7.0]


def spans_of(pairs):
    """Each row's first and last column along a path."""
    first, last = {}, {}
    for i, j in pairs:
        first.setdefault(i, j)
        last[i] = j
    return [first[i] for i in sorted(first)], [last[i] for i in sorted(last)]


def test_expand_window_block():
    assert _projected_band([0], [0], 2, 2, 0) == ([0, 0], [1, 1])


def test_expand_window_dilation_clipped():
    assert _projected_band([0], [0], 2, 2, 1) == ([0, 0], [1, 1])


def test_expand_window_saturates_to_full_lattice():
    n = 6
    diag = list(range(n // 2))
    assert _projected_band(diag, diag, n, n, n) == ([0] * n, [n - 1] * n)


def test_expand_window_contiguous_per_row(rng):
    # the reference's cell set holds, in each row, exactly the columns lo..hi
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    coarse = dtw_exact(_halve(a), _halve(b))
    for radius in (0, 1, 3):
        cells = reference_fastdtw.expand_window(coarse.path.pairs, 40, 40, radius)
        rows = {}
        for i, j in cells:
            rows.setdefault(i, set()).add(j)
        lo, hi = _projected_band(*spans_of(coarse.path.pairs), 40, 40, radius)
        assert sorted(rows) == list(range(40))
        assert [min(rows[i]) for i in range(40)] == lo
        assert [max(rows[i]) for i in range(40)] == hi
        assert all(rows[i] == set(range(lo[i], hi[i] + 1)) for i in range(40))


def test_fastdtw_identity_any_radius(rng):
    a = rng.normal(size=100).tolist()
    for radius in (0, 1, 5):
        assert fastdtw(a, a, radius).distance == 0


def test_fastdtw_delegates_below_base_case(rng):
    a = rng.normal(size=12).tolist()
    b = rng.normal(size=15).tolist()
    assert fastdtw(a, b, radius=1) == dtw_exact(a, b)


def test_fastdtw_dominates_exact(rng):
    for _ in range(25):
        a = np.cumsum(rng.normal(size=200)).tolist()
        b = np.cumsum(rng.normal(size=200)).tolist()
        exact = dtw_exact(a, b).distance
        for radius in (0, 1, 4):
            fast = fastdtw(a, b, radius).distance
            assert fast >= exact - 1e-9 * max(1.0, exact)


def test_fastdtw_converges_with_radius(rng):
    a = np.cumsum(rng.normal(size=60)).tolist()
    b = np.cumsum(rng.normal(size=50)).tolist()
    exact = dtw_exact(a, b).distance
    assert fastdtw(a, b, radius=60).distance == pytest.approx(exact, rel=1e-12)


def test_fastdtw_work_grows_linearly(rng):
    for n in (256, 1024, 4096):
        a = np.cumsum(rng.normal(size=n)).tolist()
        b = np.cumsum(rng.normal(size=n)).tolist()
        for radius in (0, 1, 2, 4):
            r = fastdtw(a, b, radius)
            assert r.cells_evaluated <= 4 * (2 * n) * (2 * radius + 3) + 600


def test_fastdtw_negative_radius_rejected():
    with pytest.raises(ValueError):
        fastdtw([1.0, 2.0], [1.0], radius=-1)


def test_identity_zero_distance_property(rng):
    for _ in range(10):
        a = rng.normal(0, 5, rng.integers(1, 120)).tolist()
        assert dtw_exact(a, a).distance == 0
        for radius in (0, 2):
            assert fastdtw(a, a, radius).distance == 0


def test_fastdtw_extreme_length_mismatch(rng):
    a = np.cumsum(rng.normal(size=5000)).tolist()
    b = [0.0, 1.0, 2.0]
    r = fastdtw(a, b, radius=1)
    exact = dtw_exact(a, b)
    # one side at base-case length delegates to the exact solver
    assert r == exact
    assert r.path.is_valid(5000, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=40),
    st.lists(st.floats(-10, 10), min_size=1, max_size=40),
    st.integers(0, 3),
)
def test_paths_always_valid(a, b, radius):
    exact = dtw_exact(a, b)
    assert exact.path.is_valid(len(a), len(b))
    fast = fastdtw(a, b, radius)
    assert fast.path.is_valid(len(a), len(b))
    assert fast.distance >= exact.distance - 1e-9 * max(1.0, exact.distance)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("solve", [dtw_exact, fastdtw])
def test_non_finite_input_rejected(solve, side, bad):
    seqs = [[0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
    seqs[side][2] = bad
    with pytest.raises(NonFiniteValue) as exc:
        solve(*seqs)
    assert exc.value.index == 2


@pytest.mark.parametrize("metric, a, b", [
    (Metric.L2, [0.0, 1.0, 2e200], [0.0, 1.0, 2.0]),  # one squared difference overflows
    (Metric.L1, [1e308, 1e308], [-1e308, -1e308]),  # one absolute difference overflows
    (Metric.L1, [1e308, 1e308], [0.0, 0.0]),  # finite costs, an overflowing sum
], ids=["l2-cost", "l1-cost", "l1-sum"])
@pytest.mark.parametrize("solve", [dtw_exact, fastdtw])
def test_overflowing_warped_cost_is_typed_error(solve, metric, a, b):
    for x, y in ((a, b), (b, a), (a * 20, b * 30)):
        with pytest.raises(CostOverflow, match="warped cost overflows float64"):
            solve(x, y, metric=metric)


def test_overflow_off_the_path_is_no_error():
    # the off-diagonal cells overflow, the diagonal path costs nothing;
    # 1e308 + 1e308 overflows, but FastDTW's coarse levels must hold 1e308
    for values in ([0.0, 1e200] * 20, [1e308] * 40):
        for solve in (dtw_exact, fastdtw):
            r = solve(values, values)
            assert r.distance == 0
            assert r.path.pairs == tuple((i, i) for i in range(40))


def test_match_all_names_the_first_overflowing_pair():
    ions = [mkvalues([0.0, 1.0, 2.0] * k, name=f"ION-{k}", system=SystemTag.ION) for k in (1, 9)]
    hists = [
        mkvalues([0.0, 1.0, 2.0] * 10, name="HIST-A", system=SystemTag.HIST),
        mkvalues([0.0, 1e200, 2.0] * 10, name="HIST-B", system=SystemTag.HIST),
    ]
    for radius in (1, 40):  # per pair, and the exact wavefront of each shape
        with mock.patch.object(dtw, "_WAVEFRONT_MIN_WIDTH", 0 if radius == 40 else 128):
            with pytest.raises(CostOverflow, match=r"for pair \(ION-1, HIST-B\)$"):
                match_all(ions, hists, radius)


def _series(kind: str, n: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.normal(size=n)).tolist()
    if kind == "ties":
        return rng.integers(-2, 3, n).astype(float).tolist()
    if kind == "noise":
        return rng.normal(size=n).tolist()
    if kind == "steps":  # an integer walk: exact ties between the up and left neighbours
        return np.cumsum(rng.integers(-1, 2, n)).astype(float).tolist()
    return [0.0] * n


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 200), st.integers(1, 200)),
        st.sampled_from([(8, 2000), (2000, 8), (3, 1200), (48, 1500), (1500, 48)]),
    ),
    st.integers(0, 5),
    st.sampled_from(["walk", "ties", "flat"]),
    st.integers(0, 2**32 - 1),
)
def test_banded_kernel_matches_cell_set_reference(shape, radius, kind, seed):
    a, b = _series(kind, shape[0], seed), _series(kind, shape[1], seed + 1)
    for metric in Metric:
        got = fastdtw(a, b, radius, metric)
        want = reference_fastdtw.fastdtw(a, b, radius, metric.value)
        assert (got.distance, got.path.pairs, got.cells_evaluated) == want
    if shape[0] * shape[1] <= 40_000:
        got = dtw_exact(a, b, Metric.L1)
        assert (got.distance, got.path.pairs, got.cells_evaluated) == (
            reference_fastdtw.dtw_exact(a, b, "l1")
        )


def assert_reference(a, b, radius, metric):
    """fastdtw equals the cell-set reference, and the finest level's spans equal its path's."""
    got = fastdtw(a, b, radius, metric)
    want = reference_fastdtw.fastdtw(a, b, radius, metric.value)
    assert (got.distance, got.path.pairs, got.cells_evaluated) == want
    flip = len(a) > len(b)
    x, y = (np.asarray(b), np.asarray(a)) if flip else (np.asarray(a), np.asarray(b))
    pairs = [(j, i) for i, j in want[1]] if flip else want[1]
    assert dtw._level(x, y, radius, metric, flip, True)[2] == spans_of(pairs)


# Rows of 12 x 4,000 (solved exactly) and of 48 x 6,000 and 48 x 2,000 (at
# radius 10) are wider than _SCAN_WINDOW, so `_scan` searches them over more
# than one window; the metric alternates to bound the run time.
@pytest.mark.parametrize("shape", [(12, 4000), (4000, 12), (48, 6000), (6000, 48)],
                         ids=["12x4000", "4000x12", "48x6000", "6000x48"])
@pytest.mark.parametrize("kind", ["walk", "noise", "ties", "flat"])
def test_wide_rows_match_cell_set_reference(shape, kind):
    with mock.patch.object(dtw, "_scan", wraps=dtw._scan) as scan:
        for radius, metric in ((0, Metric.L1), (1, Metric.L2), (10, Metric.L1), (10, Metric.L2)):
            la, lb = shape if radius < 10 else (min(shape[0], 2000), min(shape[1], 2000))
            if (radius, metric) == (10, Metric.L2) and kind in ("ties", "flat"):
                continue
            a, b = _series(kind, la, 1), _series(kind, lb, 2)
            assert_reference(a, b, radius, metric)
    assert scan.called


def test_walk_back_keeps_a_byte_per_cell_and_a_few_rows(rng):
    # An exact 12 x 8,640 lattice, the shape of `fullres`'s FastDTW base
    # level: its step bytes take 104 KB and a float row 69 KB, where keeping
    # every float row for the walk back took 0.83 MB.
    a, b = np.cumsum(rng.normal(size=12)), np.cumsum(rng.normal(size=8640))
    for flip in (False, True):
        assert traced_peak(dtw._level, a, b, None, Metric.L2, flip, True) < 12 * 8640 + 6 * 8 * 8640


def test_scan_gives_up_partway_through_a_row(rng):
    # Row 1 of a 2 x 4,000 lattice: over the ramp one long chain from the left
    # wins; over the white noise the chains turn short.  Both equal the loop.
    a = [1.0, 2.0]
    b = np.linspace(0, 5, 1500).tolist() + rng.normal(size=2500).tolist()
    above = np.add.accumulate((a[0] - np.asarray(b)) ** 2)
    cost = (a[1] - np.asarray(b)) ** 2
    want, left = [], math.inf
    for j, (up, c) in enumerate(zip(above.tolist(), cost.tolist())):
        left = min(above[j - 1] if j else math.inf, up, left) + c
        want.append(left)
    assert dtw._scan(above[:2700], cost[:2700], 0, 2700).tolist() == want[:2700]
    assert dtw._scan(above, cost, 0, len(b)).tolist() == want
    for metric in Metric:
        assert_reference(a, b, 1, metric)


def _walk_every_cell(row, prev, lo_i, prev_lo, j, flip):
    """Where the walk back, entering a row at column ``j``, leaves it, one cell at a
    time by its tie rules: the column, and 1 when it leaves diagonally, else 0."""
    while j:
        k = j - prev_lo
        up = prev[k] if k < len(prev) else math.inf
        diag = prev[k - 1] if 0 < k <= len(prev) else math.inf
        left = row[j - lo_i - 1] if j > lo_i else math.inf
        if diag <= up and diag <= left:
            return j, 1
        if up < left or (up == left and not flip):
            return j, 0
        j -= 1
    return j, 0


@pytest.mark.parametrize("step_bytes", [0, 1])
@pytest.mark.parametrize("window", [10**9, 1], ids=["never-gives-up", "gives-up-at-once"])
def test_scan_and_span_settings_change_no_result(window, step_bytes):
    # `_scan`'s searches whose first window spans the row, or that give up on
    # every window and double it; the walk back reading `_steps`' bytes as
    # they are, or with every byte of every row checked against a walk one
    # cell at a time from each entry column: the same distances and paths
    steps = dtw._steps

    def checked_steps(row, prev, lo_i, prev_lo, flip):
        got = steps(row, prev, lo_i, prev_lo, flip)
        if not step_bytes:
            for j in range(lo_i, lo_i + len(row)):
                k = int(np.flatnonzero(got[: j - lo_i + 1])[-1])
                want = _walk_every_cell(row, prev, lo_i, prev_lo, j, flip)
                assert (lo_i + k, int(got[k] == 2)) == want
        return got

    with mock.patch.multiple(dtw, _SCAN_WINDOW=window, _steps=checked_steps):
        # seed 52's integer walks tie up and left where the diagonal loses
        for kind, shape, radius, seed in (("walk", (40, 700), 1, 3), ("noise", (700, 40), 2, 3),
                                          ("ties", (90, 90), 0, 3), ("flat", (30, 500), 1, 3),
                                          ("steps", (32, 190), 1, 52), ("steps", (190, 32), 1, 52)):
            a, b = _series(kind, shape[0], seed), _series(kind, shape[1], seed + 1)
            for metric in Metric:
                assert_reference(a, b, radius, metric)


def test_match_all_self_match():
    ion = mkvalues([1, 2, 3, 4], name="ION-A", system=SystemTag.ION)
    hist = mkvalues([1, 2, 3, 4], name="HIST-A", system=SystemTag.HIST)
    run = match_all([ion], [hist])
    assert len(run.results) == 1
    assert run.results[0].distance == 0
    assert run.results[0].rank == 1


def test_match_all_cross_product_ranks():
    ions = [mkvalues([float(i)] * 5, name=f"ION-{i}", system=SystemTag.ION) for i in range(2)]
    hists = [mkvalues([float(j)] * 5, name=f"HIST-{j}", system=SystemTag.HIST) for j in range(3)]
    run = match_all(ions, hists)
    assert [r.rank for r in run.results] == [1, 2, 3, 4, 5, 6]
    assert all(
        run.results[i].distance <= run.results[i + 1].distance
        for i in range(len(run.results) - 1)
    )


def test_match_all_ranks_true_counterpart_first(rng):
    base = np.cumsum(rng.normal(size=600))
    hist_x = mkvalues(base, name="HIST-X", system=SystemTag.HIST)
    hist_y = mkvalues(rng.normal(50, 5, 600), name="HIST-Y", system=SystemTag.HIST)
    ion_a = mkvalues(base[::20], name="ION-A", system=SystemTag.ION, cadence=20_000)
    recipe = SamplingRecipe(SamplingKind.STEP_SIZE, hist_step=20, ion_step=1)
    run = match_all([ion_a], [apply_recipe(s, recipe) for s in (hist_x, hist_y)])
    assert run.results[0].hist_id.name == "HIST-X"
    assert run.results[0].distance < run.results[1].distance


def test_match_all_tie_break_lexicographic():
    ion = mkvalues([0.0] * 4, name="ION-A", system=SystemTag.ION)
    hists = [
        mkvalues([0.0] * 4, name=name, system=SystemTag.HIST)
        for name in ("HIST-B", "HIST-A")
    ]
    run = match_all([ion], hists)
    assert [r.hist_id.name for r in run.results] == ["HIST-A", "HIST-B"]


def test_match_all_deterministic(rng):
    ions = [
        mkvalues(rng.normal(size=50), name=f"ION-{i}", system=SystemTag.ION) for i in range(2)
    ]
    hists = [
        mkvalues(rng.normal(size=80), name=f"HIST-{j}", system=SystemTag.HIST) for j in range(2)
    ]
    first = match_all(ions, hists)
    second = match_all(ions, hists)
    assert [(r.rank, r.ion_id, r.hist_id, r.distance) for r in first.results] == [
        (r.rank, r.ion_id, r.hist_id, r.distance) for r in second.results
    ]


def test_match_all_empty_partition():
    hist = mkvalues([1.0], name="HIST-A", system=SystemTag.HIST)
    with pytest.raises(EmptyPartition):
        match_all([], [hist])


def test_match_all_empty_sampled_series_named_in_error():
    ion = mkvalues([1.0, 2.0], name="ION-A", system=SystemTag.ION, start=0)
    hist = mkvalues([1.0, 2.0], name="HIST-B", system=SystemTag.HIST, start=10**9)
    # the window covers only the HIST side, leaving the ION sample empty
    recipe = SamplingRecipe(
        SamplingKind.DATE_RANGE, range_start=10**9, range_end=2 * 10**9
    )
    with pytest.raises(EmptyInput) as exc:
        match_all([apply_recipe(ion, recipe)], [apply_recipe(hist, recipe)])
    assert (exc.value.entry, str(exc.value)) == ("ION-A", "sampled series is empty")


def test_match_all_non_finite_value_names_series():
    ion = mkvalues([1.0, float("nan"), 2.0], name="ION-A", system=SystemTag.ION)
    hist = mkvalues([1.0, 2.0, 3.0], name="HIST-B", system=SystemTag.HIST)
    with pytest.raises(NonFiniteValue) as exc:
        match_all([ion], [hist])
    assert (exc.value.entry, exc.value.index) == ("ION-A", 1)


def test_match_all_z_normalize_aligns_scaled_series(rng):
    shape = np.sin(np.linspace(0, 6, 200))
    ion = mkvalues(shape, name="ION-A", system=SystemTag.ION)
    hist_scaled = mkvalues(1000 * shape + 500, name="HIST-S", system=SystemTag.HIST)
    hist_flat = mkvalues(np.zeros(200), name="HIST-F", system=SystemTag.HIST)
    run_raw = match_all([ion], [hist_scaled, hist_flat], normalize=False)
    run_norm = match_all([ion], [hist_scaled, hist_flat], normalize=True)
    assert run_raw.results[0].hist_id.name == "HIST-F"
    assert run_norm.results[0].hist_id.name == "HIST-S"


def per_pair_ranking(ions, hists, radius, metric, normalize):
    """The ranking as a `fastdtw` call per pair: (ion, hist, distance, rank, cells) tuples."""
    scored = []
    for ion in sorted(ions, key=lambda s: s.id.name):
        for hist in sorted(hists, key=lambda s: s.id.name):
            a, b = (z_normalize(s.v) if normalize else s.v for s in (ion, hist))
            r = fastdtw(a, b, radius, metric)
            scored.append((r.distance, ion.id.name, hist.id.name, r.cells_evaluated))
    scored.sort(key=lambda r: r[:3])
    return [(i, h, d, rank, c) for rank, (d, i, h, c) in enumerate(scored, start=1)]


# Lengths on both sides of the base case (16, or radius + 2), lopsided ones
# included; a few seeds per call, so identical series give exact ties.
_lengths = st.lists(st.sampled_from([1, 2, 3, 7, 16, 17, 18, 24, 33, 60, 300]), min_size=1, max_size=4)


@pytest.mark.parametrize("min_width", [0, dtw._WAVEFRONT_MIN_WIDTH], ids=["all-wavefront", "default"])
@settings(max_examples=40, deadline=None)
@given(
    _lengths,
    _lengths,
    st.sampled_from([0, 1, 2, 14, 15, 16, 40]),
    st.sampled_from(list(Metric)),
    st.booleans(),
    st.sampled_from(["walk", "ties", "flat"]),
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
)
def test_match_all_matches_per_pair_fastdtw(
    min_width, ion_lens, hist_lens, radius, metric, normalize, kind, seeds
):
    ions = [
        mkvalues(_series(kind, n, seeds[k]), name=f"ION-{k}", system=SystemTag.ION)
        for k, n in enumerate(ion_lens)
    ]
    hists = [
        mkvalues(_series(kind, n, seeds[4 + k]), name=f"HIST-{k}", system=SystemTag.HIST)
        for k, n in enumerate(hist_lens)
    ]
    with mock.patch.object(dtw, "_WAVEFRONT_MIN_WIDTH", min_width):
        run = match_all(ions, hists, radius, metric, normalize)
    got = [(r.ion_id.name, r.hist_id.name, r.distance, r.rank, r.cells_evaluated) for r in run.results]
    assert got == per_pair_ranking(ions, hists, radius, metric, normalize)


def test_match_all_batches_many_pairs_of_one_shape(rng):
    # 6 x 8 pairs of 24 x 400 clear the default width, so this is the wavefront
    ions = [mkvalues(np.cumsum(rng.normal(size=24)), name=f"ION-{k}", system=SystemTag.ION)
            for k in range(6)]
    hists = [mkvalues(np.cumsum(rng.normal(size=400)), name=f"HIST-{k}", system=SystemTag.HIST)
             for k in range(8)]
    assert 48 * 24 * 400 >= dtw._WAVEFRONT_MIN_WIDTH * (24 + 400 - 1)
    for metric in Metric:
        run = match_all(ions, hists, radius=24, metric=metric)
        got = [(r.ion_id.name, r.hist_id.name, r.distance, r.rank, r.cells_evaluated)
               for r in run.results]
        assert got == per_pair_ranking(ions, hists, 24, metric, False)
