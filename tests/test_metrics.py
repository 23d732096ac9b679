import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackdet.data import ScoreMatrix
from stackdet.metrics import (
    _eer_scan,
    det_points,
    save_det_points,
    stack_reduce,
    sweep_both,
)

# ---------------------------------------------------------------------------
# independent oracle: per-threshold indicator counting plus its own EER scan
# ---------------------------------------------------------------------------


def oracle_rates(y, h, truth, grid, mode):
    """Count misses/false alarms per threshold with explicit per-trial rules."""
    y = np.asarray(y, float)
    miss, fa = [], []
    bl = [i for i, t in enumerate(truth) if t >= 0]
    bg = [i for i, t in enumerate(truth) if t < 0]
    for th in grid:
        m = 0
        for i in bl:
            if y[i] < th:
                m += 1
            elif mode == "top_1" and y[i] > th and h[i] != truth[i]:
                m += 1
        f = sum(1 for i in bg if y[i] > th)
        miss.append(m / len(bl))
        fa.append(f / len(bg))
    return np.array(miss), np.array(fa)


def oracle_eer(grid, miss, fa):
    d = miss - fa
    for j in range(len(grid)):
        if d[j] == 0.0:
            return float(miss[j]), float(grid[j])
        if j + 1 < len(grid) and (d[j] < 0 < d[j + 1] or d[j] > 0 > d[j + 1]):
            t = d[j] / (d[j] - d[j + 1])
            value = 0.5 * (
                (miss[j] + t * (miss[j + 1] - miss[j]))
                + (fa[j] + t * (fa[j + 1] - fa[j]))
            )
            return float(value), float(grid[j] + t * (grid[j + 1] - grid[j]))
    return None, None


def oracle_eer_for(y, h, truth, mode):
    grid = np.concatenate(([-np.inf], np.unique(y), [np.inf]))
    miss, fa = oracle_rates(y, h, truth, grid, mode)
    return oracle_eer(grid, miss, fa)[0]


def make_trials(bl_scores, bg_scores):
    """(y*, h*, truth) of confusion-free blacklist/background trials."""
    y = np.concatenate([np.asarray(bl_scores, float), np.asarray(bg_scores, float)])
    h = np.zeros(y.size, dtype=np.int64)
    truth = np.array([0] * len(bl_scores) + [-1] * len(bg_scores), dtype=np.int64)
    return y, h, truth


def sweep_top_s(y, h, truth):
    return sweep_both(y, h, truth)[0]


def random_instance(rng, n_trials, n_detectors):
    scores = rng.standard_normal((n_trials, n_detectors))
    matrix = ScoreMatrix(
        [f"t{i}" for i in range(n_trials)],
        [f"d{j}" for j in range(n_detectors)],
        scores,
    )
    y, h = stack_reduce(matrix)
    truth = []
    for i in range(n_trials):
        if rng.uniform() < 0.5:
            truth.append(-1)
        else:
            truth.append(int(rng.integers(n_detectors)))
    if all(t < 0 for t in truth):
        truth[0] = 0
    if all(t >= 0 for t in truth):
        truth[0] = -1
    return y, h, np.array(truth, dtype=np.int64)


class TestStackReduce:
    def test_max_and_argmax(self):
        m = ScoreMatrix(["t"], ["d1", "d2"], [[0.5, 0.9]])
        (y,), (h,) = stack_reduce(m)
        assert y == 0.9
        assert h == 1

    def test_tie_breaks_to_lowest_index(self):
        m = ScoreMatrix(["t"], ["d1", "d2"], [[0.3, 0.3]])
        (y,), (h,) = stack_reduce(m)
        assert (y, h) == (0.3, 0)

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal((200, 50))
        m = ScoreMatrix(
            [f"t{i}" for i in range(200)], [f"d{j}" for j in range(50)], scores
        )
        y, h = stack_reduce(m)
        for i in range(200):
            best, arg = -np.inf, -1
            for j in range(50):
                if scores[i, j] > best:
                    best, arg = scores[i, j], j
            assert y[i] == best
            assert h[i] == arg

    def test_empty_matrix_rejected(self):
        m = ScoreMatrix([], ["d"], np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty score matrix"):
            stack_reduce(m)


class TestSweepTopS:
    def test_separable_scores_give_zero_eer(self):
        y, h, truth = make_trials([0.9], [0.1])
        assert sweep_top_s(y, h, truth).eer == 0.0

    def test_four_by_four_example(self):
        # frozen from the enumeration oracle: exact tie (0.25, 0.25) at 0.4
        y, h, truth = make_trials([0.9, 0.8, 0.7, 0.3], [0.6, 0.4, 0.2, 0.1])
        assert oracle_eer_for(y, [0] * 8, truth, "top_s") == 0.25
        report = sweep_top_s(y, h, truth)
        assert report.eer == 0.25
        assert report.eer_threshold == 0.4

    def test_identical_score_sets(self):
        # Enumeration oracle value for equal blacklist/background score sets
        # {0.1..0.9} under strict tie handling: the rates tie at (4/9, 4/9)
        # when the threshold sits on the median score.
        vals = [round(0.1 * k, 1) for k in range(1, 10)]
        y, h, truth = make_trials(vals, vals)
        expected = oracle_eer_for(y, [0] * len(y), truth, "top_s")
        assert abs(expected - 4.0 / 9.0) < 1e-15
        assert abs(sweep_top_s(y, h, truth).eer - expected) < 1e-9

    def test_symmetry_under_negation_and_relabel(self):
        rng = np.random.default_rng(99)
        bl = rng.standard_normal(37)
        bg = rng.standard_normal(61)
        a = sweep_top_s(*make_trials(bl, bg)).eer
        b = sweep_top_s(*make_trials(-bg, -bl)).eer
        assert abs(a - b) < 1e-12

    def test_rates_at_minus_infinity(self):
        y, h, truth = make_trials([0.5, 0.7], [0.2])
        report = sweep_top_s(y, h, truth)
        assert report.thetas[0] == -np.inf
        assert report.p_miss[0] == 0.0
        assert report.p_fa[0] == 1.0
        assert report.thetas[-1] == np.inf
        assert report.p_miss[-1] == 1.0
        assert report.p_fa[-1] == 0.0

    def test_monotone_rates(self):
        rng = np.random.default_rng(3)
        y, h, truth = random_instance(rng, 400, 7)
        report = sweep_top_s(y, h, truth)
        assert (np.diff(report.p_miss) >= 0).all()
        assert (np.diff(report.p_fa) <= 0).all()

    def test_requires_both_trial_kinds(self):
        with pytest.raises(ValueError, match="no background trials"):
            sweep_top_s([0.5], [0], [0])
        with pytest.raises(ValueError, match="no blacklist trials"):
            sweep_top_s([0.5], [0], [-1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            sweep_top_s([0.1], [0], [])

    @pytest.mark.parametrize(
        "trials, thresholds, message",
        [
            (([0.5, 0.2], [0, 0], [0, -1]), [], "empty threshold list"),
            (([0.5, 0.2], [0, 0], [0, -1]), [0.3, float("nan")], "NaN threshold"),
            (([], [], []), None, "no trials"),
            (([0.5, 0.2], [0, 0], [0, -2]), None, "negative truth index"),
        ],
    )
    def test_bad_arguments_are_named(self, trials, thresholds, message):
        with pytest.raises(ValueError, match=message):
            sweep_both(*trials, thresholds)


class TestSweepTop1:
    def test_confusion_micro_case(self):
        # blacklist trial of detector 0 whose best detector is 1: at a
        # threshold below y* the Top-S detector accepts, the Top-1 detector
        # counts a confusion miss
        top_s, top_1 = sweep_both([0.9, 0.1], [1, 0], [0, -1], thresholds=[0.7])
        assert top_s.p_miss[0] == 0.0
        assert top_1.p_miss[0] == 1.0
        assert top_s.p_fa[0] == 0.0
        assert top_1.p_fa[0] == 0.0

    def test_equals_top_s_without_confusion(self):
        rng = np.random.default_rng(5)
        bl = rng.uniform(-1, 1, 25)
        bg = rng.uniform(-1, 1, 31)
        y, h, truth = make_trials(bl, bg)  # every h_star matches truth
        top_s, top_1 = sweep_both(y, h, truth)
        assert np.array_equal(top_s.p_miss, top_1.p_miss)
        assert top_s.eer == top_1.eer

    def test_miss_at_minus_infinity_is_confusion_rate(self):
        y = [0.5, 0.6, 0.2]  # confused, correct, background
        h = [1, 0, 0]
        truth = [0, 0, -1]
        report = sweep_both(y, h, truth)[1]
        assert report.thetas[0] == -np.inf
        assert report.p_miss[0] == 0.5
        assert report.p_fa[0] == 1.0

    def test_matches_per_trial_oracle_everywhere(self):
        rng = np.random.default_rng(516)
        y, h, truth = random_instance(rng, 500, 20)
        top_s, top_1 = sweep_both(y, h, truth)
        for report, mode in ((top_s, "top_s"), (top_1, "top_1")):
            miss, fa = oracle_rates(y, h, truth, report.thetas, mode)
            assert np.array_equal(report.p_miss, miss)
            assert np.array_equal(report.p_fa, fa)

    def test_dominance_and_shared_false_alarms(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            y, h, truth = random_instance(rng, 300, 9)
            top_s, top_1 = sweep_both(y, h, truth)
            assert (top_1.p_miss >= top_s.p_miss).all()
            assert np.array_equal(top_1.p_fa, top_s.p_fa)
            assert top_1.eer >= top_s.eer - 1e-12
            assert (np.diff(top_1.p_fa) <= 0).all()


class TestEerFromPoints:
    def test_exact_tie_returned_directly(self):
        theta = np.array([0.1, 0.4, 0.9])
        p_miss = np.array([0.0, 0.25, 1.0])
        p_fa = np.array([0.9, 0.25, 0.0])
        assert _eer_scan(theta, p_miss, p_fa) == (0.25, 0.4)

    def test_interpolated_crossing(self):
        thetas = np.array([0.0, 1.0, 2.0, 3.0])
        p_miss = np.array([0.0, 0.4, 0.6, 1.0])
        p_fa = np.array([1.0, 0.6, 0.4, 0.0])
        eer, theta = _eer_scan(thetas, p_miss, p_fa)
        assert abs(eer - 0.5) < 1e-12
        assert abs(theta - 1.5) < 1e-12

    def test_matches_sweep_reports(self):
        rng = np.random.default_rng(8)
        y, h, truth = random_instance(rng, 150, 5)
        report = sweep_top_s(y, h, truth)
        eer, theta = _eer_scan(report.thetas, report.p_miss, report.p_fa)
        assert eer == report.eer
        assert theta == report.eer_threshold


class TestRankInvariance:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_eer_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        y, h, truth = random_instance(rng, 80, 4)
        transformed = np.array([math.atan(v) * 2.0 + v for v in y])
        for a, b in zip(sweep_both(y, h, truth), sweep_both(transformed, h, truth)):
            assert a.eer == b.eer
            assert np.array_equal(a.p_miss, b.p_miss)
            assert np.array_equal(a.p_fa, b.p_fa)


class TestDetPoints:
    def small_report(self):
        y, h, truth = make_trials([0.9, 0.7], [0.2])
        return sweep_top_s(y, h, truth)

    def test_small_report_returned_whole(self):
        report = self.small_report()
        pts = det_points(report, 10)
        assert len(pts) == len(report.thetas)
        # one float64 row per point, in the CSV's column order
        assert pts.dtype == np.float64
        assert np.array_equal(pts, np.column_stack((report.thetas, report.p_fa, report.p_miss)))

    def test_downsampled_keeps_endpoints_and_eer(self):
        rng = np.random.default_rng(31)
        y, h, truth = make_trials(
            rng.standard_normal(5000), rng.standard_normal(5000) - 1.0
        )
        report = sweep_top_s(y, h, truth)
        pts = det_points(report, 100)
        assert len(pts) <= 100
        assert pts[0, 0] == report.thetas[0]
        assert pts[-1, 0] == report.thetas[-1]
        thetas = list(pts[:, 0])
        finite = [t for t in thetas if math.isfinite(t)]
        below = max(t for t in finite if t <= report.eer_threshold)
        above = min(t for t in finite if t >= report.eer_threshold)
        assert below in thetas and above in thetas

    def test_resampling_error_bound(self):
        rng = np.random.default_rng(77)
        y, h, truth = make_trials(
            rng.standard_normal(5000) + 0.5, rng.standard_normal(5000)
        )
        for report in sweep_both(y, h, truth):
            pts = det_points(report, 501)
            xs = pts[:, 0]
            keep = np.isfinite(xs)
            miss = np.interp(report.thetas[1:-1], xs[keep], pts[keep, 2])
            fa = np.interp(report.thetas[1:-1], xs[keep], pts[keep, 1])
            assert np.abs(miss - report.p_miss[1:-1]).max() < 0.01
            assert np.abs(fa - report.p_fa[1:-1]).max() < 0.01

    def test_max_points_below_two_rejected(self):
        with pytest.raises(ValueError, match="max_points"):
            det_points(self.small_report(), 1)

    def test_csv_format(self, tmp_path):
        pts = np.array([[-np.inf, 1.0, 0.0], [0.5, 0.125, 0.25], [np.inf, 0.0, 1.0]])
        save_det_points(pts, tmp_path / "det.csv")
        assert (tmp_path / "det.csv").read_bytes() == (
            b"theta,p_fa,p_miss\n-inf,1.0,0.0\n0.5,0.125,0.25\ninf,0.0,1.0\n"
        )


# ---------------------------------------------------------------------------
# the per-threshold loops that `_eer_scan` and `det_points` replaced, kept as
# references that the array versions must equal bit for bit
# ---------------------------------------------------------------------------


def loop_eer_scan(theta, p_miss, p_fa):
    d = p_miss - p_fa
    n = len(theta)
    for j in range(n):
        if d[j] == 0.0:
            return float(p_miss[j]), float(theta[j])
        if j + 1 < n and (d[j] < 0.0 < d[j + 1] or d[j] > 0.0 > d[j + 1]):
            t = d[j] / (d[j] - d[j + 1])
            miss = p_miss[j] + t * (p_miss[j + 1] - p_miss[j])
            fa = p_fa[j] + t * (p_fa[j + 1] - p_fa[j])
            if math.isinf(theta[j]):
                th = float(theta[j + 1])
            elif math.isinf(theta[j + 1]):
                th = float(theta[j])
            else:
                th = float(theta[j] + t * (theta[j + 1] - theta[j]))
            return float(0.5 * (miss + fa)), th
    return None, None


def loop_det_points(report, max_points):
    n = len(report.thetas)
    if n <= max_points:
        idx = list(range(n))
    else:
        chosen = {0, n - 1}
        if report.eer_threshold is not None and len(chosen) + 2 <= max_points:
            j = int(np.searchsorted(report.thetas, report.eer_threshold, side="right"))
            chosen.update({max(0, min(j - 1, n - 1)), max(0, min(j, n - 1))})
        steps = np.abs(np.diff(report.p_miss)) + np.abs(np.diff(report.p_fa))
        u = np.concatenate(([0.0], np.cumsum(steps)))
        targets = np.linspace(0.0, u[-1], max_points - len(chosen))
        for j in np.searchsorted(u, targets):
            if len(chosen) >= max_points:
                break
            chosen.add(int(min(j, n - 1)))
        idx = sorted(chosen)
    return np.column_stack((report.thetas[idx], report.p_fa[idx], report.p_miss[idx]))


class TestArrayScansEqualLoops:
    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 700),
        # 0: continuous scores; otherwise scores fall on this many tied levels
        levels=st.sampled_from([0, 1, 2, 3, 7, 40]),
        n_thresholds=st.sampled_from([None, 1, 2, 5, 30]),
    )
    def test_eer_and_det_points_equal_the_loops(self, seed, n, levels, n_thresholds):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        if levels:
            y = np.round(y * levels) / levels
        h = rng.integers(0, 3, n)
        truth = np.where(rng.uniform(size=n) < 0.5, -1, rng.integers(0, 3, n))
        truth[:2] = [-1, 0]
        thresholds = None
        if n_thresholds is not None:
            # observed scores, fresh values and the sentinels, with repeats
            pool = np.concatenate((y, rng.standard_normal(n), [-np.inf, np.inf]))
            thresholds = rng.choice(pool, n_thresholds)
        for report in sweep_both(y, h, truth, thresholds):
            expected = loop_eer_scan(report.thetas, report.p_miss, report.p_fa)
            assert _eer_scan(report.thetas, report.p_miss, report.p_fa) == expected
            assert (report.eer, report.eer_threshold) == expected
            for max_points in (2, 3, 4, 5, 17, 512):
                got = det_points(report, max_points)
                want = loop_det_points(report, max_points)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestReportSerialization:
    def test_to_dict_is_json_ready(self):
        y, h, truth = make_trials([0.9, 0.7], [0.2])
        report = sweep_top_s(y, h, truth)
        payload = report.to_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["mode"] == "top_s"
        assert back["counts"] == [2, 1]
        assert back["operating_points"][0]["theta"] == "-inf"
        assert back["operating_points"][-1]["theta"] == "inf"
        assert back["eer"] == report.eer
