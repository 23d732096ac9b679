"""Top-S / Top-1 stack-detector sweeps, EER, and DET curves.

The stack score of a trial is the maximum detector score y* together with
the index h* of the first detector attaining it.  The Top-S detector
decides blacklist membership only; the Top-1 detector additionally counts a
confusion (accepted blacklist trial whose best detector is not the true
speaker) as a miss.

Tie semantics: a trial whose y* equals the threshold counts as neither a
miss nor a false alarm, and a confusion at exactly the threshold counts as
neither miss term.  The default threshold grid is the distinct observed y*
values plus -inf/+inf sentinels, which samples every level of the empirical
rate staircases.  Because of the strict inequalities, the Top-1 miss rate
can dip at thresholds equal to a confused trial's score; the Top-S miss
rate and the shared false-alarm rate are monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data
from .data import ScoreMatrix

TOP_S = "top_s"
TOP_1 = "top_1"


@dataclass(frozen=True, eq=False)
class DetectorReport:
    """One sweep: per-threshold rates, the EER operating point, and counts."""

    mode: str
    thetas: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray
    eer: float | None
    eer_threshold: float | None
    counts: tuple[int, int]  # (#blacklist trials, #background trials)

    def to_dict(self) -> dict:
        """JSON-ready dict; non-finite thresholds become 'inf'/'-inf' strings."""

        def enc(x):
            if x is None:
                return None
            x = float(x)
            if math.isfinite(x):
                return x
            return "inf" if x > 0 else "-inf"

        return {
            "mode": self.mode,
            "operating_points": [
                {"theta": enc(t), "p_miss": m, "p_fa": f}
                for t, m, f in zip(self.thetas, self.p_miss.tolist(), self.p_fa.tolist())
            ],
            "eer": enc(self.eer),
            "eer_threshold": enc(self.eer_threshold),
            "counts": [int(self.counts[0]), int(self.counts[1])],
        }


def stack_reduce(matrix: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per trial: the maximum detector score and the lowest index attaining it.

    Returns ``(y_star, h_star)`` arrays; ``bank.stack_scores`` reproduces them blockwise.
    """
    if matrix.n_trials < 1:
        raise ValueError("empty score matrix")
    scores = matrix.scores
    return scores.max(axis=1), scores.argmax(axis=1)


def _grid(y: np.ndarray, thresholds) -> np.ndarray:
    if thresholds is None:
        return np.concatenate(([-np.inf], np.unique(y), [np.inf]))
    t = np.unique(np.asarray(thresholds, dtype=np.float64))
    if t.size == 0:
        raise ValueError("empty threshold list")
    if np.isnan(t).any():
        raise ValueError("NaN threshold")
    return t


def _eer_scan(theta, p_miss, p_fa):
    """First point where the rates tie, or the interpolated first crossing.

    Rates are interpolated linearly between the bracketing points; when the
    bracket touches a sentinel, the reported threshold is clamped to the
    finite end.  Returns (None, None) if the rates never meet (possible only
    with explicit threshold lists).
    """
    d = p_miss - p_fa
    sign = np.sign(d)
    # where the rates tie, or cross strictly before the next point
    hits = np.flatnonzero((sign == 0) | (sign * np.append(sign[1:], 0.0) < 0))
    if not hits.size:
        return None, None
    j = int(hits[0])
    if d[j] == 0.0:
        return float(p_miss[j]), float(theta[j])
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


def sweep_both(
    y_star, h_star, truth, thresholds=None
) -> tuple[DetectorReport, DetectorReport]:
    """Top-S and Top-1 sweeps from one counting pass.

    ``y_star`` and ``h_star`` are the trials' stack scores; ``truth`` holds
    each trial's true detector index, or -1 for a background trial.  The
    false-alarm column is computed once and shared, so the two reports
    agree on it exactly.
    """
    y = np.asarray(y_star, dtype=np.float64)
    h = np.asarray(h_star, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if y.ndim != 1 or h.shape != y.shape or truth.shape != y.shape:
        raise ValueError("stack scores and labels differ in length")
    if not y.size:
        raise ValueError("no trials")
    if (truth < -1).any():
        raise ValueError("negative truth index")
    is_bl = truth >= 0
    n_bl = int(is_bl.sum())
    n_bg = y.size - n_bl
    if n_bl == 0:
        raise ValueError("no blacklist trials")
    if n_bg == 0:
        raise ValueError("no background trials")
    confused = is_bl & (h != truth)
    grid = _grid(y, thresholds)

    bl_sorted = np.sort(y[is_bl])
    bg_sorted = np.sort(y[~is_bl])
    cf_sorted = np.sort(y[confused])
    rejected = np.searchsorted(bl_sorted, grid, side="left")
    fa_count = bg_sorted.size - np.searchsorted(bg_sorted, grid, side="right")
    conf_above = cf_sorted.size - np.searchsorted(cf_sorted, grid, side="right")

    p_fa = fa_count / n_bg
    p_fa.flags.writeable = False
    grid.flags.writeable = False
    counts = (n_bl, n_bg)

    reports = []
    for mode, miss_count in ((TOP_S, rejected), (TOP_1, rejected + conf_above)):
        p_miss = miss_count / n_bl
        p_miss.flags.writeable = False
        eer, th = _eer_scan(grid, p_miss, p_fa)
        reports.append(DetectorReport(mode, grid, p_miss, p_fa, eer, th, counts))
    return reports[0], reports[1]


def det_points(report: DetectorReport, max_points: int) -> np.ndarray:
    """Down-sample a sweep to at most max_points ``theta, p_fa, p_miss`` rows, an (m, 3) array.

    Points are chosen at even steps of the combined rate variation, so the
    staircase is sampled densely where it moves.  Endpoints are always kept;
    the EER-adjacent points are kept when the budget allows.
    """
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    n = len(report.thetas)
    idx = slice(None)
    if n > max_points:
        fixed = {0, n - 1}
        if report.eer_threshold is not None and len(fixed) + 2 <= max_points:
            j = int(np.searchsorted(report.thetas, report.eer_threshold, side="right"))
            fixed.update({max(0, min(j - 1, n - 1)), max(0, min(j, n - 1))})
        steps = np.abs(np.diff(report.p_miss)) + np.abs(np.diff(report.p_fa))
        u = np.concatenate(([0.0], np.cumsum(steps)))
        # one target per free slot, and each target adds at most one index
        targets = np.linspace(0.0, u[-1], max_points - len(fixed))
        idx = np.union1d(list(fixed), np.minimum(np.searchsorted(u, targets), n - 1))
    return np.column_stack((report.thetas[idx], report.p_fa[idx], report.p_miss[idx]))


def save_det_points(points: np.ndarray, path) -> None:
    """Write the ``det_points`` rows as a CSV table ``theta,p_fa,p_miss``."""
    data.save_table(path, ("theta", "p_fa", "p_miss"), (), [points])
