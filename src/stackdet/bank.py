"""Detector-bank enrollment, cosine scoring, M-Norm, and blockwise stack scores.

A detector is one enrolled blacklist speaker: the unit-length mean direction
of that speaker's length-normalized utterances.  Raw scores are cosines of
length-normalized trials against detector directions.  M-Norm standardizes
each detector's scores with the mean and population standard deviation of
its scores over a cohort of blacklist utterances.  ``MNormStats.for_mode``
is the one place that knows the normalization modes: it resolves a mode to
the statistics of its formula, or to None for no normalization, and every
scorer applies ``(y - mu) / sigma`` whenever its statistics are not None.

Every scorer runs over one loop, ``score_blocks``, one block at a time: it
length-normalizes each fixed trial span and scores it, so no normalized copy
of a whole set is made.  It feeds the stack scores of ``eval`` and
``simulate``, the score CSV of ``score``, and the cohort statistics, which
sum score rows block by block in numpy's row order.  ``score_all`` alone
builds the dense trials x detectors matrix; with ``apply_mnorm``,
``mnorm_stats_from_scores`` and ``metrics.stack_reduce`` it is the reference
the blockwise paths are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .data import EmbeddingSet, ScoreMatrix, _float_array, _store, _unique_ids

ZERO_NORM = 1e-15
SIGMA_FLOOR = 1e-12
NORM_MODES = ("full", "shift", "scale", "none")

# Fixed trial block size of every scorer: blocks split only over trials at
# fixed boundaries, so all scorers run the same products and agree bytewise.
_CHUNK = 2048


def _normalize_rows(mat: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    # linalg.norm's own operations with the squares and quotient in one buffer; a
    # finite row can have a norm past the float range: an error, not a warning
    with np.errstate(over="ignore"):
        out = np.square(mat)
        norms = np.sqrt(np.add.reduce(out, axis=1))
    bad = np.flatnonzero((norms < ZERO_NORM) | np.isinf(norms))
    if bad.size:
        i = bad[0]
        what = "zero vector" if norms[i] < ZERO_NORM else "vector norm overflows"
        raise ValueError(f"{what} for utterance {ids[i]!r}")
    return np.divide(mat, norms[:, None], out=out)


@dataclass(frozen=True, eq=False)
class MNormStats:
    """Per-detector cohort score mean/std (population variance) and cohort size."""

    mu: np.ndarray
    sigma: np.ndarray
    cohort_size: int

    def __post_init__(self) -> None:
        mu = _float_array(self.mu, 1, "mu")
        sigma = _float_array(self.sigma, 1, "sigma")
        if sigma.shape != mu.shape:
            raise ValueError("mu and sigma must be 1-D arrays of equal length")
        if (sigma <= 0).any():
            raise ValueError("sigma must be positive for every detector")
        if self.cohort_size < 1:
            raise ValueError("cohort_size must be positive")
        _store(self, mu=mu, sigma=sigma)

    def __len__(self) -> int:
        return self.mu.shape[0]

    def for_mode(self, mode: str) -> "MNormStats | None":
        """The statistics whose ``(y - mu) / sigma`` is the M-Norm of ``mode``.

        ``full`` is these statistics, ``shift`` keeps mu with sigma = 1,
        ``scale`` keeps sigma with mu = 0, and ``none`` is None: no M-Norm.
        ``y - 0`` and ``y / 1`` are exact, so each mode gives the bytes of
        its own formula.
        """
        if mode not in NORM_MODES:
            raise ValueError(f"normalization mode must be one of {NORM_MODES}")
        if mode == "none":
            return None
        if mode == "shift":
            return MNormStats(self.mu, np.ones_like(self.mu), self.cohort_size)
        if mode == "scale":
            return MNormStats(np.zeros_like(self.sigma), self.sigma, self.cohort_size)
        return self


@dataclass(frozen=True, eq=False)
class DetectorBank:
    """Ordered blacklist speaker models; row i of `directions` is detector i."""

    speaker_ids: tuple[str, ...]
    directions: np.ndarray  # (S, D), unit-norm rows

    def __post_init__(self) -> None:
        directions = _float_array(self.directions, 2, "directions")
        if len(directions) < 1:
            raise ValueError("a detector bank needs at least one model")
        ids = _unique_ids(self.speaker_ids, len(directions), "speaker id")
        with np.errstate(over="ignore"):  # an overflowing norm is not unit length
            norms = np.linalg.norm(directions, axis=1)
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if off.size:
            raise ValueError(
                f"model for speaker {ids[off[0]]!r} is not unit length"
            )
        _store(self, speaker_ids=ids, directions=directions)

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    def __len__(self) -> int:
        return self.directions.shape[0]


def enroll(pooled: EmbeddingSet) -> DetectorBank:
    """Build one unit-direction model per labeled speaker.

    Utterances are length-normalized, averaged per speaker, and the mean
    renormalized.  Model order is first appearance in ``pooled``.
    """
    if len(pooled) == 0:
        raise ValueError("no utterances to enroll")
    for utt, spk in zip(pooled.utterance_ids, pooled.speaker_ids):
        if spk is None:
            raise ValueError(f"utterance {utt!r} is unlabeled and cannot be enrolled")
    normalized = _normalize_rows(pooled.vectors, pooled.utterance_ids)
    groups: dict[str, list[int]] = {}
    for i, spk in enumerate(pooled.speaker_ids):
        groups.setdefault(spk, []).append(i)
    directions = np.empty((len(groups), pooled.dimension))
    for row, (spk, idx) in enumerate(groups.items()):
        mean = normalized[idx].mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm < ZERO_NORM:
            raise ValueError(f"speaker {spk!r}: utterances cancel to a zero mean")
        directions[row] = mean / norm
    return DetectorBank(tuple(groups), directions)


def score_blocks(
    bank: DetectorBank,
    trials: EmbeddingSet,
    stats: MNormStats | None = None,
) -> Iterator[np.ndarray]:
    """Yield ``score_all(bank, trials)`` after M-Norm with ``stats`` (if not None) in row blocks.

    Each block scores one fixed ``_CHUNK``-row trial span, length-normalized
    when the block is asked for; M-Norm runs in place and a non-finite result
    raises.  No trials give one empty block.  A caller that drops each block
    before asking for the next holds one at a time; it counts row offsets by
    hand, as the tuple ``enumerate`` or ``zip`` reuses keeps a block alive.
    """
    if trials.dimension != bank.dimension:
        raise ValueError(
            f"dimension mismatch: trials {trials.dimension} vs bank {bank.dimension}"
        )
    _check_mnorm(stats, len(bank))

    def blocks() -> Iterator[np.ndarray]:
        for a in range(0, max(len(trials), 1), _CHUNK):
            rows = slice(a, a + _CHUNK)
            # no name holds the probes: they are freed before the block is yielded
            block = (
                _normalize_rows(trials.vectors[rows], trials.utterance_ids[rows])
                @ bank.directions.T
            )
            # cosines of finite unit vectors are finite; only M-Norm can overflow
            if stats is not None:
                _mnorm(block, stats, out=block)
                if not np.isfinite(block).all():
                    raise ValueError("scores contain non-finite values")
            yield block
            del block

    return blocks()


def score_all(bank: DetectorBank, trials: EmbeddingSet) -> ScoreMatrix:
    """Cosine of every length-normalized trial against every detector.

    Scored in the blocks of ``score_blocks``, as every scorer is, so all agree on any BLAS.
    """
    out = np.empty((len(trials), len(bank)))
    b = 0
    for block in score_blocks(bank, trials):
        a, b = b, b + len(block)
        out[a:b] = block
        del block
    return ScoreMatrix(trials.utterance_ids, bank.speaker_ids, out)


def _corner_stats(
    bank: DetectorBank, cohort: EmbeddingSet, corners: Sequence[tuple[int, int]]
) -> list[MNormStats]:
    """M-Norm stats of each leading corner ``scores[:n, :k]`` of the cohort x bank scores.

    The cohort is scored span by span, twice: pass 1 sums rows for mu, pass 2
    sums ``(row - mu) ** 2`` for sigma.  Both add one row at a time in row
    order, which is how numpy sums axis 0 of two or more columns, so the bytes
    equal ``mnorm_stats_from_scores`` of the dense matrix.  numpy sums a single
    column pairwise instead, so one-column corners keep their n floats and
    reduce them with the dense lines.  Only one block is held at a time, and
    no rows past the largest n are scored.
    """
    if min(n for n, _ in corners) < 1:
        raise ValueError("empty cohort")
    n_max = max(n for n, _ in corners)
    k_max = max(k for _, k in corners)
    ends: dict[int, list[int]] = {}
    for c, (n, _) in enumerate(corners):
        ends.setdefault(n, []).append(c)
    total = np.zeros(k_max)
    column = np.empty((n_max, 1))
    mus: dict[int, np.ndarray] = {}
    j = 0
    for block in score_blocks(bank, cohort):
        for row in block[: n_max - j, :k_max]:
            total += row
            column[j] = row[0]
            j += 1
            for c in ends.get(j, ()):
                k = corners[c][1]
                mus[c] = column[:j].mean(axis=0) if k == 1 else total[:k] / j
        del block, row  # a row view would keep its block alive through the next GEMM
        if j == n_max:
            break

    wide = {c: np.zeros(k) for c, (_, k) in enumerate(corners) if k > 1}
    n_wide = max((corners[c][0] for c in wide), default=0)
    j = 0
    for block in score_blocks(bank, cohort) if wide else ():
        for row in block[: n_wide - j]:
            for c, squares in wide.items():
                n, k = corners[c]
                if j < n:
                    squares += (row[:k] - mus[c]) ** 2
            j += 1
        del block, row
        if j == n_wide:
            break

    stats = []
    for c, (n, k) in enumerate(corners):
        if k == 1:
            sigma = np.sqrt(np.mean((column[:n] - mus[c]) ** 2, axis=0))
        else:
            sigma = np.sqrt(wide[c] / n)
        stats.append(_spread_stats(mus[c], sigma, n, bank.speaker_ids))
    return stats


def _spread_stats(mu: np.ndarray, sigma: np.ndarray, n: int, ids: Sequence[str]) -> MNormStats:
    """``MNormStats(mu, sigma, n)``, naming the first detector whose scores do not spread."""
    low = np.flatnonzero(sigma < SIGMA_FLOOR)
    if low.size:
        raise ValueError(
            f"degenerate cohort: detector {ids[low[0]]!r}"
            f" has no score spread ({low.size} detector(s) affected)"
        )
    return MNormStats(mu, sigma, n)


def mnorm_stats_from_scores(matrix: ScoreMatrix) -> MNormStats:
    """Mean and population std of each detector's scores: the dense reference."""
    scores = matrix.scores
    if len(scores) == 0:
        raise ValueError("empty cohort")
    mu = scores.mean(axis=0)
    sigma = np.sqrt(np.mean((scores - mu) ** 2, axis=0))
    return _spread_stats(mu, sigma, len(scores), matrix.detector_ids)


def compute_mnorm_stats(bank: DetectorBank, cohort: EmbeddingSet) -> MNormStats:
    """Score the blacklist cohort against the bank and standardize per detector.

    Every cohort utterance must be labeled with an enrolled speaker; the sum
    runs over all of them, including each detector's own utterances.  The
    cohort is scored block by block, never as one cohort x detectors matrix.
    """
    enrolled = set(bank.speaker_ids)
    for utt, spk in zip(cohort.utterance_ids, cohort.speaker_ids):
        if spk is None:
            raise ValueError(f"cohort utterance {utt!r} is unlabeled")
        if spk not in enrolled:
            raise ValueError(
                f"cohort utterance {utt!r} belongs to {spk!r}, not an enrolled speaker"
            )
    (stats,) = _corner_stats(bank, cohort, [(len(cohort), len(bank))])
    return stats


def _check_mnorm(stats: MNormStats | None, n_detectors: int) -> None:
    if stats is not None and len(stats) != n_detectors:
        raise ValueError(
            f"size mismatch: {len(stats)} stats vs {n_detectors} detectors"
        )


def _mnorm(scores: np.ndarray, stats: MNormStats, out: np.ndarray | None = None) -> np.ndarray:
    """``(scores - mu) / sigma`` into ``out`` (a new array when None; may be ``scores``)."""
    out = np.subtract(scores, stats.mu, out=out)
    return np.divide(out, stats.sigma, out=out)


def apply_mnorm(
    matrix: ScoreMatrix, stats: MNormStats | None, mode: str = "full"
) -> ScoreMatrix:
    """Standardize each score column with ``stats.for_mode(mode)``; ``none`` returns ``matrix``."""
    if mode == "none":
        return matrix
    if stats is None:
        raise ValueError(f"mode {mode!r} requires normalization statistics")
    stats = stats.for_mode(mode)
    _check_mnorm(stats, matrix.n_detectors)
    return ScoreMatrix(matrix.trial_ids, matrix.detector_ids, _mnorm(matrix.scores, stats))


def stack_scores(
    bank: DetectorBank,
    trials: EmbeddingSet,
    sizes: Sequence[int],
    stats: Sequence[MNormStats | None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack scores of every trial on the first k detectors, for each k in sizes.

    Returns ``(y_star, h_star)``, each ``(len(sizes), len(trials))``: the best
    score over detectors ``0..sizes[i]-1`` after M-Norm with ``stats[i]``
    (no M-Norm where it is None) and the lowest index attaining it.
    The bytes equal ``score_all`` -> ``apply_mnorm`` -> ``stack_reduce``, but
    only one ``_CHUNK``-row trial block is held at a time.
    """
    sizes = [int(k) for k in sizes]
    if not sizes or not all(1 <= k <= len(bank) for k in sizes):
        raise ValueError(f"sizes must lie in 1..{len(bank)}, got {sizes}")
    stats = [None] * len(sizes) if stats is None else list(stats)
    if len(stats) != len(sizes):
        raise ValueError(f"{len(stats)} sets of normalization statistics for {len(sizes)} sizes")
    for k, st in zip(sizes, stats):
        _check_mnorm(st, k)
    y_star = np.empty((len(sizes), len(trials)))
    h_star = np.empty((len(sizes), len(trials)), dtype=np.int64)
    b = 0
    for block in score_blocks(bank, trials):
        a, b = b, b + len(block)
        for i, (k, st) in enumerate(zip(sizes, stats)):
            scores = block[:, :k]
            # cosines of finite unit vectors are finite; only M-Norm can overflow
            if st is not None:
                # the last size may overwrite a whole block that no size reads again;
                # otherwise a contiguous output, never a strided view of the block
                last = i == len(sizes) - 1 and k == block.shape[1]
                scores = _mnorm(scores, st, out=block if last else np.empty((b - a, k)))
                if not np.isfinite(scores).all():
                    raise ValueError("scores contain non-finite values")
            y_star[i, a:b] = y = scores.max(axis=1)
            if not scores.flags.c_contiguous:
                # argmax would copy this strided view; the first index equal to the
                # max is argmax's own tie rule, and no NaN reaches here
                scores = scores == y[:, None]
            h_star[i, a:b] = scores.argmax(axis=1)
        del block, scores  # free this block before the next one is scored
    return y_star, h_star
