"""Synthetic embedding populations and the blacklist-size scaling experiment.

Speakers are isotropic Gaussian: each speaker mean is drawn componentwise
from N(0, speaker_spread^2) and each utterance adds componentwise
N(0, channel_spread^2) noise.  Blacklist speakers are shared across the
three partitions; background speakers are disjoint per partition and
unlabeled outside the train partition.  Everything is deterministic given
the seed, with a fixed draw order: blacklist speaker means first, then per
partition (train, dev, test) the background means, the blacklist utterances
speaker by speaker, and the background utterances speaker by speaker; the
background means and the noise are drawn in 2,048-row spans of that order.
``run_size_sweep`` holds one replicate and one score block at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import data
from .bank import _CHUNK, NORM_MODES, _corner_stats, enroll, stack_scores
from .data import EmbeddingSet, PartitionManifest
from .metrics import sweep_both

DEFAULT_DIMENSION = 600
DEFAULT_SPEAKER_SPREAD = 1.0
DEFAULT_CHANNEL_SPREAD = 3.0
DEFAULT_SEED = 1234

DEFAULT_SWEEP_SIZES = (10, 50, 100, 500, 1000, 3631)
DEFAULT_SWEEP_REPLICATES = 5


@dataclass(frozen=True)
class PopulationConfig:
    dimension: int = DEFAULT_DIMENSION
    speaker_spread: float = DEFAULT_SPEAKER_SPREAD
    channel_spread: float = DEFAULT_CHANNEL_SPREAD
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if not 0 < self.speaker_spread < math.inf:
            raise ValueError("speaker_spread must be positive and finite")
        if not 0 <= self.channel_spread < math.inf:
            raise ValueError("channel_spread must be non-negative and finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class PartitionSpec:
    """Shape of one partition.

    ``background_utts`` is the partition-wide background total, spread over
    the background speakers as evenly as the counts allow (the first
    ``background_utts % background_speakers`` speakers get one extra).
    """

    blacklist_speakers: int
    background_speakers: int
    blacklist_utts_per_speaker: int = 1
    background_utts: int = 0

    def __post_init__(self) -> None:
        if min(self.blacklist_speakers, self.background_speakers) < 0:
            raise ValueError("speaker counts must be non-negative")
        if self.blacklist_speakers > 0 and self.blacklist_utts_per_speaker < 1:
            raise ValueError("blacklist speakers need at least one utterance each")
        if self.background_speakers == 0:
            if self.background_utts != 0:
                raise ValueError("background utterances without background speakers")
        elif self.background_utts < self.background_speakers:
            raise ValueError("background speakers need at least one utterance each")

    @property
    def total_utterances(self) -> int:
        return self.blacklist_speakers * self.blacklist_utts_per_speaker + self.background_utts


def default_partition_specs() -> tuple[PartitionSpec, PartitionSpec, PartitionSpec]:
    """Partition shapes of the shipped benchmark population (train, dev, test)."""
    return (
        PartitionSpec(3631, 5000, 3, 30952),
        PartitionSpec(3631, 5000, 1, 5000),
        PartitionSpec(3631, 12386, 1, 12386),
    )


def manifest_for(spec: PartitionSpec, partition_name: str) -> PartitionManifest:
    """Manifest a generated partition is expected to satisfy."""
    return PartitionManifest(
        partition_name=partition_name,
        blacklist_speaker_count=spec.blacklist_speakers,
        background_speaker_count=spec.background_speakers,
        min_utterances_per_blacklist_speaker=max(1, spec.blacklist_utts_per_speaker),
        total_utterances=spec.total_utterances,
    )


@dataclass(frozen=True)
class Population:
    train: EmbeddingSet
    dev: EmbeddingSet
    test: EmbeddingSet
    blacklist_speaker_ids: tuple[str, ...]


def _background_counts(spec: PartitionSpec) -> list[int]:
    if spec.background_speakers == 0:
        return []
    base, extra = divmod(spec.background_utts, spec.background_speakers)
    return [base + 1 if i < extra else base for i in range(spec.background_speakers)]


def generate_population(
    config: PopulationConfig,
    train_spec: PartitionSpec,
    dev_spec: PartitionSpec,
    test_spec: PartitionSpec,
) -> Population:
    """Draw a three-partition population; bit-identical for a given config."""
    specs = (("train", train_spec), ("dev", dev_spec), ("test", test_spec))
    pool = max(s.blacklist_speakers for _, s in specs)
    if pool < 1:
        raise ValueError("at least one blacklist speaker is required")
    rng = np.random.default_rng(config.seed)
    # the means first: numpy refuses a pool too large to hold before any id is made
    bl_means = rng.normal(0.0, config.speaker_spread, (pool, config.dimension))
    bl_ids = tuple(f"bl{i + 1:05d}" for i in range(pool))

    def bg_means(n: int) -> Iterator[np.ndarray]:
        for a in range(0, n, _CHUNK):
            yield from rng.normal(0.0, config.speaker_spread, (min(_CHUNK, n - a), config.dimension))

    sets: dict[str, EmbeddingSet] = {}
    for name, spec in specs:
        n_bl = spec.blacklist_speakers
        bg_ids = [f"bg_{name}{i + 1:05d}" for i in range(spec.background_speakers)]
        speakers = [*bl_ids[:n_bl], *bg_ids]
        labels = speakers if name == "train" else [*bl_ids[:n_bl], *[None] * len(bg_ids)]
        counts = [spec.blacklist_utts_per_speaker] * n_bl + _background_counts(spec)
        # spans draw the values of one call per speaker, and mean + noise == noise + mean;
        # no name keeps a row of means, so one span at most sits beside the vectors
        vectors = np.empty((sum(counts), config.dimension))
        means = itertools.chain(bl_means[:n_bl], bg_means(len(bg_ids)))
        a = 0
        for count in counts:
            vectors[a : a + count] = next(means)
            a += count
        del means
        for a in range(0, len(vectors), _CHUNK):
            span = vectors[a : a + _CHUNK]
            span += rng.normal(0.0, config.channel_spread, span.shape)
        utts = [f"{spk}_{name}{j + 1:02d}" for spk, n in zip(speakers, counts) for j in range(n)]
        spks = [spk for spk, n in zip(labels, counts) for _ in range(n)]
        sets[name] = EmbeddingSet(utts, spks, vectors)
    return Population(sets["train"], sets["dev"], sets["test"], bl_ids)


def derive_replicate_seed(seed: int, index: int) -> int:
    """Deterministic per-replicate seed: a hash of (seed, index)."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class SizeSweepResult:
    """Mean Top-S / Top-1 EER per blacklist size, plus per-replicate detail."""

    sizes: tuple[int, ...]
    top_s_eer: np.ndarray  # (sizes,) means over replicates
    top_1_eer: np.ndarray
    replicate_count: int
    replicate_top_s: np.ndarray  # (replicates, sizes)
    replicate_top_1: np.ndarray
    replicate_seeds: tuple[int, ...]


def _replicate(
    config: PopulationConfig, train_spec: PartitionSpec, test_spec: PartitionSpec,
    sizes: list[int], norm_mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(y_star, h_star, truth)`` of one replicate; train is freed before the test set is scored."""
    pop = generate_population(config, train_spec, PartitionSpec(0, 0), test_spec)
    train, test = pop.train, pop.test
    del pop
    bank = enroll(train)
    stats = None
    if norm_mode != "none":
        # train is blacklist-only and speaker-major: size k's cohort is its first k*u rows
        u = train_spec.blacklist_utts_per_speaker
        corners = [(k * u, k) for k in sizes]
        stats = [st.for_mode(norm_mode) for st in _corner_stats(bank, train, corners)]
    del train
    index = {spk: i for i, spk in enumerate(bank.speaker_ids)}
    truth = np.array([-1 if s is None else index[s] for s in test.speaker_ids], dtype=np.int64)
    y_star, h_star = stack_scores(bank, test, sizes, stats)
    return y_star, h_star, truth


def run_size_sweep(
    config: PopulationConfig,
    sizes,
    replicates: int,
    test_spec: PartitionSpec,
    train_utts_per_speaker: int = 3,
    norm_mode: str = "none",
) -> SizeSweepResult:
    """EER versus blacklist size on a fixed test set.

    Each replicate draws a fresh population from a seed derived from
    (config.seed, replicate index), enrolls the full blacklist pool once,
    and evaluates every requested size k on the first k detectors in one
    blockwise scoring pass: background trials are kept unchanged and
    blacklist trials are restricted to the k enrolled speakers.
    """
    sizes = [int(k) for k in sizes]
    if not sizes:
        raise ValueError("no sizes requested")
    if min(sizes) < 1:
        raise ValueError("sizes must be positive")
    if any(a > b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be nondecreasing")
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if norm_mode not in NORM_MODES:
        raise ValueError(f"normalization mode must be one of {NORM_MODES}")
    pool = test_spec.blacklist_speakers
    if max(sizes) > pool:
        raise ValueError(
            f"size {max(sizes)} exceeds the blacklist population {pool}"
        )
    if train_utts_per_speaker < 1:
        raise ValueError("train_utts_per_speaker must be positive")

    train_spec = PartitionSpec(pool, 0, train_utts_per_speaker, 0)
    # numpy refuses a replicate count too large to hold before any seed is derived
    rep_s = np.empty((replicates, len(sizes)))
    rep_1 = np.empty((replicates, len(sizes)))
    seeds = tuple(derive_replicate_seed(config.seed, r) for r in range(replicates))

    for r in range(replicates):
        y_star, h_star, truth = _replicate(
            replace(config, seed=seeds[r]), train_spec, test_spec, sizes, norm_mode
        )
        for ki, k in enumerate(sizes):
            keep = truth < k  # backgrounds (-1) and enrolled speakers
            top_s, top_1 = sweep_both(y_star[ki, keep], h_star[ki, keep], truth[keep])
            rep_s[r, ki] = top_s.eer
            rep_1[r, ki] = top_1.eer
        del y_star, h_star, truth  # nothing of this replicate lives while the next is drawn

    return SizeSweepResult(
        sizes=tuple(sizes),
        top_s_eer=rep_s.mean(axis=0),
        top_1_eer=rep_1.mean(axis=0),
        replicate_count=replicates,
        replicate_top_s=rep_s,
        replicate_top_1=rep_1,
        replicate_seeds=seeds,
    )


SIZE_SWEEP_SCHEMA_VERSION = 1


def save_size_sweep(
    result: SizeSweepResult, csv_path, json_path, config: dict | None = None
) -> None:
    """Write the per-size means as CSV plus a JSON sidecar with full detail."""
    sidecar = {
        "schema_version": SIZE_SWEEP_SCHEMA_VERSION,
        "config": config or {},
        "sizes": list(result.sizes),
        "replicate_count": result.replicate_count,
        "replicate_seeds": list(result.replicate_seeds),
        "mean": {
            "top_s_eer": result.top_s_eer.tolist(),
            "top_1_eer": result.top_1_eer.tolist(),
        },
        "replicates": {
            "top_s_eer": result.replicate_top_s.tolist(),
            "top_1_eer": result.replicate_top_1.tolist(),
        },
    }
    with data.output_group():
        header = ("blacklist_size", "top_s_eer", "top_1_eer")
        means = np.column_stack((result.top_s_eer, result.top_1_eer))
        data.save_table(csv_path, header, ([str(k) for k in result.sizes],), [means])
        data.save_json(sidecar, json_path)
