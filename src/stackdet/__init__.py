"""Multi-target (blacklist) speaker detection on fixed-length embeddings.

Enrollment of a detector bank from labeled utterances, dense cosine
scoring, M-Norm score normalization, Top-S / Top-1 stack-detector sweeps
(EER, DET), and a synthetic-population experiment measuring how performance
degrades as the blacklist grows.
"""

from .bank import (
    DetectorBank,
    MNormStats,
    apply_mnorm,
    compute_mnorm_stats,
    enroll,
    mnorm_stats_from_scores,
    score_all,
    score_blocks,
    stack_scores,
)
from .data import (
    DataFormatError,
    EmbeddingSet,
    PartitionManifest,
    ScoreMatrix,
    ValidationReport,
    concatenate,
    load_embeddings,
    save_embeddings,
    save_manifest,
    validate_partition,
)
from .metrics import (
    DetectorReport,
    det_points,
    save_det_points,
    stack_reduce,
    sweep_both,
)
from .synth import (
    PartitionSpec,
    Population,
    PopulationConfig,
    SizeSweepResult,
    default_partition_specs,
    derive_replicate_seed,
    generate_population,
    manifest_for,
    run_size_sweep,
    save_size_sweep,
)

__version__ = "0.1.0"
