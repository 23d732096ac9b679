"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from stackdet import cli
from stackdet.bank import (
    apply_mnorm,
    enroll,
    mnorm_stats_from_scores,
    score_all,
)
from stackdet.data import (
    EmbeddingSet,
    ScoreMatrix,
    save_embeddings,
    validate_partition,
)
from stackdet.metrics import stack_reduce, sweep_both
from stackdet.synth import (
    PartitionSpec,
    PopulationConfig,
    default_partition_specs,
    generate_population,
    manifest_for,
    run_size_sweep,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def random_labeled_instance(rng, n_trials, n_detectors):
    scores = rng.standard_normal((n_trials, n_detectors))
    matrix = ScoreMatrix(
        [f"t{i}" for i in range(n_trials)],
        [f"d{j}" for j in range(n_detectors)],
        scores,
    )
    y, h = stack_reduce(matrix)
    truth = [
        -1 if rng.uniform() < 0.5 else int(rng.integers(n_detectors))
        for _ in range(n_trials)
    ]
    if all(t < 0 for t in truth):
        truth[0] = 0
    if all(t >= 0 for t in truth):
        truth[0] = -1
    return y, h, np.array(truth, dtype=np.int64)


def enumeration_rates(y, h, truth, grid, mode):
    """Exhaustive oracle: indicator counts at every enumerated threshold."""
    y = np.asarray(y, float)
    h = np.asarray(h, int)
    t = np.asarray(truth, int)
    bl = t >= 0
    confused = bl & (h != t)
    n_bl = int(bl.sum())
    n_bg = len(y) - n_bl
    miss = np.empty(len(grid))
    fa = np.empty(len(grid))
    for j, th in enumerate(grid):
        m = int((bl & (y < th)).sum())
        if mode == "top_1":
            m += int((confused & (y > th)).sum())
        miss[j] = m / n_bl
        fa[j] = int((~bl & (y > th)).sum()) / n_bg
    return miss, fa


def enumeration_eer(grid, miss, fa):
    d = miss - fa
    for j in range(len(grid)):
        if d[j] == 0.0:
            return float(miss[j])
        if j + 1 < len(grid) and (d[j] < 0 < d[j + 1] or d[j] > 0 > d[j + 1]):
            t = d[j] / (d[j] - d[j + 1])
            return float(
                0.5
                * (
                    (miss[j] + t * (miss[j + 1] - miss[j]))
                    + (fa[j] + t * (fa[j + 1] - fa[j]))
                )
            )
    raise AssertionError("rates never met")


def test_criterion_scoring_oracle_equivalence():
    with criterion(
        "scoring equals naive double-loop oracle within 1e-12"
        " (50 instances <= 100x100x64, < 5 s)"
    ):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            n_spk = int(rng.integers(1, 101))
            n_trials = int(rng.integers(1, 101))
            dim = int(rng.integers(2, 65))
            utts_per = int(rng.integers(1, 4))
            ids, spks, vecs = [], [], []
            for s in range(n_spk):
                for u in range(utts_per):
                    ids.append(f"s{s}_u{u}")
                    spks.append(f"s{s}")
            vecs = rng.standard_normal((len(ids), dim))
            bank = enroll(EmbeddingSet(ids, spks, vecs))
            trials = EmbeddingSet(
                [f"t{i}" for i in range(n_trials)],
                [None] * n_trials,
                rng.standard_normal((n_trials, dim)),
            )
            got = score_all(bank, trials).scores
            for t, row in enumerate(trials.vectors):
                u = row / math.sqrt(float(np.dot(row, row)))
                for i in range(len(bank)):
                    ref = float(np.dot(u, bank.directions[i]))
                    worst = max(worst, abs(got[t, i] - ref))
        elapsed = time.perf_counter() - started
        assert worst < 1e-12, f"worst deviation {worst}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_metrics_oracle_equivalence_and_dominance():
    rng = np.random.default_rng(2002)
    started = time.perf_counter()
    worst_eer = 0.0
    for case in range(20):
        n_trials = 10000 if case < 2 else int(rng.integers(200, 3001))
        n_det = int(rng.integers(1, 51))
        y, h, truth = random_labeled_instance(rng, n_trials, n_det)
        top_s, top_1 = sweep_both(y, h, truth)
        for report, mode in ((top_s, "top_s"), (top_1, "top_1")):
            miss, fa = enumeration_rates(y, h, truth, report.thetas, mode)
            assert np.array_equal(report.p_miss, miss)
            assert np.array_equal(report.p_fa, fa)
            ref_eer = enumeration_eer(report.thetas, miss, fa)
            worst_eer = max(worst_eer, abs(report.eer - ref_eer))
        # dominance: shared false alarms exactly, Top-1 misses at least Top-S
        assert np.array_equal(top_1.p_fa, top_s.p_fa)
        assert (top_1.p_miss >= top_s.p_miss).all()
    elapsed = time.perf_counter() - started
    with criterion(
        "sweep EER equals exhaustive threshold enumeration within 1e-9"
        " (20 instances <= 10,000 trials, S <= 50, < 30 s)"
    ):
        assert worst_eer < 1e-9, f"worst EER deviation {worst_eer}"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
    with criterion(
        "Top-1 p_miss >= Top-S p_miss everywhere; p_fa identical on every instance"
    ):
        pass  # asserted inside the loop above


def test_criterion_mnorm_contract():
    with criterion(
        "normalized cohort has mean 0 / std 1 within 1e-10;"
        " affine invariance within 1e-10 over 20 random trials"
    ):
        rng = np.random.default_rng(3003)
        for _ in range(20):
            n_cohort = int(rng.integers(10, 200))
            n_det = int(rng.integers(1, 40))
            dets = [f"d{j}" for j in range(n_det)]
            cohort = ScoreMatrix(
                [f"c{i}" for i in range(n_cohort)],
                dets,
                rng.uniform(-1, 1, (n_cohort, n_det)),
            )
            stats = mnorm_stats_from_scores(cohort)
            normalized = apply_mnorm(cohort, stats, "full").scores
            assert np.abs(normalized.mean(axis=0)).max() < 1e-10
            assert np.abs(np.sqrt((normalized**2).mean(axis=0)) - 1.0).max() < 1e-10

            trials = ScoreMatrix(
                [f"t{i}" for i in range(7)], dets, rng.uniform(-1, 1, (7, n_det))
            )
            a = rng.uniform(0.05, 10.0, n_det)
            b = rng.uniform(-5.0, 5.0, n_det)
            base = apply_mnorm(trials, stats, "full").scores
            moved = apply_mnorm(
                ScoreMatrix(trials.trial_ids, dets, trials.scores * a + b),
                mnorm_stats_from_scores(
                    ScoreMatrix(cohort.trial_ids, dets, cohort.scores * a + b)
                ),
                "full",
            ).scores
            assert np.abs(base - moved).max() < 1e-10


def test_criterion_confusion_micro_case():
    with criterion(
        "2-detector micro-case: scores [0.5, 0.9], true speaker 1, threshold 0.7"
        " -> Top-S detection, Top-1 confusion miss"
    ):
        matrix = ScoreMatrix(["t", "g"], ["spk1", "spk2"], [[0.5, 0.9], [0.1, 0.2]])
        y, h = stack_reduce(matrix)
        assert y[0] == 0.9 and h[0] == 1
        top_s, top_1 = sweep_both(y, h, [0, -1], thresholds=[0.7])
        assert top_s.p_miss[0] == 0.0  # detected: y* above threshold
        assert top_1.p_miss[0] == 1.0  # but attributed to the wrong detector
        assert top_s.p_fa[0] == 0.0 and top_1.p_fa[0] == 0.0


def test_criterion_partition_structural_fidelity():
    with criterion(
        "benchmark-shaped population validates with exact speaker and"
        " utterance counts (3631/5000, 3631/5000, 3631/12386;"
        " 41845/8631/16017)"
    ):
        config = PopulationConfig(seed=20180901)
        train_spec, dev_spec, test_spec = default_partition_specs()
        pop = generate_population(config, train_spec, dev_spec, test_spec)
        assert len(pop.train) == 41845
        assert len(pop.dev) == 8631
        assert len(pop.test) == 16017
        assert len(pop.blacklist_speaker_ids) == 3631

        bl = set(pop.blacklist_speaker_ids)
        train_bg = {s for s in pop.train.speaker_ids if s is not None} - bl
        assert len(train_bg) == 5000
        report = validate_partition(
            pop.train, manifest_for(train_spec, "train"), reference_blacklist=bl
        )
        assert report.ok, report.violations
        for es, spec, name in ((pop.dev, dev_spec, "dev"), (pop.test, test_spec, "test")):
            report = validate_partition(
                es,
                manifest_for(spec, name),
                reference_blacklist=bl,
                reference_background=train_bg,
            )
            assert report.ok, report.violations
        assert sum(1 for s in pop.dev.speaker_ids if s is None) == 5000
        assert sum(1 for s in pop.test.speaker_ids if s is None) == 12386


def test_criterion_size_sweep_degradation():
    with criterion(
        "default size sweep: Top-1 EER strictly grows from size 10 to 3631,"
        " Top-1 - Top-S gap nondecreasing, dominance on every row, < 10 min"
    ):
        started = time.perf_counter()
        result = run_size_sweep(
            PopulationConfig(),  # shipped defaults incl. fixed seed
            [10, 50, 100, 500, 1000, 3631],
            5,
            default_partition_specs()[2],
        )
        elapsed = time.perf_counter() - started
        assert result.top_1_eer[-1] > result.top_1_eer[0]
        gap = result.top_1_eer - result.top_s_eer
        assert gap[-1] >= gap[0]
        assert (result.top_1_eer >= result.top_s_eer - 1e-12).all()
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


# Scores the full benchmark shape into the .npy file argv[1] and prints the
# scoring seconds.
_SCORE_CHILD = """
import sys, time
import numpy as np
from stackdet.bank import enroll, score_all
from stackdet.synth import PartitionSpec, PopulationConfig, generate_population
pop = generate_population(
    PopulationConfig(seed=424242),
    PartitionSpec(3631, 0, 3, 0),
    PartitionSpec(0, 0),
    PartitionSpec(3631, 12386, 1, 12386),
)
bank = enroll(pop.train)
started = time.perf_counter()
scores = score_all(bank, pop.test).scores
elapsed = time.perf_counter() - started
np.save(sys.argv[1], scores)
print(elapsed)
"""


def test_criterion_scoring_performance_and_thread_invariance(child_env, tmp_path):
    with criterion(
        "16,017 x 3,631 x 600 scoring completes in < 60 s single-threaded"
        " and BLAS thread count changes no score beyond rounding"
    ):
        elapsed = {}
        try:
            for threads in (1, 4):
                child = subprocess.run(
                    [sys.executable, "-c", _SCORE_CHILD, str(tmp_path / f"{threads}.npy")],
                    env=child_env(threads),
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                assert child.returncode == 0, child.stderr
                elapsed[threads] = float(child.stdout)
            assert elapsed[1] < 60.0, f"took {elapsed[1]:.2f}s"
            one = np.load(tmp_path / "1.npy", mmap_mode="r")
            four = np.load(tmp_path / "4.npy", mmap_mode="r")
            assert one.shape == four.shape == (16017, 3631)
            # OpenBLAS's one-thread and threaded drivers may split the 600-term
            # dot products differently, so the bytes can differ.  A cosine of
            # unit vectors summed in any order is within 600 * 2**-53 of the
            # exact value (sum |x_i y_i| <= 1), so two orders differ by at most
            # twice that.
            bound = 2 * 600 * 2.0**-53
            worst = max(
                float(np.abs(one[a : a + 2048] - four[a : a + 2048]).max())
                for a in range(0, len(one), 2048)
            )
            assert worst <= bound, f"scores differ by {worst:.3g} > {bound:.3g}"
            del one, four
        finally:
            for threads in (1, 4):
                (tmp_path / f"{threads}.npy").unlink(missing_ok=True)


def test_criterion_cli_determinism(tmp_path):
    with criterion("every CLI subcommand run twice produces byte-identical files"):
        cfg = PopulationConfig(dimension=6, channel_spread=0.8, seed=510)
        pop = generate_population(
            cfg,
            PartitionSpec(6, 3, 3, 9),
            PartitionSpec(6, 2, 1, 2),
            PartitionSpec(6, 12, 1, 12),
        )
        bl = set(pop.blacklist_speaker_ids)
        train_csv = tmp_path / "train.csv"
        trials_csv = tmp_path / "trials.csv"
        labels_csv = tmp_path / "labels.csv"
        save_embeddings(
            pop.train.subset([s in bl for s in pop.train.speaker_ids]), train_csv
        )
        save_embeddings(pop.test, trials_csv)
        with labels_csv.open("w", encoding="utf-8", newline="") as f:
            for utt, spk in zip(pop.test.utterance_ids, pop.test.speaker_ids):
                f.write(f"{utt},{spk if spk is not None else '-'}\n")

        def run_all():
            # identical flags each time: outputs overwrite in place
            base = tmp_path / "out"
            bank_dir = base / "bank"
            assert cli.main(
                ["enroll", "--train", str(train_csv), "--out-dir", str(bank_dir)]
            ) == 0
            assert cli.main(
                [
                    "score",
                    "--bank", str(bank_dir),
                    "--trials", str(trials_csv),
                    "--out", str(base / "scores.csv"),
                ]
            ) == 0
            assert cli.main(
                [
                    "eval",
                    "--bank", str(bank_dir),
                    "--trials", str(trials_csv),
                    "--labels", str(labels_csv),
                    "--out-dir", str(base / "eval"),
                ]
            ) == 0
            assert cli.main(
                [
                    "simulate",
                    "--sizes", "3,6",
                    "--replicates", "2",
                    "--seed", "11",
                    "--dimension", "6",
                    "--channel-spread", "0.8",
                    "--out-dir", str(base / "sim"),
                ]
            ) == 0
            out = {}
            for p in sorted(base.rglob("*")):
                if p.is_file():
                    out[str(p.relative_to(base))] = p.read_bytes()
            return out

        assert run_all() == run_all()
