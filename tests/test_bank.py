import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackdet import bank as bank_mod
from stackdet import synth
from stackdet.bank import (
    _CHUNK,
    NORM_MODES,
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
from stackdet.data import EmbeddingSet, ScoreMatrix, concatenate, save_table
from stackdet.metrics import stack_reduce


def naive_scores(bank, trials):
    """Independent oracle: per-pair dot products over naively normalized rows."""
    out = np.empty((len(trials), len(bank)))
    for t, row in enumerate(trials.vectors):
        u = row / math.sqrt(float(np.dot(row, row)))
        for i in range(len(bank)):
            out[t, i] = float(np.dot(u, bank.directions[i]))
    return out


def unit_set(ids, spks, xs):
    """Embeddings on the unit circle with chosen first components."""
    vecs = [[x, math.sqrt(1.0 - x * x)] for x in xs]
    return EmbeddingSet(ids, spks, vecs)


class TestLengthNormalize:
    """``_normalize_rows``, the one normalizer of enrollment and trials."""

    def test_three_four_five(self):
        rows = bank_mod._normalize_rows(np.array([[3.0, 4.0], [0.0, -2.0]]), ["u", "v"])
        assert rows.tolist() == [[0.6, 0.8], [0.0, -1.0]]

    def test_unit_vector_unchanged(self):
        rng = np.random.default_rng(0)
        u = bank_mod._normalize_rows(rng.standard_normal((3, 16)), ["a", "b", "c"])
        assert np.abs(bank_mod._normalize_rows(u, ["a", "b", "c"]) - u).max() < 1e-15
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector for utterance 'b'"):
            bank_mod._normalize_rows(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), ["a", "b"])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_rejected_without_a_warning(self):
        with pytest.raises(ValueError, match="vector norm overflows for utterance 'b'"):
            bank_mod._normalize_rows(np.array([[1.0, 0.0], [1e200, 1e200]]), ["a", "b"])


class TestEnroll:
    def test_symmetric_mean(self):
        es = EmbeddingSet(["u1", "u2"], ["a", "a"], [[1.0, 0.0], [0.0, 1.0]])
        b = enroll(es)
        root_half = math.sqrt(2.0) / 2.0
        assert b.speaker_ids == ("a",)
        assert np.abs(b.directions[0] - [root_half, root_half]).max() < 1e-12

    def test_identical_utterances(self):
        v = [2.0, -1.0, 2.0]
        es = EmbeddingSet(["u1", "u2", "u3"], ["a"] * 3, [v, v, v])
        b = enroll(es)
        assert np.abs(b.directions[0] - np.divide(v, np.linalg.norm(v))).max() < 1e-12

    def test_order_is_first_appearance(self):
        es = EmbeddingSet(
            ["u1", "u2", "u3", "u4"],
            ["b", "a", "b", "c"],
            np.eye(4) + 1.0,
        )
        assert enroll(es).speaker_ids == ("b", "a", "c")

    def test_augment_pools_utterances(self):
        train = EmbeddingSet(["u1"], ["a"], [[1.0, 0.0]])
        augment = EmbeddingSet(["u2"], ["a"], [[0.0, 1.0]])
        b = enroll(concatenate([train, augment]))
        assert len(b) == 1
        root_half = math.sqrt(2.0) / 2.0
        assert np.abs(b.directions[0] - [root_half, root_half]).max() < 1e-12

    def test_augment_can_add_speakers(self):
        train = EmbeddingSet(["u1"], ["a"], [[1.0, 0.0]])
        augment = EmbeddingSet(["u2"], ["z"], [[0.0, 1.0]])
        assert enroll(concatenate([train, augment])).speaker_ids == ("a", "z")

    def test_unlabeled_utterance_rejected(self):
        es = EmbeddingSet(["u1", "u2"], ["a", None], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="u2.*unlabeled"):
            enroll(es)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [[[1e200, 1e200]], [[1e200, 1e200], [1.0, 0.5]]])
    def test_overflowing_utterance_is_named(self, rows):
        es = EmbeddingSet([f"a{i + 1}" for i in range(len(rows))], ["a"] * len(rows), rows)
        with pytest.raises(ValueError, match="vector norm overflows for utterance 'a1'"):
            enroll(es)

    def test_empty_input_rejected(self):
        es = EmbeddingSet([], [], np.zeros((0, 3)))
        with pytest.raises(ValueError, match="no utterances"):
            enroll(es)

    def test_dimension_mismatch_with_augment(self):
        train = EmbeddingSet(["u1"], ["a"], [[1.0, 0.0]])
        augment = EmbeddingSet(["u2"], ["a"], [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            enroll(concatenate([train, augment]))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariant_within_speaker(self, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((5, 8))
        perm = rng.permutation(5)
        a = enroll(EmbeddingSet([f"u{i}" for i in range(5)], ["s"] * 5, vecs))
        b = enroll(
            EmbeddingSet([f"u{i}" for i in range(5)], ["s"] * 5, vecs[perm])
        )
        assert np.abs(a.directions - b.directions).max() < 1e-12


class TestScoreAll:
    def test_trial_equal_to_model_scores_one(self):
        es = EmbeddingSet(["u1", "u2"], ["a", "b"], [[2.0, 0.0], [0.0, 5.0]])
        b = enroll(es)
        m = score_all(b, es)
        assert abs(m.scores[0, 0] - 1.0) < 1e-12
        assert abs(m.scores[1, 1] - 1.0) < 1e-12

    def test_orthogonal_trial_scores_zero(self):
        b = enroll(EmbeddingSet(["u1"], ["a"], [[1.0, 0.0]]))
        m = score_all(b, EmbeddingSet(["t"], [None], [[0.0, 3.0]]))
        assert m.scores[0, 0] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        bank = enroll(
            EmbeddingSet(
                [f"e{i}" for i in range(3)],
                [f"s{i}" for i in range(3)],
                rng.standard_normal((3, 6)),
            )
        )
        trials = EmbeddingSet(
            [f"t{i}" for i in range(5)], [None] * 5, rng.standard_normal((5, 6))
        )
        m = score_all(bank, trials)
        assert np.abs(m.scores - naive_scores(bank, trials)).max() < 1e-12

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(3)
        bank = enroll(
            EmbeddingSet(
                [f"e{i}" for i in range(20)],
                [f"s{i}" for i in range(20)],
                rng.standard_normal((20, 12)),
            )
        )
        trials = EmbeddingSet(
            [f"t{i}" for i in range(50)], [None] * 50, rng.standard_normal((50, 12))
        )
        s = score_all(bank, trials).scores
        assert s.max() <= 1.0 + 1e-12
        assert s.min() >= -1.0 - 1e-12

    def test_dimension_mismatch(self):
        bank = enroll(EmbeddingSet(["u"], ["a"], [[1.0, 0.0]]))
        trials = EmbeddingSet(["t"], [None], [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_all(bank, trials)

    def test_zero_trial_vector(self):
        bank = enroll(EmbeddingSet(["u"], ["a"], [[1.0, 0.0]]))
        trials = EmbeddingSet(["t"], [None], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="zero vector for utterance 't'"):
            score_all(bank, trials)


class TestMNorm:
    def cohort_with_scores(self):
        # one detector along the x axis; cohort cosines are the x components
        bank = enroll(unit_set(["m"], ["a"], [1.0]))
        cohort = unit_set(["c1", "c2", "c3"], ["a", "a", "a"], [0.2, 0.4, 0.6])
        return bank, cohort

    def test_stats_match_hand_oracle(self):
        bank, cohort = self.cohort_with_scores()
        stats = compute_mnorm_stats(bank, cohort)
        # oracle: mean and population std of {0.2, 0.4, 0.6}
        assert stats.cohort_size == 3
        assert abs(stats.mu[0] - 0.4) < 1e-12
        assert abs(stats.sigma[0] - math.sqrt(0.08 / 3.0)) < 1e-12

    def test_apply_matches_hand_oracle(self):
        bank, cohort = self.cohort_with_scores()
        stats = compute_mnorm_stats(bank, cohort)
        m = ScoreMatrix(["t"], bank.speaker_ids, [[0.6]])
        out = apply_mnorm(m, stats, "full")
        assert abs(out.scores[0, 0] - math.sqrt(1.5)) < 1e-6
        assert abs(out.scores[0, 0] - 1.2247448713915885) < 1e-9

    def test_identity_stats_leave_scores_unchanged(self):
        stats = MNormStats(np.zeros(3), np.ones(3), 5)
        m = ScoreMatrix(["t1", "t2"], ["a", "b", "c"], np.random.default_rng(0).uniform(-1, 1, (2, 3)))
        out = apply_mnorm(m, stats, "full")
        assert np.array_equal(out.scores, m.scores)

    def test_modes(self):
        stats = MNormStats(np.array([0.5]), np.array([2.0]), 4)
        m = ScoreMatrix(["t"], ["a"], [[1.5]])
        assert apply_mnorm(m, stats, "full").scores[0, 0] == 0.5
        assert apply_mnorm(m, stats, "shift").scores[0, 0] == 1.0
        assert apply_mnorm(m, stats, "scale").scores[0, 0] == 0.75
        assert apply_mnorm(m, stats, "none") is m
        assert apply_mnorm(m, None, "none") is m
        with pytest.raises(ValueError, match="mode"):
            apply_mnorm(m, stats, "bogus")
        with pytest.raises(ValueError, match="requires normalization statistics"):
            apply_mnorm(m, None, "full")

    def test_size_mismatch(self):
        stats = MNormStats(np.zeros(2), np.ones(2), 4)
        m = ScoreMatrix(["t"], ["a"], [[1.0]])
        with pytest.raises(ValueError, match="size mismatch"):
            apply_mnorm(m, stats, "full")

    def test_degenerate_cohort_names_detector(self):
        bank = enroll(unit_set(["m"], ["a"], [1.0]))
        cohort = unit_set(["c1", "c2"], ["a", "a"], [0.3, 0.3])
        with pytest.raises(ValueError, match="degenerate cohort: detector 'a'"):
            compute_mnorm_stats(bank, cohort)

    def test_cohort_must_be_labeled_and_enrolled(self):
        bank = enroll(unit_set(["m"], ["a"], [1.0]))
        with pytest.raises(ValueError, match="unlabeled"):
            compute_mnorm_stats(bank, unit_set(["c"], [None], [0.5]))
        with pytest.raises(ValueError, match="not an enrolled speaker"):
            compute_mnorm_stats(bank, unit_set(["c"], ["zz"], [0.5]))

    def test_normalized_cohort_is_standardized(self):
        rng = np.random.default_rng(21)
        cohort = ScoreMatrix(
            [f"c{i}" for i in range(40)],
            [f"d{j}" for j in range(7)],
            rng.uniform(-1, 1, (40, 7)),
        )
        stats = mnorm_stats_from_scores(cohort)
        out = apply_mnorm(cohort, stats, "full").scores
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(np.sqrt((out**2).mean(axis=0)) - 1.0).max() < 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cohort = rng.uniform(-1, 1, (30, 5))
            trials = rng.uniform(-1, 1, (12, 5))
            a = rng.uniform(0.1, 5.0, 5)
            b = rng.uniform(-3.0, 3.0, 5)
            ids_c = [f"c{i}" for i in range(30)]
            ids_t = [f"t{i}" for i in range(12)]
            dets = [f"d{j}" for j in range(5)]
            base = apply_mnorm(
                ScoreMatrix(ids_t, dets, trials),
                mnorm_stats_from_scores(ScoreMatrix(ids_c, dets, cohort)),
                "full",
            )
            moved = apply_mnorm(
                ScoreMatrix(ids_t, dets, trials * a + b),
                mnorm_stats_from_scores(ScoreMatrix(ids_c, dets, cohort * a + b)),
                "full",
            )
            assert np.abs(base.scores - moved.scores).max() < 1e-10


# Each mode's own formula, the oracle ``for_mode`` is checked against.
MODE_FORMULAS = {
    "full": lambda y, mu, sigma: (y - mu) / sigma,
    "shift": lambda y, mu, sigma: y - mu,
    "scale": lambda y, mu, sigma: y / sigma,
    "none": lambda y, mu, sigma: y,
}
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7e308]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)
positive_floats = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False), st.sampled_from([5e-324, 1.0, 1e300])
)


class TestForMode:
    @pytest.mark.parametrize("mode", NORM_MODES)
    @settings(deadline=None, max_examples=200)
    @given(k=st.integers(1, 4), n=st.integers(0, 5), data=st.data())
    def test_resolved_stats_apply_the_mode_formula(self, mode, k, n, data):
        column = st.lists(finite_floats, min_size=k, max_size=k)
        mu = np.array(data.draw(column))
        sigma = np.array(data.draw(st.lists(positive_floats, min_size=k, max_size=k)))
        y = np.array(data.draw(st.lists(column, min_size=n, max_size=n)), dtype=np.float64)
        y = y.reshape(n, k)
        resolved = MNormStats(mu, sigma, 3).for_mode(mode)
        with np.errstate(over="ignore", under="ignore"):
            want = MODE_FORMULAS[mode](y, mu, sigma)
            got = y if resolved is None else bank_mod._mnorm(y, resolved)
        assert (resolved is None) == (mode == "none")
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_modes_and_their_formulas_agree(self):
        assert set(MODE_FORMULAS) == set(NORM_MODES)
        stats = MNormStats(np.array([0.5]), np.array([2.0]), 4)
        assert stats.for_mode("full") is stats
        assert stats.for_mode("shift").cohort_size == stats.for_mode("scale").cohort_size == 4
        with pytest.raises(ValueError, match="normalization mode must be one of"):
            stats.for_mode("zscore")


def dense_stats(scores):
    """The dense M-Norm statistics: numpy's axis-0 mean and population std."""
    mu = scores.mean(axis=0)
    sigma = np.sqrt(np.mean((scores - mu) ** 2, axis=0))
    return mu, sigma


def assert_dense_bits(stats, scores):
    mu, sigma = dense_stats(scores)
    assert stats.cohort_size == len(scores)
    assert stats.mu.view(np.uint64).tolist() == mu.view(np.uint64).tolist()
    assert stats.sigma.view(np.uint64).tolist() == sigma.view(np.uint64).tolist()


def cohort_case(seed, dim, n_det, n_cohort):
    """Bank of random unit directions and a cohort labeled with its speakers."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_det, dim))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    bank = DetectorBank([f"d{j}" for j in range(n_det)], directions)
    cohort = EmbeddingSet(
        [f"c{i}" for i in range(n_cohort)],
        [f"d{i * n_det // n_cohort}" for i in range(n_cohort)],  # speaker-major
        rng.standard_normal((n_cohort, dim)),
    )
    return bank, cohort


BOUNDARY_SIZES = [2, 3, 8, 9, 40, _CHUNK - 1, _CHUNK, _CHUNK + 1]


class TestCohortStats:
    """The blockwise accumulator against the dense numpy lines, bit for bit."""

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        n_det=st.integers(1, 7),
        n_cohort=st.sampled_from(BOUNDARY_SIZES),
    )
    def test_compute_mnorm_stats_equals_dense(self, seed, dim, n_det, n_cohort):
        bank, cohort = cohort_case(seed, dim, n_det, max(n_det, n_cohort))
        stats = compute_mnorm_stats(bank, cohort)
        assert_dense_bits(stats, score_all(bank, cohort).scores)

    @pytest.mark.parametrize("n_cohort", [8, 9, 17, _CHUNK + 1])
    def test_one_detector_is_summed_like_numpy(self, n_cohort):
        # numpy sums one column pairwise, not row by row
        bank, cohort = cohort_case(3, 4, 1, n_cohort)
        assert_dense_bits(compute_mnorm_stats(bank, cohort), score_all(bank, cohort).scores)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_det=st.integers(1, 6),
        rows=st.lists(
            st.sampled_from([1, 2, 7, 8, 9, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
            min_size=1,
            max_size=4,
        ),
        widths=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    )
    def test_corners_equal_dense_slices(self, seed, n_det, rows, widths):
        bank, cohort = cohort_case(seed, 3, n_det, 2 * _CHUNK + 3)
        dense = score_all(bank, cohort).scores
        corners = [(n, min(k, n_det)) for n, k in zip(rows, widths)]
        expect = [dense_stats(np.ascontiguousarray(dense[:n, :k])) for n, k in corners]
        if any((sigma < bank_mod.SIGMA_FLOOR).any() for _, sigma in expect):
            with pytest.raises(ValueError, match="degenerate cohort"):
                bank_mod._corner_stats(bank, cohort, corners)
            return
        got = bank_mod._corner_stats(bank, cohort, corners)
        for stats, (n, k) in zip(got, corners):
            assert_dense_bits(stats, np.ascontiguousarray(dense[:n, :k]))

    def test_matrix_stats_are_the_dense_lines(self):
        rng = np.random.default_rng(5)
        for shape in [(9, 1), (3, 2), (_CHUNK + 1, 4)]:
            scores = rng.uniform(-1, 1, shape)
            matrix = ScoreMatrix(
                [f"t{i}" for i in range(shape[0])], [f"d{j}" for j in range(shape[1])], scores
            )
            assert_dense_bits(mnorm_stats_from_scores(matrix), scores)

    def test_empty_cohort(self):
        bank, _ = cohort_case(1, 3, 2, 2)
        with pytest.raises(ValueError, match="empty cohort"):
            compute_mnorm_stats(bank, EmbeddingSet([], [], np.zeros((0, 3))))
        with pytest.raises(ValueError, match="empty cohort"):
            mnorm_stats_from_scores(ScoreMatrix([], ["a"], np.zeros((0, 1))))

    @pytest.mark.parametrize(
        "pool, utts, sizes",
        [(8, 9, [1, 2, 8]), (3, 3, [1, 1, 3]), (520, 4, [1, 511, 512, 513, 520])],
    )
    def test_size_sweep_stats_equal_dense_slices(self, monkeypatch, pool, utts, sizes):
        seen = {}
        real_enroll, real_stack = synth.enroll, synth.stack_scores

        def spy_enroll(train):
            seen["train"] = train
            return real_enroll(train)

        def spy_stack(bank, trials, sizes, stats):
            seen["stats"], seen["bank"] = stats, bank
            return real_stack(bank, trials, sizes, stats)

        monkeypatch.setattr(synth, "enroll", spy_enroll)
        monkeypatch.setattr(synth, "stack_scores", spy_stack)
        synth.run_size_sweep(
            synth.PopulationConfig(dimension=4, seed=9),
            sizes,
            1,
            synth.PartitionSpec(pool, 4, 1, 8),
            train_utts_per_speaker=utts,
            norm_mode="full",
        )
        dense = score_all(seen["bank"], seen["train"]).scores
        assert len(seen["stats"]) == len(sizes)
        for stats, k in zip(seen["stats"], sizes):
            assert_dense_bits(stats, np.ascontiguousarray(dense[: k * utts, :k]))

    def test_peak_memory_stays_below_one_cohort_matrix(self):
        bank, cohort = cohort_case(7, 40, 600, 3000)
        matrix_bytes = len(cohort) * len(bank) * 8
        tracemalloc.start()
        try:
            compute_mnorm_stats(bank, cohort)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes, f"peak {peak / 2**20:.1f} MiB"


class TestDetectorBank:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            DetectorBank(("a",), np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DetectorBank((), np.zeros((0, 2))), "a detector bank needs at least one model"),
            # two utterances of speaker a point opposite ways
            (
                lambda: enroll(EmbeddingSet(["u1", "u2"], ["a", "a"], [[1.0, 0.0], [-1.0, 0.0]])),
                "speaker 'a': utterances cancel to a zero mean",
            ),
        ],
        ids=["no_model", "zero_mean"],
    )
    def test_no_model_or_a_zero_mean_model_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_models_view(self):
        b = enroll(EmbeddingSet(["u"], ["a"], [[0.0, 2.0]]))
        assert b.speaker_ids == ("a",)
        assert b.directions[0].tolist() == [0.0, 1.0]


def kernel_case(seed, dim, n_unique, n_det, n_trials, sizes):
    """Bank with duplicated directions (exact score ties), trials, per-size stats."""
    rng = np.random.default_rng(seed)
    unique = rng.standard_normal((n_unique, dim))
    unique /= np.linalg.norm(unique, axis=1)[:, None]
    pick = np.concatenate([np.arange(n_unique), rng.integers(n_unique, size=n_det - n_unique)])
    bank = DetectorBank([f"d{j}" for j in range(n_det)], unique[rng.permutation(pick)])
    trials = EmbeddingSet(
        [f"t{i}" for i in range(n_trials)], [None] * n_trials,
        rng.standard_normal((n_trials, dim)),
    )
    stats = [
        MNormStats(rng.uniform(-1.0, 1.0, k), rng.uniform(0.1, 2.0, k), 1) for k in sizes
    ]
    return bank, trials, stats


def assert_kernel_matches_dense(seed, dim, n_unique, n_det, n_trials, sizes, mode):
    bank, trials, stats = kernel_case(seed, dim, n_unique, n_det, n_trials, sizes)
    y1, h1 = stack_scores(bank, trials, sizes, [st.for_mode(mode) for st in stats])
    assert y1.shape == h1.shape == (len(sizes), n_trials)
    dense = score_all(bank, trials)
    for i, (k, st) in enumerate(zip(sizes, stats)):
        sub = ScoreMatrix(dense.trial_ids, dense.detector_ids[:k], dense.scores[:, :k])
        y, h = stack_reduce(apply_mnorm(sub, st, mode))
        assert y.tobytes() == y1[i].tobytes()
        assert h.astype(np.int64).tobytes() == h1[i].tobytes()


class TestStackScores:
    @pytest.mark.parametrize("mode", NORM_MODES)
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        n_unique=st.integers(1, 5),
        extra=st.integers(0, 6),
        n_trials=st.sampled_from([1, 2, 7, 40, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
        raw_sizes=st.lists(st.integers(1, 11), min_size=1, max_size=4),
    )
    def test_equals_dense_reference(self, mode, seed, dim, n_unique, extra, n_trials, raw_sizes):
        n_det = n_unique + extra
        sizes = sorted(min(k, n_det) for k in raw_sizes)  # nondecreasing, may repeat
        assert_kernel_matches_dense(seed, dim, n_unique, n_det, n_trials, sizes, mode)

    @pytest.mark.parametrize("n_trials", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_block_boundaries(self, n_trials):
        for mode in NORM_MODES:
            assert_kernel_matches_dense(7, 3, 2, 6, n_trials, [1, 2, 2, 6], mode)

    def test_duplicate_directions_tie_to_lowest_index(self):
        """At the full width and at narrower sizes, which score strided views of the block."""
        bank = DetectorBank(list("abcd"), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        trials = EmbeddingSet(["t", "u"], [None, None], [[2.0, 0.0], [0.0, 3.0]])
        sizes = [1, 2, 3, 4]
        y_star, h_star = stack_scores(bank, trials, sizes)
        assert h_star.tolist() == [[0, 0], [0, 0], [0, 2], [0, 2]]
        assert y_star[-1].tolist() == [1.0, 1.0]
        dense = score_all(bank, trials)
        for y1, h1, k in zip(y_star, h_star, sizes):
            y, h = stack_reduce(ScoreMatrix(dense.trial_ids, dense.detector_ids[:k], dense.scores[:, :k]))
            assert y.tobytes() == y1.tobytes()
            assert h.astype(np.int64).tobytes() == h1.tobytes()

    def test_non_finite_normalized_scores_rejected(self):
        bank, trials, _ = kernel_case(3, 4, 2, 3, 10, [3])
        tiny = MNormStats(np.zeros(3), np.full(3, 1e-320), 1)  # scores overflow
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                apply_mnorm(score_all(bank, trials), tiny, "scale")
            with pytest.raises(ValueError, match="non-finite"):
                stack_scores(bank, trials, [3], [tiny.for_mode("scale")])
            with pytest.raises(ValueError, match="scores contain non-finite values"):
                next(score_blocks(bank, trials, tiny.for_mode("scale")))

    def test_argument_checks(self):
        bank, trials, stats = kernel_case(5, 4, 2, 3, 10, [2, 3])
        with pytest.raises(ValueError, match=r"got \[\]"):
            stack_scores(bank, trials, [])
        with pytest.raises(ValueError, match=r"1\.\.3, got \[4\]"):
            stack_scores(bank, trials, [4])
        with pytest.raises(ValueError, match=r"1\.\.3, got \[0, 2\]"):
            stack_scores(bank, trials, [0, 2])
        with pytest.raises(ValueError, match="1 sets of normalization statistics for 2"):
            stack_scores(bank, trials, [2, 3], stats[:1])
        with pytest.raises(ValueError, match="size mismatch"):
            stack_scores(bank, trials, [3, 2], stats)
        wide = EmbeddingSet(["t"], [None], [[1.0] * 5])
        with pytest.raises(ValueError, match="dimension mismatch"):
            stack_scores(bank, wide, [3])


class TestInPlaceMNorm:
    @pytest.mark.parametrize("sizes", [[6], [2, 3, 6, 6], [6, 2], [1, 1, 4]])
    def test_each_size_gets_a_contiguous_output(self, monkeypatch, sizes):
        outs = []
        real = bank_mod._mnorm

        def spy(scores, stats, out=None):
            outs.append(out)
            return real(scores, stats, out)

        monkeypatch.setattr(bank_mod, "_mnorm", spy)
        bank, trials, stats = kernel_case(11, 3, 2, 6, 5, sizes)
        y, h = stack_scores(bank, trials, sizes, stats)
        assert [out.shape for out in outs] == [(5, k) for k in sizes]
        assert all(out.flags.c_contiguous for out in outs)
        monkeypatch.setattr(bank_mod, "_mnorm", real)
        assert_kernel_matches_dense(11, 3, 2, 6, 5, sizes, "full")


class TestSpanMemory:
    """Each span normalizes its own trials: no normalized copy of the whole set."""

    @pytest.mark.parametrize("scorer", ["stack_scores", "score_blocks"])
    def test_peak_stays_below_the_trial_vectors(self, scorer):
        rng = np.random.default_rng(17)
        n = 3 * _CHUNK + 1
        trials = EmbeddingSet([f"t{i}" for i in range(n)], [None] * n, rng.standard_normal((n, 600)))
        speakers = [f"d{i}" for i in range(8)]
        bank = enroll(EmbeddingSet(speakers, speakers, rng.standard_normal((8, 600))))
        tracemalloc.start()
        try:
            if scorer == "stack_scores":
                stack_scores(bank, trials, [len(bank)])
            else:
                for block in score_blocks(bank, trials):
                    del block
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < trials.vectors.nbytes, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("consumer", ["stack_scores", "compute_mnorm_stats", "save_table"])
    def test_narrow_sizes_add_no_copy_of_the_block(self, tmp_path, consumer):
        """Each consumer of ``score_blocks`` holds one block at a time.

        Sizes below the bank width hold no float copy of their strided view.
        """
        rng = np.random.default_rng(19)
        n = 2 * _CHUNK + 1
        speakers = [f"d{i}" for i in range(400)]
        trials = EmbeddingSet(
            [f"t{i}" for i in range(n)], [speakers[i % 400] for i in range(n)],
            rng.standard_normal((n, 40)),
        )
        bank = enroll(EmbeddingSet(speakers, speakers, rng.standard_normal((400, 40))))
        tracemalloc.start()
        try:
            if consumer == "stack_scores":
                stack_scores(bank, trials, [100, 300, 400])
            elif consumer == "compute_mnorm_stats":
                compute_mnorm_stats(bank, trials)
            else:
                header = ("utterance_id", *bank.speaker_ids)
                blocks = score_blocks(bank, trials)
                save_table(tmp_path / "s.csv", header, (trials.utterance_ids,), blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = _CHUNK * len(bank) * 8
        assert peak < 1.25 * block_bytes, f"peak {peak / block_bytes:.2f} x one block"


class TestScoreBlocks:
    @pytest.mark.parametrize("n_trials", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_blocks_concatenate_to_the_dense_matrix(self, n_trials, mode):
        bank, trials, (stats,) = kernel_case(13, 3, 2, 5, n_trials, [5])
        blocks = list(score_blocks(bank, trials, stats.for_mode(mode)))
        assert [b.shape for b in blocks] == [
            (min(_CHUNK, n_trials - a), 5) for a in range(0, n_trials, _CHUNK)
        ]
        assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)
        dense = apply_mnorm(score_all(bank, trials), stats, mode)
        assert np.concatenate(blocks).tobytes() == dense.scores.tobytes()

    def test_no_trials_give_one_empty_block(self):
        bank, trials, _ = kernel_case(13, 3, 2, 5, 0, [5])
        (block,) = score_blocks(bank, trials)
        assert block.shape == (0, 5)

    def test_arguments_checked_before_the_first_block(self):
        bank, trials, _ = kernel_case(13, 3, 2, 5, 4, [5])
        with pytest.raises(ValueError, match="size mismatch: 4 stats vs 5 detectors"):
            score_blocks(bank, trials, MNormStats(np.zeros(4), np.ones(4), 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_blocks(bank, EmbeddingSet(["t"], [None], [[1.0, 0.0]]))
