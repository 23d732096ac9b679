import tracemalloc
import weakref

import numpy as np
import pytest

from stackdet import synth
from stackdet.bank import enroll, score_all
from stackdet.synth import (
    PartitionSpec,
    PopulationConfig,
    default_partition_specs,
    derive_replicate_seed,
    generate_population,
    run_size_sweep,
    save_size_sweep,
)

SMALL = PopulationConfig(dimension=8, speaker_spread=1.0, channel_spread=0.5, seed=5)


def small_specs():
    train = PartitionSpec(6, 3, 3, 7)
    dev = PartitionSpec(6, 2, 1, 2)
    test = PartitionSpec(6, 4, 1, 4)
    return train, dev, test


class TestPartitionSpec:
    def test_benchmark_totals(self):
        train, dev, test = default_partition_specs()
        assert train.total_utterances == 41845
        assert dev.total_utterances == 8631
        assert test.total_utterances == 16017

    def test_background_totals_must_cover_speakers(self):
        with pytest.raises(ValueError, match="at least one utterance"):
            PartitionSpec(1, 5, 1, 3)
        with pytest.raises(ValueError, match="without background speakers"):
            PartitionSpec(1, 0, 1, 3)

    def test_blacklist_needs_utterances(self):
        with pytest.raises(ValueError, match="at least one utterance"):
            PartitionSpec(2, 0, 0, 0)

    @pytest.mark.parametrize("counts", [(-1, 0), (0, -1)])
    def test_negative_speaker_counts(self, counts):
        with pytest.raises(ValueError, match="speaker counts must be non-negative"):
            PartitionSpec(*counts)


class TestGeneratePopulation:
    def test_small_shapes_and_labels(self):
        train, dev, test = small_specs()
        pop = generate_population(SMALL, train, dev, test)
        assert len(pop.train) == 6 * 3 + 7
        assert len(pop.dev) == 6 + 2
        assert len(pop.test) == 6 + 4
        assert len(pop.blacklist_speaker_ids) == 6
        # train backgrounds are labeled, dev/test backgrounds are not
        assert all(s is not None for s in pop.train.speaker_ids)
        assert pop.dev.speaker_ids[-2:] == (None, None)
        assert pop.test.speaker_ids[-4:] == (None,) * 4
        # background total 7 over 3 speakers splits 3/2/2
        bg_counts = {}
        for s in pop.train.speaker_ids:
            if s not in pop.blacklist_speaker_ids:
                bg_counts[s] = bg_counts.get(s, 0) + 1
        assert sorted(bg_counts.values(), reverse=True) == [3, 2, 2]

    def test_blacklist_shared_and_backgrounds_disjoint(self):
        train, dev, test = small_specs()
        pop = generate_population(SMALL, train, dev, test)
        bl = set(pop.blacklist_speaker_ids)
        for es in (pop.train, pop.dev, pop.test):
            labeled = {s for s in es.speaker_ids if s is not None}
            assert bl <= labeled | bl
            assert bl & labeled == bl & labeled  # blacklist ids appear labeled
        train_bg = {s for s in pop.train.speaker_ids if s is not None} - bl
        assert train_bg and not (train_bg & bl)

    def test_benchmark_partition_sizes(self, benchmark_population_small_dim):
        pop = benchmark_population_small_dim
        assert len(pop.train) == 41845
        assert len(pop.dev) == 8631
        assert len(pop.test) == 16017
        assert len(pop.blacklist_speaker_ids) == 3631

    def test_determinism(self):
        train, dev, test = small_specs()
        a = generate_population(SMALL, train, dev, test)
        b = generate_population(SMALL, train, dev, test)
        for x, y in ((a.train, b.train), (a.dev, b.dev), (a.test, b.test)):
            assert x == y
            assert x.vectors.tobytes() == y.vectors.tobytes()

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
    def test_equals_one_draw_per_speaker(self, seed):
        """The per-partition draw against the stated order: one draw per speaker."""
        cfg = PopulationConfig(dimension=5, speaker_spread=1.0, channel_spread=2.0, seed=seed)
        specs = (PartitionSpec(4, 3, 2, 7), PartitionSpec(0, 0), PartitionSpec(3, 2, 1, 5))
        pop = generate_population(cfg, *specs)
        rng = np.random.default_rng(seed)
        bl_means = rng.normal(0.0, 1.0, (4, 5))
        for es, name, spec in zip((pop.train, pop.dev, pop.test), ("train", "dev", "test"), specs):
            bg_means = rng.normal(0.0, 1.0, (spec.background_speakers, 5))
            rows, utts, spks = [], [], []
            for i in range(spec.blacklist_speakers):
                for j in range(spec.blacklist_utts_per_speaker):
                    utts.append(f"bl{i + 1:05d}_{name}{j + 1:02d}")
                    spks.append(f"bl{i + 1:05d}")
                rows.append(bl_means[i] + rng.normal(0.0, 2.0, (spec.blacklist_utts_per_speaker, 5)))
            base, extra = divmod(spec.background_utts, max(spec.background_speakers, 1))
            for b in range(spec.background_speakers):
                count = base + (b < extra)
                bg = f"bg_{name}{b + 1:05d}"
                utts += [f"{bg}_{name}{j + 1:02d}" for j in range(count)]
                spks += [bg if name == "train" else None] * count
                rows.append(bg_means[b] + rng.normal(0.0, 2.0, (count, 5)))
            expect = np.vstack(rows) if rows else np.zeros((0, 5))
            assert (es.utterance_ids, es.speaker_ids) == (tuple(utts), tuple(spks))
            assert es.vectors.view(np.uint64).tolist() == expect.view(np.uint64).tolist()

    def test_peak_stays_near_the_vectors(self):
        """Means and noise are drawn in spans: no whole-partition temporary beside the vectors."""
        n = 8 * 2048
        specs = (PartitionSpec(2, 0, 1, 0), PartitionSpec(0, 0), PartitionSpec(2, n, 1, n))
        tracemalloc.start()
        try:
            pop = generate_population(PopulationConfig(dimension=400, seed=3), *specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector_bytes = sum(es.vectors.nbytes for es in (pop.train, pop.dev, pop.test))
        assert peak < 1.25 * vector_bytes, f"peak {peak / vector_bytes:.2f} x the vectors"

    def test_seed_changes_vectors(self):
        train, dev, test = small_specs()
        a = generate_population(SMALL, train, dev, test)
        b = generate_population(
            PopulationConfig(dimension=8, channel_spread=0.5, seed=6), train, dev, test
        )
        assert not np.array_equal(a.train.vectors, b.train.vectors)

    def test_zero_channel_spread_repeats_speaker_mean(self):
        cfg = PopulationConfig(dimension=4, channel_spread=0.0, seed=9)
        pop = generate_population(cfg, PartitionSpec(2, 0, 3, 0), PartitionSpec(2, 0, 1, 0), PartitionSpec(2, 1, 1, 2))
        v = pop.train.vectors
        assert np.array_equal(v[0], v[1]) and np.array_equal(v[1], v[2])
        assert np.array_equal(v[3], v[4]) and np.array_equal(v[4], v[5])
        # the same mean is reused across partitions
        assert np.array_equal(pop.dev.vectors[0], v[0])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            PopulationConfig(dimension=1)
        with pytest.raises(ValueError, match="speaker_spread"):
            PopulationConfig(speaker_spread=0.0)
        with pytest.raises(ValueError, match="channel_spread"):
            PopulationConfig(channel_spread=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="speaker_spread"):
                PopulationConfig(speaker_spread=bad)
            with pytest.raises(ValueError, match="channel_spread"):
                PopulationConfig(channel_spread=bad)
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
                PopulationConfig(seed=bad)

    def test_no_blacklist_speaker_is_rejected(self):
        none = PartitionSpec(0, 2, 1, 2)
        with pytest.raises(ValueError, match="at least one blacklist speaker is required"):
            generate_population(SMALL, none, none, none)


class TestReplicateSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_replicate_seed(1234, 0)
        assert a == derive_replicate_seed(1234, 0)
        seeds = {derive_replicate_seed(1234, i) for i in range(16)}
        assert len(seeds) == 16
        assert derive_replicate_seed(1235, 0) != a


class TestSubsetConsistency:
    def test_prefix_bank_equals_independent_enrollment(self):
        cfg = PopulationConfig(dimension=6, channel_spread=1.0, seed=3)
        pop = generate_population(
            cfg, PartitionSpec(8, 0, 3, 0), PartitionSpec(0, 0), PartitionSpec(8, 2, 1, 2)
        )
        full = enroll(pop.train)
        for k in (1, 3, 8):
            first_k_speakers = set(pop.blacklist_speaker_ids[:k])
            mask = [s in first_k_speakers for s in pop.train.speaker_ids]
            sub = enroll(pop.train.subset(mask))
            assert sub.speaker_ids == full.speaker_ids[:k]
            assert sub.directions.tobytes() == full.directions[:k].tobytes()


class TestRunSizeSweep:
    def small_sweep(self, **kwargs):
        cfg = PopulationConfig(dimension=16, channel_spread=1.0, seed=77)
        test_spec = PartitionSpec(30, 40, 1, 40)
        defaults = dict(sizes=[5, 30], replicates=2, test_spec=test_spec)
        defaults.update(kwargs)
        return run_size_sweep(cfg, **defaults)

    def test_shapes_and_dominance(self):
        r = self.small_sweep()
        assert r.sizes == (5, 30)
        assert r.replicate_top_s.shape == (2, 2)
        assert (r.replicate_top_1 >= r.replicate_top_s - 1e-12).all()
        assert (r.top_1_eer >= r.top_s_eer - 1e-12).all()

    def test_bit_for_bit_determinism(self):
        a = self.small_sweep()
        b = self.small_sweep()
        assert a.replicate_top_s.tobytes() == b.replicate_top_s.tobytes()
        assert a.replicate_top_1.tobytes() == b.replicate_top_1.tobytes()
        assert a.replicate_seeds == b.replicate_seeds

    def test_zero_channel_spread_gives_zero_top_1_eer(self):
        cfg = PopulationConfig(dimension=12, channel_spread=0.0, seed=13)
        test_spec = PartitionSpec(20, 25, 1, 25)
        r = run_size_sweep(cfg, [1, 20], 3, test_spec)
        assert (r.replicate_top_1 == 0.0).all()
        assert (r.replicate_top_s == 0.0).all()

    def test_zero_spread_cross_scores_stay_below_one(self):
        cfg = PopulationConfig(dimension=12, channel_spread=0.0, seed=29)
        pop = generate_population(
            cfg, PartitionSpec(10, 0, 3, 0), PartitionSpec(0, 0), PartitionSpec(10, 5, 1, 5)
        )
        bank = enroll(pop.train)
        scores = score_all(bank, pop.test).scores
        own = {spk: i for i, spk in enumerate(bank.speaker_ids)}
        for t, spk in enumerate(pop.test.speaker_ids):
            for d in range(len(bank)):
                if spk is not None and own[spk] == d:
                    assert abs(scores[t, d] - 1.0) < 1e-12
                else:
                    assert scores[t, d] < 1.0 - 1e-9

    def test_single_detector_modes_agree(self):
        cfg = PopulationConfig(dimension=12, channel_spread=0.1, seed=13)
        test_spec = PartitionSpec(1, 10, 1, 10)
        r = run_size_sweep(cfg, [1], 2, test_spec)
        assert np.array_equal(r.replicate_top_s, r.replicate_top_1)

    def test_norm_mode_full_runs_and_dominates(self):
        r = self.small_sweep(norm_mode="full", sizes=[5, 30], replicates=1,
                             train_utts_per_speaker=4)
        assert (r.top_1_eer >= r.top_s_eer - 1e-12).all()

    @pytest.mark.parametrize("norm_mode", ["none", "full"])
    def test_one_replicate_alive_at_a_time(self, monkeypatch, norm_mode):
        train_alive, earlier_alive, refs, trains = [], [], [], []
        real_generate, real_enroll, real_stack = (
            synth.generate_population, synth.enroll, synth.stack_scores
        )

        def spy_generate(*args):
            earlier_alive.append([ref() is not None for ref in refs])
            pop = real_generate(*args)
            refs.append(weakref.ref(pop.test))
            trains.append(weakref.ref(pop.train))
            return pop

        def spy_enroll(train):
            bank = real_enroll(train)
            refs.append(weakref.ref(bank))
            return bank

        def spy_stack(bank, trials, sizes, stats):
            train_alive.append(trains[-1]() is not None)
            y_star, h_star = real_stack(bank, trials, sizes, stats)
            refs.extend([weakref.ref(y_star), weakref.ref(h_star)])
            return y_star, h_star

        monkeypatch.setattr(synth, "generate_population", spy_generate)
        monkeypatch.setattr(synth, "enroll", spy_enroll)
        monkeypatch.setattr(synth, "stack_scores", spy_stack)
        self.small_sweep(replicates=3, norm_mode=norm_mode)
        assert train_alive == [False] * 3
        # replicate r's test set, bank, y* and h* are gone before r + 1 is drawn
        assert earlier_alive == [[], [False] * 4, [False] * 8]

    def test_size_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            self.small_sweep(sizes=[31])
        with pytest.raises(ValueError, match="nondecreasing"):
            self.small_sweep(sizes=[30, 5])
        with pytest.raises(ValueError, match="positive"):
            self.small_sweep(sizes=[0, 5])
        with pytest.raises(ValueError, match="no sizes"):
            self.small_sweep(sizes=[])

    @pytest.mark.parametrize(
        "argument, message",
        [
            ({"replicates": 0}, "replicates must be positive"),
            ({"norm_mode": "zscore"}, "normalization mode must be one of"),
            ({"train_utts_per_speaker": 0}, "train_utts_per_speaker must be positive"),
        ],
    )
    def test_argument_validation(self, argument, message):
        with pytest.raises(ValueError, match=message):
            self.small_sweep(**argument)

    def test_save_artifacts(self, tmp_path):
        r = self.small_sweep()
        save_size_sweep(r, tmp_path / "s.csv", tmp_path / "s.json", config={"seed": 77})
        text = (tmp_path / "s.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "blacklist_size,top_s_eer,top_1_eer"
        assert len(lines) == 3
        rows = zip(r.sizes, r.top_s_eer.tolist(), r.top_1_eer.tolist())
        assert lines[1:] == [f"{k},{s!r},{o!r}" for k, s, o in rows]
        import json

        sidecar = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert sidecar["sizes"] == [5, 30]
        assert sidecar["config"] == {"seed": 77}
        assert len(sidecar["replicates"]["top_1_eer"]) == 2
