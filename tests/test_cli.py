import codecs
import csv
import errno
import io
import json
import math
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackdet import bank as bank_mod
from stackdet import cli, data, synth
from stackdet.bank import apply_mnorm, compute_mnorm_stats, enroll, score_all
from stackdet.data import EmbeddingSet, save_embeddings, save_table
from stackdet.metrics import stack_reduce, sweep_both
from stackdet.synth import PartitionSpec, PopulationConfig, generate_population


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small population exported as the CSV files the CLI consumes."""
    root = tmp_path_factory.mktemp("cli")
    cfg = PopulationConfig(dimension=6, speaker_spread=1.0, channel_spread=0.8, seed=41)
    pop = generate_population(
        cfg,
        PartitionSpec(8, 5, 3, 20),
        PartitionSpec(8, 4, 1, 4),
        PartitionSpec(8, 30, 1, 30),
    )
    bl = set(pop.blacklist_speaker_ids)
    train_bl = pop.train.subset([s in bl for s in pop.train.speaker_ids])
    dev_bl = pop.dev.subset([s in bl for s in pop.dev.speaker_ids])
    save_embeddings(train_bl, root / "train_blacklist.csv")
    save_embeddings(dev_bl, root / "dev_blacklist.csv")
    save_embeddings(pop.test, root / "test_trials.csv")
    with (root / "test_labels.csv").open("w", encoding="utf-8", newline="") as f:
        for utt, spk in zip(pop.test.utterance_ids, pop.test.speaker_ids):
            f.write(f"{utt},{spk if spk is not None else '-'}\n")
    return root, pop, train_bl


def read_all_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


class TestEnroll:
    def test_creates_bank_and_stats(self, workspace, tmp_path, capsys):
        root, pop, train_bl = workspace
        out = tmp_path / "bank"
        rc = cli.main(
            ["enroll", "--train", str(root / "train_blacklist.csv"), "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "bank.csv").exists() and (out / "mnorm.json").exists()
        captured = capsys.readouterr()
        assert captured.out.strip() == "enrolled S=8 D=6 cohort=24"
        assert re.fullmatch(r"timing: enroll took \d+\.\d{3}s\n", captured.err)

    def test_repeat_runs_are_byte_identical(self, workspace, tmp_path):
        root, _, _ = workspace
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                cli.main(
                    [
                        "enroll",
                        "--train",
                        str(root / "train_blacklist.csv"),
                        "--out-dir",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(read_all_bytes(out))
        assert outs[0] == outs[1]

    def test_augment_extends_cohort(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        rc = cli.main(
            [
                "enroll",
                "--train",
                str(root / "train_blacklist.csv"),
                "--augment",
                str(root / "dev_blacklist.csv"),
                "--out-dir",
                str(tmp_path / "bank"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "enrolled S=8 D=6 cohort=32"

    def test_augment_of_another_dimension_names_the_file(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        augment = tmp_path / "wide.csv"
        augment.write_text("w1,s0,1.0,0,0,0,0,0,0\nw2,s0,1.0,0,0,0,0,0\n", encoding="utf-8")
        out = tmp_path / "bank"
        rc = cli.main(
            [
                "enroll",
                "--train",
                str(root / "train_blacklist.csv"),
                "--augment",
                str(augment),
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {augment}: row 1: 7 values, expected 6\n"
        assert not out.exists()

    def test_unlabeled_row_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,a,1.0,0.0\nu2,-,0.0,1.0\n", encoding="utf-8")
        rc = cli.main(
            ["enroll", "--train", str(bad), "--out-dir", str(tmp_path / "bank")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "u2" in err

    def test_bank_round_trips(self, workspace, tmp_path):
        root, _, train_bl = workspace
        out = tmp_path / "bank"
        cli.main(
            ["enroll", "--train", str(root / "train_blacklist.csv"), "--out-dir", str(out)]
        )
        loaded, stats = cli.load_bank(out)
        direct = enroll(train_bl)
        assert loaded.speaker_ids == direct.speaker_ids
        assert loaded.directions.tobytes() == direct.directions.tobytes()
        direct_stats = compute_mnorm_stats(direct, train_bl)
        assert stats.mu.tobytes() == direct_stats.mu.tobytes()
        assert stats.sigma.tobytes() == direct_stats.sigma.tobytes()
        assert stats.cohort_size == direct_stats.cohort_size


@pytest.fixture(scope="module")
def bank_dir(workspace, tmp_path_factory):
    root, _, _ = workspace
    out = tmp_path_factory.mktemp("bank") / "bank"
    assert (
        cli.main(
            ["enroll", "--train", str(root / "train_blacklist.csv"), "--out-dir", str(out)]
        )
        == 0
    )
    return out


class TestScore:
    def test_matches_library_bit_exactly(self, workspace, bank_dir, tmp_path, capsys):
        root, pop, train_bl = workspace
        out = tmp_path / "scores.csv"
        rc = cli.main(
            [
                "score",
                "--bank",
                str(bank_dir),
                "--trials",
                str(root / "test_trials.csv"),
                "--out",
                str(out),
                "--norm-mode",
                "full",
            ]
        )
        assert rc == 0
        assert re.fullmatch(r"timing: score took \d+\.\d{3}s\n", capsys.readouterr().err)
        b = enroll(train_bl)
        expected = apply_mnorm(
            score_all(b, pop.test), compute_mnorm_stats(b, train_bl), "full"
        )
        save_score_csv(expected, tmp_path / "expected.csv")
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_norm_mode_changes_scores(self, workspace, bank_dir, tmp_path):
        root, pop, train_bl = workspace
        args = [
            "score",
            "--bank",
            str(bank_dir),
            "--trials",
            str(root / "test_trials.csv"),
        ]
        assert cli.main(args + ["--out", str(tmp_path / "raw.csv"), "--norm-mode", "none"]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "full.csv"), "--norm-mode", "full"]) == 0
        b = enroll(train_bl)
        raw = score_all(b, pop.test)
        save_score_csv(raw, tmp_path / "raw_expected.csv")
        full = apply_mnorm(raw, compute_mnorm_stats(b, train_bl))
        save_score_csv(full, tmp_path / "full_expected.csv")
        for name in ("raw", "full"):
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (tmp_path / f"{name}_expected.csv").read_bytes()
        assert (tmp_path / "raw.csv").read_bytes() != (tmp_path / "full.csv").read_bytes()


def save_score_csv(matrix, path) -> None:
    """Write the dense ``matrix`` as the score CSV ``score`` streams."""
    save_table(path, ("utterance_id", *matrix.detector_ids), (matrix.trial_ids,), [matrix.scores])


def reference_score_csv(matrix) -> bytes:
    """A score CSV as csv.writer writes it, each value as ``repr(float(x))``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["utterance_id", *matrix.detector_ids])
    for utt, row in zip(matrix.trial_ids, matrix.scores):
        w.writerow([utt, *(repr(float(x)) for x in row)])
    return buf.getvalue().encode("utf-8")


class TestStreamedScore:
    CHUNK = 4

    @pytest.mark.parametrize("n_trials", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("mode", bank_mod.NORM_MODES)
    def test_equals_dense_reference(self, workspace, bank_dir, tmp_path, monkeypatch, n_trials, mode):
        root, pop, _ = workspace
        monkeypatch.setattr(bank_mod, "_CHUNK", self.CHUNK)
        trials = pop.test.subset(range(n_trials))
        save_embeddings(trials, tmp_path / "trials.csv")
        out = tmp_path / "scores.csv"
        argv = ["score", "--bank", str(bank_dir), "--trials", str(tmp_path / "trials.csv")]
        assert cli.main(argv + ["--out", str(out), "--norm-mode", mode]) == 0
        b, stats = cli.load_bank(bank_dir)
        expected = apply_mnorm(score_all(b, trials), stats, mode)
        assert out.read_bytes() == reference_score_csv(expected)

    def test_overflow_in_a_later_block_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bank_mod, "_CHUNK", 2)
        b = bank_mod.DetectorBank(("d1", "d2"), [[1.0, 0.0], [0.0, 1.0]])
        # d2's scores overflow unless they are exactly 0
        stats = bank_mod.MNormStats(np.zeros(2), np.array([1.0, 5e-324]), 3)
        cli.save_bank(b, stats, tmp_path / "bank")
        written = []
        real_write_rows = data._write_rows

        def spy(f, ids, values):
            written.extend(ids[0])
            real_write_rows(f, ids, values)

        monkeypatch.setattr(data, "_write_rows", spy)
        out = tmp_path / "scores.csv"
        argv = ["score", "--bank", str(tmp_path / "bank"), "--trials", str(tmp_path / "trials.csv")]
        # the first block is orthogonal to d2; the second is not, or is a zero vector
        for last_row, message in [
            ([1.0, 1.0], "scores contain non-finite values"),
            ([0.0, 0.0], "zero vector for utterance 't3'"),
        ]:
            trials = EmbeddingSet(["t1", "t2", "t3"], [None] * 3, [[1.0, 0.0], [2.0, 0.0], last_row])
            save_embeddings(trials, tmp_path / "trials.csv")
            out.write_bytes(b"old scores\n")
            before = sorted(p.name for p in tmp_path.iterdir())
            written.clear()
            with np.errstate(over="ignore"):
                rc = cli.main(argv + ["--out", str(out)])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert written == ["t1", "t2"]  # the bad row is met in its own span, after the first
            assert out.read_bytes() == b"old scores\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestOverflowingNorm:
    """A finite row whose norm overflows a float is an error naming it, not a zero vector."""

    def run(self, tmp_path, capsys, argv):
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", "error: vector norm overflows for utterance 'a1'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows",
        ["a1,a,1e200,1e200\na2,a,1.0,0.5\nb1,b,0.2,1.0\n", "a1,a,1e200,1e200\n"],
        ids=["pooled", "only-utterance"],
    )
    def test_enroll(self, tmp_path, capsys, rows):
        train = tmp_path / "train.csv"
        train.write_text(rows, encoding="utf-8")
        self.run(tmp_path, capsys, ["enroll", "--train", str(train), "--out-dir", str(tmp_path / "bank")])

    @pytest.mark.filterwarnings("error")
    def test_score(self, tmp_path, capsys):
        b = bank_mod.DetectorBank(("d1", "d2"), [[1.0, 0.0], [0.0, 1.0]])
        cli.save_bank(b, bank_mod.MNormStats(np.zeros(2), np.ones(2), 3), tmp_path / "bank")
        (tmp_path / "trials.csv").write_text("a1,-,1e200,1e200\n", encoding="utf-8")
        argv = ["score", "--bank", str(tmp_path / "bank"), "--trials", str(tmp_path / "trials.csv")]
        self.run(tmp_path, capsys, argv + ["--out", str(tmp_path / "scores.csv"), "--norm-mode", "none"])


class TestEval:
    def run_eval(self, workspace, bank_dir, out, extra=()):
        root, _, _ = workspace
        return cli.main(
            [
                "eval",
                "--bank",
                str(bank_dir),
                "--trials",
                str(root / "test_trials.csv"),
                "--labels",
                str(root / "test_labels.csv"),
                "--out-dir",
                str(out),
                *extra,
            ]
        )

    # a small chunk cuts the 38 trials into several spans, each its own parse round
    @pytest.mark.parametrize("chunk", [bank_mod._CHUNK, 4])
    def test_report_matches_library_pipeline(self, workspace, bank_dir, tmp_path, monkeypatch, capsys, chunk):
        root, pop, train_bl = workspace
        monkeypatch.setattr(bank_mod, "_CHUNK", chunk)
        loaded, scored = [], []
        load_embeddings, stack_scores = data.load_embeddings, bank_mod.stack_scores

        def load_spy(path, *args, **kwargs):
            loaded.append(Path(path))
            return load_embeddings(path, *args, **kwargs)

        def stack_spy(b, trials, *args, **kwargs):
            scored.append(len(trials))
            return stack_scores(b, trials, *args, **kwargs)

        monkeypatch.setattr(data, "load_embeddings", load_spy)
        monkeypatch.setattr(bank_mod, "stack_scores", stack_spy)
        assert self.run_eval(workspace, bank_dir, tmp_path / "out") == 0
        # the trials are never read whole, and each span is at most two score blocks
        assert loaded == [bank_dir / cli.BANK_FILE]
        assert sum(scored) == len(pop.test) and max(scored) <= 2 * chunk
        assert len(scored) == -(-len(pop.test) // (2 * chunk))
        assert re.fullmatch(r"timing: eval took \d+\.\d{3}s\n", capsys.readouterr().err)
        report = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
        b = enroll(train_bl)
        matrix = apply_mnorm(
            score_all(b, pop.test), compute_mnorm_stats(b, train_bl), "full"
        )
        index = {s: i for i, s in enumerate(b.speaker_ids)}
        truth = [-1 if s is None else index[s] for s in pop.test.speaker_ids]
        top_s, top_1 = sweep_both(*stack_reduce(matrix), truth)
        assert report["mode_reports"]["top_s"]["eer"] == top_s.eer
        assert report["mode_reports"]["top_1"]["eer"] == top_1.eer
        assert report["mode_reports"]["top_1"]["eer_threshold"] == top_1.eer_threshold
        assert report["mode_reports"]["top_s"]["counts"] == [8, 30]
        assert report["schema_version"] == 1
        assert report["timing"] is None
        assert (tmp_path / "out" / "det_top_s.csv").read_text("utf-8").startswith(
            "theta,p_fa,p_miss\n"
        )

    def test_spans_of_any_whole_number_of_score_blocks_give_the_same_bytes(self, workspace, bank_dir, tmp_path, monkeypatch):
        # every span is cut into score blocks at the same rows, so each product has the same shape
        monkeypatch.setattr(bank_mod, "_CHUNK", 4)
        outs = []
        for chunks in (1, 2, 3):
            monkeypatch.setattr(cli, "_SPAN_CHUNKS", chunks)
            assert self.run_eval(workspace, bank_dir, tmp_path / str(chunks)) == 0
            outs.append(read_all_bytes(tmp_path / str(chunks)))
        assert sorted(outs[0]) == ["det_top_1.csv", "det_top_s.csv", "report.json"]
        assert outs[0] == outs[1] == outs[2]

    def test_a_scoring_error_waits_for_the_parse_and_the_labels(self, tmp_path, monkeypatch, capsys):
        # spans of four trials: each is scored before the next is parsed, yet the error
        # is the one a whole read meets first: the trials, then the labels, then the scores
        monkeypatch.setattr(bank_mod, "_CHUNK", 2)
        b = bank_mod.DetectorBank(("d1", "d2"), [[1.0, 0.0], [0.0, 1.0]])
        cli.save_bank(b, bank_mod.MNormStats(np.zeros(2), np.ones(2), 3), tmp_path / "bank")
        rows = ["t0,-,0.0,0.0\n"] + [f"t{i},-,1.0,{i}.5\n" for i in range(1, 8)]  # a zero vector in span 0
        labels = [f"t{i},-\n" for i in range(8)]
        trials_csv, labels_csv, out = tmp_path / "trials.csv", tmp_path / "labels.csv", tmp_path / "out"
        argv = ["eval", "--bank", str(tmp_path / "bank"), "--trials", str(trials_csv),
                "--labels", str(labels_csv), "--out-dir", str(out)]
        for trials, label_rows, message in [
            (_replace(rows, 6, "t6,-,1.0\n"), labels, f"{trials_csv}: row 7: 1 values, expected 2"),
            (rows, labels[:-1], f"{labels_csv}: missing label for trial 't7'"),
            (rows, labels, "zero vector for utterance 't0'"),
        ]:
            trials_csv.write_text("".join(trials), encoding="utf-8")
            labels_csv.write_text("".join(label_rows), encoding="utf-8")
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_byte_identical_across_runs_and_threads(
        self, workspace, bank_dir, tmp_path, child_env
    ):
        root, _, _ = workspace
        assert self.run_eval(workspace, bank_dir, tmp_path / "a") == 0
        assert self.run_eval(workspace, bank_dir, tmp_path / "b") == 0
        assert self.run_eval(workspace, bank_dir, tmp_path / "c", ("--threads", "4")) == 0
        # a separate process whose BLAS runs on one thread
        child = subprocess.run(
            [
                sys.executable, "-m", "stackdet.cli", "eval",
                "--bank", str(bank_dir),
                "--trials", str(root / "test_trials.csv"),
                "--labels", str(root / "test_labels.csv"),
                "--out-dir", str(tmp_path / "d"),
            ],
            env=child_env(1),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        a = read_all_bytes(tmp_path / "a")
        assert a == read_all_bytes(tmp_path / "b")
        assert a == read_all_bytes(tmp_path / "c")
        assert a == read_all_bytes(tmp_path / "d")

    def test_norm_modes_differ_only_via_score_transform(self, workspace, bank_dir, tmp_path):
        assert self.run_eval(workspace, bank_dir, tmp_path / "raw", ("--norm-mode", "none")) == 0
        assert self.run_eval(workspace, bank_dir, tmp_path / "full", ("--norm-mode", "full")) == 0
        raw = json.loads((tmp_path / "raw" / "report.json").read_text("utf-8"))
        full = json.loads((tmp_path / "full" / "report.json").read_text("utf-8"))
        assert raw.keys() == full.keys()
        for mode in ("top_s", "top_1"):
            assert raw["mode_reports"][mode]["counts"] == full["mode_reports"][mode]["counts"]
        assert (
            raw["mode_reports"]["top_s"]["eer_threshold"]
            != full["mode_reports"]["top_s"]["eer_threshold"]
        )

    def test_missing_label_is_an_error(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        labels = tmp_path / "incomplete.csv"
        lines = (root / "test_labels.csv").read_text("utf-8").splitlines()[:-1]
        labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = cli.main(
            [
                "eval",
                "--bank",
                str(bank_dir),
                "--trials",
                str(root / "test_trials.csv"),
                "--labels",
                str(labels),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        assert "missing label" in capsys.readouterr().err

    def test_unknown_truth_speaker_is_an_error(self, workspace, bank_dir, tmp_path, capsys):
        root, pop, _ = workspace
        labels = tmp_path / "bad.csv"
        rows = [f"{u},nobody" for u in pop.test.utterance_ids]
        labels.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = cli.main(
            [
                "eval",
                "--bank",
                str(bank_dir),
                "--trials",
                str(root / "test_trials.csv"),
                "--labels",
                str(labels),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        assert "not in the bank" in capsys.readouterr().err


def write_labels(path, rows):
    """Label CSV of ``(utterance_id, truth)`` rows, ids quoted by the csv module."""
    with path.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\r\n").writerows(rows)


class TestMetamorphic:
    """Input changes whose effect on the eval outputs is known exactly."""

    def eval_into(self, workspace, bank, labels, out):
        root, _, _ = workspace
        argv = ["eval", "--bank", str(bank), "--trials", str(root / "test_trials.csv")]
        assert cli.main([*argv, "--labels", str(labels), "--out-dir", str(out)]) == 0
        return read_all_bytes(out)

    def test_renaming_speakers_keeps_reports(self, workspace, bank_dir, tmp_path):
        root, pop, train_bl = workspace
        speakers = list(dict.fromkeys(train_bl.speaker_ids))
        # reversed order, and ids that need csv quoting: a comma, a quote, a CR
        renamed = {s: f'{len(speakers) - i},"q"\r{s}' for i, s in enumerate(speakers)}
        train = EmbeddingSet(
            train_bl.utterance_ids,
            [renamed[s] for s in train_bl.speaker_ids],
            train_bl.vectors,
        )
        train_csv, bank = tmp_path / "train.csv", tmp_path / "bank"
        save_embeddings(train, train_csv)
        assert cli.main(["enroll", "--train", str(train_csv), "--out-dir", str(bank)]) == 0
        write_labels(
            tmp_path / "labels.csv",
            [
                (u, data.UNLABELED if s is None else renamed[s])
                for u, s in zip(pop.test.utterance_ids, pop.test.speaker_ids)
            ],
        )
        got = self.eval_into(workspace, bank, tmp_path / "labels.csv", tmp_path / "renamed")
        want = self.eval_into(workspace, bank_dir, root / "test_labels.csv", tmp_path / "plain")
        got_modes, want_modes = (
            json.dumps(json.loads(out["report.json"])["mode_reports"], indent=2, sort_keys=True)
            for out in (got, want)
        )
        assert got_modes == want_modes
        assert all(got[name] == want[name] for name in cli.DET_FILES)

    def test_permuting_label_rows_changes_no_byte(self, workspace, bank_dir, tmp_path):
        root, _, _ = workspace
        rows = [line.split(",") for line in (root / "test_labels.csv").read_text("utf-8").splitlines()]
        labels = tmp_path / "labels.csv"
        write_labels(labels, rows)
        before = self.eval_into(workspace, bank_dir, labels, tmp_path / "before")
        write_labels(labels, [rows[i] for i in np.random.default_rng(5).permutation(len(rows))])
        assert self.eval_into(workspace, bank_dir, labels, tmp_path / "after") == before

    def test_a_bom_on_every_csv_input_changes_no_byte(self, workspace, bank_dir, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; it is dropped, as utf-8-sig drops it
        root, _, _ = workspace
        bom = tmp_path / "bom"
        (bom / "bank").mkdir(parents=True)
        sources = {
            bom / "train.csv": root / "train_blacklist.csv",
            bom / "trials.csv": root / "test_trials.csv",
            bom / "labels.csv": root / "test_labels.csv",
            bom / "bank" / cli.BANK_FILE: bank_dir / cli.BANK_FILE,
        }
        for dst, src in sources.items():
            dst.write_bytes(codecs.BOM_UTF8 + src.read_bytes())
        assert cli.main(["enroll", "--train", str(bom / "train.csv"), "--out-dir", str(tmp_path / "bank")]) == 0
        assert read_all_bytes(tmp_path / "bank") == read_all_bytes(bank_dir)
        (bom / "bank" / cli.MNORM_FILE).write_bytes((bank_dir / cli.MNORM_FILE).read_bytes())
        argv = ["eval", "--bank", str(bom / "bank"), "--trials", str(bom / "trials.csv")]
        assert cli.main([*argv, "--labels", str(bom / "labels.csv"), "--out-dir", str(tmp_path / "got")]) == 0
        got = read_all_bytes(tmp_path / "got")
        want = self.eval_into(workspace, bank_dir, root / "test_labels.csv", tmp_path / "want")
        reports = [json.loads(out.pop(cli.REPORT_FILE)) for out in (got, want)]
        for report in reports:
            del report["config"]  # it echoes the input paths
        assert reports[0] == reports[1]
        assert got == want


class TestMalformedBank:
    @pytest.fixture
    def broken_bank(self, bank_dir, tmp_path):
        """Copy of the enrolled bank whose mnorm.json the test rewrites."""
        out = tmp_path / "bank"
        out.mkdir()
        for name in ("bank.csv", "mnorm.json"):
            (out / name).write_bytes((bank_dir / name).read_bytes())
        return out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("detector_ids"), "missing key 'detector_ids'"),
            (lambda p: p.update(mu="zero"), "key 'mu' must be a list of numbers"),
            (lambda p: p.update(cohort_size=2.5), "key 'cohort_size' must be an integer"),
            (lambda p: p.update(schema_version=99), "unsupported schema_version 99"),
            (lambda p: p.update(sigma=p["sigma"][:-1]), "mu and sigma"),
            (lambda p: p["mu"].insert(0, 10**400), "int too large to convert to float"),
            (
                lambda p: p.update(mu=p["mu"][:-1], sigma=p["sigma"][:-1]),
                "7 statistics for 8 detectors in bank.csv",
            ),
        ],
    )
    def test_bad_mnorm_is_a_clean_error(self, workspace, broken_bank, tmp_path, capsys, edit, message):
        path = broken_bank / "mnorm.json"
        payload = json.loads(path.read_text("utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.assert_clean_eval_error(workspace, broken_bank, tmp_path, capsys, message)

    def test_deeply_nested_mnorm_is_a_clean_error(self, workspace, broken_bank, tmp_path, capsys):
        text = "[" * 100000 + "]" * 100000
        (broken_bank / "mnorm.json").write_text(text, encoding="utf-8")
        self.assert_clean_eval_error(workspace, broken_bank, tmp_path, capsys, "nested too deeply")

    def assert_clean_eval_error(self, workspace, broken_bank, tmp_path, capsys, message):
        root, _, _ = workspace
        rc = cli.main(
            [
                "eval",
                "--bank", str(broken_bank),
                "--trials", str(root / "test_trials.csv"),
                "--labels", str(root / "test_labels.csv"),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(broken_bank / "mnorm.json") in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda rows: [
                    rows[0][:2] + [repr(2 * float(v)) for v in rows[0][2:]],
                    *rows[1:],
                ],
                "is not unit length",
            ),
            (
                lambda rows: [rows[0][:2] + [repr(1e200 * float(v)) for v in rows[0][2:]], *rows[1:]],
                "not unit length",
            ),
            (lambda rows: [rows[0], [rows[0][0], *rows[1][1:]], *rows[2:]], "duplicate utterance id"),
            (lambda rows: [rows[0][:2] + ["nan"] + rows[0][3:], *rows[1:]], "non-finite value"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # an overflowing norm warns nothing either
    def test_bad_bank_csv_is_a_clean_error(self, workspace, broken_bank, tmp_path, capsys, edit, message):
        root, _, _ = workspace
        path = broken_bank / "bank.csv"
        rows = [line.split(",") for line in path.read_text("utf-8").splitlines()]
        path.write_text("".join(",".join(r) + "\n" for r in edit(rows)), encoding="utf-8")
        out = tmp_path / "scores.csv"
        rc = cli.main(
            ["score", "--bank", str(broken_bank), "--trials", str(root / "test_trials.csv"), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert str(path) in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestBankWithoutMnorm:
    @pytest.fixture
    def bare_bank(self, bank_dir, tmp_path):
        """Copy of the enrolled bank without its mnorm.json."""
        out = tmp_path / "bank"
        out.mkdir()
        (out / "bank.csv").write_bytes((bank_dir / "bank.csv").read_bytes())
        return out

    def argv(self, workspace, bank, command, trials, out):
        root, _, _ = workspace
        if command == "score":
            return ["score", "--bank", str(bank), "--trials", str(trials), "--out", str(out)]
        return [
            "eval", "--bank", str(bank), "--trials", str(trials),
            "--labels", str(root / "test_labels.csv"), "--out-dir", str(out),
        ]

    @pytest.mark.parametrize("mode", ["full", "shift", "scale"])
    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_normalizing_mode_fails_before_reading_trials(
        self, workspace, bare_bank, tmp_path, capsys, command, mode
    ):
        # the trials path does not exist, so the error comes before any input is read
        out = tmp_path / "out"
        argv = self.argv(workspace, bare_bank, command, tmp_path / "missing.csv", out)
        assert cli.main([*argv, "--norm-mode", mode]) == 1
        assert capsys.readouterr().err == (
            f"error: normalization mode {mode!r} needs mnorm.json in the bank directory\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_mode_none_needs_no_stats(self, workspace, bare_bank, tmp_path, command):
        root, _, _ = workspace
        out = tmp_path / "out"
        argv = self.argv(workspace, bare_bank, command, root / "test_trials.csv", out)
        assert cli.main([*argv, "--norm-mode", "none"]) == 0
        assert out.exists()


def _with_bad_byte(src, dst, at=40):
    """Copy of ``src`` with a 0xff byte (never valid UTF-8) at offset ``at``."""
    raw = src.read_bytes()
    dst.write_bytes(raw[:at] + b"\xff" + raw[at:])
    return dst


class TestNotUtf8:
    def check(self, argv, bad, output, capsys, at=40, line=1):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: line {line}, byte {at}: not valid UTF-8")
        assert "Traceback" not in err
        assert not output.exists()

    def test_trials(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        bad = _with_bad_byte(root / "test_trials.csv", tmp_path / "trials.csv")
        out = tmp_path / "scores.csv"
        argv = ["score", "--bank", str(bank_dir), "--trials", str(bad), "--out", str(out)]
        self.check(argv, bad, out, capsys)

    def test_train(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        bad = _with_bad_byte(root / "train_blacklist.csv", tmp_path / "train.csv")
        out = tmp_path / "bank"
        self.check(["enroll", "--train", str(bad), "--out-dir", str(out)], bad, out, capsys)

    def test_bank_csv(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        bank = tmp_path / "bank"
        bank.mkdir()
        (bank / "mnorm.json").write_bytes((bank_dir / "mnorm.json").read_bytes())
        bad = _with_bad_byte(bank_dir / "bank.csv", bank / "bank.csv")
        out = tmp_path / "scores.csv"
        argv = ["score", "--bank", str(bank), "--trials", str(root / "test_trials.csv"), "--out", str(out)]
        self.check(argv, bad, out, capsys)

    def test_labels(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        bad = _with_bad_byte(root / "test_labels.csv", tmp_path / "labels.csv", at=10)
        out = tmp_path / "out"
        argv = [
            "eval",
            "--bank", str(bank_dir),
            "--trials", str(root / "test_trials.csv"),
            "--labels", str(bad),
            "--out-dir", str(out),
        ]
        self.check(argv, bad, out, capsys, at=10)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
    def test_piped_labels(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        # labels of utterances that are not trials go unused; these take the pipe past 8 KiB
        good = (root / "test_labels.csv").read_bytes() + b"".join(b"x%d,-\n" % i for i in range(1500))
        r, w = os.pipe()
        os.write(w, good + b"\xff,-\n")
        os.close(w)
        out = tmp_path / "out"
        argv = [
            "eval",
            "--bank", str(bank_dir),
            "--trials", str(root / "test_trials.csv"),
            "--labels", f"/dev/fd/{r}",
            "--out-dir", str(out),
        ]
        try:
            self.check(argv, f"/dev/fd/{r}", out, capsys, at=len(good), line=good.count(b"\n") + 1)
        finally:
            os.close(r)

    def test_mnorm_json(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        bank = tmp_path / "bank"
        bank.mkdir()
        (bank / "bank.csv").write_bytes((bank_dir / "bank.csv").read_bytes())
        bad = _with_bad_byte(bank_dir / "mnorm.json", bank / "mnorm.json")
        line = bad.read_bytes()[:40].count(b"\n") + 1
        out = tmp_path / "scores.csv"
        argv = ["score", "--bank", str(bank), "--trials", str(root / "test_trials.csv"), "--out", str(out)]
        self.check(argv, bad, out, capsys, line=line)


class TestOversizedField:
    """A field over csv.field_size_limit() is a clean error naming the file and row."""

    BIG = "u" * 140_000

    def check(self, argv, bad, row, output, capsys):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: row {row}: field larger than field limit")
        assert "Traceback" not in err
        assert not output.exists()

    def test_train(self, tmp_path, capsys):
        bad = tmp_path / "train.csv"
        bad.write_text(f"{self.BIG},spk,1.0,0.0\n", encoding="utf-8")
        out = tmp_path / "bank"
        self.check(["enroll", "--train", str(bad), "--out-dir", str(out)], bad, 1, out, capsys)

    def test_labels(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        bad = tmp_path / "labels.csv"
        labels = (root / "test_labels.csv").read_text(encoding="utf-8")
        bad.write_text(labels + f"{self.BIG},-\n", encoding="utf-8")
        row = labels.count("\n") + 1
        out = tmp_path / "out"
        argv = [
            "eval",
            "--bank", str(bank_dir),
            "--trials", str(root / "test_trials.csv"),
            "--labels", str(bad),
            "--out-dir", str(out),
        ]
        self.check(argv, bad, row, out, capsys)


class _FullDisk:
    """Output file whose first write stores half its text and then fails."""

    def __init__(self, f):
        self._f = f

    def write(self, text):
        self._f.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _failing_output(monkeypatch, name):
    """Make ``data.open_output`` hand out a ``_FullDisk`` for files called ``name``."""
    real = data.open_output

    @contextmanager
    def open_output(path):
        with real(path) as f:
            yield _FullDisk(f) if Path(path).name == name else f

    monkeypatch.setattr(data, "open_output", open_output)


class TestAtomicOutputs:
    # output file -> the subcommand that writes it (None: a library writer only)
    WRITERS = {
        "bank.csv": "enroll",
        "mnorm.json": "enroll",
        "scores.csv": "score",
        "report.json": "eval",
        "det_top_s.csv": "eval",
        "det_top_1.csv": "eval",
        "size_sweep.csv": "simulate",
        "size_sweep.json": "simulate",
        "test.manifest": None,
    }

    @pytest.mark.parametrize("name", WRITERS)
    def test_failed_write_keeps_the_old_file(
        self, workspace, bank_dir, tmp_path, monkeypatch, capsys, name
    ):
        # a failure on any one file keeps every file its command writes
        root, _, _ = workspace
        out = tmp_path / "out"
        out.mkdir()
        command = self.WRITERS[name]
        group = [n for n, c in self.WRITERS.items() if c == command] if command else [name]
        for n in group:
            (out / n).write_text("old\n", encoding="utf-8")
        _failing_output(monkeypatch, name)
        argv = {
            "enroll": ["--train", str(root / "train_blacklist.csv"), "--out-dir", str(out)],
            "score": [
                "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"),
                "--out", str(out / "scores.csv"),
            ],
            "eval": [
                "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"),
                "--labels", str(root / "test_labels.csv"), "--out-dir", str(out),
            ],
            "simulate": [
                "--out-dir", str(out), "--sizes", "5", "--replicates", "1", "--dimension", "4",
            ],
        }
        if command is None:
            with pytest.raises(OSError, match="No space left"):
                data.save_manifest(data.PartitionManifest("test", 8, 30, 1, 38), out / name)
        else:
            assert cli.main([command, *argv[command]]) == 1
            assert capsys.readouterr().err.startswith("error: [Errno 28] No space left")
        assert {n: (out / n).read_text(encoding="utf-8") for n in group} == dict.fromkeys(
            group, "old\n"
        )
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
    def test_a_pipe_that_cannot_be_copied_is_named(self, workspace, bank_dir, tmp_path, monkeypatch, capsys):
        # trials piped in are copied into a temp file before they are parsed; no room for it
        # is an error naming the pipe, and nothing is written
        root, _, _ = workspace

        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(data.tempfile, "TemporaryFile", full)
        r, w = os.pipe()
        os.write(w, (root / "test_trials.csv").read_bytes()[:4096])  # fits in the pipe
        os.close(w)
        out = tmp_path / "out"
        argv = [
            "eval", "--bank", str(bank_dir), "--trials", f"/dev/fd/{r}",
            "--labels", str(root / "test_labels.csv"), "--out-dir", str(out),
        ]
        try:
            assert cli.main(argv) == 1
        finally:
            os.close(r)
        why = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {why}: '/dev/fd/{r}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="makes symbolic links")
    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_a_linked_output_keeps_its_link(self, workspace, bank_dir, tmp_path, command):
        # the file the link names gets the new bytes; the link, relative, stays as it was
        root, _, _ = workspace
        name = {"score": "scores.csv", "eval": cli.DET_FILES[0]}[command]
        argv = {
            "score": ["score", "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"), "--out"],
            "eval": [
                "eval", "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"),
                "--labels", str(root / "test_labels.csv"), "--out-dir",
            ],
        }[command]
        plain, linked, real = tmp_path / "plain", tmp_path / "linked", tmp_path / "real"
        for d in (plain, linked, real):
            d.mkdir()
        (real / name).write_text("old\n", encoding="utf-8")
        (linked / name).symlink_to(Path("..", "real", name))
        for d in (plain, linked):
            assert cli.main([*argv, str(d / name if command == "score" else d)]) == 0
        assert os.readlink(linked / name) == os.path.join("..", "real", name)
        assert (real / name).read_bytes() == (plain / name).read_bytes()
        assert [p.name for p in real.iterdir()] == [name]
        assert sorted(p.name for p in linked.iterdir()) == sorted(p.name for p in plain.iterdir())


class TestOutputLocationsCheckedFirst:
    def argv(self, workspace, bank_dir, command, out):
        root, _, _ = workspace
        return {
            "enroll": ["enroll", "--train", str(root / "train_blacklist.csv"), "--out-dir", out],
            "score": [
                "score", "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"),
                "--out", out,
            ],
            "eval": [
                "eval", "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"),
                "--labels", str(root / "test_labels.csv"), "--out-dir", out,
            ],
            "simulate": ["simulate", "--out-dir", out, "--sizes", "5", "--replicates", "1"],
        }[command]

    @pytest.mark.parametrize(
        "command, out, message",
        [
            ("enroll", "afile", "--out-dir {t}/afile: {t}/afile is not a directory"),
            ("enroll", "afile/bank", "--out-dir {t}/afile/bank: {t}/afile is not a directory"),
            ("eval", "afile", "--out-dir {t}/afile: {t}/afile is not a directory"),
            ("simulate", "afile/x", "--out-dir {t}/afile/x: {t}/afile is not a directory"),
            ("score", "nodir/s.csv", "--out {t}/nodir/s.csv: {t}/nodir is not an existing directory"),
            ("score", "afile/s.csv", "--out {t}/afile/s.csv: {t}/afile is not an existing directory"),
            ("score", "adir", "--out {t}/adir: is a directory"),
        ],
        ids=["enroll-file", "enroll-under-file", "eval-file", "simulate-under-file",
             "score-missing-dir", "score-under-file", "score-dir"],
    )
    def test_bad_location_fails_before_loading(
        self, workspace, bank_dir, tmp_path, monkeypatch, capsys, command, out, message
    ):
        (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        before = read_all_bytes(tmp_path)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output location was checked")

        monkeypatch.setattr(data, "load_embeddings", no_work)
        monkeypatch.setattr(synth, "generate_population", no_work)
        assert cli.main(self.argv(workspace, bank_dir, command, str(tmp_path / out))) == 1
        assert capsys.readouterr().err == f"error: {message.format(t=tmp_path)}\n"
        assert read_all_bytes(tmp_path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]

    # each file name of enroll, eval and simulate -> its command
    OUTPUT_FILES = {
        "bank.csv": "enroll",
        "mnorm.json": "enroll",
        "report.json": "eval",
        "det_top_s.csv": "eval",
        "det_top_1.csv": "eval",
        "size_sweep.csv": "simulate",
        "size_sweep.json": "simulate",
    }

    @pytest.mark.parametrize("name", OUTPUT_FILES)
    def test_output_name_that_is_a_directory_fails_before_loading(
        self, workspace, bank_dir, tmp_path, monkeypatch, capsys, name
    ):
        command = self.OUTPUT_FILES[name]
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        for other in self.OUTPUT_FILES:
            if self.OUTPUT_FILES[other] == command and other != name:
                (out / other).write_text("old\n", encoding="utf-8")
        before = read_all_bytes(out)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output location was checked")

        monkeypatch.setattr(data, "load_embeddings", no_work)
        monkeypatch.setattr(synth, "generate_population", no_work)
        assert cli.main(self.argv(workspace, bank_dir, command, str(out))) == 1
        assert capsys.readouterr().err == f"error: --out-dir {out}: {out / name} is a directory\n"
        assert read_all_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted([name, *before])
        assert list((out / name).iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="makes a FIFO")
    @pytest.mark.parametrize("command, name", [
        ("score", None), ("enroll", "bank.csv"), ("eval", "det_top_1.csv"), ("simulate", "size_sweep.json"),
    ])
    @pytest.mark.parametrize("linked", [False, True], ids=["fifo", "link_to_fifo"])
    def test_an_output_that_is_not_a_regular_file_fails_before_loading(
        self, workspace, bank_dir, tmp_path, monkeypatch, capsys, command, name, linked
    ):
        # a FIFO would be replaced by a regular file that its reader never sees; so would a device
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(tmp_path / "fifo")
        target = out / (name or "scores.csv")
        if linked:
            target.symlink_to(tmp_path / "fifo")
        else:
            os.replace(tmp_path / "fifo", target)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output location was checked")

        monkeypatch.setattr(data, "load_embeddings", no_work)
        monkeypatch.setattr(synth, "generate_population", no_work)
        assert cli.main(self.argv(workspace, bank_dir, command, str(target if name is None else out))) == 1
        where = f"--out {target}:" if name is None else f"--out-dir {out}: {target}"
        assert capsys.readouterr().err == f"error: {where} is not a regular file\n"
        assert [p.name for p in out.iterdir()] == [target.name]
        assert stat.S_ISFIFO(target.stat().st_mode) and target.is_symlink() == linked

    def test_missing_directories_are_still_created(self, workspace, tmp_path):
        root, _, _ = workspace
        out = tmp_path / "new" / "bank"
        argv = ["enroll", "--train", str(root / "train_blacklist.csv"), "--out-dir", str(out)]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == ["bank.csv", "mnorm.json"]


class TestInputPathsCheckedFirst:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command, flag", [
        ("enroll", "--train"), ("enroll", "--augment"), ("score", "--trials"), ("eval", "--trials"), ("eval", "--labels"),
    ])
    def test_a_bad_input_path_fails_before_any_parse(
        self, workspace, bank_dir, tmp_path, monkeypatch, capsys, command, flag, kind
    ):
        root, _, _ = workspace
        bad = tmp_path / "input"
        if kind == "directory":
            bad.mkdir()
        inputs = {
            "--train": root / "train_blacklist.csv",
            "--augment": root / "dev_blacklist.csv",
            "--trials": root / "test_trials.csv",
            "--labels": root / "test_labels.csv",
        } | {flag: bad}
        out = tmp_path / "out"
        argv = {
            "enroll": ["enroll", "--train", inputs["--train"], "--augment", inputs["--augment"], "--out-dir", out],
            "score": ["score", "--bank", bank_dir, "--trials", inputs["--trials"], "--out", out],
            "eval": [
                "eval", "--bank", bank_dir, "--trials", inputs["--trials"], "--labels", inputs["--labels"],
                "--out-dir", out,
            ],
        }[command]
        parsed, embedding_spans = [], data.embedding_spans

        def spy(path, *args, **kwargs):
            parsed.append(Path(path))
            return embedding_spans(path, *args, **kwargs)

        monkeypatch.setattr(data, "embedding_spans", spy)
        assert cli.main([str(a) for a in argv]) == 1
        why = "is a directory" if kind == "directory" else "No such file or directory"
        assert capsys.readouterr().err == f"error: {flag} {bad}: {why}\n"
        # only the bank, which names no input flag, is parsed first
        assert parsed == ([] if command == "enroll" else [bank_dir / cli.BANK_FILE])
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="makes a FIFO")
    def test_a_fifo_input_is_not_opened_by_the_check(self, bank_dir, tmp_path, child_env):
        # opening a FIFO that has no writer blocks; the check only stats it
        os.mkfifo(tmp_path / "fifo")
        missing = tmp_path / "missing.csv"
        child = subprocess.run(
            [
                sys.executable, "-m", "stackdet.cli", "eval", "--bank", str(bank_dir),
                "--trials", str(tmp_path / "fifo"), "--labels", str(missing), "--out-dir", str(tmp_path / "out"),
            ],
            env=child_env(1),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (child.returncode, child.stderr) == (1, f"error: --labels {missing}: No such file or directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


class TestInterrupted:
    """SIGINT and SIGTERM end a command with one error line and 128 + the signal number, leaving nothing."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["int", "term"])
    @pytest.mark.parametrize("hooked", ["_parse_block", "_format_rows"], ids=["parse", "write"])
    def test_a_signal_leaves_nothing(self, workspace, bank_dir, tmp_path, monkeypatch, capsys, signum, hooked):
        root, _, _ = workspace
        out = tmp_path / "scores.csv"
        out.write_text("old\n", encoding="utf-8")
        parent, real, fork, forks = os.getpid(), getattr(data, hooked), os.fork, []

        def hook(*args):
            if os.getpid() == parent:  # while forked workers parse or write their shares
                assert forks
                signal.raise_signal(signum)
            return real(*args)

        monkeypatch.setattr(data, hooked, hook)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(data, "_WORKERS", 3)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 256)  # bank.csv is several parse blocks
        monkeypatch.setattr(data, "_FORK_VALUES", 0)
        handlers = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
        fds = set(os.listdir("/proc/self/fd"))
        argv = ["score", "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"), "--out", str(out)]
        assert cli.main(argv) == 128 + signum
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert {s: signal.getsignal(s) for s in handlers} == handlers
        assert out.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [out.name]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="masks signals with pthread_sigmask")
    def test_a_signal_during_the_commit_waits_for_it(self, workspace, bank_dir, tmp_path, monkeypatch, capsys):
        # SIGTERM after the first of eval's three outputs is moved into place: all three
        # land, then the command ends as interrupted
        root, _, _ = workspace
        argv = [
            "eval", "--bank", str(bank_dir), "--trials", str(root / "test_trials.csv"),
            "--labels", str(root / "test_labels.csv"), "--out-dir",
        ]
        assert cli.main([*argv, str(tmp_path / "whole")]) == 0
        capsys.readouterr()
        mask, real, replaced = signal.pthread_sigmask(signal.SIG_BLOCK, []), os.replace, []

        def replace(src, dst):
            real(src, dst)
            replaced.append(dst)
            if len(replaced) == 1:
                signal.raise_signal(signal.SIGTERM)

        monkeypatch.setattr(data.os, "replace", replace)
        assert cli.main([*argv, str(tmp_path / "cut")]) == 128 + signal.SIGTERM
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert len(replaced) == 3
        assert read_all_bytes(tmp_path / "cut") == read_all_bytes(tmp_path / "whole")
        assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask

    def test_main_runs_outside_the_main_thread(self, tmp_path, capsys):
        # there it sets no handler: only the main thread may
        argv = ["simulate", "--out-dir", str(tmp_path), "--sizes", "2", "--replicates", "1", "--dimension", "4"]
        codes = []
        thread = threading.Thread(target=lambda: codes.append(cli.main(argv)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and codes == [0]
        assert capsys.readouterr().err.startswith("timing: simulate took")


class TestFlagsCheckedFirst:
    def test_det_points_below_two_writes_nothing(self, workspace, bank_dir, tmp_path, capsys):
        root, _, _ = workspace
        out = tmp_path / "out"
        rc = cli.main(
            [
                "eval",
                "--bank", str(bank_dir),
                "--trials", str(root / "test_trials.csv"),
                "--labels", str(root / "test_labels.csv"),
                "--out-dir", str(out),
                "--det-points", "1",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --det-points")
        assert not (out / "report.json").exists()

    def test_save_bank_without_stats_writes_nothing(self, workspace, tmp_path):
        _, _, train_bl = workspace
        b = enroll(train_bl)
        full = compute_mnorm_stats(b, train_bl)
        short = bank_mod.MNormStats(full.mu[:-1], full.sigma[:-1], full.cohort_size)
        for stats in (None, short):
            with pytest.raises(ValueError, match="normalization statistics do not match"):
                cli.save_bank(b, stats, tmp_path / "bank")
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--channel-spread", "nan", "channel_spread must be non-negative and finite"),
            ("--channel-spread", "inf", "channel_spread must be non-negative and finite"),
            ("--speaker-spread", "inf", "speaker_spread must be positive and finite"),
        ],
        ids=["channel-nan", "channel-inf", "speaker-inf"],
    )
    def test_non_finite_spread_draws_nothing(self, tmp_path, monkeypatch, capsys, flag, value, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("a population was drawn")

        monkeypatch.setattr(synth, "generate_population", no_draw)
        argv = ["simulate", "--out-dir", str(tmp_path / "out"), "--sizes", "5", flag, value]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestOutOfMemory:
    def test_huge_dimension_is_a_clean_error(self, tmp_path, capsys):
        # 3,631 blacklist means of 1e13 values each (258 PiB) exceed any 64-bit
        # address space, so the allocation is refused without touching memory
        out = tmp_path / "out"
        argv = ["simulate", "--out-dir", str(out), "--dimension", "10000000000000",
                "--sizes", "3", "--replicates", "1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, shape",
        [
            (["--replicates", "1000000000000"], "(1000000000000, 6)"),
            (["--sizes", "1000000000000", "--replicates", "1"], "(1000000000000, 600)"),
        ],
        ids=["replicates", "sizes"],
    )
    def test_huge_count_is_refused_at_once(self, tmp_path, child_env, flags, shape):
        # under a 3 GiB address-space limit numpy refuses the count's array at once; a count
        # first spent on seeds or ids would run past the timeout or end in a bare MemoryError
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        child = subprocess.run(
            [sys.executable, "-m", "stackdet.cli", "simulate", "--out-dir", str(tmp_path / "out"), *flags],
            env=child_env(1),
            preexec_fn=limit,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.returncode, child.stdout) == (1, "")
        assert re.fullmatch(
            rf"error: out of memory: Unable to allocate .* shape {re.escape(shape)} .*\n", child.stderr
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_memory_error_without_a_message_ends_the_line(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(synth, "run_size_sweep", exhausted)
        assert cli.main(["simulate", "--out-dir", str(tmp_path / "out"), "--sizes", "3"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []


class TestEvalFullScale:
    def test_full_benchmark_counts_match_library(self, tmp_path):
        # full trial/detector counts of the benchmark test partition
        cfg = PopulationConfig(dimension=32, channel_spread=3.0, seed=88)
        pop = generate_population(
            cfg,
            PartitionSpec(3631, 0, 3, 0),
            PartitionSpec(0, 0),
            PartitionSpec(3631, 12386, 1, 12386),
        )
        train_csv = tmp_path / "train.csv"
        trials_csv = tmp_path / "trials.csv"
        labels_csv = tmp_path / "labels.csv"
        save_embeddings(pop.train, train_csv)
        save_embeddings(pop.test, trials_csv)
        with labels_csv.open("w", encoding="utf-8", newline="") as f:
            for utt, spk in zip(pop.test.utterance_ids, pop.test.speaker_ids):
                f.write(f"{utt},{spk if spk is not None else '-'}\n")
        bank_dir = tmp_path / "bank"
        assert cli.main(["enroll", "--train", str(train_csv), "--out-dir", str(bank_dir)]) == 0
        assert cli.load_bank(bank_dir)[1].cohort_size == 10893
        out = tmp_path / "eval"
        assert cli.main(
            [
                "eval",
                "--bank", str(bank_dir),
                "--trials", str(trials_csv),
                "--labels", str(labels_csv),
                "--out-dir", str(out),
            ]
        ) == 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert report["mode_reports"]["top_s"]["counts"] == [3631, 12386]

        b = enroll(pop.train)
        matrix = apply_mnorm(
            score_all(b, pop.test), compute_mnorm_stats(b, pop.train), "full"
        )
        index = {s: i for i, s in enumerate(b.speaker_ids)}
        truth = [-1 if s is None else index[s] for s in pop.test.speaker_ids]
        top_s, top_1 = sweep_both(*stack_reduce(matrix), truth)
        assert report["mode_reports"]["top_s"]["eer"] == top_s.eer
        assert report["mode_reports"]["top_1"]["eer"] == top_1.eer
        assert report["mode_reports"]["top_1"]["eer_threshold"] == top_1.eer_threshold


class TestSimulate:
    def test_repeat_runs_identical_and_dominant(self, tmp_path):
        args = [
            "simulate",
            "--sizes",
            "5,8",
            "--replicates",
            "2",
            "--seed",
            "7",
            "--dimension",
            "8",
            "--channel-spread",
            "1.0",
        ]
        for name in ("a", "b"):
            assert cli.main(args + ["--out-dir", str(tmp_path / name)]) == 0
        a = read_all_bytes(tmp_path / "a")
        assert a == read_all_bytes(tmp_path / "b")
        rows = [
            line.split(",")
            for line in (tmp_path / "a" / "size_sweep.csv")
            .read_text("utf-8")
            .strip()
            .split("\n")[1:]
        ]
        assert [r[0] for r in rows] == ["5", "8"]
        for _, top_s, top_1 in rows:
            assert float(top_1) >= float(top_s) - 1e-12
        sidecar = json.loads(a["size_sweep.json"])
        assert sidecar["replicate_count"] == 2
        assert [[float(s), float(o)] for _, s, o in rows] == [
            list(means) for means in zip(sidecar["mean"]["top_s_eer"], sidecar["mean"]["top_1_eer"])
        ]

    def test_default_size_list_has_six_rows(self, tmp_path):
        rc = cli.main(
            [
                "simulate",
                "--out-dir",
                str(tmp_path / "out"),
                "--dimension",
                "8",
                "--replicates",
                "1",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        lines = (
            (tmp_path / "out" / "size_sweep.csv").read_text("utf-8").strip().split("\n")
        )
        assert len(lines) == 1 + 6
        sidecar = json.loads((tmp_path / "out" / "size_sweep.json").read_text("utf-8"))
        assert sidecar["sizes"] == [10, 50, 100, 500, 1000, 3631]


class TestUsageErrors:
    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enroll", "--out-dir", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_size_list(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--out-dir", str(tmp_path), "--sizes", "5,x"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad size list")


def _replace(rows, i, row):
    return [*rows[:i], row, *rows[i + 1:]]


def _refused(value: str) -> bool:
    try:
        return not math.isfinite(float(value))
    except ValueError:
        return True


# Value fields that float() refuses or that are not finite.  Without a quote a
# field is read as written, or a comma or line end inside it breaks its row.
_BAD_VALUE = st.one_of(
    st.sampled_from(["", " ", "zap", "1e", "0.5.5", "0\x005", "nan", "-inf", "1e999", "u" * 140_000]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"'), max_size=12)
    .filter(_refused),
)

# Row defects of an embedding CSV: (rows, i, draw) -> rows, where a row is a list of
# fields.  Each makes any embedding file malformed, whichever row i is.
_EMBEDDING_DEFECTS = {
    "missing_value": lambda rows, i, draw: _replace(rows, i, rows[i][:-1]),
    "extra_value": lambda rows, i, draw: _replace(rows, i, [*rows[i], "0.5"]),
    "bad_value": lambda rows, i, draw: _replace(
        rows, i, [*rows[i][:2], draw(_BAD_VALUE), *rows[i][3:]]
    ),
    "duplicate_id": lambda rows, i, draw: _replace(rows, i, [rows[i - 1][0], *rows[i][1:]]),
    "empty_id": lambda rows, i, draw: _replace(rows, i, ["", *rows[i][1:]]),
    "empty_speaker": lambda rows, i, draw: _replace(rows, i, [rows[i][0], "", *rows[i][2:]]),
    "short_row": lambda rows, i, draw: _replace(rows, i, rows[i][:2]),
    "blank_line": lambda rows, i, draw: [*rows[:i], [], *rows[i:]],
    # the file ends inside a later row, after a whole field
    "truncated": lambda rows, i, draw: [
        *rows[: max(i, 1)],
        rows[max(i, 1)][: draw(st.integers(1, len(rows[max(i, 1)]) - 1))],
    ],
}
# Defects of the labels CSV, rows of utterance_id,truth for exactly the trials
_LABEL_DEFECTS = {
    "extra_field": lambda rows, i, draw: _replace(rows, i, [*rows[i], "x"]),
    "missing_field": lambda rows, i, draw: _replace(rows, i, rows[i][:1]),
    "duplicate_label": lambda rows, i, draw: [*rows[:i], rows[i], *rows[i:]],
    "missing_label": lambda rows, i, draw: [*rows[:i], *rows[i + 1:]],
    "unknown_truth": lambda rows, i, draw: _replace(rows, i, [rows[i][0], "nobody"]),
    "blank_line": lambda rows, i, draw: [*rows[:i], [], *rows[i:]],
}
# Defects of the mnorm.json payload, a dict edited in place
_MNORM_DEFECTS = {
    "missing_key": lambda p, draw: p.pop(draw(st.sampled_from(sorted(p)))),
    "wrong_type": lambda p, draw: p.update({draw(st.sampled_from(sorted(p))): "x"}),
    "short_list": lambda p, draw: p.update({draw(st.sampled_from(["mu", "sigma"])): p["mu"][:-1]}),
    "schema_version": lambda p, draw: p.update(schema_version=2),
    "detector_ids": lambda p, draw: p.update(detector_ids=p["detector_ids"][::-1]),
    "zero_sigma": lambda p, draw: p.update(sigma=[0, *p["sigma"][1:]]),
}
def _not_utf8(raw, draw):
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.sampled_from([b"\x80", b"\xfe", b"\xff"])) + raw[at:]


# Byte defects of any input file: (raw, draw) -> raw, or None for no file
_BYTE_DEFECTS = {
    "not_utf8": _not_utf8,
    "empty_file": lambda raw, draw: b"",
    "missing_file": lambda raw, draw: None,
}
_EMBEDDING_FILES = ("train", "augment", "trials", "bank.csv")
# the inputs each command reads, in the order it reads them
_INPUTS = {
    "enroll": ("train", "augment"),
    "score": ("bank.csv", "mnorm.json", "trials"),
    "eval": ("bank.csv", "mnorm.json", "trials", "labels"),
}


class TestFuzz:
    """Malformed input files, drawn at random, end in one error line and leave nothing behind."""

    @staticmethod
    def defect(name, raw, draw):
        """``raw`` with one defect drawn for the input ``name``; None for no file."""
        kinds = list(_BYTE_DEFECTS)
        if name == "mnorm.json":
            kinds += [*_MNORM_DEFECTS, "truncated_json", "trailing_bytes", "deep_json", "not_an_object"]
        else:
            kinds += _EMBEDDING_DEFECTS if name in _EMBEDDING_FILES else _LABEL_DEFECTS
        if name == "train":
            kinds.append("unlabeled")
        if name == "bank.csv":
            kinds.append("not_unit_length")
        if name == "trials":
            kinds.append("narrower_than_the_bank")
        kind = draw(st.sampled_from(kinds))
        if kind in _BYTE_DEFECTS:
            return _BYTE_DEFECTS[kind](raw, draw)
        text = raw.decode("utf-8")
        if kind == "truncated_json":  # a prefix that never closes the object
            return text[: draw(st.integers(0, text.rindex("}")))].encode()
        if kind == "trailing_bytes":  # anything but ASCII whitespace after the object
            return raw + draw(st.binary(min_size=1, max_size=8).filter(bytes.strip))
        if kind == "deep_json":
            return ("[" * 100_000 + "]" * 100_000).encode()
        if kind == "not_an_object":
            return b"[]"
        if kind in _MNORM_DEFECTS:
            payload = json.loads(text)
            _MNORM_DEFECTS[kind](payload, draw)
            return json.dumps(payload).encode()
        rows = [line.split(",") for line in text.split("\n")[:-1]]
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "unlabeled":
            rows = _replace(rows, i, [rows[i][0], data.UNLABELED, *rows[i][2:]])
        elif kind == "not_unit_length":
            rows = _replace(rows, i, [*rows[i][:2], *(repr(2 * float(v)) for v in rows[i][2:])])
        elif kind == "narrower_than_the_bank":
            rows = [r[:-1] for r in rows]
        else:
            rows = (_EMBEDDING_DEFECTS if name in _EMBEDDING_FILES else _LABEL_DEFECTS)[kind](rows, i, draw)
        return "".join(",".join(r) + "\n" for r in rows).encode()

    @settings(deadline=None, max_examples=150)
    @given(data_=st.data())
    def test_malformed_input_is_one_clean_error(self, workspace, bank_dir, tmp_path_factory, data_):
        draw = data_.draw
        root, _, _ = workspace
        command = draw(st.sampled_from(sorted(_INPUTS)))
        target = draw(st.sampled_from(_INPUTS[command]))
        case = tmp_path_factory.mktemp("fuzz")
        (case / "bank").mkdir()
        sources = {
            "train": root / "train_blacklist.csv",
            "augment": root / "dev_blacklist.csv",
            "trials": root / "test_trials.csv",
            "labels": root / "test_labels.csv",
            "bank.csv": bank_dir / "bank.csv",
            "mnorm.json": bank_dir / "mnorm.json",
        }
        paths = {name: case / name for name in sources}
        paths.update({name: case / "bank" / name for name in ("bank.csv", "mnorm.json")})
        bom = draw(st.sampled_from([b"", codecs.BOM_UTF8]))  # at byte 0 of every CSV input, or none
        for name in _INPUTS[command]:
            raw = sources[name].read_bytes()
            if name == target:
                raw = self.defect(name, raw, draw)
            if raw is not None:
                paths[name].write_bytes(raw if name == "mnorm.json" else bom + raw)
        argv = {
            "enroll": [
                "enroll", "--train", paths["train"], "--augment", paths["augment"], "--out-dir", case / "out",
            ],
            "score": [
                "score", "--bank", case / "bank", "--trials", paths["trials"], "--out", case / "scores.csv",
            ],
            "eval": [
                "eval", "--bank", case / "bank", "--trials", paths["trials"],
                "--labels", paths["labels"], "--out-dir", case / "out",
            ],
        }[command]
        before = {p: p.read_bytes() if p.is_file() else None for p in case.rglob("*")}
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            # several parse blocks per file, parsed by this process alone or with forked workers
            mp.setattr(data, "_BLOCK_BYTES", draw(st.sampled_from([1, 64, 1 << 20])))
            mp.setattr(data, "_WORKERS", draw(st.sampled_from([1, 2, 3])))
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main([str(a) for a in argv])
        assert (rc, out.getvalue()) == (1, ""), err.getvalue()
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), err.getvalue()
        assert {p: p.read_bytes() if p.is_file() else None for p in case.rglob("*")} == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
