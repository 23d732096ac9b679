"""The script under scripts/ runs end to end and writes the files it should."""

import csv
import errno
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stackdet.data import (
    PARTITION_NAMES, UNLABELED, concatenate, load_embeddings, save_manifest,
)
from stackdet.synth import default_partition_specs, manifest_for

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    child = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr


def test_generate_data_writes_loadable_partitions(tmp_path):
    run_script("generate_data.py", "--dimension", 2, "--out-dir", tmp_path)
    for name, spec in zip(PARTITION_NAMES, default_partition_specs()):
        trials = load_embeddings(tmp_path / f"{name}_trials.csv", expected_dimension=2)
        parts = [
            load_embeddings(tmp_path / f"{name}_{kind}.csv", expected_dimension=2)
            for kind in ("blacklist", "background")
        ]
        assert concatenate(parts) == trials
        assert len(trials) == spec.total_utterances
        save_manifest(manifest_for(spec, name), tmp_path / "expected.manifest")
        expected = (tmp_path / "expected.manifest").read_bytes()
        assert (tmp_path / f"{name}.manifest").read_bytes() == expected
        if name != "train":
            with (tmp_path / f"{name}_labels.csv").open(encoding="utf-8", newline="") as f:
                labels = list(csv.reader(f))
            assert labels == [
                [u, UNLABELED if s is None else s]
                for u, s in zip(trials.utterance_ids, trials.speaker_ids)
            ]



def test_a_failed_label_write_keeps_the_old_file_and_no_partial_one(tmp_path):
    spec = importlib.util.spec_from_file_location("generate_data", SCRIPTS / "generate_data.py")
    generate_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate_data)

    def speakers():
        yield "s1"
        raise OSError(errno.ENOSPC, "No space left on device")

    labels = tmp_path / "dev_labels.csv"
    labels.write_text("old\n", encoding="utf-8")
    with pytest.raises(OSError, match="No space left"):
        embeddings = SimpleNamespace(utterance_ids=["u1", "u2"], speaker_ids=speakers())
        generate_data.write_labels(embeddings, labels)
    assert labels.read_text(encoding="utf-8") == "old\n"
    assert list(tmp_path.iterdir()) == [labels]
