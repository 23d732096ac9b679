"""The scripts under scripts/ run end to end and write files that load."""

import csv
import json
import subprocess
import sys
from pathlib import Path

from stackdet.data import PARTITION_NAMES, UNLABELED, concatenate, load_embeddings, load_manifest
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
        assert load_manifest(tmp_path / f"{name}.manifest") == manifest_for(spec, name)
        if name != "train":
            with (tmp_path / f"{name}_labels.csv").open(encoding="utf-8", newline="") as f:
                labels = list(csv.reader(f))
            assert labels == [
                [u, UNLABELED if s is None else s]
                for u, s in zip(trials.utterance_ids, trials.speaker_ids)
            ]


def test_reproduce_size_curve_writes_loadable_results(tmp_path):
    run_script("reproduce_size_curve.py", "--sizes", 10, "--replicates", 1, "--out-dir", tmp_path)
    with (tmp_path / "size_sweep.csv").open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    sidecar = json.loads((tmp_path / "size_sweep.json").read_text(encoding="utf-8"))
    assert rows[0] == ["blacklist_size", "top_s_eer", "top_1_eer"]
    assert [[int(k), float(s), float(o)] for k, s, o in rows[1:]] == [
        [10, sidecar["mean"]["top_s_eer"][0], sidecar["mean"]["top_1_eer"][0]]
    ]
    assert sidecar["sizes"] == [10]
    assert sidecar["replicate_count"] == 1
