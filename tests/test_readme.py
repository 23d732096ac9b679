"""The README's "Library in one page" block runs as written on a small corpus."""

import re
from pathlib import Path

from stackdet import data, synth

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library in one page") :]
    return re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_library_page_runs(tmp_path, monkeypatch, capsys):
    pop = synth.generate_population(
        synth.PopulationConfig(dimension=8, seed=5),
        synth.PartitionSpec(6, 0, 3, 0),
        synth.PartitionSpec(0, 0),
        synth.PartitionSpec(6, 10, 1, 10),
    )
    data.save_embeddings(pop.train, tmp_path / "train_blacklist.csv")
    data.save_embeddings(pop.test, tmp_path / "test_trials.csv")
    monkeypatch.chdir(tmp_path)

    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)

    top_s_eer, top_1_eer = map(float, capsys.readouterr().out.split())
    assert 0.0 <= top_s_eer <= top_1_eer <= 1.0
    header, *rows = (tmp_path / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert header.split(",") == ["utterance_id", *namespace["bank"].speaker_ids]
    assert [row.split(",")[0] for row in rows] == list(pop.test.utterance_ids)
