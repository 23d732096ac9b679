#!/usr/bin/env python3
"""Write one seed's benchmark inputs through ``stackdet.synth`` and ``stackdet.data``.

    python3 perfbench/inputs.py OUT_DIR SEED BLACKLIST BACKGROUND DIMENSION SLICE

Writes ``train_blacklist.csv`` (three utterances per blacklist speaker),
``test_trials.csv`` (one utterance per blacklist speaker, then one per
background speaker), ``test_labels.csv`` and ``test_slice.csv`` (the first
SLICE test trials).  ``run.py`` runs this as a child process so that its
own memory high-water mark, which every child it starts inherits as a
floor of ``ru_maxrss``, stays small.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stackdet import data, synth


def main(argv) -> int:
    out = Path(argv[0])
    seed, blacklist, background, dimension, score_slice = (int(a) for a in argv[1:6])
    pop = synth.generate_population(
        synth.PopulationConfig(dimension=dimension, seed=seed),
        synth.PartitionSpec(blacklist, 0, 3, 0),
        synth.PartitionSpec(0, 0),
        synth.PartitionSpec(blacklist, background, 1, background),
    )
    data.save_embeddings(pop.train, out / "train_blacklist.csv")
    data.save_embeddings(pop.test, out / "test_trials.csv")
    data.save_embeddings(pop.test.subset(range(score_slice)), out / "test_slice.csv")
    with (out / "test_labels.csv").open("w", encoding="utf-8", newline="") as f:
        for utt, spk in zip(pop.test.utterance_ids, pop.test.speaker_ids):
            f.write(f"{utt},{data.UNLABELED if spk is None else spk}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
