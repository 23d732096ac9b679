#!/usr/bin/env python3
"""Write a synthetic benchmark population to disk as CSV files.

Produces one embedding CSV per partition subset
(``{train,dev,test}_{blacklist,background}.csv``), combined per-partition
trial files, label keys for dev and test, and partition manifests.  The
shipped shape mirrors the benchmark composition (3,631 blacklist speakers;
41,845 / 8,631 / 16,017 utterances); use ``--dimension`` to shrink files
for quick experiments.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stackdet.data import UNLABELED, open_output, save_embeddings
from stackdet.synth import (
    PopulationConfig,
    default_partition_specs,
    generate_population,
    manifest_for,
)


def write_labels(embeddings, path):
    with open_output(path) as f:
        for utt, spk in zip(embeddings.utterance_ids, embeddings.speaker_ids):
            f.write(f"{utt},{spk if spk is not None else UNLABELED}\n")


def write_manifest(manifest, path):
    with open_output(path) as f:
        f.write(
            f"partition={manifest.partition_name}\n"
            f"blacklist_speakers={manifest.blacklist_speaker_count}\n"
            f"background_speakers={manifest.background_speaker_count}\n"
            f"min_blacklist_utterances={manifest.min_utterances_per_blacklist_speaker}\n"
            f"total_utterances={manifest.total_utterances}\n"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--dimension", type=int, default=600)
    parser.add_argument("--speaker-spread", type=float, default=1.0)
    parser.add_argument("--channel-spread", type=float, default=3.0)
    args = parser.parse_args(argv)

    config = PopulationConfig(
        dimension=args.dimension,
        speaker_spread=args.speaker_spread,
        channel_spread=args.channel_spread,
        seed=args.seed,
    )
    specs = default_partition_specs()
    pop = generate_population(config, *specs)
    blacklist = set(pop.blacklist_speaker_ids)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, es, spec in (
        ("train", pop.train, specs[0]),
        ("dev", pop.dev, specs[1]),
        ("test", pop.test, specs[2]),
    ):
        bl_mask = [s in blacklist for s in es.speaker_ids]
        bl_part = es.subset(bl_mask)
        bg_part = es.subset([not m for m in bl_mask])
        save_embeddings(bl_part, out / f"{name}_blacklist.csv")
        save_embeddings(bg_part, out / f"{name}_background.csv")
        # the blacklist rows come first, so ``es`` is the two parts in file order
        save_embeddings(es, out / f"{name}_trials.csv")
        write_manifest(manifest_for(spec, name), out / f"{name}.manifest")
        if name != "train":
            write_labels(es, out / f"{name}_labels.csv")
        print(f"{name}: {len(es)} utterances ({len(bl_part)} blacklist)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
