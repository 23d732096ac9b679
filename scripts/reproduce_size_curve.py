#!/usr/bin/env python3
"""Reproduce the blacklist-size degradation curve on synthetic data.

Runs the default size sweep (sizes 10..3631, 5 replicates, fixed seed) and
writes ``size_sweep.csv`` plus a JSON sidecar with per-replicate detail.
Both stack detectors degrade as the blacklist grows, and the Top-1 detector
degrades faster because confusion errors accumulate.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stackdet.synth import (
    DEFAULT_SWEEP_REPLICATES,
    DEFAULT_SWEEP_SIZES,
    PopulationConfig,
    default_partition_specs,
    run_size_sweep,
    save_size_sweep,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="size_curve_out")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--replicates", type=int, default=DEFAULT_SWEEP_REPLICATES)
    parser.add_argument(
        "--sizes",
        default=",".join(str(k) for k in DEFAULT_SWEEP_SIZES),
        help="comma-separated nondecreasing blacklist sizes",
    )
    parser.add_argument("--channel-spread", type=float, default=3.0)
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    config = PopulationConfig(seed=args.seed, channel_spread=args.channel_spread)
    started = time.perf_counter()
    result = run_size_sweep(config, sizes, args.replicates, default_partition_specs()[2])
    elapsed = time.perf_counter() - started

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_size_sweep(
        result,
        out / "size_sweep.csv",
        out / "size_sweep.json",
        config={
            "seed": args.seed,
            "replicates": args.replicates,
            "sizes": sizes,
            "dimension": config.dimension,
            "speaker_spread": config.speaker_spread,
            "channel_spread": config.channel_spread,
        },
    )
    print(f"{'size':>6} {'top_s_eer':>10} {'top_1_eer':>10}")
    for k, s, o in zip(result.sizes, result.top_s_eer, result.top_1_eer):
        print(f"{k:>6} {float(s):>10.4f} {float(o):>10.4f}")
    print(f"done in {elapsed:.1f}s -> {out / 'size_sweep.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
