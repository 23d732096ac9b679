"""Command-line harness: enroll, score, eval, and simulate subcommands.

All outputs are deterministic given the flags and the BLAS thread count:
repeated runs produce byte-identical files.  ``--threads`` is accepted and
ignored, so existing command lines keep working.  Wall-clock timings go
to stderr, not into report files.  Output locations are checked before
any input is read, and the files of one command appear together or not at
all.  Errors are printed to stderr with an ``error:`` prefix and a nonzero
exit code.

A bank directory holds ``bank.csv`` (one unit direction per detector) and
``mnorm.json`` (its cohort statistics).  ``load_bank`` returns the two
apart, and ``_mnorm_for`` resolves the statistics for ``--norm-mode``
through ``MNormStats.for_mode``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bank as bank_mod
from . import data, metrics, synth

SCHEMA_VERSION = 1
BANK_FILE = "bank.csv"
MNORM_FILE = "mnorm.json"
DEFAULT_DET_POINTS = 512


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # stable machine-parsable diagnostics
        self.exit(2, f"error: {message}\n")


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad size list {text!r}; expected comma-separated integers")
    if not sizes:
        raise ValueError("empty size list")
    return sizes


def _check_out_dir(path) -> None:
    """Fail before any work when ``--out-dir`` cannot become a directory."""
    path = Path(path)
    base = next(p for p in (path, *path.parents) if p.exists())
    if not base.is_dir():
        raise ValueError(f"--out-dir {path}: {base} is not a directory")


def _check_out_file(path) -> None:
    """Fail before any work when ``--out`` cannot be written."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"--out {path}: is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"--out {path}: {path.parent} is not an existing directory")


def save_bank(b: bank_mod.DetectorBank, stats: bank_mod.MNormStats, out_dir: Path) -> None:
    if stats is None or len(stats) != len(b):
        raise ValueError("normalization statistics do not match the bank")
    out_dir.mkdir(parents=True, exist_ok=True)
    as_set = data.EmbeddingSet(b.speaker_ids, b.speaker_ids, b.directions)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "cohort_size": stats.cohort_size,
        "detector_ids": list(b.speaker_ids),
        "mu": [float(v) for v in stats.mu],
        "sigma": [float(v) for v in stats.sigma],
    }
    with data.output_group():
        data.save_embeddings(as_set, out_dir / BANK_FILE)
        with data.open_output(out_dir / MNORM_FILE) as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")


def _json_is(value, kind) -> bool:
    """JSON type check: bools are not numbers, and ``[kind]`` is a list of kind."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_json_is(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


# mnorm.json key -> (JSON type, its name for error messages)
_MNORM_KEYS = {
    "schema_version": (int, "an integer"),
    "cohort_size": (int, "an integer"),
    "detector_ids": ([str], "a list of strings"),
    "mu": ([(int, float)], "a list of numbers"),
    "sigma": ([(int, float)], "a list of numbers"),
}


def _load_mnorm(b: bank_mod.DetectorBank, path: Path) -> bank_mod.MNormStats:
    """The stats in mnorm.json for bank ``b``; every defect is a DataFormatError naming the file."""
    try:
        with path.open("r", encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise data.DataFormatError(f"{path}: not valid UTF-8 JSON ({exc})") from None
    except RecursionError:
        raise data.DataFormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise data.DataFormatError(f"{path}: expected a JSON object")
    for key, (kind, expected) in _MNORM_KEYS.items():
        if key not in payload:
            raise data.DataFormatError(f"{path}: missing key {key!r}")
        if not _json_is(payload[key], kind):
            raise data.DataFormatError(f"{path}: key {key!r} must be {expected}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise data.DataFormatError(f"{path}: unsupported schema_version {payload['schema_version']}")
    if tuple(payload["detector_ids"]) != b.speaker_ids:
        raise data.DataFormatError(f"{path}: detector ids do not match {BANK_FILE}")
    try:
        stats = bank_mod.MNormStats(
            np.array(payload["mu"], dtype=np.float64),
            np.array(payload["sigma"], dtype=np.float64),
            payload["cohort_size"],
        )
    except (OverflowError, ValueError) as exc:
        raise data.DataFormatError(f"{path}: {exc}") from None
    if len(stats) != len(b):
        raise data.DataFormatError(
            f"{path}: {len(stats)} statistics for {len(b)} detectors in {BANK_FILE}"
        )
    return stats


def load_bank(bank_dir) -> tuple[bank_mod.DetectorBank, bank_mod.MNormStats | None]:
    """The bank in ``bank_dir`` and the stats of its mnorm.json, None when there is none."""
    bank_dir = Path(bank_dir)
    bank_path = bank_dir / BANK_FILE
    if not bank_path.exists():
        raise ValueError(f"no {BANK_FILE} in {bank_dir}")
    as_set = data.load_embeddings(bank_path)
    try:
        b = bank_mod.DetectorBank(as_set.utterance_ids, as_set.vectors)
    except ValueError as exc:
        raise data.DataFormatError(f"{bank_path}: {exc}") from None
    stats_path = bank_dir / MNORM_FILE
    return b, _load_mnorm(b, stats_path) if stats_path.exists() else None


def _load_labels(path, b: bank_mod.DetectorBank) -> dict[str, int]:
    """Label CSV rows are ``utterance_id,truth`` with ``-`` (index -1) for background."""
    index = {spk: i for i, spk in enumerate(b.speaker_ids)}
    mapping: dict[str, int] = {}
    with data.open_text(path) as f:
        for rownum, rec in data.csv_records(f, path):
            if len(rec) != 2:
                raise data.DataFormatError(
                    f"{path}: row {rownum}: expected utterance_id,truth"
                )
            utt, truth = rec
            if utt in mapping:
                raise data.DataFormatError(
                    f"{path}: row {rownum}: duplicate label for {utt!r}"
                )
            if truth == data.UNLABELED:
                mapping[utt] = -1
            elif truth in index:
                mapping[utt] = index[truth]
            else:
                raise ValueError(
                    f"{path}: row {rownum}: truth speaker {truth!r} is not in the bank"
                )
    return mapping


def _mnorm_for(stats: bank_mod.MNormStats | None, norm_mode: str) -> bank_mod.MNormStats | None:
    """The stats that ``--norm-mode`` applies, or None for none."""
    if norm_mode == "none":
        return None
    if stats is None:
        raise ValueError(
            f"normalization mode {norm_mode!r} needs {MNORM_FILE} in the bank directory"
        )
    return stats.for_mode(norm_mode)


def cmd_enroll(args) -> int:
    _check_out_dir(args.out_dir)
    pooled = data.load_embeddings(args.train)
    if args.augment:
        pooled = data.concatenate([pooled, data.load_embeddings(args.augment)])
    b = bank_mod.enroll(pooled)
    stats = bank_mod.compute_mnorm_stats(b, pooled)
    save_bank(b, stats, Path(args.out_dir))
    print(f"enrolled S={len(b)} D={b.dimension} cohort={stats.cohort_size}")
    return 0


def cmd_score(args) -> int:
    _check_out_file(args.out)
    b, stats = load_bank(args.bank)
    stats = _mnorm_for(stats, args.norm_mode)
    trials = data.load_embeddings(args.trials, expected_dimension=b.dimension)
    data.save_scores(bank_mod.score_blocks(b, trials, stats), args.out)
    print(f"scored trials={len(trials)} detectors={len(b)}")
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    if args.det_points < 2:
        raise ValueError(f"--det-points must be at least 2, got {args.det_points}")
    _check_out_dir(args.out_dir)
    b, stats = load_bank(args.bank)
    stats = _mnorm_for(stats, args.norm_mode)
    trials = data.load_embeddings(args.trials, expected_dimension=b.dimension)
    mapping = _load_labels(args.labels, b)
    for utt in trials.utterance_ids:
        if utt not in mapping:
            raise ValueError(f"{args.labels}: missing label for trial {utt!r}")
    truth = np.array([mapping[utt] for utt in trials.utterance_ids], dtype=np.int64)
    (y_star,), (h_star,) = bank_mod.stack_scores(b, trials, [len(b)], [stats])
    top_s, top_1 = metrics.sweep_both(y_star, h_star, truth)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema_version": SCHEMA_VERSION,
        # --threads is ignored, so it is not echoed
        "config": {
            "subcommand": "eval",
            "bank": str(args.bank),
            "trials": str(args.trials),
            "labels": str(args.labels),
            "norm_mode": args.norm_mode,
            "det_points": args.det_points,
        },
        "mode_reports": {"top_s": top_s.to_dict(), "top_1": top_1.to_dict()},
        # wall-clock goes to stderr so repeated runs stay byte-identical
        "timing": None,
    }
    with data.output_group():
        with data.open_output(out_dir / "report.json") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        for rep, name in ((top_s, "det_top_s.csv"), (top_1, "det_top_1.csv")):
            metrics.save_det_points(
                metrics.det_points(rep, args.det_points), out_dir / name
            )
    print(f"top_s_eer={top_s.eer!r} top_1_eer={top_1.eer!r}")
    print(
        f"timing: eval took {time.perf_counter() - started:.3f}s", file=sys.stderr
    )
    return 0


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    sizes = _parse_sizes(args.sizes)
    _check_out_dir(args.out_dir)
    config = synth.PopulationConfig(
        dimension=args.dimension,
        speaker_spread=args.speaker_spread,
        channel_spread=args.channel_spread,
        seed=args.seed,
    )
    test_spec = synth.default_partition_specs()[2]
    if max(sizes) > test_spec.blacklist_speakers:
        test_spec = replace(test_spec, blacklist_speakers=max(sizes))
    result = synth.run_size_sweep(
        config,
        sizes,
        args.replicates,
        test_spec,
        norm_mode=args.norm_mode,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    synth.save_size_sweep(
        result,
        out_dir / "size_sweep.csv",
        out_dir / "size_sweep.json",
        config={
            "subcommand": "simulate",
            **asdict(config),
            "sizes": sizes,
            "replicates": args.replicates,
            "norm_mode": args.norm_mode,
            "test_spec": asdict(test_spec),
        },
    )
    for k, s, o in zip(result.sizes, result.top_s_eer, result.top_1_eer):
        print(f"size={k} top_s_eer={float(s):.6f} top_1_eer={float(o):.6f}")
    print(
        f"timing: simulate took {time.perf_counter() - started:.3f}s",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stackdet",
        description="Multi-target (blacklist) speaker detection workflows",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_threads(p):
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted and ignored; BLAS sets its own threads,"
            " e.g. OPENBLAS_NUM_THREADS",
        )

    def add_norm(p):
        p.add_argument(
            "--norm-mode",
            choices=bank_mod.NORM_MODES,
            default="full",
            help="score normalization applied after raw scoring",
        )

    p = sub.add_parser("enroll", help="build a detector bank from labeled utterances")
    p.add_argument("--train", required=True, help="labeled embedding CSV to enroll")
    p.add_argument("--augment", help="optional extra labeled embedding CSV to pool in")
    p.add_argument("--out-dir", required=True, help="directory for bank.csv + mnorm.json")
    add_threads(p)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("score", help="score trials against a bank into a CSV")
    p.add_argument("--bank", required=True, help="bank directory written by enroll")
    p.add_argument("--trials", required=True, help="embedding CSV of trials")
    p.add_argument("--out", required=True, help="output score CSV path")
    add_norm(p)
    add_threads(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="run both stack-detector sweeps and write reports")
    p.add_argument("--bank", required=True, help="bank directory written by enroll")
    p.add_argument("--trials", required=True, help="embedding CSV of trials")
    p.add_argument("--labels", required=True, help="CSV of utterance_id,truth ('-' = background)")
    p.add_argument("--out-dir", required=True, help="directory for report.json + DET CSVs")
    p.add_argument(
        "--det-points",
        type=int,
        default=DEFAULT_DET_POINTS,
        help="maximum operating points per DET CSV",
    )
    add_norm(p)
    add_threads(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="run the synthetic blacklist-size experiment")
    p.add_argument("--out-dir", required=True, help="directory for size_sweep.csv/.json")
    p.add_argument(
        "--sizes",
        default=",".join(str(k) for k in synth.DEFAULT_SWEEP_SIZES),
        help="comma-separated nondecreasing blacklist sizes",
    )
    p.add_argument("--replicates", type=int, default=synth.DEFAULT_SWEEP_REPLICATES)
    p.add_argument("--seed", type=int, default=synth.DEFAULT_SEED)
    p.add_argument("--dimension", type=int, default=synth.DEFAULT_DIMENSION)
    p.add_argument("--speaker-spread", type=float, default=synth.DEFAULT_SPEAKER_SPREAD)
    p.add_argument("--channel-spread", type=float, default=synth.DEFAULT_CHANNEL_SPREAD)
    p.add_argument(
        "--norm-mode",
        choices=bank_mod.NORM_MODES,
        default="none",
        help="score normalization inside the sweep",
    )
    add_threads(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
