"""Command-line harness: enroll, score, eval, and simulate subcommands.

All outputs are deterministic given the flags and the BLAS thread count:
repeated runs produce byte-identical files.  ``--threads`` is accepted and
ignored, so existing command lines keep working.  Each command prints its
wall-clock time to stderr, never into report files.  Output locations are
checked before any input is read, and the input paths before any is
parsed; the files of one command appear together or not at all.  Errors
are printed to stderr with an ``error:`` prefix and a nonzero exit code;
SIGINT and SIGTERM end a command with ``error: interrupted`` and exit
status 128 + the signal number, its temp files removed.

A bank directory holds ``bank.csv`` (one unit direction per detector) and
``mnorm.json`` (its cohort statistics).  ``load_bank`` returns the two
apart, and ``_bank_and_stats`` resolves the statistics for ``--norm-mode``
through ``MNormStats.for_mode``.  ``mnorm.json`` and the labels are read here.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import stat
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bank as bank_mod
from . import data, metrics, synth

BANK_FILE = "bank.csv"
MNORM_FILE = "mnorm.json"
MNORM_SCHEMA_VERSION = 1
REPORT_FILE = "report.json"
REPORT_SCHEMA_VERSION = 1
DET_FILES = ("det_top_s.csv", "det_top_1.csv")
SWEEP_FILES = ("size_sweep.csv", "size_sweep.json")
DEFAULT_DET_POINTS = 512

# Score blocks (``bank._CHUNK`` rows each) per trial span that ``eval`` parses
# at once.  Full-shape ``eval`` on 2 CPUs peaked at 130 MB with spans of one
# block and 139 MB with spans of two (198 MB with the file read whole);
# in-process, its parse and scoring took 3.3-3.6 s with spans of one block and
# 2.8-3.2 s with spans of two (3 runs each).
_SPAN_CHUNKS = 2


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


def _not_replaceable(path: Path) -> str | None:
    """Why an output file cannot replace ``path``: it exists and is not a regular file (or a link to one)."""
    if path.is_dir():
        return "is a directory"
    if path.exists() and not path.is_file():  # a FIFO, a device or a socket
        return "is not a regular file"
    return None


def _check_out_dir(path, names) -> None:
    """Fail before any work when ``--out-dir`` cannot become a directory holding ``names``."""
    path = Path(path)
    base = next(p for p in (path, *path.parents) if p.exists())
    if not base.is_dir():
        raise ValueError(f"--out-dir {path}: {base} is not a directory")
    for name in names:
        if why := _not_replaceable(path / name):
            raise ValueError(f"--out-dir {path}: {path / name} {why}")


def _check_inputs(args, *flags) -> None:
    """Fail before any parse when the input path of a flag in ``flags`` is missing or is a directory.

    Only ``stat`` is called, for opening a FIFO blocks until its writer opens it.
    """
    for flag in flags:
        path = getattr(args, flag[2:])
        try:  # an empty --augment is no path: enroll skips it
            if path and stat.S_ISDIR(os.stat(path).st_mode):
                raise ValueError(f"{flag} {path}: is a directory")
        except OSError as exc:
            raise ValueError(f"{flag} {path}: {exc.strerror}") from None


def _check_out_file(path) -> None:
    """Fail before any work when ``--out`` cannot be written."""
    path = Path(path)
    if why := _not_replaceable(path):
        raise ValueError(f"--out {path}: {why}")
    if not path.parent.is_dir():
        raise ValueError(f"--out {path}: {path.parent} is not an existing directory")


def save_bank(b: bank_mod.DetectorBank, stats: bank_mod.MNormStats, out_dir: Path) -> None:
    if stats is None or len(stats) != len(b):
        raise ValueError("normalization statistics do not match the bank")
    out_dir.mkdir(parents=True, exist_ok=True)
    as_set = data.EmbeddingSet(b.speaker_ids, b.speaker_ids, b.directions)
    payload = {
        "schema_version": MNORM_SCHEMA_VERSION,
        "cohort_size": stats.cohort_size,
        "detector_ids": list(b.speaker_ids),
        "mu": stats.mu.tolist(),
        "sigma": stats.sigma.tolist(),
    }
    with data.output_group():
        data.save_embeddings(as_set, out_dir / BANK_FILE)
        data.save_json(payload, out_dir / MNORM_FILE)


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
        payload = json.loads(data.decode(path.read_bytes(), path))
    except json.JSONDecodeError as exc:
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
    if payload["schema_version"] != MNORM_SCHEMA_VERSION:
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


def _load_truth(path, b: bank_mod.DetectorBank, trial_ids) -> np.ndarray:
    """Each trial's true detector index from label CSV rows ``utterance_id,truth``.

    ``-`` (index -1) marks background; labels of utterances that are not trials go unused.
    """
    index = {spk: i for i, spk in enumerate(b.speaker_ids)} | {data.UNLABELED: -1}
    mapping: dict[str, int] = {}
    with open(path, "rb") as f:
        for rownum, rec in data.csv_rows(path, data.line_blocks(f)):
            if len(rec) != 2:
                raise data.DataFormatError(f"{path}: row {rownum}: expected utterance_id,truth")
            utt, truth = rec
            if utt in mapping:
                raise data.DataFormatError(f"{path}: row {rownum}: duplicate label for {utt!r}")
            if truth not in index:
                raise ValueError(f"{path}: row {rownum}: truth speaker {truth!r} is not in the bank")
            mapping[utt] = index[truth]
    try:
        return np.array([mapping[utt] for utt in trial_ids], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"{path}: missing label for trial {exc.args[0]!r}") from None


def _bank_and_stats(args):
    """The bank and the stats that ``--norm-mode`` applies (None for none)."""
    b, stats = load_bank(args.bank)
    if stats is None and args.norm_mode != "none":
        raise ValueError(
            f"normalization mode {args.norm_mode!r} needs {MNORM_FILE} in the bank directory"
        )
    return b, None if stats is None else stats.for_mode(args.norm_mode)


def cmd_enroll(args) -> int:
    _check_out_dir(args.out_dir, (BANK_FILE, MNORM_FILE))
    _check_inputs(args, "--train", "--augment")
    pooled = data.load_embeddings(args.train)
    if args.augment:
        extra = data.load_embeddings(args.augment, expected_dimension=pooled.dimension)
        pooled = data.concatenate([pooled, extra])
    b = bank_mod.enroll(pooled)
    stats = bank_mod.compute_mnorm_stats(b, pooled)
    save_bank(b, stats, Path(args.out_dir))
    print(f"enrolled S={len(b)} D={b.dimension} cohort={stats.cohort_size}")
    return 0


def cmd_score(args) -> int:
    _check_out_file(args.out)
    b, stats = _bank_and_stats(args)
    _check_inputs(args, "--trials")
    trials = data.load_embeddings(args.trials, expected_dimension=b.dimension)
    blocks = bank_mod.score_blocks(b, trials, stats)
    data.save_table(args.out, ("utterance_id", *b.speaker_ids), (trials.utterance_ids,), blocks)
    print(f"scored trials={len(trials)} detectors={len(b)}")
    return 0


def cmd_eval(args) -> int:
    if args.det_points < 2:
        raise ValueError(f"--det-points must be at least 2, got {args.det_points}")
    _check_out_dir(args.out_dir, (REPORT_FILE, *DET_FILES))
    b, stats = _bank_and_stats(args)
    _check_inputs(args, "--trials", "--labels")
    # each trial span is scored in whole score blocks and dropped before the next span is parsed; a
    # scoring error waits until every span is parsed and the labels are read, the order of a whole read
    ids, y_star, h_star, failed = [], [], [], None
    for span in data.embedding_spans(args.trials, b.dimension, _SPAN_CHUNKS * bank_mod._CHUNK):
        ids += span.utterance_ids
        if failed is None:
            try:
                (y,), (h,) = bank_mod.stack_scores(b, span, [len(b)], [stats])
            except ValueError as exc:
                failed = exc
            else:
                y_star.append(y)
                h_star.append(h)
        del span
    truth = _load_truth(args.labels, b, ids)
    if failed is not None:
        raise failed
    top_s, top_1 = metrics.sweep_both(np.concatenate(y_star), np.concatenate(h_star), truth)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
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
        data.save_json(report, out_dir / REPORT_FILE)
        for rep, name in zip((top_s, top_1), DET_FILES):
            metrics.save_det_points(metrics.det_points(rep, args.det_points), out_dir / name)
    print(f"top_s_eer={top_s.eer!r} top_1_eer={top_1.eer!r}")
    return 0


def cmd_simulate(args) -> int:
    sizes = _parse_sizes(args.sizes)
    _check_out_dir(args.out_dir, SWEEP_FILES)
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
        *(out_dir / name for name in SWEEP_FILES),
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

    def add_norm(p, default, help):
        p.add_argument("--norm-mode", choices=bank_mod.NORM_MODES, default=default, help=help)

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
    add_norm(p, "full", "score normalization applied after raw scoring")
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
    add_norm(p, "full", "score normalization applied after raw scoring")
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
    add_norm(p, "none", "score normalization inside the sweep")
    add_threads(p)
    p.set_defaults(func=cmd_simulate)
    return parser


class _Interrupted(BaseException):
    """SIGINT or SIGTERM arrived; unwinds like KeyboardInterrupt, so every temp file is removed."""


def _interrupt(signum, frame):
    raise _Interrupted(signum)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    # only the main thread may set handlers, and Python runs them only there
    signals = (signal.SIGINT, signal.SIGTERM) if threading.current_thread() is threading.main_thread() else ()
    previous = {s: signal.signal(s, _interrupt) for s in signals}
    try:
        code = args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    except _Interrupted as exc:
        print("error: interrupted", file=sys.stderr)
        return 128 + exc.args[0]
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    print(f"timing: {args.subcommand} took {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
