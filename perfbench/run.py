#!/usr/bin/env python3
"""Benchmark of the stackdet command line: three workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval_csv --seed 1234 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each

Each set-up and measured command is its own child process running
``python3 -m stackdet.cli`` from the checkout's ``src/``; its wall time, CPU
time and peak RSS come from that child's own rusage (``os.wait4``).  A
closed loop (one client, each command starts after the previous one exits)
alternates set-up and measured command for ``--seconds``, and each metric
is the median over the loop.  Every output file is checked against SHA-256
digests: the recorded ones in ``digests.json`` for the default seed,
otherwise those of the first run of the seed in this checkout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
replays the set-up and the measured command in-process under the span
recorder of ``tracer.py`` (one fresh process per replay, so the high-water
mark starts from zero), alternating with untraced runs, and reports the
per-layer metrics.  See README.md for why each workload and metric exists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated inputs,
outputs, logs and results live under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("eval_csv", "score_export", "size_sweep")
DEFAULT_SEED = 1234
KEEP_SEEDS = 12  # generated input sets kept in WORK, most recently used first
MB = 1024 * 1024
NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 120  # a hung command fails instead of stalling the run


# Input shape: half the ROADMAP benchmark shape (3,631 detectors, 12,386
# background trials, 600 dims, 2,000-trial slice) in counts and dimension.
# That keeps the ratio of CSV work (rows x dims) to matrix work (trials x
# detectors), so the same layers dominate, and a 30 s window holds several
# commands of every workload.
BLACKLIST = 1816  # detectors; train has 3 utterances per speaker
BACKGROUND = 6193  # background test trials, one per speaker
DIMENSION = 300  # embedding dimension, also passed to `simulate`
SCORE_SLICE = 1000  # leading test trials written out by score_export


@dataclass(frozen=True)
class Workload:
    setup: list[str]  # stackdet arguments of the set-up command
    setup_outputs: list[str]
    run: list[str]  # stackdet arguments of the measured command
    outputs: list[str]


ENROLL = ["enroll", "--train", "inputs/train_blacklist.csv", "--out-dir", "bank"]
BANK_FILES = ["bank/bank.csv", "bank/mnorm.json"]


def workload(name: str, seed: int) -> Workload:
    """Commands with fixed relative paths, so output bytes repeat exactly."""
    if name == "eval_csv":
        return Workload(
            ENROLL, BANK_FILES,
            ["eval", "--bank", "bank", "--trials", "inputs/test_trials.csv",
             "--labels", "inputs/test_labels.csv", "--out-dir", "out_eval",
             "--norm-mode", "full"],
            ["out_eval/report.json", "out_eval/det_top_s.csv", "out_eval/det_top_1.csv"],
        )
    if name == "score_export":
        return Workload(
            ENROLL, BANK_FILES,
            ["score", "--bank", "bank", "--trials", "inputs/test_slice.csv",
             "--out", "scores.csv", "--norm-mode", "full"],
            ["scores.csv"],
        )
    # simulate has no set-up stage; the interpreter start, imports and
    # argument parser that every command pays stand in for it.
    return Workload(
        ["--help"], [],
        ["simulate", "--out-dir", "out_sweep", "--seed", str(seed),
         "--threads", str(NPROC), "--dimension", str(DIMENSION),
         "--norm-mode", "none"],
        ["out_sweep/size_sweep.csv", "out_sweep/size_sweep.json"],
    )


# --------------------------------------------------------------------------
# inputs


def prepare_inputs(seed: int, seed_dir: Path) -> dict[str, int]:
    """Generate the seed's input CSVs once, then pull them into the page cache.

    Returns the size in bytes of each input file.
    """
    inputs = seed_dir / "inputs"
    if not (inputs / "READY").exists():
        shutil.rmtree(seed_dir, ignore_errors=True)
        staging = seed_dir / "inputs.tmp"
        staging.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), str(staging), str(seed), str(BLACKLIST),
             str(BACKGROUND), str(DIMENSION), str(SCORE_SLICE)],
            check=True,
        )
        (staging / "READY").touch()
        staging.rename(inputs)
    os.utime(seed_dir)
    sizes = {}
    for path in sorted(inputs.glob("*.csv")):
        with path.open("rb") as f:
            while f.read(1 << 20):
                pass
        sizes[path.name] = path.stat().st_size
    return sizes


def evict_old_inputs(keep: Path) -> None:
    dirs = sorted(
        (d for d in WORK.glob("seed-*") if d.is_dir() and d != keep),
        key=lambda d: d.stat().st_mtime,
        reverse=True,
    )
    for d in dirs[KEEP_SEEDS - 1:]:
        shutil.rmtree(d, ignore_errors=True)


# --------------------------------------------------------------------------
# child processes


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    digests: dict[str, str]


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion; (exit code, wall s, CPU s, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class OutputCheck:
    """Compares output digests with recorded ones or with the seed's first run."""

    def __init__(self, seed: int, seed_dir: Path) -> None:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.expected = recorded.get(str(seed), {})
        self.first_path = seed_dir / "first_digests.json"
        self.first = json.loads(self.first_path.read_text()) if self.first_path.exists() else {}

    def __call__(self, cwd: Path, files: list[str], exited_ok: bool) -> tuple[bool, dict[str, str]]:
        digests = {f: sha256(cwd / f) if (cwd / f).exists() else "missing" for f in files}
        ok = exited_ok and "missing" not in digests.values()
        for f, digest in digests.items():
            want = self.expected.get(f) or self.first.get(f)
            if want is None and ok:
                self.first[f] = digest
                self.first_path.write_text(json.dumps(self.first, indent=1, sort_keys=True))
            elif want is not None and want != digest:
                ok = False
        return ok, digests


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "stackdet.cli", *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *args]


def sample(argv, files, cwd, log, check) -> Sample:
    for f in files:  # a command that writes nothing must not pass on stale files
        (cwd / f).unlink(missing_ok=True)
    code, wall, cpu, rss = run_child(argv, cwd, log)
    ok, digests = check(cwd, files, code == 0)
    return Sample(wall, cpu, rss, ok, digests)


# --------------------------------------------------------------------------
# per-layer metrics from spans


class Spans:
    def __init__(self, spans: list[dict]) -> None:
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.child_time: dict[tuple[int, int], float] = defaultdict(float)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.child_time[(s["proc"], s["parent"])] += s["end"] - s["start"]

    def s(self, name: str) -> float:
        return float(sum(x["end"] - x["start"] for x in self.by_name[name]))

    def self_s(self, name: str) -> float:
        return float(sum(
            x["end"] - x["start"] - self.child_time[(x["proc"], x["id"])]
            for x in self.by_name[name]
        ))

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def hwm_rise_mb(self, name: str) -> float:
        rises = [x["hwm_end_kb"] - x["hwm_start_kb"] for x in self.by_name[name]]
        return max(rises, default=0) / 1024

    def attr(self, name: str, key: str) -> float:
        return sum(x.get("attrs", {}).get(key, 0) for x in self.by_name[name])

    def rate(self, name: str, key: str, scale: float) -> float:
        seconds = self.s(name)
        return self.attr(name, key) / scale / seconds if seconds > 0 else 0.0


# name -> (unit, function of Spans).  A layer a workload bypasses reads 0.
PER_LAYER = {
    "data.load_embeddings.s": ("s", lambda t: t.s("data.load_embeddings")),
    "data.load_embeddings.mb_per_s": ("MB/s", lambda t: t.rate("data.load_embeddings", "bytes", MB)),
    "data.load_embeddings.hwm_rise_mb": ("MB", lambda t: t.hwm_rise_mb("data.load_embeddings")),
    "cli.load_bank.self_s": ("s", lambda t: t.self_s("cli.load_bank")),
    "data.save_scores.s": ("s", lambda t: t.s("data.save_scores")),
    "data.save_scores.mb_per_s": ("MB/s", lambda t: t.rate("data.save_scores", "bytes", MB)),
    "data.save_embeddings.s": ("s", lambda t: t.s("data.save_embeddings")),
    "cli.save_bank.self_s": ("s", lambda t: t.self_s("cli.save_bank")),
    "bank.enroll.s": ("s", lambda t: t.s("bank.enroll")),
    "bank.compute_mnorm_stats.self_s": ("s", lambda t: t.self_s("bank.compute_mnorm_stats")),
    "bank.mnorm_stats_from_scores.s": ("s", lambda t: t.s("bank.mnorm_stats_from_scores")),
    "bank.score_all.s": ("s", lambda t: t.s("bank.score_all")),
    "bank.score_all.calls": ("count", lambda t: t.calls("bank.score_all")),
    "bank.score_all.gflop": ("GFLOP", lambda t: t.attr("bank.score_all", "flop") / 1e9),
    "bank.score_all.gflop_per_s": ("GFLOP/s", lambda t: t.rate("bank.score_all", "flop", 1e9)),
    "bank.score_all.hwm_rise_mb": ("MB", lambda t: t.hwm_rise_mb("bank.score_all")),
    "bank.apply_mnorm.s": ("s", lambda t: t.s("bank.apply_mnorm")),
    "bank.apply_mnorm.out_mb": ("MB", lambda t: t.attr("bank.apply_mnorm", "out_bytes") / MB),
    "bank.apply_mnorm.hwm_rise_mb": ("MB", lambda t: t.hwm_rise_mb("bank.apply_mnorm")),
    "metrics.stack_reduce.s": ("s", lambda t: t.s("metrics.stack_reduce")),
    "metrics.sweep_both.s": ("s", lambda t: t.s("metrics.sweep_both")),
    "metrics.sweep_both.calls": ("count", lambda t: t.calls("metrics.sweep_both")),
    "metrics.sweep_both.thresholds": ("count", lambda t: t.attr("metrics.sweep_both", "thresholds")),
    "metrics.det_points.s": ("s", lambda t: t.s("metrics.det_points")),
    "metrics.save_det_points.s": ("s", lambda t: t.s("metrics.save_det_points")),
    "synth.generate_population.s": ("s", lambda t: t.s("synth.generate_population")),
    "synth.generate_population.calls": ("count", lambda t: t.calls("synth.generate_population")),
    "synth.run_size_sweep.self_s": ("s", lambda t: t.self_s("synth.run_size_sweep")),
    "synth.run_size_sweep.hwm_rise_mb": ("MB", lambda t: t.hwm_rise_mb("synth.run_size_sweep")),
    "cli.cmd_eval.self_s": ("s", lambda t: t.self_s("cli.cmd_eval")),
    "cli.cmd_score.self_s": ("s", lambda t: t.self_s("cli.cmd_score")),
    "cli.cmd_enroll.self_s": ("s", lambda t: t.self_s("cli.cmd_enroll")),
    "cli.cmd_simulate.self_s": ("s", lambda t: t.self_s("cli.cmd_simulate")),
}


def read_spans(path: Path, proc: int) -> list[dict]:
    if not path.exists():
        return []
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    for s in spans:
        s["proc"] = proc
    return spans


# --------------------------------------------------------------------------
# the run


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    seed_dir = WORK / f"seed-{seed}"
    sizes = prepare_inputs(seed, seed_dir)
    evict_old_inputs(seed_dir)
    logs = seed_dir / "logs" / name
    logs.mkdir(parents=True, exist_ok=True)
    wl = workload(name, seed)
    check = OutputCheck(seed, seed_dir)
    result = {"workload": name, "seed": seed, "input_bytes": sizes}

    # Set-up and measured command alternate for the whole window, so both
    # medians sample the same stretch of machine time.
    spans_dir = seed_dir / "spans" / name
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    setups, samples, traced, passes = [], [], [], []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        if trace:
            setup_path = spans_dir / f"setup{len(passes)}.jsonl"
            run_path = spans_dir / f"run{len(passes)}.jsonl"
            setups.append(sample(traced_argv(setup_path, wl.setup), wl.setup_outputs,
                                 seed_dir, logs / "setup", check))
            samples.append(sample(cli_argv(wl.run), wl.outputs, seed_dir, logs / "run", check))
            traced.append(sample(traced_argv(run_path, wl.run), wl.outputs, seed_dir,
                                 logs / "traced", check))
            passes.append(Spans(read_spans(setup_path, 0) + read_spans(run_path, 1)))
        else:
            setups.append(sample(cli_argv(wl.setup), wl.setup_outputs, seed_dir,
                                 logs / "setup", check))
            samples.append(sample(cli_argv(wl.run), wl.outputs, seed_dir, logs / "run", check))

    if trace:
        metrics = {
            key: metric(median([fn(p) for p in passes]), unit)
            for key, (unit, fn) in PER_LAYER.items()
        }
        metrics["trace.overhead_s"] = metric(
            median([s.wall_s for s in traced]) - median([s.wall_s for s in samples]), "s"
        )
    else:
        metrics = {
            "setup_s": metric(median([s.wall_s for s in setups]), "s"),
            "setup_rss_mb": metric(median([s.rss_mb for s in setups]), "MB"),
            "run_s": metric(median([s.wall_s for s in samples]), "s"),
            "cpu_s": metric(median([s.cpu_s for s in samples]), "s"),
            "peak_rss_mb": metric(median([s.rss_mb for s in samples]), "MB"),
        }
    result["setup_s_samples"] = [s.wall_s for s in setups]
    result["run_s_samples"] = [s.wall_s for s in samples]
    result["traced_s_samples"] = [s.wall_s for s in traced]
    samples += traced
    setup_ok = all(s.ok for s in setups)

    failed = sum(not s.ok for s in samples)
    result.update(
        correct=setup_ok and failed == 0,
        attempted=len(samples),
        failed=failed,
        ops_failed=failed / len(samples),
        metrics=metrics,
        digests={**setups[0].digests, **samples[0].digests},
    )
    return result


NUMPY_PROBE = """
import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def environment() -> dict:
    env = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    # numpy is asked in a child: importing it here would raise the floor of
    # every child's ru_maxrss, which starts at this process's high-water mark.
    probe = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True)
    env.update(json.loads(probe.stdout) if probe.returncode == 0 else {"numpy": None})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu"] = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
        env["caches"] = caches
    except OSError:
        pass
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def print_table(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}) ==")
    for key, m in result["metrics"].items():
        print(f"  {key:36s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'ops_failed':36s} {result['ops_failed']:14.6f} share "
          f"({result['failed']} of {result['attempted']} measured commands)")
    print(f"  input bytes: {json.dumps(result['input_bytes'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stackdet" / "cli.py").is_file():
        print(f"error: no stackdet sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("error: --seed must fit in 64 unsigned bits and --seconds be positive",
              file=sys.stderr)
        return 2

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for r in results:
        r["environment"] = env
        print_table(r)
        out = results_dir / f"{r['workload']}-{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(r, indent=1, sort_keys=True) + "\n")
    env["benchmark_process_hwm_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("environment: " + json.dumps(env, sort_keys=True))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
