"""The nle benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload delta-search --seed 1 --seconds 40 --trace 0

Load model: a closed loop from a single process. One pass runs the
workload's fixed, seeded list of operations once, in a fresh interpreter
(``worker.py``), each operation starting when the previous one returned;
BLAS/OpenMP threads are pinned to 1. Passes repeat while another one is
expected to end within ``--seconds`` (at least ``MIN_PASSES``); each metric
is the median over passes, except the latency tail, which pools them.

Times are scaled to a reference host speed by the host-speed sampler of
``probe.py``, because the speed of a shared host moves by tens of percent
from minute to minute; the unscaled medians are printed before the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
``trace.overhead_s`` (traced minus untraced pass wall time). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Seeds: 1 is the default workload seed; 2 is reserved for confirming a
claimed gain on a seed not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probe import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 1
CONFIRM_SEED = 2
MIN_PASSES = 3          # untraced passes; a traced run needs two of each kind
PASS_TIMEOUT_S = 150
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# name: (unit, better); the order in which they are printed
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "call_p50_ms": ("ms", "lower"),
    "call_tail_ms": ("ms", "lower"),
    "value_mean_bits": ("bits", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


RAW_SHOWN = ("setup_s", "wall_s", "cpu_s", "call_p50_ms", "call_tail_ms")


class BenchError(RuntimeError):
    pass


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile, in tenths, with at least ten ops beyond it at the
    workload's op count (ops per pass times the minimum number of passes)."""
    n = ops_per_pass * MIN_PASSES
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0 if n > 10 else 50.0


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_pass(args, traced: bool, dump: Path | None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    if args.tiny:
        cmd.append("--tiny")
    if dump is not None:
        cmd += ["--dump", str(dump)]
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"a pass exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, ops_per_pass: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "ops_per_pass": ops_per_pass,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes, until the time is up."""
    plain, traced = [], []
    need_plain, need_traced = (2, 2) if args.trace else (MIN_PASSES, 0)
    WORK.mkdir(exist_ok=True)
    dump = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    start = time.monotonic()
    longest = 0.0
    # start another pass only while it is expected to end within the time
    while (len(plain) < need_plain or len(traced) < need_traced
           or time.monotonic() - start + longest <= args.seconds):
        began = time.monotonic()
        if args.trace and len(traced) < len(plain):
            traced.append(run_pass(args, True, None if traced else dump))
        else:
            plain.append(run_pass(args, False, None))
        longest = max(longest, time.monotonic() - began)
    return plain, traced


def end_to_end(plain: list[dict], tail_q: float, prefix: str = "") -> dict:
    """Medians over passes; the tail pools the latencies of every pass.

    The times are scaled to the reference host speed; with ``prefix="raw_"``
    they are the times as the clock read them.
    """
    med = statistics.median
    values = {
        "setup_s": med(p[prefix + "setup_s"] for p in plain),
        "wall_s": med(p[prefix + "wall_s"] for p in plain),
        "cpu_s": med(p[prefix + "cpu_s"] for p in plain),
        "call_p50_ms": med(percentile(p[prefix + "latencies_ms"], 50.0) for p in plain),
        "call_tail_ms": percentile([t for p in plain for t in p[prefix + "latencies_ms"]],
                                   tail_q),
        "value_mean_bits": med(p["value_mean_bits"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Median times and exact counts over the traced passes, plus
    ``trace.overhead_s``; counts that differ between passes are reported."""
    problems = []
    metrics = {}
    for name, (value, unit) in traced[0]["layers"].items():
        seen = [p["layers"][name][0] for p in traced]
        if unit == "count":
            if len(set(seen)) != 1:
                problems.append(f"count {name} differs between traced passes: {seen}")
            metrics[name] = {"value": value, "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(seen), "unit": unit}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["host.probe_ms"] = {"value": statistics.median(p["probe_ms"] for p in plain + traced),
                                "unit": "ms"}
    return metrics, problems


def self_time_table(traced: list[dict]) -> list[str]:
    table = traced[0]["table"]
    lines = [f"{'span':34s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}"]
    for name in sorted(table, key=lambda n: -table[n][2]):
        calls, busy, own = table[name]
        lines.append(f"{name:34s} {calls:9d} {busy:10.4f} {own:10.4f}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap ops per workload (the benchmark's own tests)")
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "nle" / "__init__.py").is_file():
        print(f"perfbench: no nle package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    n_ops = plain[0]["n_ops"]
    attempted = sum(p["n_ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(json.dumps({"env": environment(args, n_ops)}, sort_keys=True))
    print(f"workload {args.workload}: {n_ops} ops per pass, {len(plain)} untraced and "
          f"{len(traced)} traced passes")

    problems = []
    if args.trace:
        metrics, problems = per_layer(plain, traced)
        print("\n".join(self_time_table(traced)))
    else:
        tail_q = tail_percentile(n_ops)
        metrics = end_to_end(plain, tail_q)
        print(f"call_tail_ms is p{tail_q:g} of {len(plain) * n_ops} ops "
              f"({n_ops} per pass, at least {MIN_PASSES * n_ops} per run)")
        raw = {k: m["value"] for k, m in end_to_end(plain, tail_q, "raw_").items()
               if k in RAW_SHOWN}
        probe_ms = statistics.median(p["probe_ms"] for p in plain)
        print(f"times are scaled to the reference host speed (a {NOMINAL_S * 1e3:g} ms sample; "
              f"median sample in this run {probe_ms:.4f} ms); unscaled:")
        print(json.dumps({"raw": raw, "probe_ms": probe_ms}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted} ops)")
    for index, label, reason in failures[:20]:
        print(f"FAILED op {index} ({label}): {reason}")
    for problem in problems:
        print(f"FAILED {problem}")

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
