"""One pass of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object with the pass's measurements as
its last line of output. A pass makes the seeded inputs with numpy alone,
then times ``import nle`` plus building every input ensemble (set-up), then
calls each operation once in a closed loop, one after the other, and checks
every output after the timed loop.

The host-speed sampler (``probe.py``) runs from just before set-up to just
after the last operation. Each time is reported twice: raw, and with the
samples taken out and scaled to the reference host speed by the samples
around it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from probe import Sampler
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 10  # back to back before and after set-up, which is shorter than the window


def import_nle():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nle = importlib.import_module("nle")
    importlib.import_module("nle.cli")
    if Path(nle.__file__).resolve().parent != SRC / "nle":
        raise ImportError(f"nle imported from {nle.__file__}, not from {SRC}")
    return nle


def _cli_call(nle, path: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nle.cli.main(["delta", "--file", path, "--json"])
    return code, out.getvalue()


def _calls(nle, ops, ensembles, modes, files):
    """One zero-argument callable per op; entry points are looked up at call
    time, so tracing wrappers and test doubles installed on ``nle`` apply."""
    calls = []
    for op, mode in zip(ops, modes):
        e = ensembles[op.input]
        if op.kind == "delta":
            calls.append(lambda e=e, m=mode: nle.nonlocal_entropy(e, m))
        elif op.kind == "big-delta":
            calls.append(lambda e=e, m=mode: nle.average_entropy_gap(e, m))
        elif op.kind == "classify":
            calls.append(lambda e=e: nle.classify(nle.as_product_set(e)))
        elif op.kind == "bounds":
            calls.append(lambda e=e: nle.cnot_bounds(e))
        elif op.kind == "cli":
            calls.append(lambda p=files[op.input]: _cli_call(nle, p))
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    return calls


def run_pass(workload: str, seed: int, trace: bool = False, tiny: bool = False,
             work_dir: Path = WORK, dump: Path | None = None) -> dict:
    """Measure one pass; see the module docstring."""
    inputs, ops = workloads.build(workload, seed, tiny)
    clock = time.perf_counter
    sampler = Sampler()

    sampler.burst(SETUP_SAMPLES)
    sampler.start()
    setup = [clock()]
    nle = import_nle()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    ensembles = [workloads.materialize(nle, inp) for inp in inputs]
    modes = [workloads.make_mode(nle, op.mode) if op.mode else None for op in ops]
    setup.append(clock())
    sampler.stop()
    sampler.burst(SETUP_SAMPLES)

    files = {}
    work_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.kind == "cli" and op.input not in files:
            path = work_dir / f"input-{op.input}.json"
            path.write_text(json.dumps(workloads.ensemble_document(ensembles[op.input])))
            files[op.input] = str(path)
    calls = _calls(nle, ops, ensembles, modes, files)

    results, spans, cpus = [], [], []
    cpu_clock = time.process_time
    sampler.burst(1)
    sampler.start()
    for i, (op, fn) in enumerate(zip(ops, calls)):
        sampler.between()
        t0, c0 = clock(), cpu_clock()
        try:
            result = tracer.call(i, op.kind, fn) if tracer else fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        spans.append((t0, clock()))
        cpus.append(cpu_clock() - c0)
        results.append(result)
    sampler.stop()
    sampler.burst(1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # raw times with the samples taken out, and the scale of each
    latencies = [t1 - t0 - sampler.inside(t0, t1) for t0, t1 in spans]
    cpus = [c - sampler.inside(t0, t1) for c, (t0, t1) in zip(cpus, spans)]
    scales = [sampler.scale(t0, t1) for t0, t1 in spans]
    raw_setup_s = setup[1] - setup[0] - sampler.inside(*setup)

    out = {
        "setup_s": raw_setup_s * sampler.scale(*setup),
        "wall_s": sum(t * f for t, f in zip(latencies, scales)),
        "cpu_s": sum(c * f for c, f in zip(cpus, scales)),
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [t * f * 1e3 for t, f in zip(latencies, scales)],
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": sum(latencies),
        "raw_cpu_s": sum(cpus),
        "raw_latencies_ms": [t * 1e3 for t in latencies],
        "probe_ms": sampler.median_ms(),
        "n_ops": len(ops),
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(ops)
        out["table"] = tracer.table()
        if dump is not None:
            tracer.dump(dump)
    for path in files.values():
        Path(path).unlink()

    fixed_delta = {op.input: r for op, r in zip(ops, results)
                   if op.kind == "delta" and op.mode[0] == "fixed"}
    failures = []
    values = []
    for i, (op, result) in enumerate(zip(ops, results)):
        reasons = workloads.check(op, inputs[op.input], ensembles[op.input], result,
                                  fixed_delta.get(op.input))
        if reasons:
            failures.append([i, f"{op.label} on {inputs[op.input].label}", "; ".join(reasons)])
        if op.scored and not isinstance(result, BaseException):
            values.append(result.symmetric)
    out["failures"] = failures
    out["value_mean_bits"] = sum(values) / len(values) if values else float("nan")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--dump", type=Path, default=None)
    args = parser.parse_args()
    work_dir = WORK / f"pass-{args.workload}-{args.seed}"
    try:
        out = run_pass(args.workload, args.seed, bool(args.trace), args.tiny, work_dir,
                       args.dump)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
