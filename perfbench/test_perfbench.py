"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import pytest

import probe
import run
import workloads
import worker

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = run.DEFAULT_SEED) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_op_counts(workload):
    first, second, other = (workloads.build(workload, s) for s in (7, 7, 8))
    assert workloads.input_bytes(first[0]) == workloads.input_bytes(second[0])
    assert [op.label for op in first[1]] == [op.label for op in second[1]]
    assert [op.mode for op in first[1]] == [op.mode for op in second[1]]
    assert workloads.input_bytes(first[0]) != workloads.input_bytes(other[0])
    assert len(first[1]) == len(other[1])  # the structure never depends on the seed


def test_benchmark_json_matches_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result, text = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert f"{name} = " in text and text.split(f"{name} = ")[1].split("\n")[0].endswith(unit)
    assert "fail_ratio = 0 1" in text
    for key in ('"git_commit"', '"nproc"', '"numpy"', '"blas"', '"ops_per_pass"'):
        assert key in text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_their_counts(workload):
    first, text = _run(workload, trace=1)
    second, _ = _run(workload, trace=1)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    for name in want:
        assert f"{name} = " in text
    counts = [name for name, unit in want.items() if unit == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_a_corrupted_output_is_counted_as_failed(monkeypatch, tmp_path):
    clean = worker.run_pass("survey", 3, tiny=True, work_dir=tmp_path)
    assert clean["failures"] == []
    nle = worker.import_nle()
    honest = nle.nonlocal_entropy

    def corrupted(e, mode):
        report = honest(e, mode)
        return dataclasses.replace(report, left=report.left + 1e-6)

    monkeypatch.setattr(nle, "nonlocal_entropy", corrupted)
    bad = worker.run_pass("survey", 3, tiny=True, work_dir=tmp_path)
    assert len(bad["failures"]) > len(clean["failures"])


def test_checks_accept_paper_values_and_reject_a_shifted_one():
    inputs, ops = workloads.build("gap-search", 1)
    nle = worker.import_nle()
    op = next(o for o in ops if o.expect.get("value"))
    e = workloads.materialize(nle, inputs[op.input])
    report = nle.average_entropy_gap(e, workloads.make_mode(nle, op.mode))
    assert workloads.check(op, inputs[op.input], e, report) == []
    moved = dataclasses.replace(report, right=report.right + 1e-3, left=report.left + 1e-3,
                                symmetric=report.symmetric + 1e-3)
    assert workloads.check(op, inputs[op.input], e, moved) != []


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_ops_beyond_it():
    for n in (12, 17, 18, 7380):
        q = run.tail_percentile(n)
        assert n * run.MIN_PASSES * (1 - q / 100) >= 10 - 1e-9


def test_sampler_takes_its_samples_out_and_scales_to_the_reference_speed():
    sampler = probe.Sampler()
    # samples of twice the reference time at 0.0, 0.1, 0.2 and 0.3 s
    sampler.starts = [0.0, 0.1, 0.2, 0.3]
    sampler.ends = [s + 2 * probe.NOMINAL_S for s in sampler.starts]
    assert sampler.inside(0.05, 0.25) == pytest.approx(4 * probe.NOMINAL_S)
    assert sampler.inside(0.0 + 2 * probe.NOMINAL_S, 0.1) == 0.0
    assert sampler.inside(0.0 + probe.NOMINAL_S, 0.05) == pytest.approx(probe.NOMINAL_S)
    assert sampler.scale(0.12, 0.13) == pytest.approx(0.5)  # the host runs at half speed
    with pytest.raises(RuntimeError):
        sampler.scale(5.0, 6.0)


def test_a_pass_reports_raw_and_scaled_times(tmp_path):
    out = worker.run_pass("gap-search", 3, tiny=True, work_dir=tmp_path)
    assert out["probe_ms"] > 0
    assert len(out["latencies_ms"]) == len(out["raw_latencies_ms"]) == out["n_ops"]
    assert out["wall_s"] == pytest.approx(sum(out["latencies_ms"]) / 1e3)
    assert out["raw_wall_s"] == pytest.approx(sum(out["raw_latencies_ms"]) / 1e3)
    assert all(t > 0 for t in out["latencies_ms"] + out["raw_latencies_ms"])
