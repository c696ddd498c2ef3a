"""Tiny runs of all four workloads, and proof that their gates can fail."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads
from fssp_holes import mft2, shapes
from fssp_holes.sim import line

BENCH = Path(__file__).resolve().parent.parent

TINY = {
    "ck-table": workloads.CkTable(ks=(2, 3, 4)),
    "classify-sweep": workloads.ClassifySweep(w=11, count=6),
    "classify-cold": workloads.ClassifyCold(slow_ws=(11,), fast_ws=(11, 12)),
    "simulate": workloads.Simulate(line_max=32, line_count=4, square_ws=(2, 3, 4, 5)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = worker.run(TINY[name], seed=7, seconds=0.01, traced=False, budget=60)
    assert result["items"] and not [i for i in result["items"] if i[3]]
    metrics = run.end_to_end(result, [0.1, 0.2, 0.3])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values()), metrics
    assert metrics["correct_ratio"] == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_round_reports_every_layer_metric(name):
    result = worker.run(TINY[name], seed=7, seconds=0.01, traced=True, budget=60)
    assert len(result["rounds"]) == 1 and not [i for i in result["items"] if i[3]]
    assert set(result["layers"]) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    assert (BENCH.parent / result["spans_file"]).is_file()


def test_traced_layers_see_the_work_of_each_workload():
    sweep = worker.run(TINY["classify-sweep"], seed=7, seconds=0.01, traced=True, budget=60)["layers"]
    assert sweep["mft2.verdicts.2w"] + sweep["mft2.verdicts.2w1"] == 6
    assert sweep["grid.validate.calls"] > 0 and sweep["sim.line.runs"] == 0
    sim = worker.run(TINY["simulate"], seed=7, seconds=0.01, traced=True, budget=60)["layers"]
    assert sim["sim.line.runs"] > 4 and sim["grid.validate.calls"] == 0
    cold = worker.run(TINY["classify-cold"], seed=7, seconds=0.01, traced=True, budget=60)["layers"]
    assert cold["cli.main_s"] > 0 and cold["timebounds.certificate_search_report.calls"] == 1


def _failed_kinds(name):
    """{kind: (failed, attempted)} of a tiny run."""
    result = worker.run(TINY[name], seed=7, seconds=0.01, traced=False, budget=60)
    out = {}
    for kind, _, _, err in result["items"]:
        failed, attempted = out.get(kind, (0, 0))
        out[kind] = (failed + bool(err), attempted + 1)
    return out


def test_gate_fails_an_off_by_one_line(monkeypatch):
    real = line.run_line_fssp
    monkeypatch.setattr(line, "run_line_fssp", lambda n: real(n) + 1)
    counts = _failed_kinds("simulate")
    assert counts["heavy"][0] == counts["heavy"][1] > 0  # every line run
    assert counts["light"][0] == 0  # squares do not call run_line_fssp


def test_gate_fails_a_flipped_verdict(monkeypatch):
    real = mft2.classify

    def flipped(cfg, with_certificate=True):
        verdict = real(cfg, with_certificate)
        return type(verdict)(4 * cfg.size + 1 - verdict.value, verdict.kind,
                             verdict.chain, verdict.plan, verdict.check)

    monkeypatch.setattr(mft2, "classify", flipped)
    assert all(failed == attempted for failed, attempted in _failed_kinds("classify-sweep").values())


def test_gate_fails_an_altered_ck_row(monkeypatch):
    real = shapes.compute_ck

    def altered(k, **kwargs):
        result = real(k, **kwargs)
        return type(result)(result.k, result.c_k, result.shape_count, result.pair_count + 1,
                            result.argmax_pair_count, result.argmax_pairs)

    monkeypatch.setattr(shapes, "compute_ck", altered)
    assert all(failed == attempted for failed, attempted in _failed_kinds("ck-table").values())


def test_command_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] > 0
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == run.END_TO_END_UNITS


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""
