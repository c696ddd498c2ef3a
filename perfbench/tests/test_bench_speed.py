"""The host speed probe scales each item by the samples that bracket it."""

import pytest

import speed
import worker
from test_bench_smoke import TINY


def _probe(samples):
    probe = speed.Probe()
    for end, seconds in samples:
        probe.samples.append((end, seconds))
        probe._ends.append(end)
    return probe


def test_factor_uses_the_samples_before_and_after_the_item():
    probe = _probe([(1.0, 0.010), (2.0, 0.020), (3.0, 0.030)])
    assert probe.factor(2.1, 2.9) == speed.REF_S / 0.025
    assert probe.factor(1.5, 2.5) == speed.REF_S / 0.020  # spans the middle sample


def test_factor_clamps_at_the_ends_of_the_run():
    probe = _probe([(1.0, 0.010), (2.0, 0.020)])
    assert probe.factor(0.5, 0.6) == speed.REF_S / 0.010
    assert probe.factor(2.5, 2.6) == speed.REF_S / 0.020


def test_kernel_does_fixed_work():
    assert speed.kernel() == speed.kernel() > 0


def test_untraced_run_scales_items_and_keeps_the_measured_times():
    result = worker.run(TINY["simulate"], seed=7, seconds=0.01, traced=False, budget=60)
    assert result["speed_samples"] >= 2
    assert len(result["raw_seconds"]) == len(result["items"])
    assert all(item[1] > 0 for item in result["items"])
    assert sum(result["rounds"]) == pytest.approx(sum(item[1] for item in result["items"]))
