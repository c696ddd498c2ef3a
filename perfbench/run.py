"""fssp-holes benchmark: one workload, checked answers, metrics as JSON.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the last line of stdout carries the end-to-end metrics: the
median set-up time of fresh processes, then one fresh worker process that
repeats rounds of the workload for about T seconds.  With --trace 1 it
carries the per-layer metrics: a fresh untraced worker as above, then one
traced round in another fresh worker, whose spans are written under
.perfbench-out/.  Any wrong or raising answer makes the exit code 1.
Gated times are scaled to a reference host speed (speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("ck-table", "classify-sweep", "classify-cold", "simulate")
SETUP_REPEATS = 11
TIME_LIMIT_S = 170.0  # the whole command must end well inside 180 s

#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
    "work_per_s": "1/s",
    "heavy_per_s": "1/s",
    "light_per_s": "1/s",
}


def _source_present() -> bool:
    return (ROOT / "src" / "fssp_holes" / "__init__.py").is_file()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _left(deadline: float) -> float:
    return max(1.0, deadline - perf_counter())


def _worker(workloads, args, deadline: float, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--budget", str(_left(deadline - 5.0))]
    if traced:
        cmd.append("--traced")
    proc = workloads.run_process(cmd, ROOT, timeout=_left(deadline))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_times(workloads, args, deadline: float) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import the package and build the
    inputs, scaled to reference speed and as measured.

    For classify-cold the user-visible set-up is a CLI process, so a trivial
    `fssp-holes validate` query is timed instead.
    """
    workload = workloads.WORKLOADS[args.workload]
    times = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.workload == "classify-cold":
            cfg = workload.build(workloads.round_rng(args.seed, workload.name, 0))[0]
            path = Path(tmp) / "setup.json"
            path.write_text(workloads.grid.dump_json(cfg), encoding="utf-8")
            cmd = [sys.executable, "-m", "fssp_holes.cli", "validate", str(path)]
        else:
            cmd = [sys.executable, str(BENCH / "worker.py"), "setup",
                   "--workload", args.workload, "--seed", str(args.seed)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        probe = speed.Probe()
        for _ in range(SETUP_REPEATS):
            probe.sample()
            t0 = perf_counter()
            proc = workloads.run_process(cmd, ROOT, env, timeout=_left(deadline))
            times.append((t0, perf_counter() - t0))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"set-up process exited with {proc.returncode}")
        probe.sample()
    return [dt * probe.factor(t0, t0 + dt) for t0, dt in times], [dt for _, dt in times]


def _rate(items, kind=None) -> float:
    chosen = [(s, u) for k, s, u, _ in items if kind is None or k == kind]
    seconds = sum(s for s, _ in chosen)
    return sum(u for _, u in chosen) / seconds if seconds > 0 else 0.0


def end_to_end(result: dict, setup_times: list[float]) -> dict[str, float]:
    """The gated metrics: timings are means over the whole run, of item times
    scaled to reference speed."""
    items = result["items"]
    failed = sum(1 for *_, err in items if err)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.mean(result["rounds"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "correct_ratio": (len(items) - failed) / len(items),
        "work_per_s": _rate(items),
        "heavy_per_s": _rate(items, "heavy"),
        "light_per_s": _rate(items, "light"),
    }


def unscaled(result: dict, raw_setup_times: list[float]) -> dict[str, float]:
    """The timed end-to-end metrics from times as measured (not gated)."""
    items = [[k, s, u, e] for (k, _, u, e), s in zip(result["items"], result["raw_seconds"])]
    metrics = end_to_end(dict(result, items=items, rounds=result["raw_rounds"]), raw_setup_times)
    return {name: metrics[name] for name in ("setup_s", "wall_s", "work_per_s", "heavy_per_s", "light_per_s")}


def latency_ms(items) -> dict[str, dict]:
    """Item latency median and p99 per kind, with the sample count (not gated)."""
    out = {}
    for kind in ("all", "heavy", "light"):
        lat = sorted(1000 * s for k, s, _, _ in items if kind in ("all", k))
        if len(lat) >= 2:
            out[kind] = {"n": len(lat), "p50": statistics.median(lat),
                         "p99": statistics.quantiles(lat, n=100, method="inclusive")[98]}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _source_present():
        print(f"error: no fssp_holes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports fssp_holes from src/

    deadline = perf_counter() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            base = _worker(workloads, args, deadline, traced=False)
            traced = _worker(workloads, args, deadline, traced=True)
            results = [base, traced]
            metrics = dict(traced["layers"])
            # Same inputs (round 0), each in a fresh process: the difference is the tracing.
            metrics["trace.overhead_s"] = traced["raw_rounds"][0] - base["raw_rounds"][0]
            units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        else:
            setup_times, raw_setup_times = _setup_times(workloads, args, deadline)
            results = [_worker(workloads, args, deadline, traced=False)]
            metrics = end_to_end(results[0], setup_times)
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [err for r in results for *_, err in r["items"] if err]
    errors += [err for r in results for err in r["extra_checks"][1]]
    attempted = sum(len(r["items"]) + r["extra_checks"][0] for r in results)
    for err in errors[:10]:
        print(f"wrong answer: {err}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": [len(r["rounds"]) for r in results],
        "unscaled": None if args.trace else unscaled(results[0], raw_setup_times),
        "speed_samples": results[0]["speed_samples"],
        "inputs_sha256": results[0]["inputs_sha256"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "spans_file": results[-1].get("spans_file"),
        "latency_ms": latency_ms(results[0]["items"]),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
