"""Child process of the benchmark: one workload run, or one traced CLI query.

    worker.py run --workload W --seed S --seconds T [--traced] [--budget B]
    worker.py setup --workload W --seed S
    worker.py cli <fssp-holes arguments>

`run` repeats rounds of the workload until the next round would end after
--seconds, or runs exactly one round under the tracer with --traced, and
prints one JSON object.  Untraced, item times are scaled to reference speed
by samples of speed.py taken between items; the measured times come too.
`setup` imports the package and builds the first round's inputs, nothing
else; the caller times the whole process.  `cli`
runs cli.main in-process under the tracer and prints its output and spans.
Each run is its own process, so every lru_cache of the program starts empty.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402


def traced_cli(argv: list[str]) -> int:
    t0 = perf_counter()
    import fssp_holes.cli as cli

    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 -- reported as a failed query
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    main_s = perf_counter() - t0
    tracer.restore()
    hits, misses = tracing.cache_counts()
    tracer.counters.update({"grid.distance_grid.hits": hits, "grid.distance_grid.misses": misses})
    print(json.dumps({
        "rc": rc, "stdout": buf.getvalue(), "import_s": import_s, "main_s": main_s,
        "summary": tracer.summary(), "counters": dict(tracer.counters), "spans": tracer.spans,
    }))
    return 0


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run(workload, seed: int, seconds: float, traced: bool, budget: float) -> dict:
    import workloads

    start = perf_counter()
    round_sizes, items, elapsed = [], [], []
    probe = None if traced else speed.Probe()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = workloads.Context(ROOT, Path(tmp), traced, probe, start + budget)
        while True:
            r0 = perf_counter()
            inputs = workload.build(workloads.round_rng(seed, workload.name, len(round_sizes)))
            if not round_sizes:
                digest = hashlib.sha256(workload.canonical(inputs).encode()).hexdigest()
            if traced:
                tracer = tracing.Tracer()
                hits0, misses0 = tracing.cache_counts()
                tracing.instrument(tracer)
                try:
                    round_items = workload.run(inputs, ctx)
                finally:
                    tracer.restore()
                hits, misses = tracing.cache_counts()
                tracer.counters.update({"grid.distance_grid.hits": hits - hits0,
                                        "grid.distance_grid.misses": misses - misses0})
            else:
                round_items = workload.run(inputs, ctx)
            round_sizes.append(len(round_items))
            items.extend(round_items)
            elapsed.append(perf_counter() - r0)
            if traced or perf_counter() + statistics.median(elapsed) > start + seconds:
                break
        if traced:
            layers, spans, extra_checks = _layers(workload, tracer, ctx, items)
    if probe is None:
        scaled = [i.seconds for i in items]
    else:
        probe.sample()  # brackets the last item
        scaled = [i.seconds * probe.factor(i.start, i.start + i.seconds) for i in items]
    result = {
        "rounds": _round_sums(scaled, round_sizes),
        "raw_rounds": _round_sums([i.seconds for i in items], round_sizes),
        "items": [[i.kind, s, i.units, i.error] for i, s in zip(items, scaled)],
        "raw_seconds": [i.seconds for i in items],
        "speed_samples": len(probe.samples) if probe else 0,
        "inputs_sha256": digest,
        "peak_rss_mb": _peak_rss_mb(getattr(workload, "children_rss", False)),
        "extra_checks": [0, []],  # [checks made, errors found] beyond the items
    }
    if traced:
        result["extra_checks"] = extra_checks
        result["layers"] = layers
        path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps({"workload": workload.name, "seed": seed, "processes": spans}))
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


def _round_sums(seconds: list[float], sizes: list[int]) -> list[float]:
    out, pos = [], 0
    for size in sizes:
        out.append(sum(seconds[pos:pos + size]))
        pos += size
    return out


def _layers(workload, tracer, ctx, items):
    """Per-layer values of one traced round, its spans, and [checks, errors]
    of the extra measurements."""
    extra = {}
    if ctx.children:  # the work ran in traced CLI processes
        reports = [report for _, report in ctx.children]
        summary = tracing.merge_summaries(r["summary"] for r in reports)
        counters = Counter()
        for r in reports:
            counters.update(r["counters"])
        extra["cli.import_s"] = statistics.median(r["import_s"] for r in reports)
        fast = [r["main_s"] for kind, r in ctx.children if kind == "light"]
        extra["cli.main_s"] = statistics.median(fast) if fast else 0.0
        spans = [r["spans"] for r in reports]
    else:
        summary, counters, spans = tracer.summary(), dict(tracer.counters), [tracer.spans]
    checks = []
    if hasattr(workload, "traced_extras"):
        values, checks = workload.traced_extras(items)
        extra.update(values)
    extra_checks = [len(checks), [err for err in checks if err]]
    return tracing.layer_values(summary, counters, extra), spans, extra_checks


def main(argv: list[str]) -> int:
    if argv and argv[0] == "cli":
        return traced_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=["run", "setup"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--budget", type=float, default=170.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        workload.build(workloads.round_rng(args.seed, workload.name, 0))
        return 0
    print(json.dumps(run(workload, args.seed, args.seconds, args.traced, args.budget)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
