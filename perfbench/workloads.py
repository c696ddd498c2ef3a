"""The four benchmark workloads: seeded inputs, one round of work, its checks.

A round has a fixed size and make-up, so rounds drawn from different seeds
cost about the same and runs can be compared.  Each item of a
round (a c_k row, a configuration, a CLI query, a simulator run) is timed on
its own and checked afterwards; the checks are not part of the timing.  In
an untraced run the host speed probe (speed.py) may take a sample
before an item, outside its timing.

Items come in two kinds per workload, reported as heavy_per_s and
light_per_s:

=============== ============================= ============================
workload        heavy                         light
=============== ============================= ============================
ck-table        the largest row (k=6), pairs  the next row (k=5), pairs
classify-sweep  2w+1 answers                  2w answers
classify-cold   2w+1 queries                  2w queries
simulate        line runs, cell-steps         square runs, node-steps
=============== ============================= ============================
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from fssp_holes import grid, mft2, shapes
from fssp_holes import timebounds as tb
from fssp_holes.sim import line, plan, sh1

import checks
import speed

HEAVY, LIGHT, OTHER = "heavy", "light", "other"


@dataclass
class Item:
    kind: str
    start: float  # perf_counter() when the item began
    seconds: float
    units: int
    error: str | None  # None when the answer passed every check


@dataclass
class Context:
    """What a round needs besides its inputs."""

    root: Path
    tmpdir: Path
    traced: bool = False
    probe: speed.Probe | None = None  # host speed samples between items (untraced runs)
    deadline: float = float("inf")  # perf_counter() time by which children must end
    children: list = field(default_factory=list)  # (kind, report) of traced CLI queries

    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def cli_command(self, args: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, str(self.root / "perfbench" / "worker.py"), "cli", *args]
        return [sys.executable, "-m", "fssp_holes.cli", *args]


def run_process(cmd, cwd, env=None, timeout=None) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; kill the whole group if it overruns."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _timed(call, ctx=None):
    """(result, start, seconds, error); an exception is a failed answer, not a
    crash.  With ctx, the host speed probe may take a sample first."""
    if ctx is not None and ctx.probe is not None:
        ctx.probe.tick()
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 -- any raise counts as a wrong answer
        return None, t0, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, t0, perf_counter() - t0, None


def round_rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_index}")


def _draw_two_holes(rng: random.Random, w: int, value: int | None = None):
    """A uniform two-hole configuration at w, optionally with a given verdict."""
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    while True:
        holes = rng.sample(cells, 2)
        if value is None or checks.expected_mft(w, holes) == value:
            return grid.validate(w, holes)


def _configs_text(cfgs) -> str:
    return "\n".join(grid.dump_json(c) for c in cfgs)


@dataclass(frozen=True)
class CkTable:
    """compute_ck(k, jobs=1) for every k of the table, as repro-tables does."""

    ks: tuple[int, ...] = (2, 3, 4, 5, 6)
    name = "ck-table"

    def build(self, rng):
        return list(self.ks)

    def canonical(self, inputs) -> str:
        return json.dumps({"ks": inputs})

    def run(self, inputs, ctx) -> list[Item]:
        heavy, light = sorted(inputs)[-1], sorted(inputs)[-2]
        items = []
        for k in inputs:
            result, t0, dt, err = _timed(lambda: shapes.compute_ck(k, jobs=1), ctx)
            err = err or checks.check_ck_row(k, result)
            kind = HEAVY if k == heavy else LIGHT if k == light else OTHER
            items.append(Item(kind, t0, dt, checks.REFERENCE_CK_ROWS[k][2], err))
        return items

    def traced_extras(self, items) -> tuple[dict, list[str | None]]:
        """Enumeration alone, and the parallel efficiency of the largest row,
        with the result of each check they make.

        Runs after the tracer is removed, so neither call adds spans.
        """
        k = max(self.ks)
        want_shapes = checks.REFERENCE_CK_ROWS[k][1]
        t0 = perf_counter()
        n_shapes = sum(1 for _ in shapes.enumerate_shapes(k))
        t_enum = perf_counter() - t0
        jobs = os.cpu_count() or 1
        result, _, t_par, err = _timed(lambda: shapes.compute_ck(k, jobs=jobs))
        results = [
            err or checks.check_ck_row(k, result),
            None if n_shapes == want_shapes
            else f"enumerate_shapes({k}) gave {n_shapes} shapes, reference {want_shapes}",
        ]
        t_serial = next(i.seconds for i in items if i.kind == HEAVY)
        values = {
            f"shapes.enumerate_shapes.k{k}.s": t_enum,
            f"shapes.shapes.k{k}": n_shapes,
            f"shapes.pairs.k{k}": result.pair_count if result else 0,
            f"shapes.parallel_efficiency.k{k}": t_serial / (jobs * t_par),
        }
        return values, results


@dataclass(frozen=True)
class ClassifySweep:
    """Many two-hole configurations at one w, classified in one process.

    Each answer is re-checked as a user of the certificates would: a 2w+1
    chain is replayed with check_equiv, a 2w plan is run to its firing.
    """

    w: int = 12
    count: int = 250
    name = "classify-sweep"

    def build(self, rng):
        return [_draw_two_holes(rng, self.w) for _ in range(self.count)]

    def canonical(self, inputs) -> str:
        return _configs_text(inputs)

    def run(self, inputs, ctx) -> list[Item]:
        items = []
        for cfg in inputs:
            result, t0, dt, err = _timed(lambda: self._classify_and_recheck(cfg), ctx)
            if err is None:
                err = checks.check_verdict(cfg, *result)
            slow = checks.expected_mft(cfg.size, cfg.holes) == 2 * cfg.size + 1
            items.append(Item(HEAVY if slow else LIGHT, t0, dt, 1, err))
        return items

    @staticmethod
    def _classify_and_recheck(cfg):
        verdict = mft2.classify(cfg, with_certificate=True)
        if verdict.chain is not None:
            return verdict, tb.verify_certificate(verdict.chain, check_equiv=True)
        if verdict.plan is not None:
            return verdict, plan.run_message_plan(cfg, verdict.plan).common_fire_time()
        return verdict, None


@dataclass(frozen=True)
class ClassifyCold:
    """One fresh `fssp-holes classify <cfg> --certificate` process per query.

    Every round asks one 2w+1 query at each w of slow_ws and one 2w query at
    each w of fast_ws, with seeded holes, in a seeded order.  The 2w queries
    all take the costly C1 path (one hole left free by the plan's pattern),
    so that a round's cost does not hinge on how many cheap ones are drawn.
    """

    slow_ws: tuple[int, ...] = (13, 14, 15, 16)
    fast_ws: tuple[int, ...] = tuple(range(13, 33))
    name = "classify-cold"
    children_rss = True  # the queries run in child processes

    def build(self, rng):
        cfgs = [_draw_two_holes(rng, w, 2 * w + 1) for w in self.slow_ws]
        for w in self.fast_ws:
            # One hole in U u V and one outside U u V u W: always a 2w answer.
            inner, outer = checks.inner_and_outer_cells(w)
            cfgs.append(grid.validate(w, [rng.choice(inner), rng.choice(outer)]))
        rng.shuffle(cfgs)
        return cfgs

    def canonical(self, inputs) -> str:
        return _configs_text(inputs)

    def run(self, inputs, ctx) -> list[Item]:
        paths = []
        for i, cfg in enumerate(inputs):
            path = ctx.tmpdir / f"query{i}.json"
            path.write_text(grid.dump_json(cfg), encoding="utf-8")
            paths.append(path)
        items = []
        for cfg, path in zip(inputs, paths):
            slow = checks.expected_mft(cfg.size, cfg.holes) == 2 * cfg.size + 1
            cmd = ctx.cli_command(["classify", str(path), "--certificate"])
            if ctx.probe is not None:
                ctx.probe.tick()
            t0 = perf_counter()
            proc = run_process(cmd, ctx.root, ctx.env(), max(1.0, ctx.deadline - t0))
            dt = perf_counter() - t0
            returncode, stdout = proc.returncode, proc.stdout
            if ctx.traced and returncode == 0:
                report = json.loads(proc.stdout.splitlines()[-1])
                ctx.children.append((HEAVY if slow else LIGHT, report))
                returncode, stdout = report["rc"], report["stdout"]
            err = checks.check_cli_classify(cfg, returncode, stdout)
            if err and proc.stderr.strip():
                err += f" ({proc.stderr.strip().splitlines()[-1]})"
            items.append(Item(HEAVY if slow else LIGHT, t0, dt, 1, err))
        return items


@dataclass(frozen=True)
class Simulate:
    """Line synchronizers of length up to line_max and squares with k <= 1.

    Line lengths are drawn one from each of line_count equal bins of
    1..line_max; one square is drawn for each w of square_ws, hole-free with
    probability 1/4 and otherwise with one random interior hole.
    """

    line_max: int = 512
    line_count: int = 16
    square_ws: tuple[int, ...] = tuple(range(2, 33))
    name = "simulate"

    def build(self, rng):
        step = self.line_max // self.line_count
        lines = [i * step + 1 + rng.randrange(step) for i in range(self.line_count)]
        squares = []
        for w in self.square_ws:
            holes = [] if rng.random() < 0.25 else [(rng.randrange(1, w), rng.randrange(1, w))]
            squares.append(grid.validate(w, holes))
        return lines, squares

    def canonical(self, inputs) -> str:
        lines, squares = inputs
        return json.dumps({"lines": lines}) + "\n" + _configs_text(squares)

    def run(self, inputs, ctx) -> list[Item]:
        lines, squares = inputs
        items = []
        for n in lines:
            fire, t0, dt, err = _timed(lambda: line.run_line_fssp(n), ctx)
            items.append(Item(HEAVY, t0, dt, n * (2 * n - 2), err or checks.check_line(n, fire)))
        for cfg in squares:
            transcript, t0, dt, err = _timed(lambda: sh1.run_sh1(cfg), ctx)
            w = cfg.size
            items.append(Item(LIGHT, t0, dt, (w + 1) ** 2 * 2 * w,
                              err or checks.check_square(cfg, transcript)))
        return items


WORKLOADS = {wl.name: wl for wl in (CkTable(), ClassifySweep(), ClassifyCold(), Simulate())}
