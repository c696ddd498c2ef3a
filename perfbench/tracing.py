"""In-memory spans around the public functions of each fssp_holes layer.

Only the traced run installs these wrappers.  A wrapper replaces a function
in every fssp_holes module namespace that holds it, because callers look the
name up there (``fssp_holes.sim.plan.validate``, ``fssp_holes.mft2.classify``)
at call time.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name(args, kwargs) if callable(name) else name, perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return wrapper

    def wrap_everywhere(self, fn, name, on_result=None) -> None:
        """Replace fn in every loaded fssp_holes module that binds it."""
        wrapper = self._wrap(fn, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fssp_holes" or mod_name.startswith("fssp_holes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr, name, on_result=None) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name, on_result))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds].

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return out


def _count_completions(counters, args, result):
    counters["sim.plan.completions"] += len(result)


def _count_chain(counters, args, result):
    chain, _ = result
    if chain is not None:
        counters["timebounds.chain_steps"] += len(chain.steps)


def _count_verdict(counters, args, result):
    cfg = args[0]
    counters["mft2.verdicts.2w1" if result.value == 2 * cfg.size + 1 else "mft2.verdicts.2w"] += 1


def _count_line(counters, args, result):
    n = args[0].n
    counters["sim.line.cell_steps"] += n * (2 * n - 2)


def _ck_name(args, kwargs):
    return f"shapes.compute_ck.k{args[0] if args else kwargs['k']}"


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of grid, shapes, timebounds, sim and mft2."""
    import fssp_holes.cli  # noqa: F401  -- load every module that binds a name
    from fssp_holes import grid, mft2, shapes, timebounds
    from fssp_holes.sim import line, plan, sh1

    tracer.wrap_everywhere(grid.validate, "grid.validate")
    tracer.wrap_everywhere(grid.distance_grid, "grid.distance_grid")
    tracer.wrap_everywhere(shapes.compute_ck, _ck_name)
    tracer.wrap_everywhere(timebounds.certificate_search_report,
                           "timebounds.certificate_search_report", _count_chain)
    tracer.wrap_everywhere(timebounds.verify_certificate, "timebounds.verify_certificate")
    tracer.wrap_everywhere(timebounds.equiv_prime, "timebounds.equiv_prime")
    tracer.wrap_everywhere(plan.pattern_completions, "sim.plan.pattern_completions",
                           _count_completions)
    tracer.wrap_everywhere(plan.check_c_conditions, "sim.plan.check_c_conditions")
    tracer.wrap_everywhere(plan.run_message_plan, "sim.plan.run_message_plan")
    tracer.wrap_everywhere(mft2.classify, "mft2.classify", _count_verdict)
    tracer.wrap_everywhere(mft2.build_witness_plan, "mft2.build_witness_plan")
    tracer.wrap_everywhere(sh1.run_sh1, "sim.sh1.run_sh1")
    tracer.wrap_method(line.LineSynchronizer, "run", "sim.line", _count_line)


def cache_counts() -> tuple[int, int]:
    """(hits, misses) of the distance_grid cache, from its public cache_info()."""
    from fssp_holes import grid

    fn = grid.distance_grid
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    info = fn.cache_info()
    return info.hits, info.misses


#: Per-layer metrics of the traced run: name -> (unit, better).
LAYER_METRICS = {
    "grid.validate.calls": ("count", "lower"),
    "grid.validate.self_s": ("s", "lower"),
    "grid.distance_grid.calls": ("count", "lower"),
    "grid.distance_grid.hit_ratio": ("ratio", "higher"),
    "grid.distance_grid.self_s": ("s", "lower"),
    "shapes.compute_ck.k5.s": ("s", "lower"),
    "shapes.compute_ck.k6.s": ("s", "lower"),
    "shapes.enumerate_shapes.k6.s": ("s", "lower"),
    "shapes.shapes.k6": ("count", "higher"),
    "shapes.pairs.k6": ("count", "higher"),
    "shapes.parallel_efficiency.k6": ("ratio", "higher"),
    "timebounds.certificate_search_report.calls": ("count", "lower"),
    "timebounds.certificate_search_report.self_s": ("s", "lower"),
    "timebounds.verify_certificate.self_s": ("s", "lower"),
    "timebounds.equiv_prime.calls": ("count", "lower"),
    "timebounds.equiv_prime.self_s": ("s", "lower"),
    "timebounds.chain_steps": ("count", "lower"),
    "sim.plan.pattern_completions.calls": ("count", "lower"),
    "sim.plan.completions": ("count", "lower"),
    "sim.plan.pattern_completions.self_s": ("s", "lower"),
    "sim.plan.check_c_conditions.self_s": ("s", "lower"),
    "sim.plan.run_message_plan.self_s": ("s", "lower"),
    "mft2.classify.self_s": ("s", "lower"),
    "mft2.build_witness_plan.self_s": ("s", "lower"),
    "mft2.verdicts.2w": ("count", "higher"),
    "mft2.verdicts.2w1": ("count", "higher"),
    "sim.line.runs": ("count", "lower"),
    "sim.line.self_s": ("s", "lower"),
    "sim.line.cell_steps": ("count", "higher"),
    "sim.sh1.run_sh1.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_values(summary: dict, counters: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric from a span summary, counters and measured extras.

    A layer the workload does not reach reads 0.
    """

    def calls(name):
        return summary.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return summary.get(name, [0, 0.0, 0.0])[2]

    hits, misses = counters.get("grid.distance_grid.hits", 0), counters.get("grid.distance_grid.misses", 0)
    values = {
        "grid.validate.calls": calls("grid.validate"),
        "grid.validate.self_s": self_s("grid.validate"),
        "grid.distance_grid.calls": calls("grid.distance_grid"),
        "grid.distance_grid.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "grid.distance_grid.self_s": self_s("grid.distance_grid"),
        "shapes.compute_ck.k5.s": summary.get("shapes.compute_ck.k5", [0, 0.0])[1],
        "shapes.compute_ck.k6.s": summary.get("shapes.compute_ck.k6", [0, 0.0])[1],
        "timebounds.certificate_search_report.calls": calls("timebounds.certificate_search_report"),
        "timebounds.certificate_search_report.self_s": self_s("timebounds.certificate_search_report"),
        "timebounds.verify_certificate.self_s": self_s("timebounds.verify_certificate"),
        "timebounds.equiv_prime.calls": calls("timebounds.equiv_prime"),
        "timebounds.equiv_prime.self_s": self_s("timebounds.equiv_prime"),
        "sim.plan.pattern_completions.calls": calls("sim.plan.pattern_completions"),
        "sim.plan.pattern_completions.self_s": self_s("sim.plan.pattern_completions"),
        "sim.plan.check_c_conditions.self_s": self_s("sim.plan.check_c_conditions"),
        "sim.plan.run_message_plan.self_s": self_s("sim.plan.run_message_plan"),
        "mft2.classify.self_s": self_s("mft2.classify"),
        "mft2.build_witness_plan.self_s": self_s("mft2.build_witness_plan"),
        "sim.line.runs": calls("sim.line"),
        "sim.line.self_s": self_s("sim.line"),
        "sim.sh1.run_sh1.self_s": self_s("sim.sh1.run_sh1"),
    }
    for name in ("sim.plan.completions", "timebounds.chain_steps", "mft2.verdicts.2w",
                 "mft2.verdicts.2w1", "sim.line.cell_steps"):
        values[name] = counters.get(name, 0)
    return {name: values.get(name, extra.get(name, 0)) for name in LAYER_METRICS}


def merge_summaries(summaries) -> dict[str, list]:
    out: dict[str, list] = {}
    for summary in summaries:
        for name, (n, total, own) in summary.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += total
            agg[2] += own
    return out
