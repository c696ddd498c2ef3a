"""Command-line front end.

Subcommands: validate, simulate (line | sh1 | plan), barriers, ck, tvc,
classify, certify, equiv, repro-tables.  Exit codes: 0 success, 2 invalid
input, 3 not-found results, 4 k above shapes.HARD_MAX_K.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import barriers as bar
from . import mft2, shapes, timebounds as tb
from .errors import BudgetExceededError, FsspError, ParseError, SizeTooLargeError
from .grid import MAX_SIZE, Position, load_config_file
from .sim.line import run_line_fssp
from .sim.plan import plan_from_json, run_message_plan
from .sim.sh1 import run_sh1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_FOUND = 3
EXIT_BUDGET = 4

@dataclass
class RunReport:
    """Reproducible record of one CLI invocation."""

    command: list[str]
    inputs_digest: str
    results: dict
    elapsed_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def inputs_digest(inputs: dict) -> str:
    """sha256 of the canonical JSON of a run's inputs (sorted keys, no spaces)."""
    import hashlib  # here, not at the top: it loads OpenSSL, ~10 ms of every CLI start

    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _int_list(text: str, option: str, length: int | None = None) -> list[int]:
    """Comma-separated integers of an option, or ParseError."""
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        raise ParseError(f"{option} must be comma-separated integers, got {text!r}") from None
    if length is not None and len(values) != length:
        raise ParseError(f"{option} needs {length} integers, got {text!r}")
    return values


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ParseError(f"--jobs must be >= 1, got {jobs}")


def _cmd_validate(args) -> int:
    try:
        cfg = load_config_file(args.config)
    except FsspError as exc:
        _emit({"valid": False, "error": exc.code, "detail": str(exc)})
        return EXIT_INVALID
    _emit({"valid": True, "size": cfg.size, "holes": cfg.k})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.what == "line":
        if args.n > MAX_SIZE:
            raise SizeTooLargeError(f"line length {args.n} exceeds the maximum {MAX_SIZE}")
        ft = run_line_fssp(args.n)
        _emit({"n": args.n, "fire_time": ft})
        return EXIT_OK
    cfg = load_config_file(args.config)
    if args.what == "sh1":
        transcript = run_sh1(cfg)
        if args.trace:
            _print_sh1_trace(cfg, transcript)
        _emit({"size": cfg.size, "fire_time": transcript.common_fire_time()})
        return EXIT_OK
    with open(args.plan, "rb") as fh:
        plan = plan_from_json(fh.read())
    transcript = run_message_plan(cfg, plan)
    ft = transcript.common_fire_time()
    if args.trace:
        _print_plan_grid(cfg, transcript)
    _emit(
        {
            "size": cfg.size,
            "target_size": plan.target_size,
            "fire_time": ft,
            "fired": ft is not None,
        }
    )
    return EXIT_OK


def _print_sh1_trace(cfg, transcript) -> None:
    diag = transcript.diagnostics
    events: dict[int, dict[Position, str]] = {}
    for p, t in diag["diag_arrivals"].items():
        events.setdefault(t, {})[p] = "D"
    for p, t in diag["sweep_arrivals"].items():
        events.setdefault(t, {}).setdefault(p, "s")
    for p, t in diag["pre_fire"].items():
        events.setdefault(t, {})[p] = "*"
    for p, t in transcript.fire_time.items():
        if t is not None:
            events.setdefault(t, {})[p] = "F"
    w = cfg.size
    for t in range(0, transcript.horizon + 1):
        print(f"t={t}")
        marks = events.get(t, {})
        for y in range(w, -1, -1):
            row = []
            for x in range(w + 1):
                p = Position(x, y)
                row.append("#" if p in cfg.holes else marks.get(p, "."))
            print("".join(row))
        print()


def _print_plan_grid(cfg, transcript) -> None:
    w = cfg.size
    willing = transcript.diagnostics["willing"]
    for y in range(w, -1, -1):
        row = []
        for x in range(w + 1):
            p = Position(x, y)
            if p in cfg.holes:
                row.append("#")
            else:
                row.append("+" if willing.get(p) else "-")
        print("".join(row))


def _cmd_barriers(args) -> int:
    cfg = load_config_file(args.config)
    rects = bar.sorted_barriers(bar.maximal_barriers(cfg))
    if args.json:
        _emit({"maximal_barriers": [[r.x0, r.y0, r.x1, r.y1] for r in rects]})
    else:
        for r in rects:
            print(f"{r.x0} {r.y0} {r.x1} {r.y1}")
        print(f"count {len(rects)}")
    return EXIT_OK


def _cmd_ck(args) -> int:
    _check_jobs(args.jobs)
    result = shapes.compute_ck(args.k, jobs=args.jobs, checkpoint=args.checkpoint)
    payload = {
        "k": result.k,
        "c_k": result.c_k,
        "shapes": result.shape_count,
        "pairs": result.pair_count,
        "argmax_pairs": result.argmax_pair_count,
    }
    if args.list_argmax:
        payload["argmax"] = [
            {
                "width": s.width,
                "height": s.height,
                "holes": sorted([h.x, h.y] for h in s.holes),
                "p": [p.x, p.y],
            }
            for s, p in result.argmax_pairs
        ]
    _emit(payload)
    return EXIT_OK


def _cmd_tvc(args) -> int:
    cfg = load_config_file(args.config)
    w = cfg.size
    table = {}
    for v in cfg.nodes():
        table[v] = tb.t_of(cfg, v)
    if args.json:
        grid = [
            [table.get(Position(x, y)) for x in range(w + 1)]
            for y in range(w, -1, -1)
        ]
        _emit({"size": w, "max_t": tb.max_t(cfg), "t_grid_rows_north_to_south": grid})
    else:
        print(f"max_t {tb.max_t(cfg)}")
        for y in range(w, -1, -1):
            print(
                " ".join(
                    f"{table.get(Position(x, y), '--'):>3}"
                    if Position(x, y) not in cfg.holes
                    else "  #"
                    for x in range(w + 1)
                )
            )
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = load_config_file(args.config)
    verdict = mft2.classify(cfg, with_certificate=args.certificate)
    payload = {"w": cfg.size, "mft": verdict.value, "kind": verdict.kind}
    if args.certificate:
        if verdict.chain is not None:
            payload["chain"] = [
                {
                    "half_plane": s.half_plane,
                    "from": list(s.moved_from),
                    "to": list(s.moved_to),
                }
                for s in verdict.chain.steps
            ]
            payload["chain_verified"] = tb.verify_certificate(verdict.chain)
        if verdict.plan is not None:
            payload["plan_checks_ok"] = verdict.check.ok
            payload["plan_fires"] = verdict.plan.deadline if verdict.check.c5_ok else None
    _emit(payload)
    return EXIT_OK


def _cmd_certify(args) -> int:
    cfg = load_config_file(args.config)
    chain, reason = tb.certificate_search_report(cfg)
    if chain is None:
        print(f"NOT_FOUND ({reason}: no relocation chain reaches a critical pair)")
        return EXIT_NOT_FOUND
    for step in chain.steps:
        print(
            f"{step.half_plane} {step.moved_from.x} {step.moved_from.y} -> "
            f"{step.moved_to.x} {step.moved_to.y}"
        )
    print(f"final {sorted(tuple(h) for h in chain.final.holes)} verified={tb.verify_certificate(chain)}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    x, y = _int_list(args.v, "--v", length=2)
    cfg_a = load_config_file(args.config_a)
    cfg_b = load_config_file(args.config_b)
    result = tb.equiv_prime(cfg_a, cfg_b, args.t, (x, y))
    _emit({"equiv_prime": result, "t": args.t, "v": [x, y]})
    return EXIT_OK


def _cmd_repro_tables(args) -> int:
    ks = _int_list(args.ks, "--ks")
    _check_jobs(args.jobs)
    report = repro_tables(ks, jobs=args.jobs)
    if args.json:
        print(report.to_json())
    else:
        print("| k | c_k | shapes | pairs | argmax pairs | match |")
        print("|---|-----|--------|-------|--------------|-------|")
        for row in report.results["rows"]:
            print(
                "| {k} | {c_k} | {shapes} | {pairs} | {argmax_pairs} | {match} |".format(**row)
            )
    return EXIT_OK


def repro_tables(ks, jobs: int = 1) -> RunReport:
    """Recompute the c_k table rows and compare with the reference values."""
    t0 = time.time()
    rows = []
    for k in ks:
        result = shapes.compute_ck(k, jobs=jobs)
        ref = shapes.REFERENCE_CK_TABLE.get(k)
        computed = (result.c_k, result.shape_count, result.pair_count, result.argmax_pair_count)
        rows.append(
            {
                "k": k,
                "c_k": result.c_k,
                "shapes": result.shape_count,
                "pairs": result.pair_count,
                "argmax_pairs": result.argmax_pair_count,
                "reference": list(ref) if ref else None,
                "match": ref == computed,
            }
        )
    return RunReport(
        command=["repro-tables", *map(str, ks)],
        inputs_digest=inputs_digest({"ks": list(ks)}),
        results={"rows": rows},
        elapsed_s=round(time.time() - t0, 3),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fssp-holes",
        description="Synchronizers and minimum-firing-time tools for squares with holes.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="validate a configuration file")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("simulate", help="run a synchronizer")
    ss = p.add_subparsers(dest="what", required=True)
    pl = ss.add_parser("line")
    pl.add_argument("--n", type=int, required=True, help=f"line length, 1..{MAX_SIZE}")
    pl.set_defaults(fn=_cmd_simulate)
    ps = ss.add_parser("sh1")
    ps.add_argument("config")
    ps.add_argument("--trace", action="store_true")
    ps.set_defaults(fn=_cmd_simulate)
    pp = ss.add_parser("plan")
    pp.add_argument("config")
    pp.add_argument("plan")
    pp.add_argument("--trace", action="store_true")
    pp.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("barriers", help="maximal barriers of a configuration")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_barriers)

    p = sub.add_parser("ck", help="compute c_k by shape enumeration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--list-argmax", action="store_true")
    p.add_argument("--checkpoint", default=None, help="resumable per-slab results file")
    p.set_defaults(fn=_cmd_ck)

    p = sub.add_parser("tvc", help="through-corner time bound table")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_tvc)

    p = sub.add_parser("classify", help="two-hole minimum firing time")
    p.add_argument("config")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("certify", help="hole-relocation lower-bound chain")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("equiv", help="walk-indistinguishability of two configurations")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--v", required=True, metavar="X,Y")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("repro-tables", help="recompute the c_k table rows")
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_repro_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FsspError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        # An unreadable input path: missing, a directory, no permission.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
