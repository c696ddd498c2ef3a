"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything here is exact: integer equalities, exhaustive
or fixed-seed randomized sweeps, no tolerances.
"""

import itertools
import os
import random

import numpy as np
import pytest

from fssp_holes.barriers import Rect, maximal_barriers
from fssp_holes.grid import (
    Position,
    ball,
    boundary_condition,
    distance_grid,
    free_mask,
    mh_distance,
    node_bit,
    validate,
)
from fssp_holes.mft2 import classify
from fssp_holes.shapes import REFERENCE_CK_TABLE, ck_bounds, compute_ck
from fssp_holes.sim.line import run_line_fssp
from fssp_holes.sim.plan import run_message_plan, worked_instance_plan
from fssp_holes.sim.sh1 import run_sh1
from fssp_holes.timebounds import (
    equiv_prime,
    has_critical_pair,
    max_t,
    t_of,
    verify_certificate,
)

from conftest import (
    BoundViolatedError,
    make_random_config,
    maximal_barriers_bruteforce,
    regions,
    t_formula,
    thm_appendix_check,
)

pytestmark = pytest.mark.acceptance

SEED = 20829


def report(n: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}")
    assert ok, f"criterion {n} failed: {text}"


REFERENCE_ROWS = {
    2: (1, 5, 4, 2),
    3: (1, 29, 80, 34),
    4: (2, 224, 1324, 16),
    5: (3, 2220, 22588, 24),
    6: (4, 26898, 416782, 14),
}

_CK_CACHE: dict[int, tuple[int, int, int, int]] = {}


def _ck_row(k: int) -> tuple[int, int, int, int]:
    if k not in _CK_CACHE:
        r = compute_ck(k)
        _CK_CACHE[k] = (r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count)
    return _CK_CACHE[k]


def test_criterion_1_ck_table():
    ok = all(_ck_row(k) == REFERENCE_ROWS[k] for k in (2, 3, 4, 5, 6))
    report(1, ok, "c_k rows k=2..6 reproduced exactly (k=7 in the next test)")


@pytest.mark.slow
def test_criterion_1_optional_k7_row():
    r = compute_ck(7)
    ok = (r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count) == (5, 384344, 8397762, 20)
    report(1, ok, "optional k=7 row (5, 384344, 8397762, 20) reproduced exactly")


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("FSSP_HOLES_K8") != "1",
    reason="about 20 s on 2 cores; set FSSP_HOLES_K8=1 to run",
)
def test_criterion_1_optional_k8_row_fresh_and_resumed(tmp_path):
    """The k=8 row at jobs=2 with a checkpoint, then resumed at jobs=2 from
    the first half of its records and a half-written one."""
    path = tmp_path / "ck8.jsonl"
    fresh = compute_ck(8, jobs=2, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    half = len(lines) // 2
    path.write_text("".join(lines[:half]) + lines[half][:20])
    resumed = compute_ck(8, jobs=2, checkpoint=str(path))
    rows = [(r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count) for r in (fresh, resumed)]
    ok = rows == [REFERENCE_CK_TABLE[8]] * 2 and resumed == fresh
    report(1, ok, f"optional k=8 row {REFERENCE_CK_TABLE[8]} reproduced fresh and resumed")


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("FSSP_HOLES_K9") != "1",
    reason="about 5.5 min on 2 cores; set FSSP_HOLES_K9=1 to run",
)
def test_criterion_1_optional_k9_row_fresh_and_resumed(tmp_path):
    """The k=9 row at jobs=2 with a checkpoint, then resumed at jobs=2 from
    the first half of its records and a half-written one."""
    path = tmp_path / "ck9.jsonl"
    fresh = compute_ck(9, jobs=2, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    half = len(lines) // 2
    path.write_text("".join(lines[:half]) + lines[half][:20])
    resumed = compute_ck(9, jobs=2, checkpoint=str(path))
    rows = [(r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count) for r in (fresh, resumed)]
    ok = rows == [REFERENCE_CK_TABLE[9]] * 2 and resumed == fresh
    report(1, ok, f"optional k=9 row {REFERENCE_CK_TABLE[9]} reproduced fresh and resumed")


def test_criterion_2_ck_bounds():
    ok = True
    for k in (3, 4, 5, 6):
        lo, hi = ck_bounds(k)
        c = _ck_row(k)[0]
        ok &= lo <= c <= hi and c == k - 2
    report(2, ok, "k-2 <= c_k <= k^2+4k with equality at k-2 for k=3..6")


def test_criterion_3_sh1_exhaustive():
    bad = []
    for w in range(2, 17):
        holes_choices = [[]] + [[(x, y)] for x in range(1, w) for y in range(1, w)]
        for holes in holes_choices:
            cfg = validate(w, holes)
            tr = run_sh1(cfg)
            if tr.common_fire_time() != 2 * w:
                bad.append((w, holes))
                continue
            diag = tr.diagnostics["diag_arrivals"]
            for i in range(w + 1):
                p = Position(i, i)
                if cfg.is_node(p) and diag.get(p) != 2 * i:
                    bad.append((w, holes, "diag", i))
    report(3, not bad, f"square synchronizer exact at 2w for all w in [2,16] ({bad[:3]})")


def test_criterion_4_line_fssp():
    bad = [n for n in range(1, 513) if run_line_fssp(n) != 2 * n - 2]
    report(4, not bad, f"line fires at exactly 2n-2 for n in [1,512] ({bad[:5]})")


def test_criterion_5_worked_plan_instance():
    plan = worked_instance_plan()
    ok = run_message_plan(validate(7, [(1, 1), (2, 1), (3, 1)]), plan).common_fire_time() == 14
    for w in (6, 8):
        ok &= run_message_plan(validate(w, [(1, 1), (2, 1), (3, 1)]), plan).common_fire_time() is None
    ok &= run_message_plan(validate(7, [(1, 1), (2, 1), (4, 1)]), plan).common_fire_time() is None
    report(5, ok, "worked message plan fires size 7 at 14; mismatched inputs never fire")


def _two_hole_configs(w):
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    for a, b in itertools.combinations(cells, 2):
        yield validate(w, [a, b])


def test_criterion_6_critical_pair_theorem():
    w, bad = 11, []
    for cfg in _two_hole_configs(w):
        if max_t(cfg) != 2 * w + has_critical_pair(cfg):
            bad.append(sorted(map(tuple, cfg.holes)))
    report(6, not bad, f"max_t = 2w+1 iff critical pair, exhaustive w=11 ({bad[:3]})")


def test_criterion_7_barrier_formula():
    bad = []
    for cfg in _two_hole_configs(12):
        for rect in maximal_barriers(cfg):
            for v in rect.cells():
                if cfg.is_node(v) and t_formula(cfg, v) != t_of(cfg, v):
                    bad.append((sorted(map(tuple, cfg.holes)), tuple(v)))
    rng = random.Random(SEED)
    checked = 0
    while checked < 500:
        cfg = make_random_config(rng, rng.randint(8, 20), rng.randint(1, 6))
        for rect in maximal_barriers(cfg):
            for v in rect.cells():
                if cfg.is_node(v):
                    checked += 1
                    if t_formula(cfg, v) != t_of(cfg, v):
                        bad.append((sorted(map(tuple, cfg.holes)), tuple(v)))
    report(7, not bad, f"closed form equals through-corner time on every in-barrier node ({bad[:3]})")


def _touching(r1: Rect, r2: Rect) -> bool:
    return (
        r1.x0 - 1 <= r2.x1
        and r2.x0 - 1 <= r1.x1
        and r1.y0 - 1 <= r2.y1
        and r2.y0 - 1 <= r1.y1
    )


def _barrier_invariants_ok(cfg, rects) -> bool:
    for r1, r2 in itertools.combinations(rects, 2):
        if _touching(r1, r2):
            return False
    for h in cfg.holes:
        if sum(1 for r in rects if r.contains(h)) != 1:
            return False
    return all(
        1 <= r.x0 and r.x1 <= cfg.size - 1 and 1 <= r.y0 and r.y1 <= cfg.size - 1
        for r in rects
    )


def test_criterion_8_maximal_barriers():
    bad = []
    for w in range(2, 9):
        cells = [(x, y) for x in range(1, w) for y in range(1, w)]
        for k in range(1, 4):
            if k > len(cells):
                continue
            for holes in itertools.combinations(cells, k):
                try:
                    cfg = validate(w, holes)
                except Exception:
                    continue
                rects = maximal_barriers(cfg)
                if rects != maximal_barriers_bruteforce(cfg) or not _barrier_invariants_ok(cfg, rects):
                    bad.append((w, holes))
    rng = random.Random(SEED)
    for _ in range(1000):
        cfg = make_random_config(rng, rng.randint(5, 20), rng.randint(1, 10))
        rects = maximal_barriers(cfg)
        if rects != maximal_barriers_bruteforce(cfg) or not _barrier_invariants_ok(cfg, rects):
            bad.append((cfg.size, tuple(cfg.holes)))
    report(8, not bad, f"splitting = brute force, invariants hold (exhaustive + 1000 random) ({bad[:3]})")


FIG_INSTANCES = [
    [(8, 2), (2, 8)],
    [(5, 7), (9, 2)],
    [(7, 5), (2, 9)],
    [(4, 6), (5, 7)],
    [(4, 2), (5, 3)],
]


def test_criterion_9_classifier_cross_certification():
    w, bad = 12, []
    for cfg in _two_hole_configs(w):
        verdict = classify(cfg)
        if verdict.kind == "lower_chain":
            if verdict.value != 2 * w + 1 or not verify_certificate(verdict.chain):
                bad.append((sorted(map(tuple, cfg.holes)), "chain"))
        else:
            if (
                verdict.value != 2 * w
                or not verdict.check.ok
                or run_message_plan(cfg, verdict.plan).common_fire_time() != 2 * w
            ):
                bad.append((sorted(map(tuple, cfg.holes)), "plan"))
    for holes in FIG_INSTANCES:
        if classify(validate(w, holes), with_certificate=False).value != 25:
            bad.append((holes, "spot"))
    report(9, not bad, f"every w=12 verdict cross-certified; spot instances all 25 ({bad[:3]})")


def _exception_instances(cfg, fam):
    """(v, v', name) triples whose geometry matches one of the four patterns."""
    w = cfg.size
    h = w // 2
    even = w % 2 == 0
    out = []
    for v in fam.UV:
        if not cfg.is_node(v):
            continue
        if cfg.holes == {v + (0, 1), v + (1, 0)}:
            out += [(v, p, "Exception1") for p in ((w - 1, w), (w, w - 1), (w, w))]
        if v.x == h and cfg.holes == {v - (1, 0), v + (0, 1)}:
            targets = ((0, w - 1), (1, w), (0, w)) if even else ((0, w),)
            out += [(v, p, "Exception2") for p in targets]
        if v.y == h and cfg.holes == {v - (0, 1), v + (1, 0)}:
            targets = ((w - 1, 0), (w, 1), (w, 0)) if even else ((w, 0),)
            out += [(v, p, "Exception3") for p in targets]
        if even and v == fam.v_cnt and cfg.holes == {v - (0, 1), v - (1, 0)}:
            out += [(v, p, "Exception4") for p in ((1, 0), (0, 1), (0, 0))]
    return out


def test_criterion_10_appendix_sweep():
    """For every (configuration, v) the violations are the nodes outside the
    ball of radius 2w - mh(gen, v) around v; each must name its exception,
    and each exception instance must be a violation."""
    bad = []
    for w in (11, 12):
        fam = regions(w)
        uv_positions = sorted(fam.UV)
        s = w + 2
        for cfg in _two_hole_configs(w):
            instances = {(v, Position(*p)): name for v, p, name in _exception_instances(cfg, fam)}
            free = free_mask(cfg)
            violations = {}
            for v in uv_positions:
                if not cfg.is_node(v):
                    continue
                outside = free & ~ball(free, s, node_bit(cfg, v, s), 2 * w - mh_distance((0, 0), v))
                violations[v] = outside
                while outside:
                    low = outside & -outside
                    outside ^= low
                    v2 = Position(*divmod(low.bit_length() - 1, s))
                    matched = instances.get((v, v2))
                    try:
                        got = thm_appendix_check(cfg, v, v2)
                    except BoundViolatedError:
                        bad.append((w, sorted(map(tuple, cfg.holes)), tuple(v), tuple(v2), "unmatched"))
                        continue
                    if got != matched:
                        bad.append((w, sorted(map(tuple, cfg.holes)), tuple(v), tuple(v2), got, matched))
            for v, v2 in instances:
                if not violations[v] & node_bit(cfg, v2, s):
                    bad.append((w, sorted(map(tuple, cfg.holes)), tuple(v), tuple(v2), "no-violation"))
            if len(bad) > 5:
                break
        if len(bad) > 5:
            break
    report(10, not bad, f"bound violations coincide exactly with the four exceptions, w in {{11,12}} ({bad[:2]})")


def test_criterion_11_pattern_equivalence_soundness():
    w = 11
    fam = regions(w)
    t = 2 * w
    corners = {"H0": Position(0, 0), "H1": Position(0, w), "H2": Position(w, 0)}
    planes = {"H0": fam.H0, "H1": fam.H1, "H2": fam.H2}
    cells = [Position(x, y) for x in range(1, w) for y in range(1, w)]
    n1 = (w + 1) * (w + 2)  # cfg.index and distance_grid run over free-mask bits

    # fingerprints: per config, bc codes and dist-sum fields for the three corners
    bc_codes: dict[tuple, np.ndarray] = {}
    ds_fields: dict[tuple, dict[str, np.ndarray]] = {}

    def key(cfg):
        return tuple(sorted(cfg.holes))

    def fingerprint(cfg):
        k = key(cfg)
        if k in bc_codes:
            return
        bc = np.full(n1, 255, dtype=np.int16)
        for v in cfg.nodes():
            e, n, ww, s = boundary_condition(cfg, v)
            bc[cfg.index(v)] = e | (n << 1) | (ww << 2) | (s << 3)
        bc_codes[k] = bc
        d_gen = np.array(distance_grid(cfg, Position(0, 0)), dtype=np.int32)
        fields = {}
        for name, corner in corners.items():
            d_c = np.array(distance_grid(cfg, corner), dtype=np.int32)
            ds = d_gen + d_c
            ds[(d_gen < 0) | (d_c < 0)] = 10**6
            fields[name] = ds
        ds_fields[k] = fields

    def numpy_equiv(ka, kb, plane):
        for x, y in ((ka, kb), (kb, ka)):
            mask = ds_fields[x][plane] <= t
            if not np.array_equal(bc_codes[x][mask], bc_codes[y][mask]):
                return False
        return True

    bad = []
    checked = 0
    api_samples = []
    rng = random.Random(SEED)
    for a, b in itertools.combinations(cells, 2):
        cfg = validate(w, [a, b])
        fingerprint(cfg)
        for plane_name, plane in planes.items():
            for hole in (a, b):
                if hole in plane:
                    continue
                stay = b if hole == a else a
                for target in cells:
                    if target in plane or target == stay or target == hole:
                        continue
                    other = validate(w, [stay, target])
                    fingerprint(other)
                    checked += 1
                    if not numpy_equiv(key(cfg), key(other), plane_name):
                        bad.append((tuple(hole), tuple(target), plane_name))
                    if rng.random() < 2e-4:
                        api_samples.append((cfg, other, corners[plane_name]))
        if len(bad) > 3:
            break
    api_ok = all(equiv_prime(ca, cb, t, v) for ca, cb, v in api_samples)
    ok = not bad and api_ok and checked > 100_000
    report(
        11,
        ok,
        f"all {checked} pattern-preserving relocations at w=11 are walk-indistinguishable "
        f"at t=2w ({len(api_samples)} re-checked through the reference predicate)",
    )
