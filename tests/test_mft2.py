import hashlib
import time
from collections import Counter
from itertools import product

import pytest

from fssp_holes import mft2
from fssp_holes.errors import (
    FsspError,
    NotUpperBoundCaseError,
    PreconditionViolatedError,
    SizeTooSmallError,
    WrongHoleCountError,
)
from fssp_holes.grid import Pattern, Position, validate
from fssp_holes.mft2 import (
    build_witness_plan,
    classify,
    type_of,
)
from fssp_holes.sim.plan import MessagePlan, check_c_conditions, plan_to_json, run_message_plan
from fssp_holes.timebounds import certificate_search_report, max_t, verify_certificate

import conftest
from conftest import (
    BoundViolatedError,
    all_two_hole_configs,
    make_random_config,
    regions,
    thm_appendix_check,
)


class TestTypeOf:
    def test_examples(self):
        assert type_of(validate(12, [(8, 2), (2, 8)])) == (0, 0, 0, 2)
        assert type_of(validate(12, [(5, 7), (9, 2)])) == (0, 0, 1, 1)
        assert type_of(validate(12, [(3, 3), (8, 8)])) == (1, 0, 0, 1)

    def test_wrong_hole_count(self):
        with pytest.raises(WrongHoleCountError):
            type_of(validate(12, [(3, 3)]))


class TestClassify:
    @pytest.mark.parametrize(
        "holes,expect",
        [
            ([(8, 2), (2, 8)], 25),
            ([(4, 6), (5, 7)], 25),
            ([(3, 3), (8, 8)], 24),
            ([(5, 7), (9, 2)], 25),
            ([(7, 5), (2, 9)], 25),
            ([(4, 2), (5, 3)], 25),
        ],
    )
    def test_w12_examples(self, holes, expect):
        verdict = classify(validate(12, holes))
        assert verdict.value == expect
        if verdict.kind == "lower_chain":
            assert verify_certificate(verdict.chain)
        else:
            assert verdict.check.ok
            assert run_message_plan(validate(12, holes), verdict.plan).common_fire_time() == 24

    def test_w11_statement_two(self):
        verdict = classify(validate(11, [(2, 4), (9, 9)]))
        assert verdict.value == 22 and verdict.kind == "witness_plan"

    def test_small_w_rejected(self):
        with pytest.raises(SizeTooSmallError):
            classify(validate(10, [(3, 3), (7, 7)]))

    @pytest.mark.parametrize(
        "holes,expect",
        [
            ([(60, 5), (5, 60)], 129),  # both in X: a two-step chain
            ([(31, 33), (20, 50)], 129),  # lone critical hole in W
            ([(10, 10), (50, 50)], 128),  # one hole in U, one in X
            ([(32, 20), (2, 40)], 128),  # one hole in V, one in X
        ],
    )
    def test_w64_with_certificates_under_a_second(self, holes, expect):
        cfg = validate(64, holes)
        t0 = time.process_time()
        verdict = classify(cfg, with_certificate=True)
        assert time.process_time() - t0 < 1.0
        assert verdict.value == expect
        if verdict.kind == "lower_chain":
            assert verify_certificate(verdict.chain)
        else:
            assert verdict.check.ok
            t0 = time.process_time()
            chain, reason = certificate_search_report(cfg)
            assert time.process_time() - t0 < 1.0
            assert chain is None and reason == "exhausted"

    @pytest.mark.parametrize(
        "holes",
        [
            [(3, 3), (8, 8)],  # U and X: U u V checked from the V corner
            [(7, 2), (9, 9)],  # W and X: the W-band plan
            [(6, 2), (9, 9)],  # V and X: the V-band plan
            [(2, 3), (6, 1)],  # U and V: the U-V pair plan
        ],
    )
    def test_hole_regions_computed_once_per_answer(self, monkeypatch, holes):
        # one region_of per hole, however many case tests read the regions
        calls = []
        real = mft2.region_of

        def counted(w, p):
            calls.append(p)
            return real(w, p)

        monkeypatch.setattr(mft2, "region_of", counted)
        verdict = classify(validate(12, holes), with_certificate=True)
        assert verdict.value == 24 and verdict.check.ok
        assert sorted(calls) == sorted(holes)

    def test_verdict_dichotomy_and_consistency(self, rng):
        for _ in range(40):
            w = rng.choice((11, 12, 13))
            cfg = make_random_config(rng, w, 2)
            verdict = classify(cfg, with_certificate=False)
            assert verdict.value in (2 * w, 2 * w + 1)
            if verdict.value == 2 * w:
                assert max_t(cfg) == 2 * w


class TestWitnessPlans:
    def test_case1_shape(self):
        cfg = validate(12, [(1, 3), (2, 5)])  # two holes meeting U, no pair
        plan = build_witness_plan(cfg)
        fam = regions(12)
        assert plan.pattern.domain == fam.UV
        assert plan.groups == (((fam.v_cnt, 0),),)
        assert check_c_conditions(plan, cfg).ok

    def test_odd_w_corner_hole_disjunction(self):
        # corner of the band is a hole: two alternative sites flank it
        w = 13
        fam = regions(w)
        vc = fam.v_cnt
        cfg = validate(w, [vc + (1, 1), (10, 2)])
        plan = build_witness_plan(cfg)
        assert len(plan.groups) == 2
        sites = {g[0][0] for g in plan.groups}
        assert sites == {vc + (0, 1), vc + (1, 0)}
        assert check_c_conditions(plan, cfg).ok

    def test_odd_w_critical_plus_corner_disjunction(self):
        # one critical hole in the band plus the band corner: same two sites
        w = 13
        fam = regions(w)
        vc = fam.v_cnt
        cfg = validate(w, [vc + (-1, 1), vc + (1, 1)])
        plan = build_witness_plan(cfg)
        assert plan.pattern.domain == fam.UVW
        assert {g[0][0] for g in plan.groups} == {vc + (0, 1), vc + (1, 0)}
        assert check_c_conditions(plan, cfg).ok
        assert run_message_plan(cfg, plan).common_fire_time() == 2 * w

    def test_flanking_holes_three_message_rule_odd_w(self):
        w = 13
        fam = regions(w)
        vc = fam.v_cnt
        cfg = validate(w, [vc + (0, 1), vc + (1, 0)])
        plan = build_witness_plan(cfg)
        assert vc + (1, 1) not in plan.pattern.domain
        assert len(plan.groups) == 2 and len(plan.groups[1]) == 2
        assert check_c_conditions(plan, cfg).ok
        assert run_message_plan(cfg, plan).common_fire_time() == 2 * w

    def test_flanking_holes_three_message_rule(self):
        w = 12
        vc = regions(w).v_cnt
        cfg = validate(w, [vc + (0, 1), vc + (1, 0)])
        plan = build_witness_plan(cfg)
        assert len(plan.groups) == 2
        assert len(plan.groups[0]) == 1 and len(plan.groups[1]) == 2
        assert {s for s, _ in plan.groups[1]} == {vc + (-1, 1), vc + (1, -1)}
        assert check_c_conditions(plan, cfg).ok
        assert run_message_plan(cfg, plan).common_fire_time() == 2 * w

    def test_unique_critical_v_hole_pins_outward_diagonal(self):
        w = 12
        vc = regions(w).v_cnt
        v0 = vc - (2, 0)
        cfg = validate(w, [v0, (9, 9)])
        plan = build_witness_plan(cfg)
        assert v0 + (1, 1) in plan.pattern.domain
        assert check_c_conditions(plan, cfg).ok

    def test_mirrored_u_v_pair(self):
        w = 12
        cfg = validate(w, [(2, 3), (6, 1)])  # V hole on the vertical arm
        plan = build_witness_plan(cfg)
        assert check_c_conditions(plan, cfg).ok
        assert run_message_plan(cfg, plan).common_fire_time() == 2 * w

    def test_slow_case_has_no_plan(self):
        with pytest.raises(NotUpperBoundCaseError):
            build_witness_plan(validate(12, [(4, 6), (5, 7)]))


def _transpose_cfg(cfg):
    return validate(cfg.size, [(h.y, h.x) for h in cfg.holes])


def _transpose_plan(plan):
    flip = lambda p: Position(p[1], p[0])
    return MessagePlan(
        plan.target_size,
        plan.slack,
        tuple(tuple((flip(site), off) for site, off in group) for group in plan.groups),
        Pattern(frozenset(map(flip, plan.pattern.domain)), frozenset(map(flip, plan.pattern.holes))),
    )


def _as_sets(plan):
    """A plan up to the order of its groups and of the sites in a group."""
    return plan.target_size, plan.slack, frozenset(map(frozenset, plan.groups)), plan.pattern


@pytest.mark.parametrize("w", [11, 12, 13])
def test_witness_plans_match_the_reflected_frame(w):
    """The transposed configuration's plan, transposed back, is the plan.

    A U-V pair whose V hole is on the vertical arm was built that way, in the
    reflected frame, so there the two plans are equal as tuples.  Elsewhere
    they are equal up to group and site order, except for a U-V pair whose
    V hole is the V corner: it lies on both arms, the horizontal one is
    taken, and the reflected plan is another plan that passes the checks.
    """
    fam = regions(w)
    corner_cases = 0
    for cfg in all_two_hole_configs(w):
        if mft2.is_slow_case(cfg):
            continue
        plan = build_witness_plan(cfg)
        reflected = _transpose_plan(build_witness_plan(_transpose_cfg(cfg)))
        u_v_pair = type_of(cfg) == (1, 1, 0, 0)
        v1 = next((h for h in cfg.holes if h in fam.V), None)
        if u_v_pair and v1.y != w // 2:
            assert plan == reflected, cfg
        elif u_v_pair and v1 == fam.v_cnt:
            corner_cases += 1
            assert check_c_conditions(reflected, cfg).ok, cfg
        else:
            assert _as_sets(plan) == _as_sets(reflected), cfg
    assert corner_cases == (w // 2 - 1) ** 2  # every interior U cell


@pytest.mark.parametrize(
    "w,digest",
    [
        (11, "b3cde83bb62a7c50ced3aff34bc1e35a5746c8808d8fe858565a317eaf900d11"),
        (12, "af5fbc10f70e05c76655efe4274b5367bbf85aa19eb687fc7bb587d5d3111f4f"),
    ],
)
def test_every_witness_plan_pinned(w, digest):
    """One sha256 over the JSON of every 2w configuration's witness plan, in
    all_two_hole_configs order: the plans' bytes, group and site order too."""
    h = hashlib.sha256()
    for cfg in all_two_hole_configs(w):
        if not mft2.is_slow_case(cfg):
            h.update((plan_to_json(build_witness_plan(cfg)) + "\n").encode())
    assert h.hexdigest() == digest


class TestAppendixPredicate:
    def test_holds_hole_free_like(self):
        cfg = validate(12, [(1, 1), (8, 8)])
        assert thm_appendix_check(cfg, (3, 3), (12, 0)) == "Holds"

    def test_exception1(self):
        vc = regions(12).v_cnt
        cfg = validate(12, [vc + (0, 1), vc + (1, 0)])
        assert thm_appendix_check(cfg, vc, (12, 12)) == "Exception1"

    def test_exception2(self):
        cfg = validate(12, [(5, 3), (6, 4)])
        assert thm_appendix_check(cfg, (6, 3), (0, 12)) == "Exception2"

    def test_exception3_mirror(self):
        cfg = validate(12, [(3, 5), (4, 6)])
        assert thm_appendix_check(cfg, (3, 6), (12, 0)) == "Exception3"

    def test_arm_exceptions_mirror(self):
        """Exception 3 is Exception 2 transposed, over every v in U u V with
        two orthogonal neighbors as holes and every node v', w = 5..12; the
        per-name counts are pinned."""
        swap = {"Exception2": "Exception3", "Exception3": "Exception2"}
        census = Counter()
        for w in range(5, 13):
            for v in product(range(w // 2 + 1), repeat=2):
                v = Position(*v)
                beside = [v + (0, 1), v + (1, 0), v - (0, 1), v - (1, 0)]
                for a, b in zip(beside, beside[1:] + beside[:1]):
                    try:
                        cfg = validate(w, [a, b])
                    except FsspError:
                        continue
                    flipped = validate(w, [(b.y, b.x), (a.y, a.x)])
                    for v2 in cfg.nodes():
                        name = thm_appendix_check(cfg, v, v2)
                        census[name] += 1
                        assert thm_appendix_check(flipped, v[::-1], v2[::-1]) == swap.get(name, name)
        assert census == {
            "Holds": 52484,
            "Exception1": 420,
            "Exception2": 68,
            "Exception3": 68,
            "Exception4": 12,
        }

    def test_exception4_center(self):
        vc = regions(12).v_cnt
        cfg = validate(12, [vc - (0, 1), vc - (1, 0)])
        assert thm_appendix_check(cfg, vc, (0, 0)) == "Exception4"

    def test_preconditions(self):
        cfg = validate(12, [(5, 3), (6, 4)])
        with pytest.raises(PreconditionViolatedError):
            thm_appendix_check(cfg, (11, 11), (0, 0))  # v outside U u V
        with pytest.raises(PreconditionViolatedError):
            thm_appendix_check(cfg, (-1, 0), (0, 0))  # v off the square
        with pytest.raises(PreconditionViolatedError):
            thm_appendix_check(validate(4, [(1, 1), (2, 2)]), (1, 2), (0, 0))

    def test_unmatched_violation_raises_a_package_error(self, monkeypatch):
        # No configuration violates the bound outside the four exceptions
        # (criterion 10), so stretch the distance to reach the raise.
        monkeypatch.setattr(conftest, "bfs_distance", lambda cfg, a, b: 3 * cfg.size)
        with pytest.raises(BoundViolatedError) as info:
            thm_appendix_check(validate(12, [(1, 1), (8, 8)]), (3, 3), (12, 0))
        assert isinstance(info.value, FsspError) and info.value.code == "BoundViolated"
