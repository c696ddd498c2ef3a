import json

import pytest

from fssp_holes.errors import OutOfSquareError, PreconditionViolatedError
from fssp_holes.grid import Pattern, Position, pattern_of, regions, validate
from fssp_holes.mft2 import build_witness_plan
from fssp_holes.shapes import compute_ck
from fssp_holes.sim.plan import (
    MessagePlan,
    check_c_conditions,
    pattern_completions,
    plan_from_json,
    plan_to_json,
    run_message_plan,
    worked_instance_plan,
)
from fssp_holes.timebounds import max_t


def late_completion(plan: MessagePlan, k: int):
    """C1 by enumeration, for any k and slack: the holes of the first
    completion of the plan pattern whose max_t exceeds the deadline, or None.

    check_c_conditions covers only two holes and zero slack; this is the
    oracle for the other plans.
    """
    return next(
        (c.holes for c in pattern_completions(plan, k) if max_t(c) > plan.deadline), None
    )


class TestWorkedInstance:
    def test_fires_target_at_14(self):
        plan = worked_instance_plan()
        cfg = validate(7, [(1, 1), (2, 1), (3, 1)])
        assert run_message_plan(cfg, plan).common_fire_time() == 14
        assert late_completion(plan, cfg.k) is None
        with pytest.raises(PreconditionViolatedError):
            check_c_conditions(plan, cfg)  # three holes

    @pytest.mark.parametrize("w", [6, 8])
    def test_size_mismatch_never_fires(self, w):
        plan = worked_instance_plan()
        tr = run_message_plan(validate(w, [(1, 1), (2, 1), (3, 1)]), plan)
        assert tr.common_fire_time() is None
        assert not tr.diagnostics["size_ok"]

    def test_pattern_mismatch_never_fires(self):
        plan = worked_instance_plan()
        tr = run_message_plan(validate(7, [(1, 1), (2, 1), (4, 1)]), plan)
        assert tr.common_fire_time() is None
        assert not tr.diagnostics["messages_generated"]


class TestSizeCheckOnlyPlan:
    def test_fires_everything_at_h(self):
        # fire on the size-check messages alone at 2w + c_2
        c2 = compute_ck(2).c_k
        plan = MessagePlan(12, c2, (), Pattern(frozenset()))
        for holes in ([(6, 4), (7, 5)], [(3, 3), (8, 8)], [(10, 3), (3, 10)]):
            tr = run_message_plan(validate(12, holes), plan)
            assert tr.common_fire_time() == 24 + c2
        assert late_completion(plan, 2) is None
        with pytest.raises(PreconditionViolatedError):
            check_c_conditions(plan, validate(12, [(6, 4), (7, 5)]))  # slack 1

    def test_zero_slack_version_fails_c1(self):
        plan = MessagePlan(12, 0, (), Pattern(frozenset()))
        report = check_c_conditions(plan, validate(12, [(3, 3), (8, 8)]))
        assert not report.c1_ok  # a critical-pair completion exceeds 2w
        assert late_completion(plan, 2) is not None


class TestC5Failure:
    def test_site_next_to_exception_geometry(self):
        w = 12
        fam = regions(w)
        vc = fam.v_cnt
        cfg = validate(w, [vc + (0, 1), vc + (1, 0)])
        plan = MessagePlan(
            w, 0, (((vc, 0),),), pattern_of(cfg, fam.UVW)
        )
        report = check_c_conditions(plan, cfg)
        assert not report.c5_ok
        failing = {f for f in report.failures if f.startswith("C5")}
        assert any("(12, 12)" in f for f in failing)
        # and the run does not fire anybody
        assert run_message_plan(cfg, plan).common_fire_time() is None


class TestReferenceConfiguration:
    def test_missing_pattern_fails_the_check(self):
        plan = build_witness_plan(validate(12, [(3, 3), (8, 8)]))
        cfg = validate(12, [(2, 3), (8, 8)])
        report = check_c_conditions(plan, cfg)
        assert report.failures == ["reference configuration does not carry the plan pattern"]
        assert report.c1_ok and not report.c5_ok and not report.ok
        assert run_message_plan(cfg, plan).common_fire_time() is None

    def test_size_mismatch_raises(self):
        plan = build_witness_plan(validate(12, [(3, 3), (8, 8)]))
        with pytest.raises(OutOfSquareError):
            check_c_conditions(plan, validate(13, [(3, 3), (8, 8)]))


class TestCompletions:
    def test_pinned_pattern_has_single_completion(self):
        cfg = validate(12, [(4, 6), (5, 3)])
        fam = regions(12)
        plan = MessagePlan(
            12, 0, (((fam.v_cnt, 0),),), pattern_of(cfg, fam.UV)
        )
        comps = pattern_completions(plan, 2)
        assert comps == [cfg]

    def test_free_hole_enumeration(self):
        cfg = validate(12, [(5, 7), (9, 2)])
        fam = regions(12)
        pat = pattern_of(cfg, fam.UVW)
        plan = MessagePlan(12, 0, (((fam.v_cnt, 0),),), pat)
        comps = pattern_completions(plan, 2)
        assert all(Position(5, 7) in c.holes for c in comps)
        assert len(comps) == sum(
            1
            for x in range(1, 12)
            for y in range(1, 12)
            if Position(x, y) not in fam.UVW
        )


class TestPlanJson:
    def test_round_trip(self):
        plan = worked_instance_plan()
        text = plan_to_json(plan)
        assert plan_from_json(text) == plan
        assert plan_to_json(plan_from_json(text)) == text

    def test_reads_old_files_with_checked_region(self):
        doc = json.loads(plan_to_json(worked_instance_plan()))
        doc["checked_region"] = [[1, 1], [2, 1], [3, 1]]
        assert plan_from_json(json.dumps(doc)) == worked_instance_plan()

    def test_site_must_not_be_pattern_hole(self):
        with pytest.raises(ValueError):
            MessagePlan(
                5,
                0,
                (((Position(1, 1), 0),),),
                Pattern(frozenset({(Position(1, 1), "H")})),
            )
