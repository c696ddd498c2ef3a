"""Each output check accepts the program's right answer and rejects a wrong one."""

import dataclasses
import io
import itertools
import json
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

import checks
from fssp_holes import cli, grid, mft2, shapes, timebounds
from fssp_holes.sim import plan, sh1


def _row(k, delta=(0, 0, 0, 0)):
    c_k, n_shapes, pairs, argmax = (a + b for a, b in zip(checks.REFERENCE_CK_ROWS[k], delta))
    return SimpleNamespace(c_k=c_k, shape_count=n_shapes, pair_count=pairs, argmax_pair_count=argmax)


def test_reference_rows_hold_the_published_k6_counts():
    assert checks.REFERENCE_CK_ROWS[6][1:3] == (26_898, 416_782)


def test_ck_row_accepts_the_computed_row():
    assert checks.check_ck_row(4, shapes.compute_ck(4)) is None


@pytest.mark.parametrize("delta", [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
def test_ck_row_rejects_an_altered_row(delta):
    assert checks.check_ck_row(5, _row(5)) is None
    assert checks.check_ck_row(5, _row(5, delta)) is not None


@pytest.mark.parametrize("w", [11, 12, 13, 14])
def test_region_conditions_agree_with_the_classifier_on_every_config(w):
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    for a, b in itertools.combinations(cells, 2):
        cfg = grid.validate(w, [a, b])
        want = 2 * w + 1 if mft2.is_slow_case(cfg) else 2 * w
        assert checks.expected_mft(w, [a, b]) == want, (a, b)


def _answer(cfg):
    verdict = mft2.classify(cfg, with_certificate=True)
    if verdict.chain is not None:
        return verdict, timebounds.verify_certificate(verdict.chain, check_equiv=True)
    return verdict, plan.run_message_plan(cfg, verdict.plan).common_fire_time()


SLOW = grid.validate(12, [(3, 5), (4, 6)])  # a critical pair inside U u V
FAST = grid.validate(12, [(2, 2), (9, 3)])


def test_verdict_check_accepts_both_kinds_of_answer():
    assert checks.expected_mft(12, SLOW.holes) == 25
    assert checks.expected_mft(12, FAST.holes) == 24
    assert checks.check_verdict(SLOW, *_answer(SLOW)) is None
    assert checks.check_verdict(FAST, *_answer(FAST)) is None


@pytest.mark.parametrize("cfg", [SLOW, FAST], ids=["2w+1", "2w"])
def test_verdict_check_rejects_a_flipped_verdict(cfg):
    verdict, recheck = _answer(cfg)
    flipped = 2 * cfg.size if verdict.value == 2 * cfg.size + 1 else 2 * cfg.size + 1
    assert checks.check_verdict(cfg, dataclasses.replace(verdict, value=flipped), recheck)


def test_verdict_check_rejects_a_failed_recheck():
    verdict, _ = _answer(SLOW)
    assert checks.check_verdict(SLOW, verdict, False)
    verdict, _ = _answer(FAST)
    assert checks.check_verdict(FAST, verdict, 2 * FAST.size + 1)


def _cli_output(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(grid.dump_json(cfg))
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["classify", str(path), "--certificate"])
    return rc, buf.getvalue()


@pytest.mark.parametrize("cfg", [SLOW, FAST], ids=["2w+1", "2w"])
def test_cli_check_accepts_the_cli_answer_and_rejects_a_flipped_one(cfg, tmp_path):
    rc, out = _cli_output(cfg, tmp_path)
    assert checks.check_cli_classify(cfg, rc, out) is None
    doc = json.loads(out)
    doc["mft"] += 1 if doc["mft"] == 2 * cfg.size else -1
    assert checks.check_cli_classify(cfg, rc, json.dumps(doc))
    assert checks.check_cli_classify(cfg, 1, out)


def test_cli_check_rejects_an_off_by_one_plan_firing(tmp_path):
    rc, out = _cli_output(FAST, tmp_path)
    doc = json.loads(out)
    doc["plan_fires"] += 1
    assert checks.check_cli_classify(FAST, rc, json.dumps(doc))


def test_cli_check_rejects_a_chain_that_misses_the_critical_pair(tmp_path):
    cfg = grid.validate(12, [(9, 9), (10, 3)])  # no hole in U, V or W: 2w+1
    rc, out = _cli_output(cfg, tmp_path)
    assert checks.check_cli_classify(cfg, rc, out) is None
    doc = json.loads(out)
    assert doc["chain"]
    doc["chain"] = doc["chain"][:-1]
    assert checks.check_cli_classify(cfg, rc, json.dumps(doc))


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_line_check_rejects_off_by_one_fire_times(n):
    assert checks.check_line(n, 2 * n - 2) is None
    assert checks.check_line(n, 2 * n - 1)
    assert checks.check_line(n, 2 * n - 3)


@pytest.mark.parametrize("holes", [[], [(3, 3)], [(2, 3)]])
def test_square_check_accepts_the_synchronizer(holes):
    cfg = grid.validate(7, holes)
    assert checks.check_square(cfg, sh1.run_sh1(cfg)) is None


def test_square_check_rejects_an_off_by_one_fire_time():
    cfg = grid.validate(7, [(3, 3)])
    transcript = sh1.run_sh1(cfg)
    transcript.fire_time[grid.Position(5, 1)] = 2 * cfg.size + 1
    assert checks.check_square(cfg, transcript)


def test_square_check_rejects_a_late_diagonal_arrival():
    cfg = grid.validate(7, [])
    transcript = sh1.run_sh1(cfg)
    transcript.diagnostics["diag_arrivals"][grid.Position(4, 4)] = 9
    assert checks.check_square(cfg, transcript)
