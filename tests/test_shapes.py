import itertools
import json
import logging
import re
from types import SimpleNamespace

import pytest

from fssp_holes import shapes
from fssp_holes.errors import (
    BudgetExceededError,
    CheckpointMismatchError,
    ParseError,
    UnreachableError,
    WrongHoleCountError,
)
from fssp_holes.grid import Position
from fssp_holes.shapes import (
    HARD_MAX_K,
    BarrierShape,
    REFERENCE_CK_TABLE,
    ck_bounds,
    compute_ck,
    d0_d1,
    e_of,
    enumerate_shapes,
    evaluate,
    h_kw,
    h_threshold,
)

S4 = BarrierShape(2, 2, frozenset({Position(0, 1), Position(1, 0)}))
S5 = BarrierShape(2, 2, frozenset({Position(0, 0), Position(1, 1)}))


class TestEnumeration:
    def test_counts_small(self):
        assert sum(1 for _ in enumerate_shapes(1)) == 1
        assert sum(1 for _ in enumerate_shapes(2)) == 5
        assert sum(1 for _ in enumerate_shapes(3)) == 29
        assert sum(1 for _ in enumerate_shapes(4)) == 224

    def test_every_shape_covers_rows_and_columns(self):
        for shape in enumerate_shapes(3):
            cols = {h.x for h in shape.holes}
            rows = {h.y for h in shape.holes}
            assert cols == set(range(shape.width))
            assert rows == set(range(shape.height))

    def test_budget_guard(self):
        # Above HARD_MAX_K is out of compute scope; below the least k is
        # invalid input.  Both raise before any shape is scanned.
        for k in (HARD_MAX_K + 1, 100):
            with pytest.raises(BudgetExceededError):
                list(enumerate_shapes(k))
            with pytest.raises(BudgetExceededError):
                compute_ck(k)
        for k in (0, -1):
            with pytest.raises(WrongHoleCountError):
                list(enumerate_shapes(k))
        for k in (1, 0, -1):
            with pytest.raises(WrongHoleCountError):
                compute_ck(k)

    def test_pocket_shapes_excluded(self):
        # node at (1,1) sealed by four holes: not a legal shape
        pocket = frozenset(
            {Position(1, 0), Position(0, 1), Position(2, 1), Position(1, 2)}
        )
        for shape in enumerate_shapes(4):
            assert shape.holes != pocket


class TestDistances:
    def test_d0_d1_examples(self):
        assert d0_d1(S5, (0, 1)) == (2, 6)
        assert d0_d1(S4, (0, 0)) == (3, 3)
        assert d0_d1(S5, (1, 0)) == (6, 2)

    def test_d0_d1_rejects_holes(self):
        with pytest.raises(UnreachableError):
            d0_d1(S5, (0, 0))

    def test_e_of_examples(self):
        assert e_of(S5, (0, 1), 2) == 1
        assert e_of(S4, (0, 0), 0) == 0
        assert e_of(S5, (0, 1), 0) == -1

    def test_evaluate_examples(self):
        ev = evaluate(S5, (0, 1))
        assert (ev.e_max, ev.delta_opt, ev.epsilon_opt) == (1, 2, 1)
        ev = evaluate(S4, (1, 1))
        assert (ev.e_max, ev.delta_opt, ev.epsilon_opt) == (0, 0, 0)

    def test_evaluate_published_nine_hole_row(self):
        # W=4, H=5 with d0=7, d1=8 gives e_max=2, delta_opt=1
        e_max = (-4 - 5 - 2 + 7 + 8) // 2
        delta_opt = (-4 + 5 - 7 + 8) // 2
        assert (e_max, delta_opt) == (2, 1)

    @pytest.mark.parametrize("size, holes, outside", [
        ((2, 2), {(0, 0), (-1, 1)}, (-1, 1)),  # read as mask 3, the mask of {(0, 0), (1, 0)}
        ((2, 2), {(2, 0)}, (2, 0)),
        ((2, 2), {(0, 2)}, (0, 2)),
        ((2, 2), {(1, -1)}, (1, -1)),
        ((1, 1), {(3, 3)}, (3, 3)),  # evaluate gave this shape, which has no hole, an e_max
    ])
    def test_shape_rejects_a_hole_outside_it(self, size, holes, outside):
        message = f"hole {outside} lies outside the {size[0]} x {size[1]} shape"
        with pytest.raises(ValueError, match=re.escape(message)):
            BarrierShape(*size, frozenset(holes))

    @pytest.mark.parametrize("size", [(0, 1), (1, 0), (-1, 2), (0, 0)])
    def test_shape_is_at_least_one_by_one(self, size):
        with pytest.raises(ValueError, match="at least 1 x 1"):
            BarrierShape(*size, frozenset())


class TestProperties:
    def test_parity_and_nonnegativity(self):
        for shape in enumerate_shapes(3):
            for p in shape.nodes():
                d0, d1 = d0_d1(shape, p)
                assert (shape.width + shape.height + 2 - d0 - d1) % 2 == 0
                assert evaluate(shape, p).e_max >= 0

    def test_delta_sweep_optimality(self):
        for shape in enumerate_shapes(3):
            for p in shape.nodes():
                ev = evaluate(shape, p)
                span = shape.width + shape.height + ev.d0 + ev.d1
                values = [e_of(shape, p, d) for d in range(-span, span + 1)]
                assert max(values) == ev.e_max
                assert e_of(shape, p, ev.delta_opt) == ev.e_max

    def test_delta_sweep_optimality_sampled_k4(self, rng):
        pairs = [(s, p) for s in enumerate_shapes(4) for p in s.nodes()]
        for shape, p in rng.sample(pairs, 120):
            ev = evaluate(shape, p)
            span = shape.width + shape.height + ev.d0 + ev.d1
            assert max(e_of(shape, p, d) for d in range(-span, span + 1)) == ev.e_max

    def test_transpose_symmetry(self, rng):
        pool = list(enumerate_shapes(4))
        for shape in rng.sample(pool, 40):
            for p in shape.nodes():
                ev = evaluate(shape, p)
                tv = evaluate(shape.transpose(), (p.y, p.x))
                assert (tv.d0, tv.d1) == (ev.d1, ev.d0)
                assert tv.e_max == ev.e_max
                assert tv.delta_opt == -ev.delta_opt
                assert tv.epsilon_opt == -ev.epsilon_opt

    def test_ck_monotone(self):
        values = [compute_ck(k).c_k for k in (2, 3, 4)]
        assert values == sorted(values)


class TestCk:
    def test_k2_row(self):
        r = compute_ck(2)
        assert (r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count) == (1, 5, 4, 2)
        assert {(s.holes, p) for s, p in r.argmax_pairs} == {
            (S5.holes, Position(0, 1)),
            (S5.holes, Position(1, 0)),
        }

    def test_k3_and_k4_rows(self):
        assert compute_ck(3).matches_reference()
        assert compute_ck(4).matches_reference()

    def test_bounds(self):
        assert ck_bounds(3) == (1, 21)
        assert ck_bounds(5) == (3, 45)
        assert ck_bounds(9) == (7, 117)
        assert REFERENCE_CK_TABLE[9][0] == 7  # reported value sits on the lower bound

    def test_h_kw(self):
        assert h_threshold(2) == 12
        assert h_kw(2, 12) == 25
        assert h_kw(3, 20) == 41
        assert h_kw(2, 5) is None

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_h_kw_reads_the_computed_row(self, k):
        w = h_threshold(k)
        assert h_kw(k, w) == 2 * w + compute_ck(k).c_k
        assert h_kw(k, w - 1) is None

    def test_h_kw_errors(self):
        for k in (1, 0, -3):
            with pytest.raises(ValueError):
                h_kw(k, 100)
        with pytest.raises(BudgetExceededError):
            h_kw(HARD_MAX_K + 1, h_threshold(HARD_MAX_K + 1))
        assert h_kw(HARD_MAX_K, h_threshold(HARD_MAX_K)) == (
            2 * h_threshold(HARD_MAX_K) + REFERENCE_CK_TABLE[HARD_MAX_K][0]
        )

    def test_parallel_scan_matches_sequential(self):
        seq = compute_ck(4, jobs=1)
        par = compute_ck(4, jobs=2)
        assert (par.c_k, par.shape_count, par.pair_count, par.argmax_pair_count) == (
            seq.c_k,
            seq.shape_count,
            seq.pair_count,
            seq.argmax_pair_count,
        )
        assert par.argmax_pairs == seq.argmax_pairs

    def test_pool_never_outnumbers_the_tasks(self, no_process_pool):
        # k=2 has 4 tasks: (w, h, row0) = (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)
        with pytest.raises(AssertionError, match="a pool of 4 workers"):
            compute_ck(2, jobs=64)


class TestProgressLog:
    def _records(self, caplog):
        return [r.getMessage() for r in caplog.records if r.name == "fssp_holes.shapes"]

    def test_one_info_record_per_finished_task(self, caplog, tmp_path, monkeypatch):
        # A clock that reads 0 at the start and gains 1 s per task.
        ticks = itertools.count()
        monkeypatch.setattr(shapes, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        caplog.set_level(logging.INFO, logger="fssp_holes.shapes")
        path = tmp_path / "ck.jsonl"
        compute_ck(4, jobs=1, checkpoint=str(path))
        records = self._records(caplog)
        assert len(records) == 25
        assert records[0] == "k=4: task 1/25 (w=1, h=1, row0=1) done, 1.00 s elapsed, ETA 88.50 s"
        assert records[9] == "k=4: task 10/25 (w=2, h=3, row0=3) done, 10.00 s elapsed, ETA 35.90 s"
        assert records[-1] == "k=4: task 25/25 (w=4, h=4, row0=8) done, 25.00 s elapsed, ETA 0.00 s"
        # Resumed: only the tasks left count, and their total is those left.
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:7]))
        caplog.clear()
        compute_ck(4, jobs=1, checkpoint=str(path))
        records = self._records(caplog)
        assert len(records) == 18 and records[-1].startswith("k=4: task 18/18 ")

    def test_eta_weighs_each_task_by_its_shapes(self, caplog, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(shapes, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        caplog.set_level(logging.INFO, logger="fssp_holes.shapes")
        compute_ck(5, jobs=1)
        records = self._records(caplog)
        tasks = [tuple(map(int, re.search(r"w=(\d+), h=(\d+), row0=(\d+)", r).groups()))
                 for r in records]
        weights = [1 + sum(map(len, shapes._iter_hole_masks(w, h, 5, row0)))
                   for w, h, row0 in tasks]
        for n, record in enumerate(records, 1):
            done = sum(weights[:n])
            assert record.endswith(f"ETA {n * (sum(weights) - done) / done:.2f} s"), record

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_task_shapes_counts_the_enumerated_row_masks(self, k):
        for w in range(1, k + 1):
            for h in range(w, k + 1):
                for row0 in range(1, 1 << w):
                    if row0.bit_count() <= k - (h - 1):
                        assert shapes._task_shapes(w, h, k, row0.bit_count()) == sum(
                            map(len, shapes._iter_hole_masks(w, h, k, row0))
                        ), (w, h, row0)


def _row(r):
    return r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count, r.argmax_pairs


def _tasks(path):
    return [(d["w"], d["h"], d["row0"]) for d in map(json.loads, path.read_text().splitlines())]


class TestCheckpoint:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumed_run_equals_fresh(self, tmp_path, jobs):
        path = tmp_path / "ck.jsonl"
        fresh = compute_ck(4, jobs=jobs, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        tasks = _tasks(path)
        assert len(set(tasks)) == len(lines) == 25  # one record per (W <= H slab, row-0 mask)
        path.write_text("".join(lines[:7]))
        resumed = compute_ck(4, jobs=jobs, checkpoint=str(path))
        assert _row(resumed) == _row(fresh) == _row(compute_ck(4))
        assert sorted(_tasks(path)) == sorted(tasks)  # each task exactly once

    def test_records_do_not_depend_on_jobs(self, tmp_path):
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        compute_ck(5, jobs=1, checkpoint=str(one))
        compute_ck(5, jobs=2, checkpoint=str(two))
        lines = one.read_text().splitlines()
        assert len(lines) == 51 and sorted(lines) == sorted(two.read_text().splitlines())

    def test_fully_checkpointed_run_scans_nothing(self, tmp_path, monkeypatch, no_process_pool):
        path = str(tmp_path / "ck.jsonl")
        fresh = compute_ck(4, checkpoint=path)
        monkeypatch.setattr("fssp_holes.shapes._scan_shapes", None)
        for jobs in (1, 2):
            assert _row(compute_ck(4, jobs=jobs, checkpoint=path)) == _row(fresh)

    def test_slab_record_of_version_2_fails_closed(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(
            '{"v": 2, "k": 4, "w": 1, "h": 1, "shapes": 1, "pairs": 0, "best": -1, "arg": []}\n'
        )
        with pytest.raises(CheckpointMismatchError):
            compute_ck(4, checkpoint=str(path))

    def test_record_of_version_3_fails_closed(self, tmp_path):
        # v3 records held every in-slab image of each argmax node as [w, h, mask, x, y].
        path = tmp_path / "ck.jsonl"
        path.write_text(
            '{"v": 3, "k": 4, "w": 2, "h": 2, "row0": 1, "shapes": 1, "pairs": 2, "best": 2, '
            '"arg": [[2, 2, 9, 1, 0]]}\n'
        )
        with pytest.raises(CheckpointMismatchError):
            compute_ck(4, checkpoint=str(path))

    @pytest.mark.parametrize(
        "field, value",
        [("shapes", 1.5), ("shapes", "x"), ("pairs", None), ("best", True), ("w", "1"),
         ("row0", [1]), ("arg", [[1, 2]]), ("arg", [[1, 2, 3, 4]]), ("arg", [[1, 0, 0.0]]),
         ("arg", ["abc"]), ("arg", 7), ("arg", {"1": 2})],
    )
    def test_ill_typed_field_is_a_parse_error(self, tmp_path, no_process_pool, field, value):
        path = tmp_path / "ck.jsonl"
        compute_ck(3, checkpoint=str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0][field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ParseError):
            compute_ck(3, checkpoint=str(path))

    # Record 6 of k=3 is the (2, 3) slab with row0 1, best 2 and five reps,
    # the first [37, 0, 2]; record 0 is the (1, 1) slab with best -1 and no reps.
    @pytest.mark.parametrize(
        "index, field, value",
        [(6, "shapes", -5), (6, "pairs", -1), (6, "best", -7), (6, "best", 3), (6, "best", -1),
         (0, "best", 0), (6, "arg", []), (6, "arg", [[37, 2, 0]]), (6, "arg", [[37, 0, 3]]),
         (6, "arg", [[37, -1, 0]]), (6, "arg", [[-1, 0, 2]]), (6, "arg", [[37 | 1 << 6, 0, 2]]),
         (6, "arg", [[38, 0, 0]]), (6, "arg", [[37, 0, 0]]), (6, "w", 4), (6, "h", 1),
         (6, "row0", 0), (6, "row0", 4)],
    )
    def test_out_of_range_field_is_a_parse_error(self, tmp_path, no_process_pool, index, field,
                                                 value):
        path = tmp_path / "ck.jsonl"
        compute_ck(3, checkpoint=str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[6]["arg"][0] == [37, 0, 2] and not records[0]["arg"]
        records[index][field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ParseError):
            compute_ck(3, checkpoint=str(path))

    def test_record_outside_the_tasks_is_a_parse_error(self, tmp_path, no_process_pool):
        # (2, 4) is a slab of k=4, but row0 3 holds two holes and leaves the
        # three rows above it one: compute_ck never runs this task.
        path = tmp_path / "ck.jsonl"
        compute_ck(4, checkpoint=str(path))
        with path.open("a") as fh:
            fh.write('{"v": 4, "k": 4, "w": 2, "h": 4, "row0": 3, "shapes": 0, "pairs": 0, '
                     '"best": -1, "arg": []}\n')
        with pytest.raises(ParseError, match="no task"):
            compute_ck(4, checkpoint=str(path))

    def test_missing_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"v": 4, "k": 3, "w": 1, "h": 1, "row0": 1, "shapes": 1, "pairs": 0}\n')
        with pytest.raises(ParseError):
            compute_ck(3, checkpoint=str(path))

    def test_other_k_fails_closed(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        compute_ck(4, checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            compute_ck(5, checkpoint=path)

    def test_unversioned_record_fails_closed(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"w": 1, "h": 1, "shapes": 1, "pairs": 0, "best": -1, "arg": []}\n')
        with pytest.raises(CheckpointMismatchError):
            compute_ck(4, checkpoint=str(path))

    def test_malformed_record_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError):
            compute_ck(4, checkpoint=str(path))

    def test_truncated_tail_recovers(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        fresh = compute_ck(4, checkpoint=str(path))
        text = path.read_text()
        cut = text.rstrip("\n").rfind("\n") + 1
        path.write_text(text[: cut + 12])  # half-written last record
        assert _row(compute_ck(4, checkpoint=str(path))) == _row(fresh)
        text = path.read_text()
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 25 and all(r["k"] == 4 for r in records)
