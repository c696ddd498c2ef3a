import json

import pytest

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


def _row(r):
    return r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count, r.argmax_pairs


class TestCheckpoint:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumed_run_equals_fresh(self, tmp_path, jobs):
        path = tmp_path / "ck.jsonl"
        fresh = compute_ck(4, jobs=jobs, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 16  # one record per (W, H) slab
        path.write_text("".join(lines[:7]))
        resumed = compute_ck(4, jobs=jobs, checkpoint=str(path))
        assert _row(resumed) == _row(fresh) == _row(compute_ck(4))
        slabs = [(d["w"], d["h"]) for d in map(json.loads, path.read_text().splitlines())]
        assert sorted(slabs) == [(w, h) for w in range(1, 5) for h in range(1, 5)]

    def test_half_of_a_mirrored_pair_is_rescanned(self, tmp_path):
        # Records in (w, h) order, as files written before the (W, H) and
        # (H, W) slabs were scanned together; cut after (2, 3), before (3, 2).
        path = tmp_path / "ck.jsonl"
        fresh = compute_ck(4, checkpoint=str(path))
        records = sorted(map(json.loads, path.read_text().splitlines()), key=lambda d: (d["w"], d["h"]))
        kept = records[: records.index(next(d for d in records if (d["w"], d["h"]) == (2, 3))) + 1]
        path.write_text("".join(json.dumps(d) + "\n" for d in kept))
        assert _row(compute_ck(4, checkpoint=str(path))) == _row(fresh)
        resumed = sorted(map(json.loads, path.read_text().splitlines()), key=lambda d: (d["w"], d["h"]))
        assert resumed == records  # (3, 2) written once, (2, 3) not again

    def test_fully_checkpointed_run_scans_nothing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.jsonl")
        fresh = compute_ck(4, checkpoint=path)
        monkeypatch.setattr("fssp_holes.shapes._scan_shapes", None)
        assert _row(compute_ck(4, checkpoint=path)) == _row(fresh)

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
        assert len(records) == 16 and all(r["k"] == 4 for r in records)
