import hashlib
import json
import random

import pytest

from fssp_holes.errors import WrongHoleCountError
from fssp_holes.grid import Position, validate
from fssp_holes.sim.line import LineSynchronizer
from fssp_holes.sim.sh1 import run_sh1


def interior(w):
    return [(x, y) for x in range(1, w) for y in range(1, w)]


class TestFiring:
    def test_examples(self):
        assert run_sh1(validate(2, [(1, 1)])).common_fire_time() == 4
        assert run_sh1(validate(7, [(3, 5)])).common_fire_time() == 14
        # hole diagonally inside the far corner: the corner-patch case
        tr = run_sh1(validate(7, [(6, 6)]))
        assert tr.common_fire_time() == 14
        assert tr.fire_time[Position(7, 7)] == 14

    def test_hole_free(self):
        assert run_sh1(validate(9, [])).common_fire_time() == 18

    def test_rejects_two_holes(self):
        with pytest.raises(WrongHoleCountError):
            run_sh1(validate(7, [(2, 2), (4, 4)]))

    @pytest.mark.parametrize("w", range(2, 10))
    def test_exhaustive_small(self, w):
        for holes in [[]] + [[h] for h in interior(w)]:
            cfg = validate(w, holes)
            tr = run_sh1(cfg)
            assert tr.common_fire_time() == 2 * w, (w, holes)


class TestDiagnostics:
    @pytest.mark.parametrize("w", range(2, 10))
    def test_diagonal_wave_times(self, w):
        for holes in [[]] + [[h] for h in interior(w)]:
            cfg = validate(w, holes)
            diag = run_sh1(cfg).diagnostics["diag_arrivals"]
            for i in range(w + 1):
                p = Position(i, i)
                if cfg.is_node(p):
                    assert diag.get(p) == 2 * i, (w, holes, i)

    @pytest.mark.parametrize("w", range(2, 9))
    def test_pre_fire_layer(self, w):
        # every pre-firing node pre-fires at 2w-1, and every node that never
        # pre-fires has a pre-firing neighbor, except the far corner when the
        # hole sits diagonally inside it
        for holes in [[]] + [[h] for h in interior(w)]:
            cfg = validate(w, holes)
            pre = run_sh1(cfg).diagnostics["pre_fire"]
            assert set(pre.values()) <= {2 * w - 1}
            exceptional = Position(w - 1, w - 1) in cfg.holes
            for v in cfg.nodes():
                if v in pre:
                    continue
                has_nbr = any(
                    v + d in pre for d in ((1, 0), (0, 1), (-1, 0), (0, -1))
                )
                if v == (w, w) and exceptional:
                    assert not has_nbr
                else:
                    assert has_nbr, (w, holes, v)

    def test_causality_checked_run(self):
        tr = run_sh1(validate(8, [(3, 3)]))
        assert tr.common_fire_time() == 16


def record(w, holes):
    """Fire times, horizon and the five diagnostics of one run, each sorted."""
    tr = run_sh1(validate(w, holes))
    layers = {name: sorted(d.items()) for name, d in sorted(tr.diagnostics.items())}
    return [w, holes, sorted(tr.fire_time.items()), tr.horizon, layers]


class TestTranscripts:
    def test_every_transcript_pinned(self):
        # the hole-free square and every one-hole square at w = 2..12
        records = [
            record(w, holes) for w in range(2, 13) for holes in [[]] + [[h] for h in interior(w)]
        ]
        assert len(records[-1][-1]) == 5
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "3058c661ce3b60157de9344f851c2f8049384506174912ef611465158441e88b"

    def test_transcripts_pinned_at_benchmark_sizes(self):
        # the hole-free square and 8 random one-hole squares at each w = 13..32
        rng = random.Random(1332)
        records = []
        for w in range(13, 33):
            squares = [[]] + [[(rng.randrange(1, w), rng.randrange(1, w))] for _ in range(8)]
            records += [record(w, holes) for holes in squares]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "4f41d01225f729a449e4f5f4f486d2177537a202ef2149893c5bc5717b449140"

    @pytest.mark.parametrize("w", range(2, 13))
    def test_transcript_keys_are_positions(self, w):
        for holes in [[]] + [[h] for h in interior(w)]:
            tr = run_sh1(validate(w, holes))
            assert len(tr.diagnostics) == 5
            for d in (tr.fire_time, *tr.diagnostics.values()):
                assert all(type(p) is Position for p in d), (w, holes)
            assert set(tr.diagnostics["corner_patch"]) <= {(w, w)}

    @pytest.mark.parametrize("w", [2, 3, 8, 17])
    def test_one_line_run_per_segment_length(self, monkeypatch, w):
        # a hole-free square has segments of every length 1..w, two of each
        lengths = []
        real = LineSynchronizer.run

        def counted(self):
            lengths.append(self.n)
            return real(self)

        monkeypatch.setattr(LineSynchronizer, "run", counted)
        assert run_sh1(validate(w, [])).common_fire_time() == 2 * w
        assert sorted(lengths) == list(range(1, w + 1))
