import hashlib
import json

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


class TestTranscripts:
    def test_every_transcript_pinned(self):
        # fire times, horizon and the five diagnostics of the hole-free square
        # and of every one-hole square at w = 2..12, each sorted
        records = []
        for w in range(2, 13):
            for holes in [[]] + [[h] for h in interior(w)]:
                tr = run_sh1(validate(w, holes))
                layers = {name: sorted(d.items()) for name, d in sorted(tr.diagnostics.items())}
                records.append([w, holes, sorted(tr.fire_time.items()), tr.horizon, layers])
        assert len(records[-1][-1]) == 5
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "3058c661ce3b60157de9344f851c2f8049384506174912ef611465158441e88b"

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
