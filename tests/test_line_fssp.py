import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fssp_holes
from fssp_holes.errors import SizeTooSmallError
from fssp_holes.sim import line
from fssp_holes.sim.line import LineSynchronizer, run_line_fssp


class TestFiringTime:
    def test_singleton(self):
        assert run_line_fssp(1) == 0

    def test_two_cells(self):
        assert run_line_fssp(2) == 2

    def test_sixty_four(self):
        assert run_line_fssp(64) == 126

    @pytest.mark.parametrize("n", list(range(1, 80)))
    def test_small_lengths_exact(self, n):
        assert run_line_fssp(n) == 2 * n - 2

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [97, 128, 129, 255, 256, 257, 300, 511])
    def test_awkward_lengths(self, n):
        assert run_line_fssp(n) == 2 * n - 2


class TestStructure:
    def test_simultaneous_and_no_stragglers(self):
        run = LineSynchronizer(33).run()
        assert len(set(run.fire_times)) == 1
        assert max(run.births) == run.fire_times[0] - 1

    def test_causality_checked_on_every_run(self):
        # the engine checks local causality on every change; a full run
        # exercising it is the check
        run = LineSynchronizer(23).run()
        assert set(run.fire_times) == {2 * 23 - 2}

    def test_birth_schedule_pinned(self):
        # every general's birth time for n = 1..128, not only the firing time
        births = [LineSynchronizer(n).run().births for n in range(1, 129)]
        digest = hashlib.sha256(json.dumps(births).encode()).hexdigest()
        assert digest == "07634eecca22d2bcc4d2808ffb00e2a4c663cc9782aa2ea06c0f275e94b6c508"

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_line(self, n):
        with pytest.raises(SizeTooSmallError):
            LineSynchronizer(n)


def _signature_census(n: int) -> int:
    """Distinct cell signatures over a run of the n-cell line, read after
    every step: whether the cell is a general, the directions of its fast
    signals, and the (level, direction, move parity) of its live slow
    signals, moved or not.  A moved slow sits in its cell's bucket; an
    unmoved one is only in the time-indexed schedule, at its general's cell."""
    sync = LineSynchronizer(n)
    seen = set()
    step = sync._step

    def step_and_record(t):
        step(t)
        slows = [s for bucket in sync.slow_at for s in bucket]
        slows += [s for due in sync.move_schedule for s in due if s.alive and not s.moves]
        for cell in range(n):
            seen.add((
                sync.births[cell] is not None,
                frozenset(f.dir for f in sync.fasts if f.cell == cell),
                frozenset((s.level, s.dir, s.moves % 2) for s in slows if s.cell == cell),
            ))

    sync._step = step_and_record
    sync.run()
    return len(seen)


class TestStateCensus:
    def test_signatures_grow_with_the_line(self):
        # Each general emits slow signals of every level up to log2 of the
        # horizon, so no fixed state set covers every n: the engine is a
        # signal machine, not a finite automaton.
        counts = [_signature_census(n) for n in (8, 32, 128, 512)]
        assert counts == [18, 43, 86, 141]
        assert all(a < b for a, b in zip(counts, counts[1:]))


class TestCausalityCheck:
    @pytest.mark.parametrize("name", ["_Fast", "_Slow"])
    def test_nonlocal_move_raises(self, monkeypatch, name):
        # every signal of this kind jumps two cells per move; the first jump,
        # 0 -> 2, is caught by the move's own check
        real = getattr(line, name)
        monkeypatch.setattr(line, name, lambda cell, dir, *rest: real(cell, 2 * dir, *rest))
        with pytest.raises(AssertionError, match="^state change at cell 2 caused from cell 0, outside"):
            LineSynchronizer(10).run()

    def test_nonlocal_general_raises(self):
        with pytest.raises(AssertionError, match="outside its neighborhood"):
            line._check_caused(5, 3)
        line._check_caused(5, 4)

    def test_raises_under_optimize(self):
        # both signal kinds, each doubled in direction as above
        src = str(Path(fssp_holes.__file__).parent.parent)
        for name, rest in (("_Fast", "birth"), ("_Slow", "level")):
            code = (
                "from fssp_holes.sim import line\n"
                f"real = line.{name}\n"
                f"line.{name} = lambda cell, dir, {rest}: real(cell, 2 * dir, {rest})\n"
                "try:\n"
                "    line.LineSynchronizer(10).run()\n"
                "except AssertionError as exc:\n"
                "    print('raised:', exc)\n"
            )
            proc = subprocess.run(
                [sys.executable, "-O", "-c", code],
                capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith(
                "raised: state change at cell 2 caused from cell 0, outside"
            ), name


class TestRuntimeGuards:
    # The guards are plain raises, not assert statements, so these also hold
    # under python -O.  Each is forced on a 10-cell line.

    def test_mixed_parity_oncoming_slows_raise(self):
        # Two leftward slows of opposite move parity wait at cell 1; the
        # general's first fast signal arrives there at t = 1.
        sync = LineSynchronizer(10)
        sync.slow_at[1] += [line._Slow(1, -1, 2, moves=1), line._Slow(1, -1, 2, moves=2)]
        with pytest.raises(AssertionError, match="co-located oncoming slows with mixed parity at 1"):
            sync.run()

    def test_horizon_overrun_raises(self):
        # The line needs 18 steps; a horizon of 5 ends the run first.
        sync = LineSynchronizer(10)
        sync.horizon = 5
        with pytest.raises(AssertionError, match="line synchronizer exceeded its horizon"):
            sync.run()

    def test_missing_generals_raise(self):
        # A general count that starts at 9 stops the run once the first
        # general is made, with the other 9 cells not generals.
        sync = LineSynchronizer(10)
        sync.gen_count = 9
        with pytest.raises(AssertionError, match="^9 cells never became generals$"):
            sync.run()
