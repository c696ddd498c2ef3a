import pytest

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
    def test_start_offset_shifts_everything(self):
        base = LineSynchronizer(9, 0).run()
        shifted = LineSynchronizer(9, 5).run()
        assert [b - 5 for b in shifted.births] == base.births
        assert [f - 5 for f in shifted.fire_times] == base.fire_times

    def test_simultaneous_and_no_stragglers(self):
        run = LineSynchronizer(33).run()
        assert len(set(run.fire_times)) == 1
        assert max(run.births) == run.fire_times[0] - 1

    def test_quiescence_check_enabled_by_default(self):
        # the engine asserts local causality on every change; a full run
        # exercising it is the check
        sync = LineSynchronizer(23, quiescence_check=True)
        run = sync.run()
        assert set(run.fire_times) == {2 * 23 - 2}
