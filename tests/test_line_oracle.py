"""The dict-based line synchronizer that `fssp_holes.sim.line` replaced,
kept here as an oracle.

It runs the same signal machine as `fssp_holes.sim.line` on dicts: a dict of
slow buckets keyed by cell, a dict of move lists keyed by time, and a dict of
fast arrivals built in every step, with the events tested after all fast
signals have moved.  The library's engine must give the same births and
firing times for every length.
"""

from dataclasses import dataclass

import pytest

from fssp_holes.errors import SizeTooSmallError
from fssp_holes.sim import line


# eq=False: buckets find and remove a signal by identity, and two sibling
# slows can hold equal fields.
@dataclass(eq=False)
class _Fast:
    cell: int
    dir: int
    birth: int
    alive: bool = True


@dataclass(eq=False)
class _Slow:
    cell: int  # current cell (origin general until first move)
    dir: int
    level: int
    moves: int = 0
    alive: bool = True


@dataclass
class LineRun:
    """Outcome of one line synchronization."""

    births: list[int]
    fire_times: list[int]


def _check_caused(cell: int, cause: int) -> None:
    """Raise unless a change at cell at t+1 had its cause within one cell at t."""
    if not -1 <= cell - cause <= 1:
        raise AssertionError(
            f"state change at cell {cell} caused from cell {cause}, outside its neighborhood"
        )


class LineSynchronizer:
    """Event-driven run of the divide-to-halves line signal machine."""

    def __init__(self, n: int):
        if n < 1:
            raise SizeTooSmallError(f"line length must be >= 1, got {n}")
        self.n = n
        self.horizon = 2 * n + 4
        self.births: list[int | None] = [None] * n
        self.fasts: list[_Fast] = []
        self.slow_at: dict[int, list[_Slow]] = {}
        self.move_schedule: dict[int, list[_Slow]] = {}
        self.gen_count = 0

    # -- emissions ---------------------------------------------------------

    def _make_general(self, cell: int, t: int) -> None:
        if self.births[cell] is not None:
            return
        self.births[cell] = t
        self.gen_count += 1
        for s in self.slow_at.pop(cell, []):
            s.alive = False  # slows arriving at a general are absorbed
        for e in (-1, 1):
            nbr = cell + e
            if not (0 <= nbr < self.n) or self.births[nbr] is not None:
                continue
            self.fasts.append(_Fast(cell, e, t))
            level = 2
            while True:
                dwell = (1 << level) - 1
                if t + dwell > self.horizon:
                    break
                for off in (0, 1):
                    first = t + off + dwell
                    if first <= self.horizon:
                        self.move_schedule.setdefault(first, []).append(_Slow(cell, e, level))
                level += 1

    # -- stepping ----------------------------------------------------------

    def run(self) -> LineRun:
        if self.n == 1:
            # A lone general has nothing to synchronize with: 2n-2 = 0.
            self.births[0] = 0
            return LineRun([0], [0])

        self._make_general(0, 0)
        t = 0
        while self.gen_count < self.n:
            if t > self.horizon:
                raise AssertionError("line synchronizer exceeded its horizon")
            self._step(t)
            t += 1
        births = [b for b in self.births if b is not None]
        if len(births) != self.n:
            raise AssertionError(f"{self.n - len(births)} cells never became generals")
        fires = [
            1 + max(births[j] for j in (i - 1, i, i + 1) if 0 <= j < self.n)
            for i in range(self.n)
        ]
        return LineRun(births, fires)

    def _step(self, t: int) -> None:
        arrived_f: dict[int, list[_Fast]] = {}
        new_gens: list[tuple[int, int]] = []  # (cell, cell of its cause at t)

        # Slow signals due to move at t+1.
        for s in self.move_schedule.pop(t + 1, []):
            if not s.alive:
                continue
            target = s.cell + s.dir
            if s.moves:  # a live slow that has moved sits in its cell's bucket
                self.slow_at[s.cell].remove(s)
            if not (0 <= target < self.n):
                s.alive = False
                continue
            if self.births[target] is not None:
                s.alive = False  # absorbed by a general
                continue
            _check_caused(target, s.cell)
            s.cell = target
            s.moves += 1
            self.slow_at.setdefault(target, []).append(s)
            self.move_schedule.setdefault(t + (1 << s.level), []).append(s)

        # Fast signals move one cell.
        for f in self.fasts:
            if not f.alive:
                continue
            target = f.cell + f.dir
            if not (0 <= target < self.n):
                f.alive = False
                continue
            if self.births[target] is not None:
                f.alive = False  # absorbed by an established general
                continue
            _check_caused(target, f.cell)
            f.cell = target
            arrived_f.setdefault(target, []).append(f)

        # General-creating events at t+1.
        for target, fs in arrived_f.items():
            for f in fs:
                if not f.alive:
                    continue
                prev = target - f.dir
                beyond = target + f.dir
                if beyond < 0 or beyond >= self.n:
                    # Closed end: the arrival cell becomes a general.
                    new_gens.append((target, prev))
                    f.alive = False
                    continue
                opposing = [
                    s for s in self.slow_at.get(target, []) if s.dir == -f.dir and s.alive
                ]
                if opposing:
                    parities = {(s.moves % 2) for s in opposing}
                    if len(parities) > 1:
                        raise AssertionError(
                            f"co-located oncoming slows with mixed parity at {target}"
                        )
                    new_gens.append((target, prev))
                    parity = ((t + 1 - f.birth) + parities.pop()) % 2
                    if parity:
                        new_gens.append((prev, prev))
                    for s in opposing:
                        s.alive = False
                        self.slow_at[target].remove(s)
                    f.alive = False

        for cell, cause in new_gens:
            _check_caused(cell, cause)
            self._make_general(cell, t + 1)

        self.fasts = [f for f in self.fasts if f.alive]


def _assert_same_runs(lengths):
    for n in lengths:
        got = line.LineSynchronizer(n).run()
        want = LineSynchronizer(n).run()
        assert (got.births, got.fire_times) == (want.births, want.fire_times), n


def test_matches_oracle_up_to_512():
    _assert_same_runs(range(1, 513))


@pytest.mark.slow
def test_matches_oracle_513_to_1024():
    _assert_same_runs(range(513, 1025))
