"""Minimal-time synchronizer for a line of cells (general at the left end).

Divide-to-halves construction realized with local signals:

* every general, at its creation, emits into each open direction a fast
  signal (speed 1) and a family of slow signals of speeds 1/(2^level - 1)
  for level = 2, 3, ..., each family member duplicated with a one-step
  sibling offset (the offset pads the odd-length rounding cases);
* a fast signal hitting the closed end turns that cell into a general
  (the reflection is the new general's own fast signal);
* a fast signal meeting an oncoming slow signal turns the meeting cell into
  a general and consumes the slow; when the fast signal's age and the slow
  signal's travel count have odd parity sum, the cell the fast signal just
  left becomes a general as well (the double general of odd splits);
* a cell fires one step after it and both its line neighbors are generals.

Every run starts its general at time 0, and all cells fire simultaneously
at 2n - 2; a singleton line fires at once.  The machine is time-invariant,
so a line activated at time s fires at s + 2n - 2.  It is a signal machine,
not a finite automaton: a general emits slow signals of every level up to
log2 of the horizon, so no fixed state set covers every n.

The engine is event-driven but synchronous: every state change at t+1 is
caused by a signal that was alive at t in the changed cell or a neighbor.
Every run checks this for each change, against the cell its cause held at t:
a moving signal's cell before the move, or the cell the fast signal that
makes a new general came from (the general's own cell for the double one).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SizeTooSmallError


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


def run_line_fssp(n: int) -> int:
    """Firing time of the n-cell line started at 0: exactly 2n - 2.

    Raises if the cells do not fire simultaneously.
    """
    run = LineSynchronizer(n).run()
    times = set(run.fire_times)
    if len(times) != 1:
        raise AssertionError(f"non-simultaneous firing for n={n}: {sorted(times)}")
    return times.pop()
