"""Minimal-time synchronizer for a line of cells (general at the left end).

Divide-to-halves construction realized with local signals:

* every general, at its creation, emits into each open direction a fast
  signal (speed 1) and a family of slow signals of speeds 1/(2^level - 1)
  for level = 2, 3, ..., each family member duplicated with a one-step
  sibling offset (the offset pads the odd-length rounding cases); a
  step's births come before its emissions, so a direction whose neighbour
  became a general in the same step is closed;
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

The state is held in lists, so a step builds no dict: `move_schedule` is
indexed by time (length horizon + 2) and lists the slows due to move then,
and `slow_at` is indexed by cell and holds the moved live slows sitting
there (an unmoved slow is only in the schedule).  Each fast signal's
events, the closed end and an oncoming slow, are tested as it moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SizeTooSmallError


class _Fast:
    __slots__ = ("cell", "dir", "birth", "alive")

    def __init__(self, cell: int, dir: int, birth: int, alive: bool = True):
        self.cell = cell
        self.dir = dir
        self.birth = birth
        self.alive = alive


class _Slow:
    __slots__ = ("cell", "dir", "level", "moves", "alive")

    def __init__(self, cell: int, dir: int, level: int, moves: int = 0, alive: bool = True):
        self.cell = cell  # current cell (origin general until first move)
        self.dir = dir
        self.level = level
        self.moves = moves
        self.alive = alive


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
        # slow_at[cell]: the live slows that have moved and sit at cell.
        self.slow_at: list[list[_Slow]] = [[] for _ in range(n)]
        # move_schedule[t]: the slows due to move at t; a move due after
        # horizon + 1 never happens, so it is not scheduled.
        self.move_schedule: list[list[_Slow]] = [[] for _ in range(self.horizon + 2)]
        self.gen_count = 0

    # -- births and emissions ----------------------------------------------

    def _make_generals(self, cells: list[int], t: int) -> None:
        """Make generals at t of the cells that are not yet generals.  All
        are born (birth time set, slows there absorbed) before any emits, so
        no general emits toward a neighbour born in the same step."""
        births = self.births
        born = []
        for cell in cells:
            if births[cell] is None:
                births[cell] = t
                born.append(cell)
                for s in self.slow_at[cell]:
                    s.alive = False  # slows arriving at a general are absorbed
                self.slow_at[cell] = []
        self.gen_count += len(born)
        n = self.n
        horizon = self.horizon
        schedule = self.move_schedule
        for cell in born:
            for e in (-1, 1):
                nbr = cell + e
                if not (0 <= nbr < n) or births[nbr] is not None:
                    continue
                self.fasts.append(_Fast(cell, e, t))
                level = 2
                while (first := t + (1 << level) - 1) <= horizon:
                    schedule[first].append(_Slow(cell, e, level))
                    if first < horizon:  # its sibling starts one step later
                        schedule[first + 1].append(_Slow(cell, e, level))
                    level += 1

    # -- stepping ----------------------------------------------------------

    def run(self) -> LineRun:
        n = self.n
        if n == 1:
            # A lone general has nothing to synchronize with: 2n-2 = 0.
            self.births[0] = 0
            return LineRun([0], [0])

        self._make_generals([0], 0)
        t = 0
        while self.gen_count < n:
            if t > self.horizon:
                raise AssertionError("line synchronizer exceeded its horizon")
            self._step(t)
            t += 1
        births = [b for b in self.births if b is not None]
        if len(births) != n:
            raise AssertionError(f"{n - len(births)} cells never became generals")
        padded = [births[0], *births, births[-1]]
        fires = [1 + max(a, b, c) for a, b, c in zip(padded, padded[1:], padded[2:])]
        return LineRun(births, fires)

    def _step(self, t: int) -> None:
        n = self.n
        births = self.births
        slow_at = self.slow_at
        new_gens: list[tuple[int, int]] = []  # (cell, cell of its cause at t)

        # Slow signals due to move at t+1.
        due = self.move_schedule[t + 1]
        if due:
            schedule = self.move_schedule
            last = self.horizon + 1
            for s in due:
                if not s.alive:
                    continue
                cell = s.cell
                target = cell + s.dir
                if s.moves:  # a live slow that has moved sits in its cell's bucket
                    slow_at[cell].remove(s)
                if not (0 <= target < n) or births[target] is not None:
                    s.alive = False  # off the line, or absorbed by a general
                    continue
                if not -1 <= target - cell <= 1:
                    _check_caused(target, cell)
                s.cell = target
                s.moves += 1
                slow_at[target].append(s)
                nxt = t + (1 << s.level)
                if nxt <= last:
                    schedule[nxt].append(s)

        # Fast signals move one cell; each arrival is tested for its events.
        died = False
        for f in self.fasts:
            cell = f.cell
            d = f.dir
            target = cell + d
            if not (0 <= target < n) or births[target] is not None:
                f.alive = False  # off the line, or absorbed by an established general
                died = True
                continue
            if not -1 <= target - cell <= 1:
                _check_caused(target, cell)
            f.cell = target
            beyond = target + d
            if beyond < 0 or beyond >= n:
                # Closed end: the arrival cell becomes a general.
                new_gens.append((target, cell))
                f.alive = False
                died = True
                continue
            here = slow_at[target]
            if not here:
                continue
            opposing = [s for s in here if s.dir == -d]
            if not opposing:
                continue
            parity = opposing[0].moves & 1
            if any(s.moves & 1 != parity for s in opposing):
                raise AssertionError(f"co-located oncoming slows with mixed parity at {target}")
            new_gens.append((target, cell))
            if (t + 1 - f.birth + parity) & 1:
                new_gens.append((cell, cell))
            for s in opposing:
                s.alive = False
                here.remove(s)
            f.alive = False
            died = True

        if new_gens:
            for cell, cause in new_gens:
                if not -1 <= cell - cause <= 1:
                    _check_caused(cell, cause)
            self._make_generals([cell for cell, _ in new_gens], t + 1)

        if died:
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
