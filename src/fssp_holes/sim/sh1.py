"""Minimal-time synchronizer for a square with at most one hole.

Layered construction, each rule written once for the two axes, east and
north, and mirrored across the main diagonal:

* diagonal layer: a wave token travels the main diagonal, reaching (i, i)
  at time 2i; a single hole on or next to the diagonal is bypassed by a
  two-step detour of exact Manhattan length;
* line layer: each diagonal arrival starts a minimal-time line synchronizer
  on the row segment east of it and the column segment north of it (general
  at the diagonal-adjacent cell, activated one step after the wave); the
  line signal machine is time-invariant, so each segment length is run once from
  time 0 and its fire times are shifted by the activation time;
* sweep layer: a border signal loops east-north-west (and north-east-south),
  stamping each sub-diagonal cell (i, j), i > j, at time 2w - (i - j) and
  mirrored above the diagonal;
* assembly: a node "pre-fires" when its line fires and it has been stamped
  by the sweep (this happens at 2w - 1 exactly for the unblocked segments);
  every node fires one step after itself or a neighbor pre-fires; the far
  corner (w, w), recognizable by its (0, 0, 1, 1) boundary condition, also
  fires when the diagonal wave reaches it, which patches the configuration
  with a hole diagonally inside it.

The layers run on cell ids in the order of grid.free_mask: cell (x, y) is
id x * (w + 2) + y, so a step east or west adds or subtracts w + 2 and a
step north or south adds or subtracts 1.  Each column ends in a guard cell
and one padding column follows the last, also read by negative ids, so a
step off the square from any cell lands on a cell that is not a node.  Each
layer keeps its times in a list indexed by id.  Positions are built once
per node, for the returned transcript, whose fire times and diagnostics
stay keyed by Position.

Every node of a valid configuration with k <= 1 fires at exactly 2w.
"""

from __future__ import annotations

from itertools import compress

from ..errors import SizeTooSmallError, WrongHoleCountError
from ..grid import Configuration, Position
from .line import LineSynchronizer
from .transcript import FiringTranscript

# "No time": later than every time a layer records.
_NEVER = 1 << 30

# The diagonal wave token.  Its couriers are (stage, axis) for stages 1..3:
# stage 1 advances one step along the axis, then steps across it onto the
# diagonal, or, when the diagonal cell there is the hole, detours as stage 2
# (one more step along) and stage 3 (one step across) back onto the diagonal.
_D = (0, None)


def _node_cells(cfg: Configuration) -> bytearray:
    """1 at the id of every node, 0 at the hole, the guard cells and the
    padding column."""
    w = cfg.size
    cells = bytearray((b"\x01" * (w + 1) + b"\x00") * (w + 1) + bytes(w + 2))
    for h in cfg.holes:
        cells[cfg.index(h)] = 0
    return cells


def _diagonal(w: int) -> range:
    """The ids of (i, i) for i = 0..w."""
    return range(0, w * (w + 3) + 1, w + 3)


def _diag_layer(node: bytearray, holes: set[int], w: int) -> list[int]:
    """First arrival time of the diagonal wave at each diagonal node."""
    axes = (w + 2, 1)  # east, north
    arrival = [_NEVER] * len(node)
    arrival[0] = 0
    current: dict[int, set] = {0: {_D}}
    for t in range(2 * w + 1):
        nxt: dict[int, set] = {}

        def emit(i: int, token) -> None:
            if node[i]:
                nxt.setdefault(i, set()).add(token)

        for i, tokens in current.items():
            for stage, axis in tokens:
                if stage == 0:
                    for a, step in enumerate(axes):
                        emit(i + step, (1, a))
                    continue
                across = i + axes[1 - axis]
                if stage == 1 and not node[across]:
                    if across in holes:  # the diagonal cell ahead is the hole
                        emit(i + axes[axis], (2, axis))
                else:
                    emit(across, (3, axis) if stage == 2 else _D)
        for i, tokens in nxt.items():
            if _D in tokens and arrival[i] == _NEVER:
                arrival[i] = t + 1
        current = nxt
        if not current:
            break
    return arrival


def _sweep_layer(node: bytearray, w: int) -> list[int]:
    """Earliest arrival of the two border sweep signals at each node.

    One signal runs east along y=0, turns north at (w, 0), and from every
    east-border node (w, j), j < w, sends at time w + j a westward stamp
    along row j that holes block.  The mirrored signal stamps columns
    southward from the north border.
    """
    s = w + 2
    arrival = [_NEVER] * len(node)
    for j in range(w):
        # Row j westward from (w, j), column j southward from (j, w).
        for i, step in ((w * s + j, -s), (j * s + w, -1)):
            t = w + j
            while node[i]:
                if arrival[i] > t:
                    arrival[i] = t
                i += step
                t += 1
    return arrival


def _line_layer(node: bytearray, diag: list[int], w: int) -> list[int]:
    """Fire time of each node's line segment, shifted by its activation."""
    s = w + 2
    fire = [_NEVER] * len(node)
    fires_of_length: dict[int, list[int]] = {}
    for d in _diagonal(w):
        if diag[d] == _NEVER:
            continue
        start = diag[d] + 1
        for step in (s, 1):
            end = d + step
            while node[end]:
                end += step
            n = (end - d) // step - 1
            if not n:
                continue
            if n not in fires_of_length:
                fires_of_length[n] = LineSynchronizer(n).run().fire_times
            fire[d + step : end : step] = [start + ft for ft in fires_of_length[n]]
    return fire


def run_sh1(cfg: Configuration) -> FiringTranscript:
    """Simulate the square synchronizer; all nodes fire at exactly 2w.

    Accepts configurations with zero or one hole and w >= 2.  The transcript
    carries layer diagnostics: diagonal arrivals, per-node line firing,
    sweep stamps, pre-firing (line AND sweep), and the corner patch.
    """
    if cfg.k > 1:
        raise WrongHoleCountError(f"square synchronizer handles k <= 1, got {cfg.k}")
    if cfg.size < 2:
        raise SizeTooSmallError(f"square synchronizer needs w >= 2, got {cfg.size}")

    w = cfg.size
    s = w + 2
    node = _node_cells(cfg)
    diag = _diag_layer(node, {cfg.index(h) for h in cfg.holes}, w)
    sweep = _sweep_layer(node, w)
    line_fire = _line_layer(node, diag, w)
    # A node pre-fires when its line fires, if the sweep has stamped it by then.
    pre = [lt if sw <= lt else _NEVER for lt, sw in zip(line_fire, sweep)]

    # A node fires one step after itself or a neighbor pre-fires.
    ids = list(compress(range(len(node)), node))
    fire = [_NEVER] * len(node)
    for i in ids:
        fire[i] = 1 + min(pre[i], pre[i + s], pre[i + 1], pre[i - s], pre[i - 1])

    corner_patch = [_NEVER] * len(node)
    for d in _diagonal(w):
        # Boundary condition (0, 0, 1, 1): east and north off, west and south nodes.
        if diag[d] < _NEVER and not node[d + s] and not node[d + 1] and node[d - s] and node[d - 1]:
            corner_patch[d] = diag[d]  # far-corner patch fires on wave arrival
            fire[d] = min(fire[d], diag[d])

    positions = [Position(*divmod(i, s)) for i in ids]

    def keyed(times: list[int]) -> dict[Position, int]:
        return {p: times[i] for i, p in zip(ids, positions) if times[i] < _NEVER}

    return FiringTranscript(
        {p: fire[i] if fire[i] < _NEVER else None for i, p in zip(ids, positions)},
        horizon=2 * w,
        diagnostics={
            "diag_arrivals": keyed(diag),
            "sweep_arrivals": keyed(sweep),
            "line_fire": keyed(line_fire),
            "pre_fire": keyed(pre),
            "corner_patch": keyed(corner_patch),
        },
    )
