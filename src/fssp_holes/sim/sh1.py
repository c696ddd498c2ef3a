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

Every node of a valid configuration with k <= 1 fires at exactly 2w.
"""

from __future__ import annotations

from ..errors import SizeTooSmallError, WrongHoleCountError
from ..grid import DIRECTIONS, Configuration, Position, boundary_condition
from .line import LineSynchronizer
from .transcript import FiringTranscript

# Unit steps of the two axes the layers are written over: east, north.
_AXES = (Position(1, 0), Position(0, 1))

# The diagonal wave token.  Its couriers are (stage, axis) for stages 1..3:
# stage 1 advances one step along the axis, then steps across it onto the
# diagonal, or, when the diagonal cell there is the hole, detours as stage 2
# (one more step along) and stage 3 (one step across) back onto the diagonal.
_D = (0, None)


def _diag_layer(cfg: Configuration) -> dict[Position, int]:
    """First arrival time of the diagonal wave at each diagonal node."""
    arrivals = {Position(0, 0): 0}
    current: dict[Position, set] = {Position(0, 0): {_D}}
    for t in range(2 * cfg.size + 1):
        nxt: dict[Position, set] = {}

        def emit(p: Position, token) -> None:
            if cfg.is_node(p):
                nxt.setdefault(p, set()).add(token)

        for p, tokens in current.items():
            for stage, axis in tokens:
                if stage == 0:
                    for a, step in enumerate(_AXES):
                        emit(p + step, (1, a))
                    continue
                across = p + _AXES[1 - axis]
                if stage == 1 and not cfg.is_node(across):
                    if cfg.in_square(across):  # the diagonal cell ahead is the hole
                        emit(p + _AXES[axis], (2, axis))
                else:
                    emit(across, (3, axis) if stage == 2 else _D)
        for p, tokens in nxt.items():
            if _D in tokens and p not in arrivals:
                arrivals[p] = t + 1
        current = nxt
        if not current:
            break
    return arrivals


def _sweep_layer(cfg: Configuration) -> dict[Position, int]:
    """Earliest arrival of the two border sweep signals at each node.

    One signal runs east along y=0, turns north at (w, 0), and from every
    east-border node (w, j), j < w, sends at time w + j a westward stamp
    along row j that holes block.  The mirrored signal stamps columns
    southward from the north border.
    """
    w = cfg.size
    arrival: dict[Position, int] = {}
    for transposed in (False, True):
        for j in range(w):
            for x in range(w, -1, -1):
                p = Position(j, x) if transposed else Position(x, j)
                if p in cfg.holes:
                    break
                t = 2 * w + j - x
                if arrival.get(p, t) >= t:
                    arrival[p] = t
    return arrival


def _line_segment(cfg: Configuration, start: Position, step: Position) -> list[Position]:
    cells = []
    p = start
    while cfg.is_node(p):
        cells.append(p)
        p = p + step
    return cells


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

    diag = _diag_layer(cfg)
    sweep = _sweep_layer(cfg)

    fires_of_length: dict[int, list[int]] = {}
    line_fire: dict[Position, int] = {}
    for d_cell, t_arr in diag.items():
        for step in _AXES:
            cells = _line_segment(cfg, d_cell + step, step)
            if not cells:
                continue
            n = len(cells)
            if n not in fires_of_length:
                fires_of_length[n] = LineSynchronizer(n).run().fire_times
            for cell, ft in zip(cells, fires_of_length[n]):
                line_fire[cell] = t_arr + 1 + ft

    pre_fire = {
        cell: ft for cell, ft in line_fire.items() if cell in sweep and sweep[cell] <= ft
    }

    corner_patch: dict[Position, int] = {}
    fire: dict[Position, int | None] = {}
    for v in cfg.nodes():
        candidates = [pre_fire[u] + 1 for u in (v, *(v + d for d in DIRECTIONS)) if u in pre_fire]
        if v in diag and boundary_condition(cfg, v) == (0, 0, 1, 1):
            corner_patch[v] = diag[v]  # far-corner patch fires on wave arrival
            candidates.append(diag[v])
        fire[v] = min(candidates) if candidates else None

    return FiringTranscript(
        fire,
        horizon=2 * cfg.size,
        diagnostics={
            "diag_arrivals": diag,
            "sweep_arrivals": sweep,
            "line_fire": line_fire,
            "pre_fire": pre_fire,
            "corner_patch": corner_patch,
        },
    )
