"""Minimal-time synchronizer for a square with at most one hole.

Layered construction, all layers simulated at one global clock:

* diagonal layer: a wave token travels the main diagonal, reaching (i, i)
  at time 2i; a single hole on or next to the diagonal is bypassed by a
  two-step detour of exact Manhattan length;
* line layer: each diagonal arrival starts a minimal-time line synchronizer
  on the row segment east of it and the column segment north of it (general
  at the diagonal-adjacent cell, activated one step after the wave);
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

from ..errors import WrongHoleCountError
from ..grid import Configuration, Position, boundary_condition
from .line import LineSynchronizer
from .transcript import FiringTranscript

# Diagonal-layer tokens: the wave D plus its advance and detour couriers.
_D, _DE, _DN, _DE2, _DE3, _DN2, _DN3 = "D de dn de2 de3 dn2 dn3".split()


def _diag_layer(cfg: Configuration) -> dict[Position, int]:
    """First arrival time of the diagonal wave at each diagonal node."""
    w = cfg.size
    arrivals: dict[Position, int] = {}
    current: dict[Position, set[str]] = {Position(0, 0): {_D}}
    arrivals[Position(0, 0)] = 0
    horizon = 2 * w + 1
    for t in range(horizon):
        nxt: dict[Position, set[str]] = {}

        def emit(p: Position, token: str) -> None:
            if cfg.is_node(p):
                nxt.setdefault(p, set()).add(token)

        for p, tokens in current.items():
            east, north = p + (1, 0), p + (0, 1)
            for token in tokens:
                if token == _D:
                    emit(east, _DE)
                    emit(north, _DN)
                elif token == _DE:
                    if cfg.is_node(north):
                        emit(north, _D)
                    elif cfg.in_square(north):  # diagonal cell ahead is the hole
                        emit(east, _DE2)
                elif token == _DE2:
                    emit(north, _DE3)
                elif token == _DE3:
                    emit(north, _D)
                elif token == _DN:
                    if cfg.is_node(east):
                        emit(east, _D)
                    elif cfg.in_square(east):
                        emit(north, _DN2)
                elif token == _DN2:
                    emit(east, _DN3)
                elif token == _DN3:
                    emit(east, _D)
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
    east-border node (w, j), j < w, sends a westward stamp along row j that
    holes block.  The mirrored signal stamps columns from the north border.
    """
    w = cfg.size
    arrival: dict[Position, int] = {}

    def stamp(p: Position, t: int) -> None:
        if p not in arrival or arrival[p] > t:
            arrival[p] = t

    for j in range(w):  # westward stamps of row j, start (w, j) at time w + j
        t = w + j
        for x in range(w, -1, -1):
            p = Position(x, j)
            if p in cfg.holes:
                break
            stamp(p, t)
            t += 1
    for i in range(w):  # southward stamps of column i, start (i, w) at w + i
        t = w + i
        for y in range(w, -1, -1):
            p = Position(i, y)
            if p in cfg.holes:
                break
            stamp(p, t)
            t += 1
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
        raise ValueError(f"need w >= 2, got {cfg.size}")
    w = cfg.size

    diag = _diag_layer(cfg)
    sweep = _sweep_layer(cfg)

    line_fire: dict[Position, int] = {}
    for d_cell, t_arr in diag.items():
        for step in (Position(1, 0), Position(0, 1)):
            general = d_cell + step
            if general[0] > w or general[1] > w or not cfg.is_node(general):
                continue
            cells = _line_segment(cfg, general, step)
            run = LineSynchronizer(len(cells), t_arr + 1).run()
            for cell, ft in zip(cells, run.fire_times):
                line_fire[cell] = ft

    pre_fire: dict[Position, int] = {}
    for cell, ft in line_fire.items():
        if cell in sweep and sweep[cell] <= ft:
            pre_fire[cell] = ft

    corner_patch: dict[Position, int] = {}
    fire: dict[Position, int | None] = {}
    for v in cfg.nodes():
        candidates = []
        for u in (v, v + (1, 0), v + (0, 1), v + (-1, 0), v + (0, -1)):
            if u in pre_fire:
                candidates.append(pre_fire[u] + 1)
        if v in diag and boundary_condition(cfg, v) == (0, 0, 1, 1):
            corner_patch[v] = diag[v]  # far-corner patch fires on wave arrival
            candidates.append(diag[v])
        fire[v] = min(candidates) if candidates else None

    return FiringTranscript(
        fire,
        horizon=2 * w,
        diagnostics={
            "diag_arrivals": diag,
            "sweep_arrivals": sweep,
            "line_fire": line_fire,
            "pre_fire": pre_fire,
            "corner_patch": corner_patch,
        },
    )
