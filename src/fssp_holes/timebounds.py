"""Firing-time lower bounds: through-corner times, critical pairs, and
machine-checkable hole-relocation certificate chains.

T(v, C) is the smaller of the two general-to-v distances routed through the
far corners (0, w) and (w, 0); its maximum over nodes lower-bounds every
solution's firing time.  For two holes, relocation chains that preserve the
pattern on one of the half-plane-like sets H0/H1/H2 witness 2w+1 lower
bounds by reaching a configuration with a critical pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product

from .errors import (
    NotANodeError,
    SizeMismatchError,
    ValidationError,
    WrongHoleCountError,
)
from .grid import (
    V_GEN,
    Configuration,
    Position,
    bfs_distance,
    distance_grid,
    free_mask,
    node_bit,
    radius,
    validate,
    walk_mask,
)

HALF_PLANES = ("H0", "H1", "H2")

#: Witness node for the pattern-equality theorem, per half-plane.
WITNESS_CORNER = {
    "H0": lambda w: Position(0, 0),
    "H1": lambda w: Position(0, w),
    "H2": lambda w: Position(w, 0),
}


def planes_outside(w: int, p: tuple[int, int]) -> tuple[str, ...]:
    """The names of the H0/H1/H2 sets that the cell p of S_w lies outside.

    With h = floor(w/2): H0 is x + y <= w + 1, H1 is x <= h + 1 and H2 is
    y <= h + 1.
    """
    x, y = p
    h = w // 2
    return tuple(compress(HALF_PLANES, (x + y > w + 1, x > h + 1, y > h + 1)))


def t_of(cfg: Configuration, v: tuple[int, int]) -> int:
    """min over the far corners (0,w), (w,0) of the through-corner distance.

    The border holds no holes, so the general reaches either far corner in
    w steps, and T(v, C) is w plus v's distance to the nearer far corner.
    """
    w = cfg.size
    return w + min(bfs_distance(cfg, (0, w), v), bfs_distance(cfg, (w, 0), v))


def t_field(cfg: Configuration) -> list[int]:
    """T(v, C) of every node v, indexed by cfg.index(v): t_of with each far
    corner's field read once, not once per node.  Holes and guard bits read
    w - 1."""
    w = cfg.size
    fields = distance_grid(cfg, Position(0, w)), distance_grid(cfg, Position(w, 0))
    return [w + min(a, b) for a, b in zip(*fields)]


def max_t(cfg: Configuration) -> int:
    """max_v T(v, C); always at least 2w.

    T(v, C) - w is the distance from v to the nearer far corner, so max_t is
    w plus the smallest r at which the balls of radius r around (0, w) and
    (w, 0) together cover every node: the radius of both corners.
    """
    w = cfg.size
    s = w + 2
    corners = node_bit(cfg, (0, w), s) | node_bit(cfg, (w, 0), s)
    return w + radius(free_mask(cfg), s, corners)


def is_critical(p: tuple[int, int]) -> bool:
    """True for a cell at |x - y| = 2, where the holes of a critical pair sit."""
    return abs(p[0] - p[1]) == 2


def critical_holes(cfg: Configuration) -> frozenset[Position]:
    """Holes at |x - y| = 2."""
    return frozenset(h for h in cfg.holes if is_critical(h))


def has_critical_pair(cfg: Configuration) -> bool:
    """True iff two critical holes sit at offset (1, 1)."""
    crit = critical_holes(cfg)
    return any(h + (1, 1) in crit for h in crit)


def equiv_prime(
    cfg_a: Configuration, cfg_b: Configuration, t: int, v: tuple[int, int]
) -> bool:
    """Walk-wise indistinguishability of the two configurations up to time t at v.

    A node lies on some length-<=t walk from the general to v exactly when
    its two-leg distance sum is <= t; every such node must exist in the other
    configuration with an identical boundary condition, both ways around.

    On free masks of one stride: the reach mask is walk_mask from the
    general to v.  A node's boundary conditions agree exactly when no
    neighbor bit differs between the two masks.
    """
    v = Position(*v)
    if not cfg_a.is_node(v) or not cfg_b.is_node(v):
        raise NotANodeError(f"{tuple(v)} must be a node of both configurations")
    s = max(cfg_a.size, cfg_b.size) + 2
    free_a, free_b = free_mask(cfg_a, s), free_mask(cfg_b, s)
    diff = free_a ^ free_b
    neighbor_differs = diff << 1 | diff >> 1 | diff << s | diff >> s
    gen_bit, v_bit = node_bit(cfg_a, V_GEN, s), node_bit(cfg_a, v, s)
    for src, dst in ((free_a, free_b), (free_b, free_a)):
        reach = walk_mask(src, s, gen_bit, v_bit, t)
        if reach & ~dst or reach & neighbor_differs:
            return False
    return True


def pattern_move_equiv(cfg_a: Configuration, cfg_b: Configuration, plane: str) -> bool:
    """Pattern equality of the two configurations on H0, H1 or H2.

    Both squares have the same size and contain the set, so the patterns
    agree exactly when every hole of one that is not a hole of the other
    lies outside the set.
    """
    if cfg_a.size != cfg_b.size:
        raise SizeMismatchError(
            f"sizes differ: {cfg_a.size} vs {cfg_b.size}"
        )
    if plane not in HALF_PLANES:
        raise ValueError(f"unknown set {plane!r}, expected one of {', '.join(HALF_PLANES)}")
    return all(plane in planes_outside(cfg_a.size, h) for h in cfg_a.holes ^ cfg_b.holes)


@dataclass(frozen=True)
class ChainStep:
    half_plane: str
    moved_from: Position
    moved_to: Position


def _relocate(cfg: Configuration, step: ChainStep) -> Configuration:
    """cfg with the step's hole moved; raises ValidationError if that is invalid."""
    return validate(cfg.size, (cfg.holes - {step.moved_from}) | {Position(*step.moved_to)})


@dataclass(frozen=True)
class CertificateChain:
    """A sequence of pattern-preserving single-hole relocations ending in a
    configuration with a critical pair."""

    initial: Configuration
    steps: tuple[ChainStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> Configuration:
        """The configuration the steps lead to, replayed from initial."""
        cfg = self.initial
        for step in self.steps:
            cfg = _relocate(cfg, step)
        return cfg


def _outside_cells(w: int, name: str) -> list[tuple[int, int]]:
    """The interior cells outside the set H0, H1 or H2, in (x, y) order:
    planes_outside's rule for that set as ranges."""
    h = w // 2
    if name == "H0":
        return [(x, y) for x in range(1, w) for y in range(w + 2 - x, w)]
    if name == "H1":
        return list(product(range(h + 2, w), range(1, w)))
    return list(product(range(1, w), range(h + 2, w)))


def _closing_move(w: int, state) -> ChainStep | None:
    """A move that turns the two-hole state into a critical pair, or None.

    The kept hole must be critical and the other one moves onto an interior
    diagonal neighbor g of it that shares an outside set with the moved
    hole.  The state itself is never a goal (the search stops at the state
    before it), so g is never the moved hole.
    """
    for stay, moved in (state, state[::-1]):
        if is_critical(stay):
            x, y = stay
            moved_out = planes_outside(w, moved)
            for g in ((x - 1, y - 1), (x + 1, y + 1)):
                if 0 < g[0] < w and 0 < g[1] < w:
                    for name in planes_outside(w, g):
                        if name in moved_out:
                            return ChainStep(name, Position(*moved), Position(*g))
    return None


def certificate_search_report(
    cfg: Configuration,
) -> tuple[CertificateChain | None, str]:
    """Shortest relocation chain and how the search ended.

    The reason is "immediate" (cfg has a critical pair, empty chain),
    "found" or "exhausted" (no chain: every state reachable from cfg was
    searched).  Breadth-first from cfg: each state is tested for a
    one-move finish as it is made, in level order, so the first hit ends
    a shortest chain.  The reachable states are finite, so it always ends.

    A move relocates a hole outside one of H0/H1/H2 to any other interior
    cell outside the same set.  All states {stay, x} with x outside a set
    share their moves into that set, so each (kept hole, set) is expanded
    once.
    """
    if cfg.k != 2:
        raise WrongHoleCountError(f"certificate search needs exactly 2 holes, got {cfg.k}")
    if has_critical_pair(cfg):
        return CertificateChain(cfg, ()), "immediate"
    w = cfg.size
    start = tuple(sorted(map(tuple, cfg.holes)))
    parent: dict = {start: None}  # state -> (previous state, *step into it)
    outside: dict = {}  # set name -> _outside_cells(w, name), built on first use
    expanded: set = set()  # (kept hole, set name) whose moves are queued
    last = _closing_move(w, start)
    if last is not None:
        return CertificateChain(cfg, (last,)), "found"
    queue = [start]
    for state in queue:  # FIFO: the loop reaches the states appended to queue
        for moved, stay in (state, state[::-1]):
            for name in planes_outside(w, moved):
                if (stay, name) in expanded:
                    continue
                expanded.add((stay, name))
                if name not in outside:
                    outside[name] = _outside_cells(w, name)
                for target in outside[name]:
                    if target == stay:
                        continue
                    new = (stay, target) if stay < target else (target, stay)
                    if new not in parent:
                        parent[new] = (state, name, moved, target)
                        last = _closing_move(w, new)
                        if last is not None:
                            steps = [last]
                            while new != start:
                                new, name, moved, target = parent[new]
                                steps.append(ChainStep(name, Position(*moved), Position(*target)))
                            return CertificateChain(cfg, tuple(reversed(steps))), "found"
                        queue.append(new)
    return None, "exhausted"


def verify_certificate(chain: CertificateChain, check_equiv: bool = False) -> bool:
    """Replay a chain: validity, half-plane pattern preservation, final pair.

    With check_equiv, additionally confirms the walk-indistinguishability
    relation at t = 2w with the half-plane's witness corner on every step.
    """
    cfg = chain.initial
    w = cfg.size
    for step in chain.steps:
        if step.half_plane not in HALF_PLANES:
            return False
        if step.moved_from not in cfg.holes or step.moved_to in cfg.holes:
            return False
        try:
            nxt = _relocate(cfg, step)
        except ValidationError:
            return False
        # The step's two ends are the holes that differ: both must lie
        # outside the set.
        if not pattern_move_equiv(cfg, nxt, step.half_plane):
            return False
        if check_equiv:
            corner = WITNESS_CORNER[step.half_plane](w)
            if not equiv_prime(cfg, nxt, 2 * w, corner):
                return False
        cfg = nxt
    return has_critical_pair(cfg)
