import concurrent.futures
import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import pytest

from fssp_holes.barriers import Rect, is_barrier, maximal_barriers
from fssp_holes.errors import (
    FsspError,
    NotANodeError,
    PreconditionViolatedError,
    WrongHoleCountError,
)
from fssp_holes.grid import V_GEN, Configuration, Position, bfs_distance, mh_distance, validate
from fssp_holes.mft2 import region_of
from fssp_holes.shapes import BarrierShape, e_of
from fssp_holes.timebounds import (
    CertificateChain,
    ChainStep,
    _closing_move,
    _outside_cells,
    has_critical_pair,
    planes_outside,
)


def make_random_config(rng: random.Random, w: int, k: int) -> Configuration:
    """A random valid configuration (rejection sampling on connectivity)."""
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    while True:
        holes = rng.sample(cells, k)
        try:
            return validate(w, holes)
        except Exception:
            continue


def all_two_hole_configs(w: int):
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    for a, b in itertools.combinations(cells, 2):
        yield validate(w, [a, b])


def cell_bfs(nx: int, ny: int, blocked: list[int], *starts: int) -> list[int]:
    """BFS distances to the nearest start on the nx x ny grid of cells
    indexed x * ny + y; blocked and unreached cells read -1.

    A reference kernel on explicit cell lists, independent of the library's
    free-mask BFS, for the list-based oracles.
    """
    dist = [-1] * (nx * ny)
    for i in blocked:
        dist[i] = -2
    for i in starts:
        dist[i] = 0
    queue = deque(starts)
    while queue:
        i = queue.popleft()
        d1 = dist[i] + 1
        x, y = divmod(i, ny)
        if x + 1 < nx and dist[i + ny] == -1:
            dist[i + ny] = d1
            queue.append(i + ny)
        if x > 0 and dist[i - ny] == -1:
            dist[i - ny] = d1
            queue.append(i - ny)
        if y + 1 < ny and dist[i + 1] == -1:
            dist[i + 1] = d1
            queue.append(i + 1)
        if y > 0 and dist[i - 1] == -1:
            dist[i - 1] = d1
            queue.append(i - 1)
    for i in blocked:
        dist[i] = -1
    return dist


def maximal_barriers_bruteforce(cfg: Configuration) -> frozenset[Rect]:
    """Enumeration oracle: all barrier rectangles, filtered to maximal ones.

    A barrier has at most k columns and k rows, and its boundary columns and
    rows each contain a hole, so candidate bounds range over hole coordinates.
    Intended for small instances (w <= 25, k <= 12).
    """
    if not cfg.holes:
        return frozenset()
    k = cfg.k
    hole_xs = sorted({h.x for h in cfg.holes})
    hole_ys = sorted({h.y for h in cfg.holes})
    barriers = []
    for i, x0 in enumerate(hole_xs):
        for x1 in hole_xs[i:]:
            if x1 - x0 >= k:
                break
            for j, y0 in enumerate(hole_ys):
                for y1 in hole_ys[j:]:
                    if y1 - y0 >= k:
                        break
                    r = Rect(x0, y0, x1, y1)
                    if is_barrier(cfg, r):
                        barriers.append(r)
    maximal = [
        r
        for r in barriers
        if not any(
            o != r and o.x0 <= r.x0 and o.x1 >= r.x1 and o.y0 <= r.y0 and o.y1 >= r.y1
            for o in barriers
        )
    ]
    return frozenset(maximal)


# ---------------------------------------------------------------------------
# The paper's theorem checks: lemmas behind the library's answers that no
# library path runs, so they live with the tests that check them against the
# library's distance fields.  Corner Manhattan access outside the maximal
# barriers, the in-barrier closed form of T(v, C) against t_of, and the
# appendix distance bound with its four exception geometries.


class NotInBarrierError(FsspError, ValueError):
    code = "NotInBarrier"


class BoundViolatedError(FsspError):
    """A distance-bound violation that matches none of the four exception
    geometries: a counterexample to the appendix theorem, not bad input."""

    code = "BoundViolated"


def barrier_containing(cfg: Configuration, p: tuple[int, int]) -> Rect | None:
    """The maximal barrier containing position p, or None."""
    for r in maximal_barriers(cfg):
        if r.contains(p):
            return r
    return None


def corner_mh_access(cfg: Configuration, corner: tuple[int, int], v: tuple[int, int]) -> bool:
    """True iff v is reachable from the given corner at Manhattan distance.

    Guaranteed true whenever v lies in no maximal barrier.
    """
    w = cfg.size
    if tuple(corner) not in {(0, 0), (0, w), (w, 0), (w, w)}:
        raise NotANodeError(f"{tuple(corner)} is not a corner of the {w}-square")
    return bfs_distance(cfg, corner, v) == mh_distance(corner, v)


def t_formula(cfg: Configuration, v: tuple[int, int]) -> int:
    """Closed-form T(v, C) for a node inside a maximal barrier.

    2w + e_of(shape, p, delta), with the shape, the node's offset p and
    delta = x0 - y0 read off the containing maximal barrier; equals t_of by
    the barrier formula.
    """
    v = Position(*v)
    rect = barrier_containing(cfg, v)
    if rect is None or v in cfg.holes:
        raise NotInBarrierError(f"{tuple(v)} lies in no maximal barrier")
    p = v - Position(rect.x0, rect.y0)
    return 2 * cfg.size + e_of(shape_of_barrier(cfg, rect), p, rect.x0 - rect.y0)


def shape_of_barrier(cfg: Configuration, rect: Rect) -> BarrierShape:
    """The barrier shape obtained by translating rect's holes to the origin."""
    holes = frozenset(
        Position(h.x - rect.x0, h.y - rect.y0) for h in cfg.holes if rect.contains(h)
    )
    return BarrierShape(rect.width, rect.height, holes)


HOLDS = "Holds"


def thm_appendix_check(cfg: Configuration, v: tuple[int, int], v2: tuple[int, int]) -> str:
    """Check mh(gen, v) + d_C(v, v') <= 2w for v in U u V, else name the exception.

    Every violation matches exactly one of the four listed hole/corner
    geometries; a violation matching none would falsify the distance bound
    and raises BoundViolatedError.
    """
    w = cfg.size
    if w < 5 or cfg.k != 2:
        raise PreconditionViolatedError("needs w >= 5 and exactly 2 holes")
    v, v2 = Position(*v), Position(*v2)
    if not cfg.is_node(v) or not cfg.is_node(v2) or region_of(w, v) not in ("U", "V"):
        raise PreconditionViolatedError("v must be a U u V node and v' a node")
    if mh_distance(V_GEN, v) + bfs_distance(cfg, v, v2) <= 2 * w:
        return HOLDS
    h = w // 2
    even = w % 2 == 0
    if cfg.holes == {v + (0, 1), v + (1, 0)} and v2 in {
        Position(w - 1, w),
        Position(w, w - 1),
        Position(w, w),
    }:
        return "Exception1"
    # Exception 3 is Exception 2 (v on the vertical arm of V) with x and y swapped.
    far = {(0, w - 1), (1, w), (0, w)} if even else {(0, w)}
    for name, t in (("Exception2", tuple), ("Exception3", lambda p: (p[1], p[0]))):
        x, y = t(v)
        if x == h and {t(p) for p in cfg.holes} == {(x - 1, y), (x, y + 1)} and t(v2) in far:
            return name
    if (
        even
        and v == (h, h)
        and cfg.holes == {v - (0, 1), v - (1, 0)}
        and v2 in {Position(1, 0), Position(0, 1), Position(0, 0)}
    ):
        return "Exception4"
    raise BoundViolatedError(
        f"distance bound violated outside the four exceptions: v={tuple(v)}, v'={tuple(v2)}, {cfg}"
    )


@dataclass(frozen=True)
class RegionFamily:
    """The U/V/W/X partition of S_w plus the H0/H1/H2 half-plane-like sets."""

    size: int
    U: frozenset[Position]
    V: frozenset[Position]
    W: frozenset[Position]
    X: frozenset[Position]
    H0: frozenset[Position]
    H1: frozenset[Position]
    H2: frozenset[Position]
    v_cnt: Position

    @property
    def UV(self) -> frozenset[Position]:
        return self.U | self.V

    @property
    def UVW(self) -> frozenset[Position]:
        return self.U | self.V | self.W


@lru_cache(maxsize=2)
def regions(w: int) -> RegionFamily:
    """Region family of S_w, as sets of positions: the oracle for
    mft2.region_of and timebounds.planes_outside.

    U u V is the lower-left quadrant up to floor(w/2); W is the L-shaped band
    one step further out, excluding its outer corner exactly when w is even;
    H0/H1/H2 are the x+y <= w+1, x <= floor(w/2)+1 and y <= floor(w/2)+1 sets.
    """
    if w < 2:
        raise ValueError(f"regions need w >= 2, got {w}")
    h = w // 2
    square = [Position(x, y) for x in range(w + 1) for y in range(w + 1)]
    UV = frozenset(p for p in square if p.x <= h and p.y <= h)
    U = frozenset(p for p in UV if p.x <= h - 1 and p.y <= h - 1)
    V = UV - U
    if w % 2 == 0:
        W = frozenset(
            [Position(x, h + 1) for x in range(h + 1)]
            + [Position(h + 1, y) for y in range(h + 1)]
        )
    else:
        W = (
            frozenset(p for p in square if p.x <= h + 1 and p.y <= h + 1)
            - UV
        )
    X = frozenset(square) - UV - W
    H0 = frozenset(p for p in square if p.x + p.y <= w + 1)
    H1 = frozenset(p for p in square if p.x <= h + 1)
    H2 = frozenset(p for p in square if p.y <= h + 1)
    return RegionFamily(w, U, V, W, X, H0, H1, H2, Position(h, h))


def serpentine_maze(w: int) -> Configuration:
    """Holes everywhere inside but one corridor, entered from (1, 2), that
    winds through rows 2, 4, ..., so a search from the boundary runs about
    w^2 / 2 layers."""
    corridor = {(1, 2)}
    rows = list(range(2, w - 1, 2))
    for j, y in enumerate(rows):
        corridor |= {(x, y) for x in range(2, w - 1)}
        if j + 1 < len(rows):
            corridor.add((w - 2, y + 1) if j % 2 == 0 else (2, y + 1))
    return validate(
        w, [(x, y) for x in range(1, w) for y in range(1, w) if (x, y) not in corridor]
    )


def two_pass_certificate_search(
    cfg: Configuration,
) -> tuple[CertificateChain | None, str]:
    """Oracle for certificate_search_report: the same search, with each
    level tested in one pass and expanded in a second.

    Shortest relocation chain and how the search ended.

    The reason is "immediate" (cfg has a critical pair, empty chain),
    "found" or "exhausted" (no chain: every state reachable from cfg was
    searched).  A forward breadth-first search from cfg: each level is
    first tested for a one-move finish, and only then expanded, so the
    chain is a shortest one.  The states reachable from cfg are finite,
    so the search always ends.

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
    level = [start]
    while level:
        for state in level:
            last = _closing_move(w, state)
            if last is not None:
                steps = [last]
                while parent[state] is not None:
                    state, name, moved, target = parent[state]
                    steps.append(ChainStep(name, Position(*moved), Position(*target)))
                return CertificateChain(cfg, tuple(reversed(steps))), "found"
        nxt = []
        for state in level:
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
                            nxt.append(new)
        level = nxt
    return None, "exhausted"


@pytest.fixture
def rng():
    return random.Random(20829)


@pytest.fixture
def no_process_pool(monkeypatch):
    """Starting a process pool fails the test instead of forking workers."""

    def refuse(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
