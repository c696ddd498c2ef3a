import concurrent.futures
import itertools
import random
from collections import deque

import pytest

from fssp_holes.barriers import Rect, is_barrier
from fssp_holes.grid import Configuration, validate


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


@pytest.fixture
def rng():
    return random.Random(20829)


@pytest.fixture
def no_process_pool(monkeypatch):
    """Starting a process pool fails the test instead of forking workers."""

    def refuse(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
