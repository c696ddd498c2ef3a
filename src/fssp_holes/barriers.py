"""Barriers: rectangles in which every row and every column contains a hole.

The maximal barriers of a configuration are computed by the splitting
algorithm (start from the full interior rectangle and repeatedly delete or
split on hole-free lines).  The tests check it against a naive enumeration
oracle of their own.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .grid import Configuration, Position


@dataclass(frozen=True, order=True)
class Rect:
    """Inclusive rectangle [x0..x1] x [y0..y1]."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"empty rectangle {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    def contains(self, p: tuple[int, int]) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def cells(self) -> Iterable[Position]:
        for x in range(self.x0, self.x1 + 1):
            for y in range(self.y0, self.y1 + 1):
                yield Position(x, y)


def _holes_by(cfg: Configuration, axis: int) -> dict[int, list[int]]:
    """Per line, the sorted other coordinates of its holes: per column
    (x -> ys) for axis 0, per row (y -> xs) for axis 1."""
    lines: dict[int, list[int]] = {}
    for h in sorted(cfg.holes, key=lambda p: (p[axis], p[1 - axis])):
        lines.setdefault(h[axis], []).append(h[1 - axis])
    return lines


def _has_value_in(sorted_vals: list[int] | None, lo: int, hi: int) -> bool:
    if not sorted_vals:
        return False
    i = bisect_left(sorted_vals, lo)
    return i < len(sorted_vals) and sorted_vals[i] <= hi


def _first_free(lines: dict[int, list[int]], lo: int, hi: int, a: int, b: int) -> int | None:
    """The first line of lo..hi with no hole in a..b, or None."""
    return next((i for i in range(lo, hi + 1) if not _has_value_in(lines.get(i), a, b)), None)


def is_barrier(cfg: Configuration, rect: Rect) -> bool:
    """True iff every column and every row of rect contains a hole of cfg."""
    return (
        _first_free(_holes_by(cfg, 0), rect.x0, rect.x1, rect.y0, rect.y1) is None
        and _first_free(_holes_by(cfg, 1), rect.y0, rect.y1, rect.x0, rect.x1) is None
    )


def maximal_barriers(cfg: Configuration) -> frozenset[Rect]:
    """All maximal barriers of cfg, via the splitting algorithm.

    Start from the interior rectangle [1..w-1]^2.  While a rectangle has a
    hole-free column (else row), replace it by the nonempty sides of the
    first such line; a rectangle with none is a maximal barrier.  One rule
    drops a hole-free boundary line, drops a 1-wide hole-free rectangle and
    splits on an inner line.  The result is unique; taking the first line
    merely fixes the execution order.
    """
    if not cfg.holes or cfg.size < 2:
        return frozenset()
    cols, rows = _holes_by(cfg, 0), _holes_by(cfg, 1)
    work = [Rect(1, 1, cfg.size - 1, cfg.size - 1)]
    done: list[Rect] = []
    while work:
        r = work.pop()
        x = _first_free(cols, r.x0, r.x1, r.y0, r.y1)
        y = _first_free(rows, r.y0, r.y1, r.x0, r.x1) if x is None else None
        if x is not None:
            work += [Rect(a, r.y0, b, r.y1) for a, b in ((r.x0, x - 1), (x + 1, r.x1)) if a <= b]
        elif y is not None:
            work += [Rect(r.x0, a, r.x1, b) for a, b in ((r.y0, y - 1), (y + 1, r.y1)) if a <= b]
        else:
            done.append(r)
    return frozenset(done)

