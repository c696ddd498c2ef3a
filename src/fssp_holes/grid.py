"""Core geometry: positions, configurations, distances, patterns, regions.

Coordinates follow one convention everywhere: origin (0, 0) at the general
in the southwest corner, x grows to the east, y grows to the north.  A
configuration of size w lives on the (w+1) x (w+1) square of positions
S_w = {0..w} x {0..w}; holes are interior positions with no automaton copy.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import (
    BoundaryHoleError,
    DisconnectedError,
    NotANodeError,
    OutOfSquareError,
    ParseError,
    SizeTooLargeError,
    SizeTooSmallError,
    TooManyHolesError,
)

#: Largest square size a configuration file may ask for.  validate builds
#: (w+1)^2-cell lists, so an unbounded size from a few bytes of input would
#: cost time and memory growing as w^2.
MAX_SIZE = 1024


class Position(NamedTuple):
    x: int
    y: int

    def __add__(self, other) -> "Position":  # type: ignore[override]
        return Position(self.x + other[0], self.y + other[1])

    def __sub__(self, other) -> "Position":
        return Position(self.x - other[0], self.y - other[1])


# Neighbor offsets in boundary-condition order: east, north, west, south.
DIRECTIONS = (Position(1, 0), Position(0, 1), Position(-1, 0), Position(0, -1))

NODE = "N"
HOLE = "H"

BoundaryCondition = tuple[int, int, int, int]


@dataclass(frozen=True)
class Configuration:
    """A square of side w with an immutable set of interior holes.

    Instances are only built through :func:`validate`, which enforces the
    three invariants (boundary hole-free, at most (w-1)^2 holes, connectedness).
    """

    size: int
    holes: frozenset[Position]

    def __post_init__(self):
        object.__setattr__(self, "holes", frozenset(Position(*h) for h in self.holes))

    @property
    def k(self) -> int:
        return len(self.holes)

    def in_square(self, p: Position) -> bool:
        return 0 <= p[0] <= self.size and 0 <= p[1] <= self.size

    def is_node(self, p: Position) -> bool:
        return self.in_square(p) and Position(*p) not in self.holes

    def nodes(self) -> Iterable[Position]:
        for x in range(self.size + 1):
            for y in range(self.size + 1):
                p = Position(x, y)
                if p not in self.holes:
                    yield p

    def positions(self) -> Iterable[Position]:
        for x in range(self.size + 1):
            for y in range(self.size + 1):
                yield Position(x, y)

    def index(self, p: Position) -> int:
        return p[0] * (self.size + 1) + p[1]

    def __str__(self) -> str:
        return dump_ascii(self)


V_GEN = Position(0, 0)


def validate(size: int, holes: Iterable[tuple[int, int]]) -> Configuration:
    """Build a Configuration, or raise naming the violated invariant.

    Raises BoundaryHoleError / TooManyHolesError / DisconnectedError, each
    carrying a witness position (the offending hole, or a node the flood
    fill from the general could not reach), or SizeTooSmallError for w < 1.
    """
    if size < 1:
        raise SizeTooSmallError(f"size must be >= 1, got {size}")
    hs = frozenset(Position(*h) for h in holes)
    if len(hs) > (size - 1) ** 2:
        raise TooManyHolesError(
            f"{len(hs)} holes exceed the (w-1)^2 = {(size - 1) ** 2} maximum for w={size}",
            witness=None,
        )
    for h in sorted(hs):
        if not (1 <= h.x <= size - 1 and 1 <= h.y <= size - 1):
            raise BoundaryHoleError(
                f"hole {tuple(h)} is on or outside the boundary of the {size}x{size} square",
                witness=h,
            )
    cfg = Configuration(size, hs)
    # One flood fill from the general; compare reached count with the node
    # count.  Uncached, so the many validate calls of plan checks do not flush
    # distance_grid's cache.
    w1 = size + 1
    dist = _bfs(w1, w1, [h.x * w1 + h.y for h in hs], 0)
    reached = sum(1 for d in dist if d >= 0)
    expected = w1 * w1 - len(hs)
    if reached != expected:
        witness = next(p for p in cfg.nodes() if dist[cfg.index(p)] < 0)
        raise DisconnectedError(
            f"node {tuple(witness)} unreachable from the general", witness=witness
        )
    return cfg


def mh_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Manhattan distance |ax-bx| + |ay-by|."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _bfs(nx: int, ny: int, blocked: list[int], start: int) -> list[int]:
    """BFS distances on the nx x ny grid of cells indexed x * ny + y.

    The one grid BFS of the package: configurations and the enlarged
    rectangles of barrier shapes both run on it.  Blocked cells (holes) and
    cells the search does not reach read -1.
    """
    dist = [-1] * (nx * ny)
    for i in blocked:
        dist[i] = -2
    dist[start] = 0
    queue = deque([start])
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


@lru_cache(maxsize=4096)
def distance_grid(cfg: Configuration, source: Position) -> tuple[int, ...]:
    """Cached BFS distance field from one source node of cfg."""
    if not cfg.is_node(source):
        raise NotANodeError(f"{tuple(source)} is not a node of the configuration")
    w1 = cfg.size + 1
    holes = [h.x * w1 + h.y for h in cfg.holes]
    return tuple(_bfs(w1, w1, holes, source[0] * w1 + source[1]))


def bfs_distance(cfg: Configuration, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Length of a shortest 4-adjacent path through nodes of cfg."""
    a, b = Position(*a), Position(*b)
    if not cfg.is_node(b):
        raise NotANodeError(f"{tuple(b)} is not a node of the configuration")
    d = distance_grid(cfg, a)[cfg.index(b)]
    if d < 0:
        # Cannot happen for a valid Configuration; guards hand-built ones.
        raise NotANodeError(f"{tuple(b)} unreachable from {tuple(a)}")
    return d


def via_distance(
    cfg: Configuration, a: tuple[int, int], c: tuple[int, int], b: tuple[int, int]
) -> int:
    """d_C(a, c) + d_C(c, b)."""
    return bfs_distance(cfg, a, c) + bfs_distance(cfg, c, b)


def boundary_condition(cfg: Configuration, v: tuple[int, int]) -> BoundaryCondition:
    """(east, north, west, south) bits: 1 where the neighbor is a node."""
    v = Position(*v)
    if not cfg.is_node(v):
        raise NotANodeError(f"{tuple(v)} is not a node of the configuration")
    return tuple(1 if cfg.is_node(v + d) else 0 for d in DIRECTIONS)  # type: ignore[return-value]


@dataclass(frozen=True)
class Pattern:
    """A finite partial map from positions to node/hole labels."""

    assignments: frozenset[tuple[Position, str]] = field(default_factory=frozenset)

    @property
    def domain(self) -> frozenset[Position]:
        return frozenset(p for p, _ in self.assignments)

    def holes(self) -> frozenset[Position]:
        return frozenset(p for p, label in self.assignments if label == HOLE)

    def __len__(self) -> int:
        return len(self.assignments)


def pattern_of(cfg: Configuration, region: Iterable[tuple[int, int]]) -> Pattern:
    """The pattern of cfg restricted to region (which must lie inside S_w)."""
    items = []
    for p in region:
        p = Position(*p)
        if not cfg.in_square(p):
            raise OutOfSquareError(f"{tuple(p)} is outside the {cfg.size}-square")
        items.append((p, HOLE if p in cfg.holes else NODE))
    return Pattern(frozenset(items))


def has_pattern(cfg: Configuration, pattern: Pattern) -> bool:
    """True iff every assignment of the pattern agrees with cfg."""
    for p, label in pattern.assignments:
        if label == NODE:
            if not cfg.is_node(p):
                return False
        else:
            if p not in cfg.holes:
                return False
    return True


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


@lru_cache(maxsize=256)
def regions(w: int) -> RegionFamily:
    """Region family of S_w.

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


# ---------------------------------------------------------------------------
# File formats


def dump_json(cfg: Configuration) -> str:
    """Canonical JSON document: {"size": w, "holes": [[x, y], ...]}."""
    holes = sorted([h.x, h.y] for h in cfg.holes)
    return json.dumps({"size": cfg.size, "holes": holes}, separators=(", ", ": "))


def _check_max_size(size: int) -> None:
    if size > MAX_SIZE:
        raise SizeTooLargeError(f"size {size} exceeds the maximum {MAX_SIZE}")


def load_json(text: str) -> Configuration:
    try:
        doc = json.loads(text)
        size, holes = doc["size"], [(x, y) for x, y in doc["holes"]]
        if not all(type(v) is int for v in (size, *sum(holes, ()))):
            raise TypeError("size and hole coordinates must be integers")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed configuration JSON: {exc}") from exc
    _check_max_size(size)
    if len(set(holes)) != len(holes):
        raise ParseError("configuration JSON lists a hole more than once")
    return validate(size, holes)


def dump_ascii(cfg: Configuration) -> str:
    """ASCII form: "w=<w>" then rows from y=w down to y=0, '.' node '#' hole."""
    lines = [f"w={cfg.size}"]
    for y in range(cfg.size, -1, -1):
        lines.append(
            "".join("#" if Position(x, y) in cfg.holes else "." for x in range(cfg.size + 1))
        )
    return "\n".join(lines) + "\n"


def load_ascii(text: str) -> Configuration:
    # Blank lines may surround the grid, but not split it.
    lines = text.splitlines()
    filled = [i for i, ln in enumerate(lines) if ln.strip()]
    lines = lines[filled[0]:filled[-1] + 1] if filled else []
    if not lines or not lines[0].startswith("w=") or not lines[0][2:].strip().isdecimal():
        raise ParseError("ASCII configuration must start with a 'w=<size>' line")
    w = int(lines[0][2:])
    _check_max_size(w)
    rows = lines[1:]
    if len(rows) != w + 1 or any(len(r) != w + 1 for r in rows):
        raise ParseError(f"expected exactly {w + 1} rows of {w + 1} characters")
    holes = []
    for i, row in enumerate(rows):
        y = w - i
        for x, ch in enumerate(row):
            if ch == "#":
                holes.append((x, y))
            elif ch != ".":
                raise ParseError(f"unexpected character {ch!r} in row {i}")
    return validate(w, holes)


def load_config_file(path: str) -> Configuration:
    """Load a configuration from a JSON or ASCII file (sniffed by content)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"configuration file is not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return load_json(text)
    return load_ascii(text)
