"""Core geometry: positions, configurations, distances, patterns.

Every grid distance runs on one cell encoding, the free mask: node (x, y)
is bit x * stride + y of one big int.  _bfs turns a free mask into a full
distance field indexed by bit (distance_grid, validate), and the layer
engine (layers, ball, radius, walk_mask) answers threshold questions with a
few big-int operations per BFS layer, per configuration or per enlarged
barrier-shape rectangle (the shape scan of shapes).

Coordinates follow one convention everywhere: origin (0, 0) at the general
in the southwest corner, x grows to the east, y grows to the north.  A
configuration of size w lives on the (w+1) x (w+1) square of positions
S_w = {0..w} x {0..w}; holes are interior positions with no automaton copy.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

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

#: Largest square size a configuration file may ask for.  validate builds a
#: free mask and a distance list of (w+1)(w+2) cells, so an unbounded size
#: from a few bytes of input would cost time and memory growing as w^2.
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

BoundaryCondition = tuple[int, int, int, int]


@dataclass(frozen=True)
class Configuration:
    """A square of side w with an immutable set of interior holes.

    Instances are only built through :func:`validate`, which enforces the
    three invariants (boundary hole-free, at most (w-1)^2 holes, connectedness).
    """

    size: int
    holes: frozenset[Position]

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

    def index(self, p: Position) -> int:
        """p's bit in free_mask(self), and its entry in a distance_grid field."""
        return p[0] * (self.size + 2) + p[1]

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
    # One flood fill from the general (bit 0); compare reached count with the
    # node count.  Uncached: distance_grid's cache is for fields read again.
    dist = _bfs(free_mask(cfg), size + 2, 1)
    if len(dist) - dist.count(-1) != (size + 1) ** 2 - len(hs):
        witness = next(p for p in cfg.nodes() if dist[cfg.index(p)] < 0)
        raise DisconnectedError(
            f"node {tuple(witness)} unreachable from the general", witness=witness
        )
    return cfg


def mh_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Manhattan distance |ax-bx| + |ay-by|."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


# A field at w = MAX_SIZE holds about 39 MB.  One answer reads few fields
# again: t_of two per configuration, a walk check from the general and the
# three other corners four.  Eight cover that.
@lru_cache(maxsize=8)
def distance_grid(cfg: Configuration, source: Position) -> tuple[int, ...]:
    """Cached BFS distance field from one source node of cfg, indexed by
    cfg.index; -1 at holes and guard bits."""
    s = cfg.size + 2
    return tuple(_bfs(free_mask(cfg), s, node_bit(cfg, source, s)))


# ---------------------------------------------------------------------------
# Free masks: one int per configuration for threshold questions
#
# Node (x, y) is bit x * stride + y, with stride >= w + 2: every column ends
# in a zero guard bit, so bit order is nodes() order, a +-1 step (north,
# south) never wraps into the next column, and a +-stride step moves east or
# west.  _bfs walks these bits one cell at a time; a BFS layer is a few
# big-int operations, which answers "is d <= r?" for every node at once.
#
# A layer costs O(N) bit work for N cells whatever its size, so a search
# that runs past _layer_cap layers (a maze, not a square with a few holes,
# whose searches end within about 2w layers) finishes on one _bfs field
# instead: no query costs more than _layer_cap layers plus one field.


def _layer_cap(stride: int) -> int:
    return 4 * stride


@lru_cache(maxsize=64)
def _square_mask(size: int, stride: int) -> int:
    """Every position of S_size, as bits x * stride + y."""
    column = (1 << (size + 1)) - 1
    return sum(column << x * stride for x in range(size + 1))


def free_mask(cfg: Configuration, stride: int | None = None) -> int:
    """The nodes of cfg as bits x * stride + y; the stride defaults to w + 2.

    Encode two configurations with one stride (at least the larger w + 2)
    to compare them bit by bit.
    """
    s = cfg.size + 2 if stride is None else stride
    if s < cfg.size + 2:
        raise ValueError(f"stride {s} leaves no guard bit for w={cfg.size}")
    holes = bytearray(((cfg.size + 1) * s + 7) // 8)
    for h in cfg.holes:
        i = h.x * s + h.y
        holes[i >> 3] |= 1 << (i & 7)
    return _square_mask(cfg.size, s) & ~int.from_bytes(holes, "little")


def node_bit(cfg: Configuration, p: tuple[int, int], stride: int) -> int:
    """The single-bit mask of node p, or NotANodeError."""
    if not cfg.is_node(p):
        raise NotANodeError(f"{tuple(p)} is not a node of the configuration")
    return 1 << (p[0] * stride + p[1])


def bits_set(mask: int, stride: int, cells: Iterable[tuple[int, int]]) -> list[bool]:
    """Whether each cell's bit is set in mask, in the order of cells.

    One pass over the mask's binary digits, not one shift per cell, which
    would cost time growing as w^4.
    """
    digits = format(mask, "b")[::-1]  # bit i is digits[i]
    return [digits[x * stride + y : x * stride + y + 1] == "1" for x, y in cells]


def layers(free: int, stride: int, start: int) -> Iterator[int]:
    """BFS layers of a free mask from a start mask inside it.

    Layer i holds the nodes at distance i from the nearest start node.  The
    iteration ends at the first empty frontier, so it never runs longer than
    the node count, whatever radius a caller asks for.
    """
    unseen = free & ~start
    frontier = start
    while frontier:
        yield frontier
        frontier = (
            frontier << 1 | frontier >> 1 | frontier << stride | frontier >> stride
        ) & unseen
        unseen ^= frontier


def _bfs(free: int, stride: int, start: int) -> list[int]:
    """BFS distances from the start mask over the free mask, indexed by bit
    and filling whole columns; -1 for a cell off the mask or unreached.

    The one queue BFS of the package: distance_grid, validate, d0_d1 and
    the layer engine's long searches run on it.  Guard bits stop north and
    south steps at the column ends; a padding column after the last, read
    also by negative indices, stops steps off either end of the list.
    """
    n = -(-free.bit_length() // stride) * stride
    # -1 unseen node, -2 off the mask or padding.
    dist = [-1 if c == "1" else -2 for c in format(free, f"0{n + stride}b")[::-1]]
    starts = _set_bits(start)
    for i in starts:
        dist[i] = 0
    queue = deque(starts)
    while queue:
        i = queue.popleft()
        d1 = dist[i] + 1
        if dist[i + 1] == -1:
            dist[i + 1] = d1
            queue.append(i + 1)
        if dist[i - 1] == -1:
            dist[i - 1] = d1
            queue.append(i - 1)
        if dist[i + stride] == -1:
            dist[i + stride] = d1
            queue.append(i + stride)
        if dist[i - stride] == -1:
            dist[i - stride] = d1
            queue.append(i - stride)
    return [d if d >= 0 else -1 for d in dist[:n]]


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_where(flags: list[bool]) -> int:
    """The mask whose bit i is flags[i]."""
    return int("".join(["1" if f else "0" for f in reversed(flags)]) or "0", 2)


def ball(free: int, stride: int, start: int, r: int) -> int:
    """Nodes within distance r of the start mask; empty for r < 0."""
    out = 0
    for d, layer in enumerate(layers(free, stride, start)):
        if d > r:
            break
        if d > _layer_cap(stride):
            return _mask_where([0 <= x <= r for x in _bfs(free, stride, start)])
        out |= layer
    return out


def radius(free: int, stride: int, start: int) -> int:
    """The largest distance from the start mask to a node it reaches."""
    d = -1
    for d, _ in enumerate(layers(free, stride, start)):
        if d > _layer_cap(stride):
            return max(_bfs(free, stride, start))
    return d


def _distance_planes(free: int, stride: int, start: int) -> tuple[int, list[int]] | None:
    """(reached, planes): bit k of node u's distance from the start mask is
    bit u of planes[k], for u in reached.  None past the layer cap.

    About log2(radius) masks hold every distance, where a ball per radius
    would take a mask per layer.
    """
    cap = _layer_cap(stride)
    reached, planes = 0, []
    for d, layer in enumerate(layers(free, stride, start)):
        if d > cap:
            return None
        reached |= layer
        if d >> len(planes):
            planes.append(0)
        rest = d
        while rest:
            low = rest & -rest
            planes[low.bit_length() - 1] |= layer
            rest ^= low
    return reached, planes


def _plane_sum(pa: list[int], pb: list[int]) -> list[int]:
    """Planes of the node-wise sum of two plane-encoded values (ripple carry)."""
    n = max(len(pa), len(pb))
    out, carry = [], 0
    for x, y in zip(pa + [0] * (n - len(pa)), pb + [0] * (n - len(pb))):
        half = x ^ y
        out.append(half ^ carry)
        carry = x & y | carry & half
    out.append(carry)
    return out


def _at_most(planes: list[int], r: int, within: int) -> int:
    """Nodes of within whose plane-encoded value is <= r, for r >= 0."""
    if r >> len(planes):
        return within
    less, equal = 0, within
    for k in reversed(range(len(planes))):
        if r >> k & 1:
            less |= equal & ~planes[k]
            equal &= planes[k]
        else:
            equal &= ~planes[k]
    return less | equal


def walk_mask(free: int, stride: int, a: int, b: int, t: int) -> int:
    """Nodes u on some walk of length <= t from start mask a to start mask b:
    d(a, u) + d(u, b) <= t.  Empty for t < 0."""
    if t < 0:
        return 0
    da = _distance_planes(free, stride, a)
    db = None if da is None else _distance_planes(free, stride, b)
    if db is None:
        fa, fb = _bfs(free, stride, a), _bfs(free, stride, b)
        return _mask_where([0 <= x and 0 <= y and x + y <= t for x, y in zip(fa, fb)])
    (reached_a, pa), (reached_b, pb) = da, db
    return _at_most(_plane_sum(pa, pb), t, reached_a & reached_b)


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


def boundary_condition(cfg: Configuration, v: tuple[int, int]) -> BoundaryCondition:
    """(east, north, west, south) bits: 1 where the neighbor is a node."""
    v = Position(*v)
    if not cfg.is_node(v):
        raise NotANodeError(f"{tuple(v)} is not a node of the configuration")
    return tuple(1 if cfg.is_node(v + d) else 0 for d in DIRECTIONS)  # type: ignore[return-value]


@dataclass(frozen=True)
class Pattern:
    """A region of positions and the holes in it; every other cell of the
    region is a node."""

    domain: frozenset[Position] = frozenset()
    holes: frozenset[Position] = frozenset()

    def __post_init__(self):
        if not self.holes <= self.domain:
            raise ValueError("pattern holes must lie in its domain")


def pattern_of(cfg: Configuration, region: Iterable[tuple[int, int]]) -> Pattern:
    """The pattern of cfg restricted to region (which must lie inside S_w)."""
    domain = frozenset(Position(*p) for p in region)
    for p in domain:
        if not cfg.in_square(p):
            raise OutOfSquareError(f"{tuple(p)} is outside the {cfg.size}-square")
    return Pattern(domain, cfg.holes & domain)


def has_pattern(cfg: Configuration, pattern: Pattern) -> bool:
    """True iff the pattern's domain lies in the square and cfg has exactly
    the pattern's holes in it."""
    domain = pattern.domain
    return all(map(cfg.in_square, domain)) and cfg.holes & domain == pattern.holes


# ---------------------------------------------------------------------------
# File formats


def dump_json(cfg: Configuration) -> str:
    """Canonical JSON document: {"size": w, "holes": [[x, y], ...]}."""
    holes = sorted([h.x, h.y] for h in cfg.holes)
    return json.dumps({"size": cfg.size, "holes": holes}, separators=(", ", ": "))


def _check_max_size(size: int) -> None:
    if size > MAX_SIZE:
        raise SizeTooLargeError(f"size {size} exceeds the maximum {MAX_SIZE}")


def _only_ints(values: Iterable) -> bool:
    """True iff every value is an int: not a bool, a float or a list.

    The one type check of the JSON readers (configurations, plans,
    checkpoints), each of which flattens its fields first.  Linear in the
    number of values.
    """
    return all(type(v) is int for v in values)


def load_json(text: str) -> Configuration:
    try:
        doc = json.loads(text)
        size, holes = doc["size"], [(x, y) for x, y in doc["holes"]]
        if not _only_ints(chain([size], *holes)):
            raise TypeError("size and hole coordinates must be integers")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed configuration JSON: {exc}") from exc
    _check_max_size(size)
    if len(set(holes)) != len(holes):
        raise ParseError("configuration JSON lists a hole more than once")
    return validate(size, holes)


def square_rows(
    cfg: Configuration, mark: Callable[[Position], object], hole: object = "#"
) -> list[list]:
    """The square as rows from y=w down to y=0, each from west to east:
    hole at a hole, mark(p) at a node p.  Every picture of a square draws
    through it."""
    w = cfg.size
    return [
        [hole if Position(x, y) in cfg.holes else mark(Position(x, y)) for x in range(w + 1)]
        for y in range(w, -1, -1)
    ]


def dump_ascii(cfg: Configuration) -> str:
    """ASCII form: "w=<w>" then rows from y=w down to y=0, '.' node '#' hole."""
    rows = ["".join(row) for row in square_rows(cfg, lambda p: ".")]
    return "\n".join([f"w={cfg.size}", *rows]) + "\n"


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
