"""Barrier-shape enumeration and the worst-case excess constants c_k.

A barrier shape is a W x H hole grid in which every row and every column
contains a hole, detached from any particular configuration.  For a node p
of the shape, d0/d1 are shortest-path lengths from the northwest/southeast
corners of the one-cell-enlarged rectangle, and the shape's worst-case
contribution to the through-corner time bound is

    e_max = (-W - H - 2 + d0 + d1) / 2,

maximised over all shapes with at most k holes to give c_k.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import or_
from typing import Iterable, Iterator

from .errors import (
    BudgetExceededError,
    CheckpointMismatchError,
    ParseError,
    UnreachableError,
    WrongHoleCountError,
)
from .grid import Position, _bfs, _only_ints, _set_bits, layers

logger = logging.getLogger(__name__)

#: The largest k that enumerate_shapes and compute_ck accept.
HARD_MAX_K = 9

#: Reference values (k -> (c_k, shapes, pairs, argmax pairs)) that the
#: enumeration reproduces.  Rows 8 and 9 are checked only by env-gated
#: acceptance tests.
REFERENCE_CK_TABLE: dict[int, tuple[int, int, int, int]] = {
    2: (1, 5, 4, 2),
    3: (1, 29, 80, 34),
    4: (2, 224, 1_324, 16),
    5: (3, 2_220, 22_588, 24),
    6: (4, 26_898, 416_782, 14),
    7: (5, 384_344, 8_397_762, 20),
    8: (6, 6_314_747, 184_619_252, 26),
    9: (7, 117_140_060, 4_411_162_884, 32),
}


def _check_k(k: int, least: int) -> None:
    """BudgetExceededError above HARD_MAX_K, WrongHoleCountError below least."""
    if k > HARD_MAX_K:
        raise BudgetExceededError(f"k={k} exceeds the ceiling HARD_MAX_K={HARD_MAX_K}")
    if k < least:
        raise WrongHoleCountError(f"k must be >= {least}, got {k}")


@dataclass(frozen=True)
class BarrierShape:
    """A W x H grid of cells with a covering hole set."""

    width: int
    height: int
    holes: frozenset[Position]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"a shape is at least 1 x 1, got {self.width} x {self.height}")
        object.__setattr__(self, "holes", frozenset(Position(*h) for h in self.holes))
        for hole in self.holes:
            if not (0 <= hole.x < self.width and 0 <= hole.y < self.height):
                raise ValueError(
                    f"hole {tuple(hole)} lies outside the {self.width} x {self.height} shape"
                )

    @property
    def k(self) -> int:
        return len(self.holes)

    def nodes(self) -> list[Position]:
        return [
            Position(x, y)
            for x in range(self.width)
            for y in range(self.height)
            if Position(x, y) not in self.holes
        ]

    def hole_mask(self) -> int:
        """Row-major bitmask (bit y*W + x), the canonical-ordering key."""
        return sum(1 << (y * self.width + x) for x, y in self.holes)

    def transpose(self) -> "BarrierShape":
        return BarrierShape(
            self.height, self.width, frozenset(Position(y, x) for x, y in self.holes)
        )


@dataclass(frozen=True)
class ShapeEval:
    """d0/d1 and the derived extremal quantities for one (shape, node) pair."""

    d0: int
    d1: int
    e_max: int
    delta_opt: int
    epsilon_opt: int


def _iter_hole_masks(width: int, height: int, k: int,
                     row0: int | None = None) -> Iterator[list[int]]:
    """Covering hole sets of the slab with <= k holes, each as the sum of
    its rows' packed entries (_slab_table), in generation order: one list
    per choice of rows 0 .. max(0, height - 3).  With row0, only the sets
    whose first row is that mask.

    Depth-first over rows, passing the running sum down; prunes on the
    holes left and on column coverage (each remaining hole can cover at
    most one new column).  The sums of the last two rows' completions of
    each (covered columns, holes left) are listed once per call, and a
    node adds its running sum to all of them in one list comprehension.
    """
    packed = _slab_table(width, height)[0]
    full = (1 << width) - 1
    ones = [m.bit_count() for m in range(full + 1)]
    masks_by_count: list[list[int]] = [[] for _ in range(width + 1)]
    for m in range(1, full + 1):
        masks_by_count[ones[m]].append(m)
    tails: dict[tuple[int, int, int], list[int]] = {}

    def step(row: int, left: int, covered: int) -> Iterator[tuple[int, int, int]]:
        """(entry, holes, columns covered) of each mask row `row` can take."""
        most = min(width, left - (height - 1 - row))
        choices: Iterable[int]
        if row == 0 and row0 is not None:
            choices = [row0] if ones[row0] <= most else []
        else:
            choices = chain.from_iterable(masks_by_count[1 : most + 1])
        entries = packed[row]
        for m in choices:
            c = ones[m]
            new_cov = covered | m
            if width - ones[new_cov] <= left - c:
                yield entries[m], c, new_cov

    def tail(row: int, covered: int, left: int) -> list[int]:
        """The sums of rows row.. of every completion, listed once."""
        key = row, covered, left
        if key not in tails:
            if row == height:
                tails[key] = [0] if covered == full else []
            else:
                tails[key] = [
                    entry + t
                    for entry, c, new_cov in step(row, left, covered)
                    for t in tail(row + 1, new_cov, left - c)
                ]
        return tails[key]

    def rec(row: int, left: int, covered: int, acc: int) -> Iterator[list[int]]:
        for entry, c, new_cov in step(row, left, covered):
            if row + 3 < height:  # more than two rows below this one
                yield from rec(row + 1, left - c, new_cov, acc + entry)
            else:
                base = acc + entry
                yield [base + t for t in tail(row + 1, new_cov, left - c)]

    yield from rec(0, k, 0, 0)


def _shape_from_mask(width: int, height: int, mask: int) -> BarrierShape:
    """The shape with row-major hole mask `mask` (bit y * width + x)."""
    holes = frozenset(Position(b % width, b // width) for b in _set_bits(mask))
    return BarrierShape(width, height, holes)


# The enlarged rectangle [-1..W] x [-1..H] of a W x H shape is a free mask
# (grid's free-mask engine) of stride H + 3: cell (x, y) is bit
# (x + 1) * stride + y + 1, and every column ends in a zero guard bit.  Bit
# order is the order of x, then y.  Its NW corner (-1, H) is bit H + 1 and
# its SE corner (W, -1) is bit (W + 1) * stride.


def _corner_bits(width: int, height: int) -> tuple[int, int, int]:
    """(stride, NW corner mask, SE corner mask) of the enlarged rectangle."""
    stride = height + 3
    return stride, 1 << height + 1, 1 << (width + 1) * stride


def enumerate_shapes(k: int) -> Iterator[BarrierShape]:
    """Every barrier shape with at most k holes, each exactly once.

    Raw grids: transposes and reflections are distinct shapes.  Shapes whose
    nodes cannot all reach the surrounding hole-free ring are excluded: a
    hole-enclosed pocket of nodes cannot occur inside a connected
    configuration.  The NW corner's layers cover every free cell exactly
    when no node is sealed off.
    """
    _check_k(k, 1)
    for width in range(1, k + 1):
        for height in range(1, k + 1):
            stride, nw_corner, _ = _corner_bits(width, height)
            _, slot, images, full, _ = _slab_table(width, height)
            low, top = (1 << slot) - 1, images * slot
            for shape in chain.from_iterable(_iter_hole_masks(width, height, k)):
                free = full ^ shape >> top
                if reduce(or_, layers(free, stride, nw_corner)) == free:
                    yield _shape_from_mask(width, height, shape & low)


def d0_d1(shape: BarrierShape, p: tuple[int, int]) -> tuple[int, int]:
    """Shortest-path lengths from the enlarged rectangle's NW and SE corners to p."""
    p = Position(*p)
    if p in shape.holes or not (0 <= p.x < shape.width and 0 <= p.y < shape.height):
        raise UnreachableError(f"{tuple(p)} is not a node of the shape")
    stride, nw_corner, se_corner = _corner_bits(shape.width, shape.height)
    # Column masks minus the holes, joined with guard bits off: linear in the cells.
    columns = [(1 << shape.height + 2) - 1] * (shape.width + 2)
    for h in shape.holes:
        columns[h.x + 1] &= ~(1 << h.y + 1)
    free = int("".join(format(c, f"0{stride}b") for c in reversed(columns)), 2)
    bit = (p.x + 1) * stride + p.y + 1
    d0, d1 = (_bfs(free, stride, corner)[bit] for corner in (nw_corner, se_corner))
    if d0 < 0 or d1 < 0:
        raise UnreachableError(f"{tuple(p)} unreachable inside the enlarged rectangle")
    return d0, d1


def e_of(shape: BarrierShape, p: tuple[int, int], delta: int) -> int:
    """min(delta - H - 1 + d0, -delta - W - 1 + d1) for the given diagonal offset."""
    return _e(shape, *d0_d1(shape, p), delta)


def _e(shape: BarrierShape, d0: int, d1: int, delta: int) -> int:
    return min(delta - shape.height - 1 + d0, -delta - shape.width - 1 + d1)


def evaluate(shape: BarrierShape, p: tuple[int, int]) -> ShapeEval:
    """d0/d1, e_max, delta_opt and epsilon_opt for one node of the shape."""
    p = Position(*p)
    d0, d1 = d0_d1(shape, p)
    total = -shape.width - shape.height - 2 + d0 + d1
    delta_opt = (-shape.width + shape.height - d0 + d1) // 2
    if total % 2 or _e(shape, d0, d1, delta_opt) != total // 2:
        raise AssertionError(f"parity or delta_opt identity fails for {shape} at {tuple(p)}")
    return ShapeEval(d0, d1, total // 2, delta_opt, delta_opt + p.x - p.y)


@dataclass(frozen=True)
class CkResult:
    k: int
    c_k: int
    shape_count: int
    pair_count: int
    argmax_pairs: tuple[tuple[BarrierShape, Position], ...]

    @property
    def argmax_pair_count(self) -> int:
        return len(self.argmax_pairs)

    def matches_reference(self) -> bool:
        ref = REFERENCE_CK_TABLE.get(self.k)
        return ref == (self.c_k, self.shape_count, self.pair_count, self.argmax_pair_count)


ScanResult = tuple[int, int, int, list[tuple[int, int, int]]]

#: Format version of checkpoint records; bump when the record layout changes.
CHECKPOINT_VERSION = 4


def _group_maps(width: int, height: int) -> list:
    """The group {id, rot180, transpose, anti-transpose} on the (width, height)
    slab: each map (x, y) -> (x', y') with the slab it maps onto."""
    return [
        ((width, height), lambda x, y: (x, y)),
        ((width, height), lambda x, y: (width - 1 - x, height - 1 - y)),
        ((height, width), lambda x, y: (y, x)),
        ((height, width), lambda x, y: (height - 1 - y, width - 1 - x)),
    ]


@lru_cache(maxsize=1)  # a slab's tasks arrive one after another
def _slab_table(width: int, height: int) -> tuple[list[list[int]], int, int, int, int]:
    """One slab's packed row table, with (packed, slot, images, full, inner).

    packed[y][m] packs, for the holes of row mask m in row y, slots of
    `slot` bits each: slot i < images holds the row-major hole bits of the
    image under the i-th group map that keeps the slab (slot 0 the shape
    itself), and slot `images` the hole bits of the enlarged rectangle.  A
    slot is wider than both, and two rows' bits are disjoint in each, so a
    shape is the sum of its rows' entries and no slot carries into the
    next.  full is every cell of the enlarged rectangle, inner the slab's.
    """
    stride = height + 3
    slot = (width + 3) * stride + 1
    maps = [f for slab, f in _group_maps(width, height) if slab == (width, height)]
    images = len(maps)
    packed = []
    for y in range(height):
        cells = []  # cells[x]: the entry of the one hole (x, y)
        for x in range(width):
            bits = [py * width + px for px, py in (f(x, y) for f in maps)]
            bits.append((x + 1) * stride + y + 1)
            cells.append(sum(1 << i * slot + b for i, b in enumerate(bits)))
        row = [0] * (1 << width)
        for m in range(1, 1 << width):
            low = m & -m
            row[m] = row[m ^ low] | cells[low.bit_length() - 1]
        packed.append(row)
    column = (1 << height + 2) - 1
    full = sum(column << x * stride for x in range(width + 2))
    inner = sum(column >> 2 << x * stride + 1 for x in range(1, width + 1))
    return packed, slot, images, full, inner


def _at_least(nw: list[int], se: list[int], n: int) -> int:
    """The cells with d0 + d1 >= n, from the NW corner's layers (nw[i] at
    d0 = i) and the SE corner's balls (se[j] at d1 <= j): layer i less
    ball n - 1 - i.  Balls past the last are every cell."""
    out = reduce(or_, nw[n:], 0)
    for i in range(max(n - len(se), 0), min(n, len(nw))):
        out |= nw[i] & ~se[n - 1 - i]
    return out


#: Shapes flooded at once by _scan_shapes, one lane of a packed int each.
#: On k = 6 and 7, 32 to 128 lanes ran within a few percent of each other.
_LANES = 64


def _representatives(width: int, height: int, k: int,
                     row0: int | None) -> Iterator[tuple[int, int, int]]:
    """(row-major hole mask, distinct images, free mask) of each shape that
    is the smallest row-major hole mask of its orbit, in generation order:
    slot 0 of its packed sum against the other image slots."""
    _, slot, images, full, _ = _slab_table(width, height)
    low, top = (1 << slot) - 1, images * slot

    def pick(sums: list[int]) -> list[tuple[int, int, int]]:
        if images == 2:
            return [
                (a, 1 + (a != b), full ^ v >> top)
                for v in sums
                if (a := v & low) <= (b := v >> slot & low)
            ]
        return [
            (a, len({a, b, c, d}), full ^ v >> top)
            for v in sums
            if (a := v & low) <= (b := v >> slot & low)
            and a <= (c := v >> 2 * slot & low)
            and a <= (d := v >> 3 * slot & low)
        ]

    return chain.from_iterable(map(pick, _iter_hole_masks(width, height, k, row0)))


def _scan_shapes(width: int, height: int, k: int, row0: int | None) -> ScanResult:
    """Scan one (width, height) slab, width <= height: (shapes, pairs, best, reps).

    e2 = 2 e_max is invariant under rot180, transpose and anti-transpose:
    each map swaps the NW and SE corners of the enlarged rectangle, so d0
    and d1 swap.  Only the shape with the smallest row-major hole mask in
    its orbit under the group maps that keep the slab grows the two corner
    searches.  Its shapes and pairs count once per distinct image, so the
    counts equal a scan of every raw shape of the slab, and of the
    (height, width) slab by transpose.  A rep (mask, x, y) is a
    representative's argmax node; _orbit_keys gives its images in both
    slabs.

    best is the largest e2 = d0 + d1 - corners so far.  d0 + d1 reads
    exactly `corners` on the ring (Manhattan distances there) and no less
    at a node, and it has the parity of `corners` everywhere (the grid is
    bipartite), so e2 is even.

    Up to _LANES representatives are flooded at once.  Each is a lane of
    one packed int: its enlarged rectangle and a zero padding column, which
    stops the steps of +-stride between lanes as the guard bits stop those
    of +-1, so one `layers` step advances every lane.  A batch asks for the
    inner cells at e2 >= max(best, 0), best as the batch starts, and steps
    e2 up by 2 while any lane has cells left; a lane's top e2 is the last
    level that holds its cells, and those cells are its top.  The lanes are
    then taken in generation order, as one shape at a time would be: a
    sealed lane is no shape, and a top below the running best, which only
    rises, is one that a threshold at that best would not have found.
    """
    stride, nw_corner, se_corner = _corner_bits(width, height)
    corners = width + height + 2
    inner = _slab_table(width, height)[4]
    lane = (width + 3) * stride
    lane_mask = (1 << lane) - 1
    shapes = pairs = 0
    best = -1
    reps: list[tuple[int, int, int]] = []
    pending = _representatives(width, height, k, row0)
    while batch := list(islice(pending, _LANES)):
        offsets = range(0, len(batch) * lane, lane)
        unit = sum(1 << off for off in offsets)
        free = sum(rep[2] << off for rep, off in zip(batch, offsets))
        nw = list(layers(free, stride, nw_corner * unit))
        sealed = free ^ reduce(or_, nw)  # nodes no ring cell reaches
        se = list(accumulate(layers(free, stride, se_corner * unit), or_))
        inners = inner * unit
        floor = max(best, 0)
        levels = []  # levels[i]: every lane's inner cells at e2 >= floor + 2 i
        while level := _at_least(nw, se, corners + floor + 2 * len(levels)) & inners:
            levels.append(level)
        for (image, weight, shape_free), off in zip(batch, offsets):
            if sealed >> off & lane_mask:
                continue
            shapes += weight
            pairs += weight * (shape_free & inner).bit_count()
            e2 = floor + 2 * len(levels)
            for level in reversed(levels):
                e2 -= 2
                if top := level >> off & lane_mask:
                    break
            else:
                continue  # no cell at e2 >= floor
            if e2 < best:
                continue
            if e2 > best:
                best = e2
                reps = []
            reps += [(image, b // stride - 1, b % stride - 1) for b in _set_bits(top)]
    return shapes, pairs, best, reps


def _orbit_keys(width: int, height: int, mask: int, x: int, y: int) -> set:
    """Every image (W', H', mask', x', y') of the (width, height) shape with
    row-major hole mask `mask` and its node (x, y) under the group maps."""
    holes = [(b % width, b // width) for b in range(width * height) if mask >> b & 1]
    return {
        (w, h, sum(1 << (py * w + px) for px, py in (f(*c) for c in holes)), *f(x, y))
        for (w, h), f in _group_maps(width, height)
    }


def _tasks(k: int) -> list[tuple[int, int, int]]:
    """compute_ck's tasks (w, h, row0) in scan order: every W <= H slab and
    every nonzero first row that leaves a hole for each of the h - 1 rows
    above it."""
    return [
        (w, h, row0)
        for w in range(1, k + 1)
        for h in range(w, k + 1)
        for row0 in range(1, 1 << w)
        if row0.bit_count() <= k - (h - 1)
    ]


def _check_record_ranges(w: int, h: int, row0: int, shapes: int, pairs: int,
                         best: int, reps: list) -> None:
    """Raise ValueError unless a record of task (w, h, row0) holds values a
    scan of it can return: counts >= 0, best -1 (exactly when there are no
    reps) or even, and each rep a hole mask of the slab with that first row
    and a node (x, y) of it."""
    if shapes < 0 or pairs < 0:
        raise ValueError("a count is negative")
    if not (best == -1 or best >= 0 and best % 2 == 0) or (best == -1) != (not reps):
        raise ValueError(f"best {best} is not -1 or even, or does not fit {len(reps)} reps")
    for mask, x, y in reps:
        if not (0 <= x < w and 0 <= y < h and 0 <= mask < 1 << w * h):
            raise ValueError(f"rep {[mask, x, y]} is outside the {w}x{h} slab")
        if mask & (1 << w) - 1 != row0 or mask >> y * w + x & 1:
            raise ValueError(f"rep {[mask, x, y]} has another first row or a hole at its node")


def _load_checkpoint(path: str, k: int) -> dict[tuple[int, int, int], ScanResult]:
    """Completed (w, h, row0) tasks of a checkpoint file written for this k.

    A last line without its newline is an interrupted write: it is dropped
    and the file is cut back to the last newline, so its task is rescanned.
    A record for another k or format version fails closed, and so does a
    record of this k and version with a missing, non-integer or
    out-of-range field, or for a task compute_ck does not run.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    end = data.rfind(b"\n") + 1
    tasks = set(_tasks(k))
    done = {}
    for n, line in enumerate(data[:end].decode("utf-8", "replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            version, rec_k = doc.get("v"), doc.get("k")
            if (version, rec_k) == (CHECKPOINT_VERSION, k):  # else fail closed below
                task = doc["w"], doc["h"], doc["row0"]
                counts = doc["shapes"], doc["pairs"], doc["best"]
                reps = [tuple(rep) for rep in doc["arg"]]
                if any(len(rep) != 3 for rep in reps) or not _only_ints(chain(task, counts, *reps)):
                    raise ValueError("a field is not an integer or a rep is not [mask, x, y]")
                if task not in tasks:
                    raise ValueError(f"no task {task} for k={k}")
                _check_record_ranges(*task, *counts, reps)
                done[task] = (*counts, reps)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"{path}:{n}: malformed checkpoint record: {exc}") from exc
        if (version, rec_k) != (CHECKPOINT_VERSION, k):
            raise CheckpointMismatchError(
                f"{path}:{n}: record for k={rec_k}, version {version}; this run is "
                f"k={k}, version {CHECKPOINT_VERSION}. Use a fresh checkpoint file"
            )
    if end < len(data):
        os.truncate(path, end)
    return done


def _append_checkpoint(path: str, k: int, task: tuple[int, int, int], result: ScanResult) -> None:
    shapes_n, pairs_n, best, reps = result
    record = {"v": CHECKPOINT_VERSION, "k": k, "w": task[0], "h": task[1], "row0": task[2],
              "shapes": shapes_n, "pairs": pairs_n, "best": best,
              "arg": [list(rep) for rep in reps]}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


@lru_cache(maxsize=None)  # a few dozen (w, h, k, used) per k; repeated rows pay once
def _task_shapes(width: int, height: int, k: int, used: int) -> int:
    """How many row masks _iter_hole_masks(width, height, k, row0) yields
    for a first row row0 of `used` holes, counted without listing them: the
    rows after the first are nonempty, hold at most k - used holes in all,
    and cover the columns row0 leaves open.  Inclusion-exclusion over the
    open columns left uncovered; with c columns allowed, the coefficients of
    ((1 + x)^c - 1)^(height - 1) count the rows by holes."""
    left = k - used
    total = 0
    for j in range(width - used + 1):
        row = [comb(width - j, t) for t in range(min(width - j, left) + 1)]
        ways = [1] + [0] * left  # ways[i]: the rows so far, with i holes
        for _ in range(height - 1):
            ways = [
                sum(ways[i - t] * row[t] for t in range(1, min(i, len(row) - 1) + 1))
                for i in range(left + 1)
            ]
        total += (-1) ** j * comb(width - used, j) * sum(ways)
    return total


def compute_ck(k: int, jobs: int = 1, checkpoint: str | None = None) -> CkResult:
    """Exact maximum of e_max over all (shape, node) pairs, with counts.

    The shape space is partitioned into (W, H) slabs.  Only slabs with
    W <= H are scanned, one shape per symmetry orbit (_scan_shapes); a
    W < H result counts twice, once for its transpose in the (H, W) slab.
    A task, the same for any jobs, is one scanned slab and one first-row
    hole mask: one _scan_shapes call, run in a pool of at most jobs
    processes, and one checkpoint record (k, w, h, row0, counts, reps) to
    resume from at any jobs.  Only the reps at the best e2 are expanded
    into argmax pairs (_orbit_keys), once.  Each task this run finishes
    logs one INFO record: tasks done of this run's total, the task, the time
    elapsed and an ETA from the time per unit of task weight so far.
    """
    _check_k(k, 2)  # smaller k admit no node pairs
    done = _load_checkpoint(checkpoint, k) if checkpoint else {}
    tasks = _tasks(k)
    todo = [task for task in tasks if task not in done]
    workers = min(jobs, len(todo))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
    # Tasks grow from small slabs to large ones, so the ETA weighs each by
    # its shapes, plus one for its fixed cost.  On k = 7 at jobs 1 it read
    # 0.8-1.4x the time left from 10% to 90% of the run; one weight per
    # task read 0.1-0.4x.
    weights = [1 + _task_shapes(w, h, k, row0.bit_count()) for w, h, row0 in todo]
    total = left = sum(weights)
    start = time.perf_counter()
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        columns = [t[0] for t in todo], [t[1] for t in todo], repeat(k), [t[2] for t in todo]
        scanned = (pool.map if pool else map)(_scan_shapes, *columns)
        for n, (task, weight, result) in enumerate(zip(todo, weights, scanned), 1):
            done[task] = result
            if checkpoint:
                _append_checkpoint(checkpoint, k, task, result)
            left -= weight
            elapsed = time.perf_counter() - start
            logger.info(
                "k=%d: task %d/%d (w=%d, h=%d, row0=%d) done, %.2f s elapsed, ETA %.2f s",
                k, n, len(todo), *task, elapsed, elapsed * left / (total - left),
            )

    results = [(w, h, done[w, h, row0]) for w, h, row0 in tasks]
    shape_count = sum((2 if w < h else 1) * r[0] for w, h, r in results)
    pair_count = sum((2 if w < h else 1) * r[1] for w, h, r in results)
    best = max(r[2] for _, _, r in results)
    if best < 0 or best % 2:
        raise AssertionError("no evaluable pairs or parity violation")
    at_best = [(w, h, rep) for w, h, r in results if r[2] == best for rep in r[3]]
    arg_keys = sorted(set().union(*(_orbit_keys(w, h, *rep) for w, h, rep in at_best)))
    argmax = tuple(
        (_shape_from_mask(w, h, mask), Position(px, py)) for w, h, mask, px, py in arg_keys
    )
    return CkResult(k, best // 2, shape_count, pair_count, argmax)


def ck_bounds(k: int) -> tuple[int, int]:
    """Analytic (lower, upper) bounds k-2 <= c_k <= k^2 + 4k, for k >= 3."""
    if k < 3:
        raise ValueError(f"bounds hold for k >= 3, got {k}")
    return k - 2, k * k + 4 * k


def h_threshold(k: int) -> int:
    """Smallest w for which the worst-case time 2w + c_k is exact."""
    return -(-(k * k + 7 * k + 5) // 2)  # ceil((k^2+7k+5)/2)


def h_kw(k: int, w: int) -> int | None:
    """2w + c_k when w is above the exactness threshold, else None (unknown).

    c_k is read from REFERENCE_CK_TABLE, whose rows compute_ck reproduces.
    """
    if k < 2:
        raise ValueError(f"h_kw needs k >= 2, got {k}")
    if w < h_threshold(k):
        return None
    _check_k(k, 2)
    return 2 * w + REFERENCE_CK_TABLE[k][0]
