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
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, groupby
from operator import add, getitem
from typing import Iterable, Iterator

from .errors import (
    BudgetExceededError,
    CheckpointMismatchError,
    ParseError,
    UnreachableError,
    WrongHoleCountError,
)
from .grid import Position, _bfs

#: The largest k that enumerate_shapes and compute_ck accept.
HARD_MAX_K = 7

#: Reference values (k -> (c_k, shapes, pairs, argmax pairs)) that the
#: enumeration reproduces.  Rows 8 and 9 are beyond desk-scale compute and
#: are kept for documentation only.
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
        object.__setattr__(self, "holes", frozenset(Position(*h) for h in self.holes))

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


def _iter_hole_masks(width: int, height: int, k: int, first_masks=None) -> Iterator[tuple[int, ...]]:
    """Row masks (one int per row) of covering hole sets with <= k holes.

    Depth-first over rows; prunes on the holes left and on column coverage
    (each remaining hole can cover at most one new column).  The last row
    takes only masks holding every column not yet covered.
    """
    full = (1 << width) - 1
    ones = [bin(m).count("1") for m in range(full + 1)]
    masks_by_count: list[list[int]] = [[] for _ in range(width + 1)]
    for m in range(1, full + 1):
        masks_by_count[ones[m]].append(m)

    rows: list[int] = []

    def rec(row: int, left: int, covered: int) -> Iterator[tuple[int, ...]]:
        max_count = min(width, left - (height - row - 1))
        last = row == height - 1
        need = full & ~covered if last else 0
        choices: Iterable[int]
        if row == 0 and first_masks is not None:
            choices = [m for m in first_masks if ones[m] <= max_count]
        else:
            choices = chain.from_iterable(masks_by_count[max(1, ones[need]) : max_count + 1])
        if last:
            for m in choices:
                if m & need == need:
                    yield (*rows, m)
            return
        for m in choices:
            c = ones[m]
            new_cov = covered | m
            if width - ones[new_cov] > left - c:
                continue
            rows.append(m)
            yield from rec(row + 1, left - c, new_cov)
            rows.pop()

    yield from rec(0, k, 0)


def _shape_from_rows(width: int, height: int, row_masks: tuple[int, ...]) -> BarrierShape:
    holes = frozenset(
        Position(x, y)
        for y, m in enumerate(row_masks)
        for x in range(width)
        if m >> x & 1
    )
    return BarrierShape(width, height, holes)


def _enlarged_holes(shape: BarrierShape) -> list[int]:
    """Hole indices in the enlarged rectangle [-1..W] x [-1..H]."""
    hy = shape.height + 2
    return [(x + 1) * hy + y + 1 for x, y in shape.holes]


def _all_nodes_reach_ring(nw: list[int], n_holes: int) -> bool:
    """True iff no node of the shape is sealed off from the surrounding ring.

    A shape with a hole-enclosed pocket of nodes cannot occur inside a
    connected configuration, so it is not a member of the shape space.
    nw is any distance field of the enlarged rectangle from its ring, where
    only holes and unreached nodes read -1.
    """
    return nw.count(-1) == n_holes


def enumerate_shapes(k: int) -> Iterator[BarrierShape]:
    """Every barrier shape with at most k holes, each exactly once.

    Raw grids: transposes and reflections are distinct shapes.  Shapes whose
    nodes cannot all reach the surrounding hole-free ring are excluded.
    """
    _check_k(k, 1)
    for width in range(1, k + 1):
        for height in range(1, k + 1):
            for row_masks in _iter_hole_masks(width, height, k):
                shape = _shape_from_rows(width, height, row_masks)
                holes = _enlarged_holes(shape)
                nw = _bfs(width + 2, height + 2, holes, height + 1)  # from (-1, H)
                if _all_nodes_reach_ring(nw, len(holes)):
                    yield shape


def d0_d1(shape: BarrierShape, p: tuple[int, int]) -> tuple[int, int]:
    """Shortest-path lengths from the enlarged rectangle's NW and SE corners to p."""
    p = Position(*p)
    if p in shape.holes or not (0 <= p.x < shape.width and 0 <= p.y < shape.height):
        raise UnreachableError(f"{tuple(p)} is not a node of the shape")
    wx, hy = shape.width + 2, shape.height + 2
    holes = _enlarged_holes(shape)
    nw = _bfs(wx, hy, holes, hy - 1)  # from (-1, H)
    se = _bfs(wx, hy, holes, (wx - 1) * hy)  # from (W, -1)
    i = (p.x + 1) * hy + (p.y + 1)
    if nw[i] < 0 or se[i] < 0:
        raise UnreachableError(f"{tuple(p)} unreachable inside the enlarged rectangle")
    return nw[i], se[i]


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
    argmax_pair_count: int
    argmax_pairs: tuple[tuple[BarrierShape, Position], ...]

    def matches_reference(self) -> bool:
        ref = REFERENCE_CK_TABLE.get(self.k)
        return ref == (self.c_k, self.shape_count, self.pair_count, self.argmax_pair_count)


ScanResult = tuple[int, int, int, list[tuple[int, int, int, int, int]]]

#: Format version of checkpoint records; bump when the record layout changes.
CHECKPOINT_VERSION = 2


def _slab_maps(width: int, height: int) -> list:
    """The maps (x, y) -> (x', y') of the group {id, transpose, rot180,
    anti-transpose} that keep the (width, height) slab: id and rot180, and
    in a square slab also transpose and anti-transpose."""
    maps = [lambda x, y: (x, y), lambda x, y: (width - 1 - x, height - 1 - y)]
    if width == height:
        maps += [lambda x, y: (y, x), lambda x, y: (height - 1 - y, width - 1 - x)]
    return maps


def _row_table(width: int, height: int, cell) -> list[list[list]]:
    """table[y][m]: cell(x, y) for each hole x of row mask m in row y.

    Lists, not tuples: freed tuples of these small sizes stay on the
    interpreter's free lists and would raise the scan's peak memory.
    """
    return [
        [[cell(x, y) for x in range(width) if m >> x & 1] for m in range(1 << width)]
        for y in range(height)
    ]


def _transpose_mask(mask: int, width: int, height: int) -> int:
    """Row-major hole mask of the transposed shape, (x, y) to (y, x) in slab (H, W)."""
    return sum(
        1 << (x * height + y)
        for y in range(height)
        for x in range(width)
        if mask >> (y * width + x) & 1
    )


def _scan_shapes(width: int, height: int, k: int, first_masks) -> ScanResult:
    """Scan one (width, height) slab, width <= height: (shapes, pairs, best, argmax keys).

    e2 = 2 e_max is invariant under rot180, transpose and anti-transpose:
    each map swaps the NW and SE corners of the enlarged rectangle, so d0
    and d1 swap.  Only the shape with the smallest row-major hole mask in
    its orbit under the maps that keep the slab (_slab_maps) runs the two
    corner BFS.  Its shapes and pairs count once per distinct image, and
    its argmax nodes are expanded into every image, so the result equals a
    scan of every raw shape.  The (height, width) slab's result is _mirror
    of this one.
    """
    nx, ny = width + 2, height + 2
    nw_corner, se_corner = ny - 1, (nx - 1) * ny  # (-1, H) and (W, -1)
    corners = width + height + 2
    area = width * height
    maps = _slab_maps(width, height)
    # Per row and row mask: the image's row-major hole bits under each map,
    # and the hole indices in the enlarged rectangle.
    image_bits = [
        [
            [sum(1 << (py * width + px) for px, py in cells) for cells in row]
            for row in _row_table(width, height, f)
        ]
        for f in maps
    ]
    row_holes = _row_table(width, height, lambda x, y: (x + 1) * ny + y + 1)
    cells = {(x + 1) * ny + y + 1 for x in range(width) for y in range(height)}
    shapes = pairs = 0
    best = -1
    reps: list[tuple[list[int], int]] = []
    for rows in _iter_hole_masks(width, height, k, first_masks):
        images = [sum(map(getitem, bits, rows)) for bits in image_bits]
        if min(images) < images[0]:
            continue  # not the orbit's representative
        holes = list(chain.from_iterable(map(getitem, row_holes, rows)))
        nw = _bfs(nx, ny, holes, nw_corner)
        if not _all_nodes_reach_ring(nw, len(holes)):
            continue
        weight = len(set(images))
        shapes += weight
        if len(holes) == area:
            continue  # no nodes
        pairs += weight * (area - len(holes))
        # d0 + d1 over the whole enlarged rectangle.  It reads exactly
        # `corners` on the ring (Manhattan distances there) and no less at a
        # node, so the maximum is a node's; holes read -2.
        sums = list(map(add, nw, _bfs(nx, ny, holes, se_corner)))
        top = max(sums)
        if top - corners < best:
            continue
        if top - corners > best:
            best = top - corners
            reps = []
        reps += [(images, i) for i, s in enumerate(sums) if s == top and i in cells]
    keys = {
        (width, height, mask, *f(i // ny - 1, i % ny - 1))
        for images, i in reps
        for mask, f in zip(images, maps)
    }
    return shapes, pairs, best, sorted(keys)


def _mirror(result: ScanResult) -> ScanResult:
    """The (H, W) slab's result from the (W, H) one: the transpose maps one
    slab onto the other, so the counts are equal and the argmax keys transpose."""
    shapes_n, pairs_n, best, arg = result
    return shapes_n, pairs_n, best, sorted(
        (h, w, _transpose_mask(mask, w, h), y, x) for w, h, mask, x, y in arg
    )


def _scan_task(args) -> ScanResult:
    return _scan_shapes(*args)


def _merge(results: Iterable[ScanResult]) -> ScanResult:
    """Sum the counts of scan results and keep the argmax keys of the best e2."""
    results = list(results)
    best = max((r[2] for r in results), default=-1)
    arg = sorted(key for r in results if r[2] == best for key in r[3])
    return sum(r[0] for r in results), sum(r[1] for r in results), best, arg


def _slab_tasks(width: int, height: int, k: int, jobs: int) -> list[tuple]:
    """Split one slab by its row-0 hole mask into about 2 * jobs scan tasks."""
    first = [m for m in range(1, 1 << width) if bin(m).count("1") <= k - (height - 1)]
    step = max(1, len(first) // (2 * jobs))
    return [(width, height, k, first[i : i + step]) for i in range(0, len(first), step)]


def _load_checkpoint(path: str, k: int) -> dict[tuple[int, int], ScanResult]:
    """Completed slabs of a checkpoint file written for this k.

    A last line without its newline is an interrupted write: it is dropped
    and the file is cut back to the last newline, so its slab is recomputed.
    A record for another k or format version fails closed.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    end = data.rfind(b"\n") + 1
    done = {}
    for n, line in enumerate(data[:end].decode("utf-8", "replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            version, rec_k, slab = doc.get("v"), doc.get("k"), (doc["w"], doc["h"])
            result = (doc["shapes"], doc["pairs"], doc["best"], [tuple(a) for a in doc["arg"]])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"{path}:{n}: malformed checkpoint record: {exc}") from exc
        if version != CHECKPOINT_VERSION or rec_k != k:
            raise CheckpointMismatchError(
                f"{path}:{n}: record for k={rec_k}, version {version}; this run is "
                f"k={k}, version {CHECKPOINT_VERSION}. Use a fresh checkpoint file"
            )
        done[slab] = result
    if end < len(data):
        os.truncate(path, end)
    return done


def _append_checkpoint(path: str, k: int, slab: tuple[int, int], result: ScanResult) -> None:
    shapes_n, pairs_n, best, arg = result
    record = {"v": CHECKPOINT_VERSION, "k": k, "w": slab[0], "h": slab[1],
              "shapes": shapes_n, "pairs": pairs_n, "best": best,
              "arg": [list(key) for key in arg]}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def compute_ck(k: int, jobs: int = 1, checkpoint: str | None = None) -> CkResult:
    """Exact maximum of e_max over all (shape, node) pairs, with counts.

    The shape space is partitioned into (W, H) slabs.  Only slabs with
    W <= H are scanned, one shape per symmetry orbit (_scan_shapes); the
    transpose gives the (H, W) slab's result.  Each scanned slab is split
    into tasks by its row-0 hole mask and scanned in a process pool when
    jobs > 1.  A checkpoint file gets one record (k, slab, counts) per
    completed slab, both slabs of a mirrored pair included, and lets an
    interrupted k=7 run resume; a pair missing either record is rescanned.
    """
    _check_k(k, 2)  # smaller k admit no node pairs
    done = _load_checkpoint(checkpoint, k) if checkpoint else {}
    tasks = [
        task
        for w in range(1, k + 1)
        for h in range(w, k + 1)
        if (w, h) not in done or (h, w) not in done
        for task in _slab_tasks(w, h, k, jobs)
    ]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        scanned = zip(tasks, (pool.map if pool else map)(_scan_task, tasks))
        for (w, h), chunks in groupby(scanned, key=lambda tr: tr[0][:2]):
            result = _merge(r for _, r in chunks)
            slabs = [((w, h), result)] + ([((h, w), _mirror(result))] if w < h else [])
            for slab, slab_result in slabs:
                if slab not in done:
                    done[slab] = slab_result
                    if checkpoint:
                        _append_checkpoint(checkpoint, k, slab, slab_result)

    shape_count, pair_count, best, arg_keys = _merge(done.values())
    if best < 0 or best % 2:
        raise AssertionError("no evaluable pairs or parity violation")
    argmax = tuple(
        (
            _shape_from_rows(w, h, tuple(mask >> y * w & (1 << w) - 1 for y in range(h))),
            Position(px, py),
        )
        for w, h, mask, px, py in arg_keys
    )
    return CkResult(k, best // 2, shape_count, pair_count, len(arg_keys), argmax)


def ck_bounds(k: int) -> tuple[int, int]:
    """Analytic (lower, upper) bounds k-2 <= c_k <= k^2 + 4k, for k >= 3."""
    if k < 3:
        raise ValueError(f"bounds hold for k >= 3, got {k}")
    return k - 2, k * k + 4 * k


def h_threshold(k: int) -> int:
    """Smallest w for which the worst-case time 2w + c_k is exact."""
    return -(-(k * k + 7 * k + 5) // 2)  # ceil((k^2+7k+5)/2)


def h_kw(k: int, w: int, jobs: int = 1) -> int | None:
    """2w + c_k when w is above the exactness threshold, else None (unknown)."""
    if k < 2:
        raise ValueError(f"h_kw needs k >= 2, got {k}")
    if 2 * w < k * k + 7 * k + 5:
        return None
    return 2 * w + compute_ck(k, jobs=jobs).c_k
