"""The symmetry-reduced c_k scan against the scans it replaced, kept here
as oracles.

* The unreduced scan: every raw shape of a (W, H) slab builds its
  BarrierShape and runs both corner BFS (fields of conftest.cell_bfs, the
  reference kernel on explicit cell lists), each node is one pair, and
  every node of the best e2 is an argmax key.  A reduced scan
  of a W <= H slab must give the oracle's counts and best for (W, H) and
  (H, W), and the _orbit_keys images of its reps must be each slab's argmax
  keys.
* The list-based reduced scan: the same orbit representatives, with two
  full cell_bfs fields per shape and index tables, as _scan_shapes ran before
  it moved onto bit layers.  Every (W, H, first row) task must give the same
  ScanResult, reps in the same order, so checkpoint records keep their bytes.
* The row-tuple walker and orbit filter: every covering hole set as a
  tuple of row masks, and per leaf the image sums over those rows, as
  _iter_hole_masks and _representatives ran before they moved onto packed
  running sums.  Every task must give the same (image, weight, free)
  sequence.
* The row-mask enumerator against brute force: every hole subset of the
  slab that covers each row and column.
"""

import hashlib
import json
from functools import lru_cache
from itertools import chain, combinations
from operator import add, getitem
from typing import Iterable, Iterator

import pytest

from fssp_holes import shapes
from fssp_holes.cli import main
from fssp_holes.grid import Position
from fssp_holes.shapes import (
    BarrierShape,
    REFERENCE_CK_TABLE,
    _group_maps,
    _orbit_keys,
    _representatives,
    _scan_shapes,
    _slab_table,
    compute_ck,
    enumerate_shapes,
)

from conftest import cell_bfs


# --- the walker's packed sums, as row masks --------------------------------


def pack(width: int, height: int, row_tuples) -> list[int]:
    """The packed sum of each shape given as row masks, through the slab's
    packed row table: what _iter_hole_masks yields for it."""
    packed = _slab_table(width, height)[0]
    return [sum(map(getitem, packed, rows)) for rows in row_tuples]


def unpack(width: int, height: int, shape: int) -> tuple[int, ...]:
    """The row masks of a packed sum, read from slot 0 (the shape itself)."""
    return tuple(shape >> y * width & (1 << width) - 1 for y in range(height))


def hole_rows(width: int, height: int, k: int, row0=None) -> list[tuple[int, ...]]:
    """The row masks of every shape shapes._iter_hole_masks walks, in order."""
    return [
        unpack(width, height, shape)
        for shape in chain.from_iterable(shapes._iter_hole_masks(width, height, k, row0))
    ]


def shape_from_rows(width: int, height: int, row_masks: tuple[int, ...]) -> BarrierShape:
    holes = frozenset(
        Position(x, y) for y, m in enumerate(row_masks) for x in range(width) if m >> x & 1
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


def scan_every_shape(width: int, height: int, row_tuples):
    """(shapes, pairs, best, sorted argmax keys) over every given raw shape."""
    hy = height + 2
    shapes = pairs = 0
    best = -1
    arg = []
    for row_masks in row_tuples:
        shape = shape_from_rows(width, height, row_masks)
        holes = _enlarged_holes(shape)
        nw = cell_bfs(width + 2, hy, holes, hy - 1)
        if not _all_nodes_reach_ring(nw, len(holes)):
            continue
        shapes += 1
        se = cell_bfs(width + 2, hy, holes, (width + 1) * hy)
        mask = shape.hole_mask()
        for x in range(width):
            col = (x + 1) * hy + 1
            for y in range(height):
                if nw[col + y] < 0:
                    continue
                pairs += 1
                e2 = -width - height - 2 + nw[col + y] + se[col + y]
                if e2 > best:
                    best = e2
                    arg = [(width, height, mask, x, y)]
                elif e2 == best:
                    arg.append((width, height, mask, x, y))
    return shapes, pairs, best, sorted(arg)


def oracle_slab(width: int, height: int, k: int):
    return scan_every_shape(width, height, hole_rows(width, height, k))


def merge(results):
    """Sum the counts of scan results and keep the sorted argmax keys or
    reps of the best e2."""
    results = list(results)
    best = max((r[2] for r in results), default=-1)
    arg = sorted(a for r in results if r[2] == best for a in r[3])
    return sum(r[0] for r in results), sum(r[1] for r in results), best, arg


def check_slab(width, height, result, oracle):
    """A reduced (W <= H) result against oracle(w, h) of both slabs it covers."""
    shapes_n, pairs_n, best, reps = result
    keys = {(width, height): set(), (height, width): set()}
    for rep in reps:
        for key in _orbit_keys(width, height, *rep):
            keys[key[:2]].add(key)
    for (w, h), got in keys.items():
        assert (shapes_n, pairs_n, best, sorted(got)) == oracle(w, h), (w, h)


# --- the list-based reduced scan ------------------------------------------


def _row_table(width: int, height: int, cell) -> list[list[list]]:
    """table[y][m]: cell(x, y) for each hole x of row mask m in row y."""
    return [
        [[cell(x, y) for x in range(width) if m >> x & 1] for m in range(1 << width)]
        for y in range(height)
    ]


@lru_cache(maxsize=1)
def _slab_tables(width: int, height: int) -> tuple:
    """Per group map into the slab, row and row mask the image's hole bits;
    per row and row mask the enlarged-rectangle hole indices; its node indices."""
    ny = height + 2
    image_bits = [
        [
            [sum(1 << (py * width + px) for px, py in cells) for cells in row]
            for row in _row_table(width, height, f)
        ]
        for slab, f in _group_maps(width, height)
        if slab == (width, height)
    ]
    row_holes = _row_table(width, height, lambda x, y: (x + 1) * ny + y + 1)
    cells = {(x + 1) * ny + y + 1 for x in range(width) for y in range(height)}
    return image_bits, row_holes, cells


def list_scan_shapes(width: int, height: int, k: int, row0):
    """The reduced scan of one slab on two cell_bfs fields per representative."""
    nx, ny = width + 2, height + 2
    nw_corner, se_corner = ny - 1, (nx - 1) * ny  # (-1, H) and (W, -1)
    corners = width + height + 2
    area = width * height
    image_bits, row_holes, cells = _slab_tables(width, height)
    shapes_n = pairs = 0
    best = -1
    reps: list[tuple[int, int]] = []
    for rows in hole_rows(width, height, k, row0):
        images = [sum(map(getitem, bits, rows)) for bits in image_bits]
        if min(images) < images[0]:
            continue  # not the orbit's representative
        holes = list(chain.from_iterable(map(getitem, row_holes, rows)))
        nw = cell_bfs(nx, ny, holes, nw_corner)
        if not _all_nodes_reach_ring(nw, len(holes)):
            continue
        weight = len(set(images))
        shapes_n += weight
        if len(holes) == area:
            continue  # no nodes
        pairs += weight * (area - len(holes))
        sums = list(map(add, nw, cell_bfs(nx, ny, holes, se_corner)))
        top = max(sums)
        if top - corners < best:
            continue
        if top - corners > best:
            best = top - corners
            reps = []
        reps += [(images[0], i) for i, s in enumerate(sums) if s == top and i in cells]
    return shapes_n, pairs, best, [(mask, i // ny - 1, i % ny - 1) for mask, i in reps]


# --- the row-tuple walker and orbit filter ---------------------------------


def oracle_hole_masks(width: int, height: int, k: int,
                      first_masks=None) -> Iterator[tuple[int, ...]]:
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


def _bit_table(width: int, height: int, bit) -> list[list[int]]:
    """table[y][m]: the mask with bit bit(x, y) for each hole x of row mask m in row y."""
    return [
        [sum(1 << bit(x, y) for x in range(width) if m >> x & 1) for m in range(1 << width)]
        for y in range(height)
    ]


@lru_cache(maxsize=1)
def _bit_tables(width: int, height: int) -> tuple:
    """Per group map into the slab, row and row mask, the image's row-major
    hole bits; per row and row mask, the hole bits of the enlarged
    rectangle; and every cell of that rectangle."""
    stride = height + 3
    image_bits = [
        _bit_table(width, height, lambda x, y, f=f: f(x, y)[1] * width + f(x, y)[0])
        for slab, f in _group_maps(width, height)
        if slab == (width, height)
    ]
    row_holes = _bit_table(width, height, lambda x, y: (x + 1) * stride + y + 1)
    column = (1 << height + 2) - 1
    full = sum(column << x * stride for x in range(width + 2))
    return image_bits, row_holes, full


def oracle_representatives(width: int, height: int, k: int, first_masks):
    """(row-major hole mask, distinct images, free mask) of each orbit
    representative, from image sums over each leaf's row tuple."""
    image_bits, row_holes, full = _bit_tables(width, height)
    for rows in oracle_hole_masks(width, height, k, first_masks):
        images = [sum(map(getitem, bits, rows)) for bits in image_bits]
        if min(images) >= images[0]:
            yield images[0], len(set(images)), full ^ sum(map(getitem, row_holes, rows))


def tasks(k: int):
    """Every (w, h, row0) task of compute_ck(k)."""
    return [
        (w, h, row0)
        for w in range(1, k + 1)
        for h in range(w, k + 1)
        for row0 in range(1, 1 << w)
        if bin(row0).count("1") <= k - (h - 1)
    ]


#: Lane counts for the packed scan: one shape per flood, small batches that
#: split a task's representatives at many places, and the default.
LANES = (1, 2, 3, shapes._LANES)


@pytest.mark.parametrize("k", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_every_task_matches_the_list_scan(monkeypatch, k):
    for w, h, row0 in tasks(k):
        want = list_scan_shapes(w, h, k, row0)
        for lanes in LANES:
            monkeypatch.setattr(shapes, "_LANES", lanes)
            assert _scan_shapes(w, h, k, row0) == want, (w, h, row0, lanes)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_representatives_match_the_row_tuple_walker(k):
    for w, h, row0 in tasks(k):
        want = list(oracle_representatives(w, h, k, (row0,)))
        assert list(_representatives(w, h, k, row0)) == want, (w, h, row0)


def test_fresh_k6_checkpoint_keeps_its_bytes(tmp_path, capsys):
    """A k=6 checkpoint file written by the list scan had this sha256, so
    version-4 files written by it resume unchanged."""
    path = tmp_path / "ck6.jsonl"
    assert main(["ck", "--k", "6", "--jobs", "1", "--checkpoint", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7b947923462991c4b33583f516c686bea7a896aad54623886ce6c22bd39ace36"
    )


# --- the threshold path, on hand-fed slabs --------------------------------

#: name: (width, height, row masks fed in order, expected ScanResult).
THRESHOLD_CASES = {
    # W < H: a second shape at the running best appends its reps.
    "equal-top-appends": (2, 3, [(1, 1, 2), (1, 2, 1)],
                          (4, 12, 2, [(37, 0, 2), (37, 1, 0), (37, 1, 1), (25, 0, 1), (25, 1, 0)])),
    # W = H: the same at e2 = 4.
    "equal-top-appends-square": (3, 3, [(3, 4, 2), (3, 4, 4)],
                                 (6, 30, 4, [(163, 1, 1), (291, 1, 1)])),
    # A top below the running best counts its shapes and pairs, no reps.
    "lower-top-skipped": (2, 3, [(1, 1, 2), (2, 1, 1)],
                          (4, 12, 2, [(37, 0, 2), (37, 1, 0), (37, 1, 1)])),
    "lower-top-skipped-square": (3, 3, [(3, 4, 2), (1, 6, 1)],
                                 (8, 40, 4, [(163, 1, 1)])),
    # A higher top resets the reps.
    "higher-top-resets": (2, 3, [(2, 1, 1), (1, 1, 2)],
                          (4, 12, 2, [(37, 0, 2), (37, 1, 0), (37, 1, 1)])),
    # Every cell a hole: a shape with no pairs, before and after a node shape.
    "all-holes": (2, 3, [(3, 3, 3)], (1, 0, -1, [])),
    "all-holes-square": (2, 2, [(3, 3)], (1, 0, -1, [])),
    "all-holes-then-nodes": (2, 3, [(3, 3, 3), (2, 1, 1), (3, 3, 3)],
                             (4, 6, 0, [(22, 0, 0), (22, 1, 1), (22, 1, 2)])),
    # Nodes sealed off from the ring: not a shape at all.
    "sealed-pocket-square": (3, 3, [(2, 5, 2)], (0, 0, -1, [])),
    "sealed-pocket": (3, 4, [(2, 5, 5, 2)], (0, 0, -1, [])),
    # Batches (LANES) of the packed scan.  At 2 lanes the sealed shape is
    # first in the first batch and last in the second; at 4 or more, first
    # and last in the one batch.
    "sealed-first-and-last": (3, 4, [(2, 5, 5, 2), (1, 2, 1, 4), (1, 1, 2, 4), (2, 5, 5, 2)],
                              (4, 32, 4, [(2185, 1, 1)])),
    # Tops 2, 4, 2, 6, 4, 6.  Best rises inside a batch, then a lower top
    # in the same batch is skipped; at 3 lanes it rises on the first lane of
    # the second batch, and the last shape ties inside that batch.
    "best-rises-in-and-between-batches": (
        3, 4, [(1, 2, 1, 4), (1, 1, 2, 4), (1, 2, 2, 4), (1, 1, 5, 2), (1, 1, 3, 4), (1, 1, 5, 3)],
        (11, 80, 6, [(1353, 1, 2), (1865, 1, 2)])),
    # Tops 2, 0, 2: at 1 or 2 lanes the tie is in a later batch, whose
    # climb starts at the best.
    "tie-across-batches": (2, 3, [(1, 1, 2), (2, 1, 1), (1, 2, 1)],
                           (6, 18, 2, [(37, 0, 2), (37, 1, 0), (37, 1, 1), (25, 0, 1), (25, 1, 0)])),
    # A serpentine corridor (top 36) beside the diagonals (top 6): the
    # corridor's floods run about five times as many layers.
    "deep-beside-shallow": (
        7, 7, [(1, 2, 4, 8, 16, 32, 64), (127, 81, 85, 85, 85, 69, 125),
               (64, 32, 16, 8, 4, 2, 1), (127, 81, 85, 85, 85, 69, 125)],
        (10, 228, 36, [(552149632510207, 5, 1)] * 2)),
}


@pytest.mark.parametrize("name", list(THRESHOLD_CASES))
def test_threshold_path(monkeypatch, name):
    width, height, fed, want = THRESHOLD_CASES[name]
    monkeypatch.setattr(shapes, "_iter_hole_masks", lambda *args: iter([pack(width, height, fed)]))
    for lanes in LANES:
        monkeypatch.setattr(shapes, "_LANES", lanes)
        assert _scan_shapes(width, height, 12, None) == want, lanes
    assert list_scan_shapes(width, height, 12, None) == want


def argmax_keys(result):
    return [(s.width, s.height, s.hole_mask(), p.x, p.y) for s, p in result.argmax_pairs]


def _check_every_slab(k: int) -> None:
    for w in range(1, k + 1):
        for h in range(w, k + 1):
            check_slab(w, h, _scan_shapes(w, h, k, None), lambda *s: oracle_slab(*s, k))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_every_slab_matches_the_unreduced_scan(k):
    _check_every_slab(k)


@pytest.mark.slow
def test_every_slab_matches_the_unreduced_scan_k6():
    _check_every_slab(6)


@pytest.mark.parametrize("k", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_row_and_argmax_pairs_match_the_unreduced_scan(k):
    shapes_n, pairs_n, best, keys = merge(
        oracle_slab(w, h, k) for w in range(1, k + 1) for h in range(1, k + 1)
    )
    r = compute_ck(k)
    assert (r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count) == REFERENCE_CK_TABLE[k]
    assert (2 * r.c_k, r.shape_count, r.pair_count) == (best, shapes_n, pairs_n)
    assert argmax_keys(r) == keys


def test_checkpoint_records_match_the_unreduced_scan(tmp_path):
    """One record per (W <= H slab, first-row mask) task.  A record counts
    the orbits whose representative has that first row, so only a slab's
    records together equal the unreduced scan of the slab and of the
    transposed slab."""
    path = tmp_path / "ck.jsonl"
    compute_ck(5, jobs=2, checkpoint=str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len({(r["w"], r["h"], r["row0"]) for r in records}) == 51
    for w in range(1, 6):
        for h in range(w, 6):
            got = merge(
                (r["shapes"], r["pairs"], r["best"], [tuple(a) for a in r["arg"]])
                for r in records
                if (r["w"], r["h"]) == (w, h)
            )
            check_slab(w, h, got, lambda *s: oracle_slab(*s, 5))


@pytest.mark.parametrize("k", [4, 5])
def test_two_jobs_equal_one(k):
    one, two = compute_ck(k, jobs=1), compute_ck(k, jobs=2)
    assert (two.c_k, two.shape_count, two.pair_count, two.argmax_pairs) == (
        one.c_k, one.shape_count, one.pair_count, one.argmax_pairs
    )


@pytest.mark.slow
def test_k7_row_fresh_and_resumed(tmp_path):
    """The k=7 row at jobs=2 with a checkpoint, then resumed at jobs=1 from
    the first half of its records and a half-written one."""
    path = tmp_path / "ck.jsonl"
    fresh = compute_ck(7, jobs=2, checkpoint=str(path))
    row = (fresh.c_k, fresh.shape_count, fresh.pair_count, fresh.argmax_pair_count)
    assert row == REFERENCE_CK_TABLE[7] == (5, 384344, 8397762, 20)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 176
    path.write_text("".join(lines[:88]) + lines[88][:20])
    resumed = compute_ck(7, jobs=1, checkpoint=str(path))
    assert resumed == fresh
    assert sorted(path.read_text().splitlines(keepends=True)) == sorted(lines)


# --- stabilizers ---------------------------------------------------------


def _rows(shape: BarrierShape) -> tuple[int, ...]:
    return tuple(
        sum(1 << x for x in range(shape.width) if Position(x, y) in shape.holes)
        for y in range(shape.height)
    )


def _rot180(shape: BarrierShape) -> BarrierShape:
    w, h = shape.width, shape.height
    return BarrierShape(w, h, frozenset((w - 1 - x, h - 1 - y) for x, y in shape.holes))


def _orbit(shape: BarrierShape) -> dict:
    """Distinct raw images of the shape, as row tuples, by slab."""
    images = [shape, _rot180(shape), shape.transpose(), _rot180(shape.transpose())]
    out: dict = {}
    for s in images:
        rows = out.setdefault((s.width, s.height), [])
        if _rows(s) not in rows:
            rows.append(_rows(s))
    return out


STABILIZER_CASES = {  # name: (shape, number of distinct images over both slabs)
    # fixed by rot180 only (W < H): one image per slab
    "rot180": (BarrierShape(2, 3, frozenset({(0, 0), (0, 1), (1, 1), (1, 2)})), 2),
    # fixed by transpose, not by rot180
    "transpose": (BarrierShape(3, 3, frozenset({(0, 0), (1, 1), (2, 1), (1, 2)})), 2),
    "whole-group": (BarrierShape(3, 3, frozenset({(0, 0), (1, 1), (2, 2)})), 1),
    "S4": (BarrierShape(2, 2, frozenset({(0, 1), (1, 0)})), 1),
    "trivial": (BarrierShape(2, 3, frozenset({(0, 0), (1, 1), (1, 2)})), 4),
}


@pytest.mark.parametrize("name", list(STABILIZER_CASES))
def test_stabilizer_weights_and_images(monkeypatch, name):
    shape, n_images = STABILIZER_CASES[name]
    orbit = _orbit(shape)
    assert sum(map(len, orbit.values())) == n_images
    w, h = sorted((shape.width, shape.height))
    monkeypatch.setattr(
        "fssp_holes.shapes._iter_hole_masks", lambda *args: iter([pack(w, h, orbit[(w, h)])])
    )
    got = _scan_shapes(w, h, shape.k, None)
    check_slab(w, h, got, lambda *s: scan_every_shape(*s, orbit[s]))


# --- the enumerator --------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hole_masks_match_brute_force(k):
    for w in range(1, k + 1):
        for h in range(1, k + 1):
            cells = [(x, y) for y in range(h) for x in range(w)]
            want = set()
            for n in range(max(w, h), k + 1):
                for holes in combinations(cells, n):
                    xs, ys = {x for x, _ in holes}, {y for _, y in holes}
                    if len(xs) == w and len(ys) == h:
                        want.add(tuple(sum(1 << x for x, y in holes if y == r) for r in range(h)))
            got = hole_rows(w, h, k)
            assert len(got) == len(set(got)) and set(got) == want, (k, w, h)
            assert got == list(oracle_hole_masks(w, h, k)), (k, w, h)
            split = [hole_rows(w, h, k, m) for m in range(1, 1 << w)]
            assert sorted(sum(split, [])) == sorted(got)


@pytest.mark.slow
def test_enumerate_shapes_k6_count():
    assert sum(1 for _ in enumerate_shapes(6)) == REFERENCE_CK_TABLE[6][1] == 26898
