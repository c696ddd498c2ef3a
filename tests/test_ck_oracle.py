"""The symmetry-reduced c_k scan against the unreduced scan it replaced,
kept here as an oracle.

* The unreduced scan: every raw shape of a (W, H) slab builds its
  BarrierShape and runs both corner BFS, each node is one pair, and every
  node of the best e2 is an argmax key.
* The row-mask enumerator against brute force: every hole subset of the
  slab that covers each row and column.
"""

import json
from itertools import combinations

import pytest

from fssp_holes.grid import Position, _bfs
from fssp_holes.shapes import (
    BarrierShape,
    REFERENCE_CK_TABLE,
    _all_nodes_reach_ring,
    _enlarged_holes,
    _iter_hole_masks,
    _merge,
    _mirror,
    _scan_shapes,
    _shape_from_rows,
    compute_ck,
    enumerate_shapes,
)


def scan_every_shape(width: int, height: int, row_tuples):
    """(shapes, pairs, best, sorted argmax keys) over every given raw shape."""
    hy = height + 2
    shapes = pairs = 0
    best = -1
    arg = []
    for row_masks in row_tuples:
        shape = _shape_from_rows(width, height, row_masks)
        holes = _enlarged_holes(shape)
        nw = _bfs(width + 2, hy, holes, hy - 1)
        if not _all_nodes_reach_ring(nw, len(holes)):
            continue
        shapes += 1
        se = _bfs(width + 2, hy, holes, (width + 1) * hy)
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
    return scan_every_shape(width, height, _iter_hole_masks(width, height, k))


def reduced_slabs(k: int) -> dict:
    """Every slab's result from the reduced scan: W <= H scanned, W > H mirrored."""
    out = {}
    for w in range(1, k + 1):
        for h in range(w, k + 1):
            out[(w, h)] = _scan_shapes(w, h, k, None)
            out[(h, w)] = _mirror(out[(w, h)])
    return out


def argmax_keys(result):
    return [(s.width, s.height, s.hole_mask(), p.x, p.y) for s, p in result.argmax_pairs]


def _check_every_slab(k: int) -> None:
    reduced = reduced_slabs(k)
    assert len(reduced) == k * k
    for (w, h), got in reduced.items():
        assert got == oracle_slab(w, h, k), (k, w, h)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_every_slab_matches_the_unreduced_scan(k):
    _check_every_slab(k)


@pytest.mark.slow
def test_every_slab_matches_the_unreduced_scan_k6():
    _check_every_slab(6)


@pytest.mark.parametrize("k", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_row_and_argmax_pairs_match_the_unreduced_scan(k):
    shapes_n, pairs_n, best, keys = _merge(
        oracle_slab(w, h, k) for w in range(1, k + 1) for h in range(1, k + 1)
    )
    r = compute_ck(k)
    assert (r.c_k, r.shape_count, r.pair_count, r.argmax_pair_count) == REFERENCE_CK_TABLE[k]
    assert (2 * r.c_k, r.shape_count, r.pair_count) == (best, shapes_n, pairs_n)
    assert argmax_keys(r) == keys


def test_checkpoint_records_match_the_unreduced_scan(tmp_path):
    path = tmp_path / "ck.jsonl"
    compute_ck(5, jobs=2, checkpoint=str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 25
    for rec in records:
        got = (rec["shapes"], rec["pairs"], rec["best"], [tuple(a) for a in rec["arg"]])
        assert got == oracle_slab(rec["w"], rec["h"], 5), (rec["w"], rec["h"])


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
    path.write_text("".join(lines[:24]) + lines[24][:20])
    resumed = compute_ck(7, jobs=1, checkpoint=str(path))
    assert resumed == fresh
    assert len(path.read_text().splitlines()) == 49


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
        "fssp_holes.shapes._iter_hole_masks", lambda *args: iter(orbit[(w, h)])
    )
    got = _scan_shapes(w, h, shape.k, None)
    assert got == scan_every_shape(w, h, orbit[(w, h)])
    if w < h:
        assert _mirror(got) == scan_every_shape(h, w, orbit[(h, w)])


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
            got = list(_iter_hole_masks(w, h, k))
            assert len(got) == len(set(got)) and set(got) == want, (k, w, h)
            split = [list(_iter_hole_masks(w, h, k, [m])) for m in range(1, 1 << w)]
            assert sorted(sum(split, [])) == sorted(got)


@pytest.mark.slow
def test_enumerate_shapes_k6_count():
    assert sum(1 for _ in enumerate_shapes(6)) == REFERENCE_CK_TABLE[6][1] == 26898
