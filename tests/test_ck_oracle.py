"""The symmetry-reduced c_k scan against the unreduced scan it replaced,
kept here as an oracle.

* The unreduced scan: every raw shape of a (W, H) slab builds its
  BarrierShape and runs both corner BFS, each node is one pair, and every
  node of the best e2 is an argmax key.  A reduced scan of a W <= H slab
  must give the oracle's counts and best for (W, H) and (H, W), and the
  _orbit_keys images of its reps must be each slab's argmax keys.
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
    _orbit_keys,
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
        "fssp_holes.shapes._iter_hole_masks", lambda *args: iter(orbit[(w, h)])
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
            got = list(_iter_hole_masks(w, h, k))
            assert len(got) == len(set(got)) and set(got) == want, (k, w, h)
            split = [list(_iter_hole_masks(w, h, k, [m])) for m in range(1, 1 << w)]
            assert sorted(sum(split, [])) == sorted(got)


@pytest.mark.slow
def test_enumerate_shapes_k6_count():
    assert sum(1 for _ in enumerate_shapes(6)) == REFERENCE_CK_TABLE[6][1] == 26898
