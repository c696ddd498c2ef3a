import itertools

import pytest

from fssp_holes.barriers import (
    Rect,
    is_barrier,
    maximal_barriers,
)
from fssp_holes.grid import Position, mh_distance, bfs_distance, validate

from conftest import corner_mh_access, make_random_config, maximal_barriers_bruteforce


class TestIsBarrier:
    def test_examples(self):
        cfg = validate(5, [(2, 2), (3, 3)])
        assert is_barrier(cfg, Rect(2, 2, 3, 3))
        assert not is_barrier(cfg, Rect(1, 2, 3, 3))
        for h in cfg.holes:
            assert is_barrier(cfg, Rect(h.x, h.y, h.x, h.y))


class TestMaximalBarriers:
    def test_hole_free(self):
        assert maximal_barriers(validate(6, [])) == frozenset()
        assert maximal_barriers_bruteforce(validate(6, [])) == frozenset()

    def test_diagonal_pair(self):
        cfg = validate(5, [(2, 2), (3, 3)])
        assert maximal_barriers(cfg) == {Rect(2, 2, 3, 3)}

    def test_split_on_free_column(self):
        cfg = validate(5, [(1, 1), (3, 3)])
        assert maximal_barriers(cfg) == {Rect(1, 1, 1, 1), Rect(3, 3, 3, 3)}

    def test_bruteforce_l_shape(self):
        cfg = validate(6, [(2, 2), (2, 3), (3, 2)])
        assert maximal_barriers_bruteforce(cfg) == {Rect(2, 2, 3, 3)}
        assert maximal_barriers(cfg) == {Rect(2, 2, 3, 3)}

    def test_agrees_with_oracle_exhaustive_small(self):
        # quick slice of the acceptance sweep: w <= 6, k <= 2
        for w in (4, 5, 6):
            cells = [(x, y) for x in range(1, w) for y in range(1, w)]
            for k in (1, 2):
                for holes in itertools.combinations(cells, k):
                    try:
                        cfg = validate(w, holes)
                    except Exception:
                        continue
                    assert maximal_barriers(cfg) == maximal_barriers_bruteforce(cfg)

    def test_agrees_with_oracle_random(self, rng):
        for _ in range(60):
            cfg = make_random_config(rng, rng.randint(6, 14), rng.randint(1, 6))
            assert maximal_barriers(cfg) == maximal_barriers_bruteforce(cfg)


def _touching(r1: Rect, r2: Rect) -> bool:
    # equal, adjacent, or corner-touching cells across the two rectangles
    return (
        r1.x0 - 1 <= r2.x1
        and r2.x0 - 1 <= r1.x1
        and r1.y0 - 1 <= r2.y1
        and r2.y0 - 1 <= r1.y1
    )


class TestStructuralInvariants:
    def test_invariants_random(self, rng):
        for _ in range(40):
            cfg = make_random_config(rng, rng.randint(5, 14), rng.randint(1, 7))
            rects = sorted(maximal_barriers(cfg))
            for r1, r2 in itertools.combinations(rects, 2):
                assert not _touching(r1, r2)
            for h in cfg.holes:
                assert sum(1 for r in rects if r.contains(h)) == 1
            for r in rects:
                assert 1 <= r.x0 and r.x1 <= cfg.size - 1
                assert 1 <= r.y0 and r.y1 <= cfg.size - 1

    def test_corner_distance_outside_barriers(self, rng):
        for _ in range(25):
            cfg = make_random_config(rng, rng.randint(5, 12), rng.randint(1, 5))
            rects = maximal_barriers(cfg)
            w = cfg.size
            corners = [(0, 0), (0, w), (w, 0), (w, w)]
            for v in cfg.nodes():
                if any(r.contains(v) for r in rects):
                    continue
                for c in corners:
                    assert corner_mh_access(cfg, c, v)


class TestCornerAccess:
    def test_examples(self):
        cfg = validate(5, [(2, 2), (3, 3)])
        assert corner_mh_access(cfg, (0, 0), (4, 1))
        # inside the barrier the theorem is silent; here access happens to hold
        assert bfs_distance(cfg, (0, 0), (2, 3)) == 5 == mh_distance((0, 0), (2, 3))
        assert corner_mh_access(cfg, (0, 0), (2, 3))
        assert corner_mh_access(validate(4, []), (4, 4), (1, 2))
