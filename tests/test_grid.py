import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssp_holes.errors import (
    BoundaryHoleError,
    DisconnectedError,
    NotANodeError,
    SizeTooLargeError,
    SizeTooSmallError,
    TooManyHolesError,
)
from fssp_holes.grid import (
    MAX_SIZE,
    Position,
    bfs_distance,
    boundary_condition,
    dump_ascii,
    dump_json,
    has_pattern,
    load_ascii,
    load_json,
    mh_distance,
    pattern_of,
    regions,
    validate,
    via_distance,
)

from conftest import make_random_config


class TestValidate:
    def test_hole_free_square(self):
        cfg = validate(5, [])
        assert cfg.size == 5 and cfg.k == 0

    def test_boundary_hole(self):
        with pytest.raises(BoundaryHoleError) as exc:
            validate(5, [(0, 3)])
        assert exc.value.witness == (0, 3)

    def test_enclosed_node_disconnects(self):
        with pytest.raises(DisconnectedError) as exc:
            validate(5, [(1, 2), (2, 1), (2, 3), (3, 2)])
        assert exc.value.witness == (2, 2)

    def test_too_many_holes(self):
        with pytest.raises(TooManyHolesError):
            validate(1, [(1, 1)])
        # within the (w-1)^2 limit: the single interior cell of w=2 may be a hole
        assert validate(2, [(1, 1)]).k == 1

    def test_size_below_one(self):
        with pytest.raises(SizeTooSmallError):
            validate(0, [])

    def test_loaders_cap_the_size(self):
        with pytest.raises(SizeTooLargeError):
            load_json(f'{{"size": {MAX_SIZE + 1}, "holes": []}}')
        with pytest.raises(SizeTooLargeError):
            load_ascii(f"w={MAX_SIZE + 1}\n")
        assert load_json('{"size": 64, "holes": []}').size == 64


class TestDistances:
    def test_mh_examples(self):
        assert mh_distance((0, 0), (0, 0)) == 0
        assert mh_distance((0, 0), (3, 4)) == 7
        assert mh_distance((2, 5), (5, 2)) == 6

    def test_bfs_examples(self):
        assert bfs_distance(validate(5, []), (0, 0), (5, 5)) == 10
        cfg = validate(5, [(2, 2), (3, 3)])
        assert bfs_distance(cfg, (2, 1), (2, 3)) == 4
        assert bfs_distance(cfg, (0, 0), (5, 5)) == 10

    def test_bfs_rejects_holes(self):
        cfg = validate(5, [(2, 2), (3, 3)])
        with pytest.raises(NotANodeError):
            bfs_distance(cfg, (0, 0), (2, 2))

    def test_via_examples(self):
        cfg = validate(5, [])
        # d(a, c) + d(c, b): 5 out to the corner plus 10 back across
        assert via_distance(cfg, (0, 0), (0, 5), (5, 0)) == 15
        assert via_distance(cfg, (0, 0), (0, 5), (5, 5)) == 10
        assert via_distance(cfg, (0, 0), (0, 0), (0, 0)) == 0
        cfg12 = validate(12, [(6, 4), (7, 5)])
        assert via_distance(cfg12, (0, 0), (0, 12), (6, 5)) == 25

    def test_mh_lower_bounds_bfs(self, rng):
        for _ in range(25):
            cfg = make_random_config(rng, rng.randint(4, 10), rng.randint(0, 4))
            nodes = list(cfg.nodes())
            for _ in range(10):
                a, b = rng.choice(nodes), rng.choice(nodes)
                d = bfs_distance(cfg, a, b)
                assert d >= mh_distance(a, b)
                if not cfg.holes:
                    assert d == mh_distance(a, b)

    def test_bfs_is_a_metric(self, rng):
        for _ in range(10):
            cfg = make_random_config(rng, 8, 3)
            nodes = list(cfg.nodes())
            pts = rng.sample(nodes, 3)
            a, b, c = pts
            assert bfs_distance(cfg, a, b) == bfs_distance(cfg, b, a)
            assert bfs_distance(cfg, a, c) <= bfs_distance(cfg, a, b) + bfs_distance(cfg, b, c)
            assert bfs_distance(cfg, a, a) == 0


class TestBoundaryCondition:
    def test_examples(self):
        assert boundary_condition(validate(5, []), (5, 5)) == (0, 0, 1, 1)
        assert boundary_condition(validate(5, []), (2, 2)) == (1, 1, 1, 1)
        cfg = validate(5, [(2, 2), (3, 3)])
        # east (3,3) and south (2,2) are holes
        assert boundary_condition(cfg, (2, 3)) == (0, 1, 1, 0)


class TestPatterns:
    def test_empty_region(self):
        cfg = validate(12, [(5, 7), (9, 2)])
        assert len(pattern_of(cfg, [])) == 0

    def test_region_lookup(self):
        cfg = validate(12, [(5, 7), (9, 2)])
        fam = regions(12)
        pat_uv = pattern_of(cfg, fam.UV)
        assert all(lbl == "N" for _, lbl in pat_uv.assignments)
        pat_w = pattern_of(cfg, fam.W)
        assert pat_w.holes() == {Position(5, 7)}

    def test_has_pattern(self):
        cfg = validate(12, [(5, 7), (9, 2)])
        fam = regions(12)
        assert has_pattern(cfg, pattern_of(cfg, fam.UVW))
        bad = pattern_of(validate(12, []), [(5, 7)])
        assert not has_pattern(cfg, bad)
        other = validate(12, [(10, 3), (3, 10)])
        assert has_pattern(cfg, pattern_of(other, fam.UV))

    def test_round_trip_property(self, rng):
        for _ in range(20):
            cfg = make_random_config(rng, 9, rng.randint(0, 3))
            region = rng.sample(list(cfg.positions()), 12)
            assert has_pattern(cfg, pattern_of(cfg, region))


class TestRegions:
    def test_membership_examples(self):
        fam = regions(12)
        assert Position(5, 5) in fam.U
        assert Position(6, 3) in fam.V
        assert Position(5, 7) in fam.W
        assert Position(7, 7) in fam.X
        assert Position(6, 6) in regions(11).W
        assert Position(6, 7) in fam.H0 and Position(7, 7) not in fam.H0

    def test_v_cnt(self):
        fam = regions(12)
        assert fam.v_cnt == (6, 6) and fam.v_cnt in fam.V

    @pytest.mark.parametrize("w", range(4, 41))
    def test_partition_and_halfplane_identities(self, w):
        fam = regions(w)
        square = set(fam.U) | set(fam.V) | set(fam.W) | set(fam.X)
        assert len(square) == (w + 1) ** 2
        assert not (fam.U & fam.V) and not (fam.UV & fam.W) and not (fam.UVW & fam.X)
        h = w // 2
        assert fam.UV == frozenset(
            Position(x, y) for x in range(h + 1) for y in range(h + 1)
        )
        assert fam.UVW <= fam.H0
        expected = fam.H1 & fam.H2
        if w % 2 == 0:
            expected = expected - {fam.v_cnt + (1, 1)}
        assert fam.UVW == expected


class TestFileFormats:
    def test_json_round_trip(self):
        cfg = validate(12, [(5, 7), (9, 2)])
        text = dump_json(cfg)
        assert load_json(text) == cfg
        assert dump_json(load_json(text)) == text

    def test_ascii_round_trip(self):
        cfg = validate(5, [(2, 2), (3, 3)])
        text = dump_ascii(cfg)
        assert load_ascii(text) == cfg
        assert dump_ascii(load_ascii(text)) == text
        assert text.splitlines()[0] == "w=5"
        # y=w row first, y=0 row last; hole (2,2) sits 2 up from the bottom
        assert text.splitlines()[1 + (5 - 2)][2] == "#"


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=60, deadline=None)
def test_mh_distance_symmetry(ax, ay, bx, by):
    assert mh_distance((ax, ay), (bx, by)) == mh_distance((bx, by), (ax, ay))
    assert mh_distance((ax, ay), (bx, by)) >= 0
