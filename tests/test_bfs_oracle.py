"""The grid distance engines against a plain dict-based BFS.

Every distance runs on free masks: grid._bfs walks one cell at a time
(distance_grid, t_field, d0_d1 on enlarged rectangles of barrier shapes),
and the layer engine (layers, ball, radius, walk_mask, and max_t and
validate on it) answers threshold and reachability questions with big
ints.  Each is compared here with an independent breadth-first search over
explicit cell sets, d0_d1 also with conftest.cell_bfs fields on every shape
of at most 5 holes, validate's DisconnectedError witness on every 4- to
6-hole set at w = 5, and Configuration.index, distance_grid, t_of, t_field
and max_t with each other.  The engine's searches finish on a _bfs field
past a layer cap; the tests shrink the cap to run that path on small
squares.
"""

from collections import deque
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fssp_holes import grid
from fssp_holes.errors import DisconnectedError, ValidationError
from fssp_holes.grid import (
    V_GEN,
    Position,
    _bfs,
    ball,
    bfs_distance,
    bits_set,
    distance_grid,
    free_mask,
    layers,
    node_bit,
    radius,
    validate,
    walk_mask,
)
from fssp_holes.shapes import d0_d1, enumerate_shapes
from fssp_holes.timebounds import max_t, t_field, t_of

from conftest import cell_bfs, serpentine_maze

SHAPES = list(enumerate_shapes(5))


def oracle_bfs(cells: set, source) -> dict:
    """Distances from source to every cell of `cells` it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x, y = queue.popleft()
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in cells and nxt not in dist:
                dist[nxt] = dist[(x, y)] + 1
                queue.append(nxt)
    return dist


@st.composite
def configurations(draw, max_w=12):
    w = draw(st.integers(2, max_w))
    interior = st.tuples(st.integers(1, w - 1), st.integers(1, w - 1))
    holes = draw(st.lists(interior, max_size=min(6, (w - 1) ** 2), unique=True))
    try:
        return validate(w, holes)
    except ValidationError:
        assume(False)


@given(configurations(), st.data())
@settings(max_examples=150, deadline=None)
def test_distance_grid_matches_oracle(cfg, data):
    nodes = {tuple(p) for p in cfg.nodes()}
    source = data.draw(st.sampled_from(sorted(nodes)))
    expected = oracle_bfs(nodes, source)
    grid = distance_grid(cfg, Position(*source))
    for x in range(cfg.size + 1):
        for y in range(cfg.size + 1):
            assert grid[cfg.index((x, y))] == expected.get((x, y), -1)


@given(st.sampled_from(SHAPES))
@settings(max_examples=150, deadline=None)
def test_d0_d1_matches_oracle(shape):
    cells = {
        (x, y)
        for x in range(-1, shape.width + 1)
        for y in range(-1, shape.height + 1)
        if (x, y) not in shape.holes
    }
    nw = oracle_bfs(cells, (-1, shape.height))
    se = oracle_bfs(cells, (shape.width, -1))
    for p in shape.nodes():
        assert d0_d1(shape, p) == (nw[p], se[p])


def test_d0_d1_matches_bfs_fields_on_every_small_shape():
    for shape in SHAPES:
        wx, hy = shape.width + 2, shape.height + 2
        holes = [(x + 1) * hy + y + 1 for x, y in shape.holes]
        nw = cell_bfs(wx, hy, holes, hy - 1)  # from (-1, H)
        se = cell_bfs(wx, hy, holes, (wx - 1) * hy)  # from (W, -1)
        got = [d0_d1(shape, p) for p in shape.nodes()]
        assert got == [(nw[(p.x + 1) * hy + p.y + 1], se[(p.x + 1) * hy + p.y + 1])
                       for p in shape.nodes()], shape


def mask_of(cells, stride: int) -> int:
    return sum(1 << x * stride + y for x, y in cells)


def multi_source_oracle(nodes: set, sources) -> dict:
    """Distance from each reached node to the nearest source."""
    dist: dict = {}
    for source in sources:
        for p, d in oracle_bfs(nodes, source).items():
            dist[p] = min(d, dist.get(p, d))
    return dist


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_unreached_and_blocked_cells_read_minus_one(nx, ny, guard, blocked, data):
    # nx columns of ny cells, stride ny + 1 .. ny + 4 (w + 2 .. w + 5 for a
    # square of side w = ny - 1); the blocked cells may seal some off.
    stride = ny + guard
    cells = {(x, y) for x in range(nx) for y in range(ny)} - blocked
    assume(cells)
    sources = data.draw(
        st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=3, unique=True)
    )
    free = mask_of(cells, stride)
    expected = multi_source_oracle(cells, sources)
    dist = _bfs(free, stride, mask_of(sources, stride))
    assert len(dist) % stride == 0 and free.bit_length() <= len(dist) < free.bit_length() + stride
    assert dist == [expected.get(divmod(i, stride), -1) for i in range(len(dist))]


@st.composite
def masked_configurations(draw):
    """A configuration (w <= 16, <= 6 holes), a stride and 1-3 source nodes."""
    cfg = draw(configurations(max_w=16))
    stride = cfg.size + 2 + draw(st.integers(0, 3))
    nodes = sorted(tuple(p) for p in cfg.nodes())
    sources = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    return cfg, stride, sources


@given(masked_configurations())
@settings(max_examples=150, deadline=None)
def test_free_mask_bits_are_the_nodes_in_order(case):
    cfg, stride, _ = case
    free = free_mask(cfg, stride)
    bits = [i for i in range(free.bit_length()) if free >> i & 1]
    assert bits == [p.x * stride + p.y for p in cfg.nodes()]
    square = [(x, y) for x in range(cfg.size + 1) for y in range(cfg.size + 1)]
    assert bits_set(free, stride, square) == [cfg.is_node(p) for p in square]


def test_free_mask_refuses_a_stride_without_guard_bits():
    with pytest.raises(ValueError):
        free_mask(validate(5, []), 6)


@given(masked_configurations())
@settings(max_examples=150, deadline=None)
def test_layers_are_the_bfs_distance_classes(case):
    cfg, stride, sources = case
    nodes = {tuple(p) for p in cfg.nodes()}
    dist = multi_source_oracle(nodes, sources)
    got = list(layers(free_mask(cfg, stride), stride, mask_of(sources, stride)))
    assert len(got) == max(dist.values()) + 1
    for i, layer in enumerate(got):
        assert layer == mask_of([p for p, d in dist.items() if d == i], stride)


@contextmanager
def layer_cap(cap):
    """The engine's own layer cap (None), or a small one."""
    if cap is None:
        yield
    else:
        with mock.patch.object(grid, "_layer_cap", lambda stride: cap):
            yield


CAPS = st.sampled_from([None, 0, 1, 3])
RADII = st.integers(-3, 40) | st.just(10**30)


@given(masked_configurations(), RADII, CAPS)
@settings(max_examples=150, deadline=None)
def test_ball_is_the_cells_within_r(case, r, cap):
    cfg, stride, sources = case
    nodes = {tuple(p) for p in cfg.nodes()}
    dist = multi_source_oracle(nodes, sources)
    with layer_cap(cap):
        got = ball(free_mask(cfg, stride), stride, mask_of(sources, stride), r)
    assert got == mask_of([p for p, d in dist.items() if d <= r], stride)


@given(masked_configurations(), CAPS)
@settings(max_examples=150, deadline=None)
def test_radius_is_the_largest_distance(case, cap):
    cfg, stride, sources = case
    dist = multi_source_oracle({tuple(p) for p in cfg.nodes()}, sources)
    with layer_cap(cap):
        assert radius(free_mask(cfg, stride), stride, mask_of(sources, stride)) == max(
            dist.values()
        )


@given(masked_configurations(), st.data(), RADII, CAPS)
@settings(max_examples=150, deadline=None)
def test_walk_mask_is_the_cells_on_short_walks(case, data, t, cap):
    cfg, stride, sources = case
    nodes = {tuple(p) for p in cfg.nodes()}
    other = data.draw(
        st.lists(st.sampled_from(sorted(nodes)), min_size=1, max_size=2, unique=True)
    )
    da = multi_source_oracle(nodes, sources)
    db = multi_source_oracle(nodes, other)
    with layer_cap(cap):
        got = walk_mask(
            free_mask(cfg, stride), stride, mask_of(sources, stride), mask_of(other, stride), t
        )
    assert got == mask_of([p for p in nodes if da[p] + db[p] <= t], stride)


@given(configurations(max_w=16), CAPS)
@settings(max_examples=150, deadline=None)
def test_max_t_is_the_largest_near_corner_distance(cfg, cap):
    w = cfg.size
    nodes = {tuple(p) for p in cfg.nodes()}
    dist = multi_source_oracle(nodes, [(0, w), (w, 0)])
    with layer_cap(cap):
        assert max_t(cfg) == w + max(dist.values())


def test_maze_searches_stop_at_the_layer_cap():
    # The corridor of a w=40 maze is 800 layers long; no search may draw
    # more than the cap (4 * stride = 168) and then finishes on a field.
    w, s = 40, 42
    cfg = serpentine_maze(w)
    nodes = {tuple(p) for p in cfg.nodes()}
    gen, end = oracle_bfs(nodes, V_GEN), oracle_bfs(nodes, (w, w))
    drawn = []

    def counted(*args):
        drawn.append(0)
        for layer in layers(*args):
            drawn[-1] += 1
            yield layer

    free, g, e = free_mask(cfg), 1, 1 << w * s + w
    with mock.patch.object(grid, "layers", counted):
        assert ball(free, s, g, 10**30) == free
        assert ball(free, s, g, 500) == mask_of([p for p, d in gen.items() if d <= 500], s)
        assert radius(free, s, g) == max(gen.values())
        assert walk_mask(free, s, g, e, 10**30) == free
        assert walk_mask(free, s, g, e, 700) == mask_of(
            [p for p in nodes if gen[p] + end[p] <= 700], s
        )
        assert max_t(cfg) == w + max(multi_source_oracle(nodes, [(0, w), (w, 0)]).values())
    assert drawn and max(drawn) <= grid._layer_cap(s) + 2


def check_one_encoding(cfg, sources):
    """Configuration.index, distance_grid, t_of, t_field and max_t agree
    with the free mask, its layers and the three-field T(v, C) they replaced."""
    w, s = cfg.size, cfg.size + 2
    free = free_mask(cfg)
    assert [cfg.index(p) for p in cfg.nodes()] == [
        i for i in range(free.bit_length()) if free >> i & 1
    ]
    nodes = list(cfg.nodes())
    for source in sources:
        expected = [-1] * (w + 1) * s  # holes and guard bits read -1
        for d, layer in enumerate(layers(free, s, node_bit(cfg, source, s))):
            for p, in_layer in zip(nodes, bits_set(layer, s, nodes)):
                if in_layer:
                    expected[cfg.index(p)] = d
        assert distance_grid(cfg, source) == tuple(expected)
    ts = [t_of(cfg, v) for v in nodes]
    assert ts == [
        min(
            bfs_distance(cfg, V_GEN, corner) + bfs_distance(cfg, corner, v)
            for corner in ((0, w), (w, 0))
        )
        for v in nodes
    ]
    field = t_field(cfg)
    assert [field[cfg.index(v)] for v in nodes] == ts
    assert max_t(cfg) == max(ts)


@given(configurations(max_w=16), st.data(), CAPS)
@settings(max_examples=150, deadline=None)
def test_one_encoding_for_index_fields_and_t(cfg, data, cap):
    nodes = sorted(cfg.nodes())
    sources = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    with layer_cap(cap):
        check_one_encoding(cfg, sources)


@pytest.mark.parametrize("cap", [None, 0, 1, 3])
def test_one_encoding_on_a_maze(cap):
    cfg = serpentine_maze(40)
    with layer_cap(cap):
        check_one_encoding(cfg, [V_GEN, Position(40, 40), Position(1, 2)])


def first_unreached(w: int, holes) -> tuple | None:
    """The first node in nodes() order that a plain BFS from the general
    does not reach, or None when it reaches every node."""
    nodes = [(x, y) for x in range(w + 1) for y in range(w + 1) if (x, y) not in holes]
    reached = oracle_bfs(set(nodes), (0, 0))
    return next((p for p in nodes if p not in reached), None)


@pytest.mark.parametrize("cap", [None, 0, 1, 3])
def test_disconnected_witness_is_the_first_unreached_node(cap):
    # Every 4-, 5- and 6-hole set at w = 5: 14,196 sets.  Six of them cut off
    # two nodes: a domino, or two diagonal nodes, in the middle 2 x 2.
    w = 5
    interior = [(x, y) for x in range(1, w) for y in range(1, w)]
    several = 0
    with layer_cap(cap):
        for k in (4, 5, 6):
            for holes in combinations(interior, k):
                expected = first_unreached(w, holes)
                if expected is None:
                    assert validate(w, holes).k == k
                    continue
                with pytest.raises(DisconnectedError) as exc:
                    validate(w, holes)
                assert exc.value.witness == expected, holes
                nodes = {(x, y) for x in range(w + 1) for y in range(w + 1)} - set(holes)
                several += len(nodes) - len(oracle_bfs(nodes, (0, 0))) >= 2
    assert several == 6


def test_disconnected_witness_past_the_layer_cap():
    # Cutting the last row of a w=40 maze's 800-layer corridor leaves its far
    # end unreached: the flood runs past the cap and finishes on a _bfs field.
    w = 40
    holes = serpentine_maze(w).holes | {(30, w - 2)}
    expected = first_unreached(w, holes)
    assert expected == (31, w - 2)
    with mock.patch.object(grid, "_bfs", wraps=grid._bfs) as bfs:
        with pytest.raises(DisconnectedError) as exc:
            validate(w, holes)
    assert exc.value.witness == expected and bfs.call_count == 1
