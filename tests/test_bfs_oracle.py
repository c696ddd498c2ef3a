"""The one grid BFS kernel against a plain dict-based BFS.

distance_grid (configurations) and d0_d1 (enlarged rectangles of barrier
shapes) both run on grid._bfs; each is compared here with an independent
breadth-first search over explicit cell sets.
"""

from collections import deque

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fssp_holes.errors import ValidationError
from fssp_holes.grid import Position, _bfs, distance_grid, validate
from fssp_holes.shapes import d0_d1, enumerate_shapes

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
def configurations(draw):
    w = draw(st.integers(2, 12))
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
    for p in cfg.positions():
        assert grid[cfg.index(p)] == expected.get(tuple(p), -1)


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


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_unreached_and_blocked_cells_read_minus_one(nx, ny, blocked, data):
    blocked = {(x, y) for x, y in blocked if x < nx and y < ny}
    cells = {(x, y) for x in range(nx) for y in range(ny)} - blocked
    assume(cells)
    source = data.draw(st.sampled_from(sorted(cells)))
    expected = oracle_bfs(cells, source)
    dist = _bfs(nx, ny, [x * ny + y for x, y in blocked], source[0] * ny + source[1])
    assert dist == [expected.get((x, y), -1) for x in range(nx) for y in range(ny)]
