import concurrent.futures
import itertools
import random

import pytest

from fssp_holes.grid import Configuration, validate


def make_random_config(rng: random.Random, w: int, k: int) -> Configuration:
    """A random valid configuration (rejection sampling on connectivity)."""
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    while True:
        holes = rng.sample(cells, k)
        try:
            return validate(w, holes)
        except Exception:
            continue


def all_two_hole_configs(w: int):
    cells = [(x, y) for x in range(1, w) for y in range(1, w)]
    for a, b in itertools.combinations(cells, 2):
        yield validate(w, [a, b])


@pytest.fixture
def rng():
    return random.Random(20829)


@pytest.fixture
def no_process_pool(monkeypatch):
    """Starting a process pool fails the test instead of forking workers."""

    def refuse(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
