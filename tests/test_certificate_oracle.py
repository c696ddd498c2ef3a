"""The forward certificate search and the direct two-hole C1 test against
the slow paths they replaced, kept here as oracles.

* The two-pass search (conftest): the same forward search with each level
  tested, then expanded, so it returns the same chain.
* The certificate forest: one reverse breadth-first search over every
  two-hole state, rooted at the critical-pair states.  It gives the length
  of a shortest relocation chain from every state at once, or no entry when
  no chain exists.
* C1 by enumeration: every completion from pattern_completions (each one
  validated), tested for a critical pair, the first failure reported.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssp_holes.grid import Pattern, Position, validate
from fssp_holes.mft2 import build_witness_plan, is_slow_case
from fssp_holes.sim.plan import MessagePlan, check_c_conditions, pattern_completions
from fssp_holes.timebounds import (
    HALF_PLANES,
    certificate_search_report,
    has_critical_pair,
    verify_certificate,
)

from conftest import (
    all_two_hole_configs,
    make_random_config,
    regions,
    two_pass_certificate_search,
)

pytestmark = pytest.mark.slow

WS = tuple(range(5, 14))


def forest_distances(w: int) -> dict:
    """Shortest chain length of every two-hole state that has a chain.

    States are sorted hole pairs.  Moves are symmetric, so the search runs
    backwards from all critical-pair states at once; a state missing from
    the result has no chain.
    """
    cells = [Position(x, y) for x in range(1, w) for y in range(1, w)]
    fam = regions(w)
    outside = {n: frozenset(c for c in cells if c not in getattr(fam, n)) for n in HALF_PLANES}
    dist = {}
    queue = deque()
    for a in cells:
        b = a + (1, 1)
        if abs(a.x - a.y) == 2 and b.x < w and b.y < w:
            dist[(a, b)] = 0
            queue.append((a, b))
    while queue:
        state = queue.popleft()
        for moved, stay in (state, state[::-1]):
            planes = [n for n in HALF_PLANES if moved in outside[n]]
            for target in cells:
                if target in state or not any(target in outside[n] for n in planes):
                    continue
                prev = (stay, target) if stay < target else (target, stay)
                if prev not in dist:
                    dist[prev] = dist[state] + 1
                    queue.append(prev)
    return dist


def enumerated_c1(plan: MessagePlan, cfg) -> list[str]:
    """The C1 failure lines of check_c_conditions by full enumeration."""
    for comp in pattern_completions(plan, cfg.k):
        if has_critical_pair(comp):
            return [
                f"C1: completion with holes {sorted(tuple(h) for h in comp.holes)} "
                f"exceeds the deadline"
            ]
    return []


def c1_lines(plan: MessagePlan, cfg) -> list[str]:
    report = check_c_conditions(plan, cfg)
    lines = [f for f in report.failures if f.startswith("C1:")]
    assert report.c1_ok == (not lines)
    return lines


@pytest.fixture(scope="module", params=WS, ids=[f"w{w}" for w in WS])
def configs(request):
    return request.param, list(all_two_hole_configs(request.param))


def test_search_matches_forest(configs):
    w, cfgs = configs
    dist = forest_distances(w)
    found = 0
    for cfg in cfgs:
        chain, reason = certificate_search_report(cfg)
        want = dist.get(tuple(sorted(cfg.holes)))
        holes = sorted(cfg.holes)
        if want is None:
            assert chain is None and reason == "exhausted", holes
            continue
        assert chain is not None, holes
        assert len(chain) == want and reason == ("immediate" if want == 0 else "found"), holes
        assert chain.initial == cfg and verify_certificate(chain), holes
        found += 1
    assert 0 < found < len(cfgs)


# Configurations drawn per size: the w=256 searches that find a chain take
# about 0.05 s each, so the larger sizes draw fewer.
SAMPLES = {16: 400, 24: 300, 48: 150, 96: 80, 256: 20}


@pytest.mark.parametrize("w", SAMPLES, ids=[f"w{w}" for w in SAMPLES])
def test_search_matches_two_pass_search(w):
    rng = random.Random(w)
    reasons = set()
    for _ in range(SAMPLES[w]):
        cfg = make_random_config(rng, w, 2)
        got = certificate_search_report(cfg)
        assert got == two_pass_certificate_search(cfg), sorted(cfg.holes)
        reasons.add(got[1])
    assert reasons >= {"found", "exhausted"}


def test_direct_c1_matches_enumeration_on_witness_plans(configs):
    # C1 reads only the plan and the hole count, so each distinct plan is
    # checked once, against the first configuration that produced it.
    w, cfgs = configs
    plans = {}
    for cfg in cfgs:
        if not is_slow_case(cfg):
            plans.setdefault(build_witness_plan(cfg), cfg)
    assert plans
    for plan, cfg in plans.items():
        assert c1_lines(plan, cfg) == enumerated_c1(plan, cfg) == []


def _plan(w, nodes=(), holes=()):
    holes = frozenset(Position(*p) for p in holes)
    return MessagePlan(w, 0, (), Pattern(holes | {Position(*p) for p in nodes}, holes))


@pytest.mark.parametrize(
    "nodes, holes, first",
    [
        ((), (), [(1, 3), (2, 4)]),
        (((1, 3),), (), [(2, 4), (3, 5)]),
        (((2, 4),), (), [(3, 1), (4, 2)]),
        ((), ((6, 4),), [(5, 3), (6, 4)]),
        (((5, 3),), ((6, 4),), [(6, 4), (7, 5)]),
        (((5, 3), (7, 5)), ((6, 4),), None),
        ((), ((6, 4), (7, 5)), [(6, 4), (7, 5)]),
        ((), ((6, 4), (8, 6)), None),
        ((), ((3, 3),), None),
        ((), ((0, 2),), None),
        ((), ((1, 3), (2, 4), (5, 5)), None),
    ],
    ids=["empty", "first-pinned-node", "second-pinned-node", "pinned-critical",
         "lower-neighbor-pinned", "both-neighbors-pinned", "pinned-pair", "pinned-non-pair",
         "pinned-not-critical", "pinned-boundary", "three-pinned"],
)
def test_direct_c1_hand_built(nodes, holes, first):
    w = 9
    plan = _plan(w, nodes, holes)
    cfg = validate(w, [(6, 4), (7, 5)])
    want = [] if first is None else [
        f"C1: completion with holes {first} exceeds the deadline"
    ]
    assert c1_lines(plan, cfg) == enumerated_c1(plan, cfg) == want


@st.composite
def small_plans(draw):
    w = draw(st.integers(3, 8))
    cell = st.tuples(st.integers(-1, w + 1), st.integers(-1, w + 1))
    labels = draw(st.dictionaries(cell, st.sampled_from("NNNH"), max_size=2 * w))
    return _plan(w, [p for p, lbl in labels.items() if lbl == "N"],
                 [p for p, lbl in labels.items() if lbl == "H"])


@settings(max_examples=100, deadline=None)
@given(small_plans())
def test_direct_c1_matches_enumeration_on_random_patterns(plan):
    cfg = validate(plan.target_size, [(1, 1), (2, 2)])
    assert c1_lines(plan, cfg) == enumerated_c1(plan, cfg)
