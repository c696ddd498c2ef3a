"""equiv_prime and run_message_plan against the distance-field versions
they replaced, kept here as oracles.

* equiv_prime by nodes: two full BFS fields per configuration give each
  node's two-leg distance sum, and every node with a sum <= t is compared
  by boundary_condition, both ways around.
* run_message_plan by arrival times: one BFS field per far corner and per
  message site, an arrival time per node, and max/min over groups.

The library versions answer the same threshold questions on free masks.
"""

import math
import random
import tracemalloc

import pytest

from fssp_holes.errors import FsspError, NotANodeError
from fssp_holes.grid import (
    V_GEN,
    Pattern,
    Position,
    boundary_condition,
    distance_grid,
    has_pattern,
    mh_distance,
    validate,
)
from fssp_holes.mft2 import build_witness_plan, is_slow_case
from fssp_holes.sim.plan import MessagePlan, run_message_plan
from fssp_holes.timebounds import WITNESS_CORNER, equiv_prime

from conftest import all_two_hole_configs, make_random_config, serpentine_maze

pytestmark = pytest.mark.slow

SEED = 20829


def equiv_prime_by_nodes(cfg_a, cfg_b, t, v) -> bool:
    v = Position(*v)
    for src, dst in ((cfg_a, cfg_b), (cfg_b, cfg_a)):
        if not src.is_node(v) or not dst.is_node(v):
            raise NotANodeError(f"{tuple(v)} must be a node of both configurations")
        d_gen = distance_grid(src, V_GEN)
        d_v = distance_grid(src, v)
        for u in src.nodes():
            i = src.index(u)
            if d_gen[i] >= 0 and d_v[i] >= 0 and d_gen[i] + d_v[i] <= t:
                if not dst.is_node(u):
                    return False
                if boundary_condition(src, u) != boundary_condition(dst, u):
                    return False
    return True


def run_message_plan_by_arrivals(cfg, plan) -> dict:
    """The diagnostics and firing times of one run, as plain data."""
    deadline = plan.deadline
    nodes = list(cfg.nodes())
    size_ok = cfg.size == plan.target_size
    msgs_exist = size_ok and has_pattern(cfg, plan.pattern)
    if msgs_exist:
        w = cfg.size

        def arrivals(site, off):
            birth = mh_distance(V_GEN, site) + off
            return [birth + d if d >= 0 else math.inf for d in distance_grid(cfg, site)]

        ready = [
            w + min(a, b)
            for a, b in zip(distance_grid(cfg, Position(0, w)), distance_grid(cfg, Position(w, 0)))
        ]
        if plan.groups:
            groups = [
                [max(t) for t in zip(*(arrivals(site, off) for site, off in group))]
                for group in plan.groups
            ]
            ready = [max(r, min(g)) for r, *g in zip(ready, *groups)]
        willing = {v: ready[cfg.index(v)] <= deadline for v in nodes}
    else:
        willing = dict.fromkeys(nodes, False)
    all_fire = all(willing.values())
    return {
        "fire": {v: (deadline if all_fire else None) for v in nodes},
        "size_ok": size_ok,
        "messages_generated": msgs_exist,
        "willing": list(willing.items()),
        "unwilling": sorted(tuple(v) for v, ok in willing.items() if not ok),
    }


def transcript_data(cfg, plan) -> dict:
    tr = run_message_plan(cfg, plan)
    assert tr.horizon == plan.deadline
    return {
        "fire": tr.fire_time,
        "size_ok": tr.diagnostics["size_ok"],
        "messages_generated": tr.diagnostics["messages_generated"],
        "willing": list(tr.diagnostics["willing"].items()),
        "unwilling": tr.diagnostics["unwilling"],
    }


def same_outcome(fn, oracle, *args):
    """Both return the same value, or both raise the same package error."""
    try:
        want = oracle(*args)
    except FsspError as exc:
        with pytest.raises(type(exc)) as info:
            fn(*args)
        assert str(info.value) == str(exc)
        return None
    got = fn(*args)
    assert got == want
    return got


class TestEquivPrime:
    def test_relocation_pairs_at_w12(self):
        w = 12
        rng = random.Random(SEED)
        cells = [Position(x, y) for x in range(1, w) for y in range(1, w)]
        answers = []
        for i in range(4000):
            cfg = make_random_config(rng, w, 2)
            moved = rng.choice(sorted(cfg.holes))
            target = rng.choice([c for c in cells if c not in cfg.holes])
            other = validate(w, (cfg.holes - {moved}) | {target})
            v = WITNESS_CORNER[rng.choice(("H0", "H1", "H2"))](w)
            ts = [2 * w, rng.randint(0, 3 * w)]
            if i % 8 == 0:
                ts += [-5, 0, 10**30]
            for t in ts:
                answers.append(same_outcome(equiv_prime, equiv_prime_by_nodes, cfg, other, t, v))
        assert answers.count(True) > 1000 and answers.count(False) > 1000

    def test_pairs_of_different_sizes(self):
        rng = random.Random(SEED + 1)
        answers = []
        for _ in range(300):
            wa = rng.randint(10, 14)
            wb = wa + rng.choice((-2, -1, 1, 2))
            a = make_random_config(rng, wa, rng.randint(0, 4))
            b = make_random_config(rng, wb, rng.randint(0, 4))
            # Mostly a node of both squares; sometimes a hole or outside one.
            v = (rng.randint(0, max(wa, wb)), rng.randint(0, max(wa, wb)))
            for t in (-5, 0, min(wa, wb), 2 * min(wa, wb), 10**30):
                answers.append(same_outcome(equiv_prime, equiv_prime_by_nodes, a, b, t, v))
        assert answers.count(True) and answers.count(False) and answers.count(None)

    def test_maze_with_a_huge_t_keeps_memory_bounded(self):
        # A search of this maze runs 8,000 layers of 2 KB masks; holding a
        # mask per layer peaked at about 2,200 bytes per cell, two distance
        # fields take about 65.
        w = 128
        maze = serpentine_maze(w)
        tracemalloc.start()
        try:
            got = equiv_prime(maze, maze, 10**30, (w, w))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is True
        assert peak < 200 * (w + 1) ** 2
        plug = validate(w, maze.holes | {Position(w - 2, w - 2)})
        assert equiv_prime(maze, plug, 10**30, (0, w)) is False
        assert equiv_prime_by_nodes(maze, plug, 10**30, (0, w)) is False
        assert equiv_prime(maze, plug, 10, (0, w)) is True
        assert equiv_prime_by_nodes(maze, plug, 10, (0, w)) is True


def witness_plans(w):
    for cfg in all_two_hole_configs(w):
        if not is_slow_case(cfg):
            yield cfg, build_witness_plan(cfg)


def with_slack(plan, slack):
    return MessagePlan(plan.target_size, slack, plan.groups, plan.pattern)


class TestRunMessagePlan:
    @pytest.mark.parametrize("w", [11, 12, 13])
    def test_every_witness_plan(self, w):
        fired = 0
        for cfg, plan in witness_plans(w):
            want = run_message_plan_by_arrivals(cfg, plan)
            assert transcript_data(cfg, plan) == want
            fired += want["fire"][V_GEN] == 2 * w
        assert fired > 0

    def test_slack_wrong_size_and_missing_pattern(self):
        rng = random.Random(SEED)
        plans = list(witness_plans(12))
        fired = unwilling = 0
        for cfg, plan in rng.sample(plans, 300):
            other, _ = rng.choice(plans)
            runs = [
                (cfg, with_slack(plan, rng.randint(1, 4))),
                (cfg, with_slack(plan, 10**30)),
                (validate(13, cfg.holes), plan),
                (other, plan),
            ]
            for c, p in runs:
                want = run_message_plan_by_arrivals(c, p)
                assert transcript_data(c, p) == want
                fired += want["fire"][V_GEN] is not None
                unwilling += bool(want["unwilling"])
        assert fired and unwilling

    def test_partly_willing_runs(self):
        # Sites far from the nodes they must reach, and a short deadline:
        # some nodes are willing, some are not.
        rng = random.Random(SEED + 2)
        partial = 0
        for _ in range(200):
            w = rng.randint(8, 14)
            cfg = make_random_config(rng, w, rng.randint(0, 4))
            nodes = list(cfg.nodes())
            groups = tuple(
                tuple((rng.choice(nodes), rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 3))
            )
            plan = MessagePlan(w, rng.randint(0, w), groups, Pattern())
            want = run_message_plan_by_arrivals(cfg, plan)
            assert transcript_data(cfg, plan) == want
            willing = [ok for _, ok in want["willing"]]
            partial += any(willing) and not all(willing)
        assert partial > 20

    @pytest.mark.parametrize("site", [(8, 8), (13, 0), (-1, 4)], ids=["hole", "east", "west"])
    def test_site_that_is_not_a_node(self, site):
        cfg = validate(12, [(3, 3), (8, 8)])
        plan = build_witness_plan(cfg)
        bad = MessagePlan(12, 0, plan.groups + (((Position(*site), 0),),), plan.pattern)
        with pytest.raises(NotANodeError) as want:
            run_message_plan_by_arrivals(cfg, bad)
        with pytest.raises(NotANodeError) as got:
            run_message_plan(cfg, bad)
        assert str(got.value) == str(want.value)
