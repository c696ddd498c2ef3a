"""Message-timing simulation of pattern-keyed partial synchronizers.

A plan fixes a target size, a slack, the expected node/hole pattern (its
domain is the checked region), and groups of message sites.  Size-check
messages are born at the far corners at time w exactly when the
configuration has the target size; pattern messages are born at their sites
(general-distance plus offset) exactly when the configuration carries the
plan's pattern.
All messages propagate at speed 1 along shortest node paths.  A node is
willing to fire at 2*target + slack when it holds a size-check message and
every message of at least one group; the run synchronizes exactly when all
nodes are willing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations

from ..errors import (
    OutOfSquareError,
    ParseError,
    PreconditionViolatedError,
    ValidationError,
)
from ..grid import (
    V_GEN,
    Configuration,
    Pattern,
    Position,
    _only_ints,
    ball,
    bits_set,
    free_mask,
    has_pattern,
    mh_distance,
    node_bit,
    validate,
)
from ..timebounds import is_critical
from .transcript import FiringTranscript


@dataclass(frozen=True)
class MessagePlan:
    target_size: int
    slack: int
    groups: tuple[tuple[tuple[Position, int], ...], ...]
    pattern: Pattern

    def __post_init__(self):
        object.__setattr__(
            self,
            "groups",
            tuple(
                tuple((Position(*site), int(off)) for site, off in group)
                for group in self.groups
            ),
        )
        if self.slack < 0:
            raise ValueError("slack must be nonnegative")
        for group in self.groups:
            for site, off in group:
                if off < 0:
                    raise ValueError("message offsets must be nonnegative")
                if site in self.pattern.holes:
                    raise ValueError(f"site {tuple(site)} is a hole under the pattern")

    @property
    def deadline(self) -> int:
        return 2 * self.target_size + self.slack


def run_message_plan(cfg: Configuration, plan: MessagePlan) -> FiringTranscript:
    """Simulate the plan on cfg: simultaneous firing at the deadline or none.

    The transcript's diagnostics carry the per-node willingness map, so a
    plan that reaches only part of the square is visible as such.

    A message born at time b reaches a node by the deadline exactly when the
    node lies in the ball of radius deadline - b around its site, so the
    willing nodes are one free-mask expression: the size-check balls around
    the far corners, and the OR over groups of the AND over sites.
    """
    deadline = plan.deadline
    nodes = list(cfg.nodes())
    size_ok = cfg.size == plan.target_size
    msgs_exist = size_ok and has_pattern(cfg, plan.pattern)
    if msgs_exist:
        w = cfg.size
        s = w + 2
        free = free_mask(cfg)
        sites = [
            [(node_bit(cfg, site, s), mh_distance(V_GEN, site) + off) for site, off in group]
            for group in plan.groups
        ]
        corners = node_bit(cfg, (0, w), s) | node_bit(cfg, (w, 0), s)
        ready = ball(free, s, corners, deadline - w)
        if sites:
            covered = 0
            for group in sites:
                both = free
                for bit, birth in group:
                    both &= ball(free, s, bit, deadline - birth)
                covered |= both
            ready &= covered
        willing = dict(zip(nodes, bits_set(ready, s, nodes)))
    else:
        willing = dict.fromkeys(nodes, False)

    all_fire = all(willing.values())
    fire = {v: (deadline if all_fire else None) for v in nodes}
    return FiringTranscript(
        fire,
        horizon=deadline,
        diagnostics={
            "size_ok": size_ok,
            "messages_generated": msgs_exist,
            "willing": willing,
            "unwilling": sorted(tuple(v) for v, ok in willing.items() if not ok),
        },
    )


@dataclass
class PlanCheckReport:
    """Computational verification of the plan-correctness conditions.

    c1: every same-size completion of the pattern keeps the through-corner
        bound within the deadline: no two-hole completion has a critical
        pair, tested directly on the pinned holes and the free cells;
    c5: run_message_plan fires the reference configuration at the deadline,
        so every node holds a size-check message and a full message group
        in time.

    c2 (each group's messages jointly pin exactly the plan pattern) holds
    by construction, since all message groups share the plan pattern; c3/c4
    are how the simulator generates messages, also true by construction.
    So none of them has a field here.
    """

    c1_ok: bool
    c5_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c5_ok


def pattern_completions(plan: MessagePlan, k: int) -> list[Configuration]:
    """All valid configurations of the target size with k holes and the pattern."""
    w = plan.target_size
    pinned = plan.pattern.holes
    free = k - len(pinned)
    if free < 0:
        return []
    domain = plan.pattern.domain
    candidates = [
        Position(x, y)
        for x in range(1, w)
        for y in range(1, w)
        if Position(x, y) not in domain
    ]
    outs = []
    for chosen in combinations(candidates, free):
        try:
            outs.append(validate(w, pinned.union(chosen)))
        except ValidationError:
            pass
    return outs


def _critical_pair_completion(plan: MessagePlan) -> frozenset[Position] | None:
    """Holes of the first two-hole completion with a critical pair, or None.

    A critical pair is {c, c + (1, 1)} with c critical.  A completion has
    one exactly when such a pair holds every pinned hole, all its cells are
    interior, and its other cells are free: outside the pattern domain.
    Two interior holes never disconnect the square, so no BFS is needed.

    The candidate corners c are each pinned hole and its southwest diagonal
    neighbor, or every critical cell when nothing is pinned, in (x, y)
    order: the order of pattern_completions(plan, 2), so the first pair
    found is its first failing completion.
    """
    w = plan.target_size
    domain = plan.pattern.domain
    pinned = plan.pattern.holes
    if pinned:
        corners = sorted({c for h in pinned for c in (h, h - (1, 1))})
    else:
        corners = [Position(x, x + d) for x in range(1, w) for d in (-2, 2)]
    for c in corners:
        pair = frozenset((c, c + (1, 1)))
        if is_critical(c) and pinned <= pair and all(
            1 <= p.x < w and 1 <= p.y < w and (p in pinned or p not in domain) for p in pair
        ):
            return pair
    return None


def check_c_conditions(plan: MessagePlan, cfg: Configuration) -> PlanCheckReport:
    """Verify C1 (all completions in time) and C5 (the plan fires cfg); C2 structural.

    Covers two holes and zero slack, which is every plan classify builds;
    other plans raise PreconditionViolatedError.
    """
    w = plan.target_size
    if cfg.size != w:
        raise OutOfSquareError(f"plan targets w={w}, configuration has {cfg.size}")
    if (cfg.k, plan.slack) != (2, 0):
        raise PreconditionViolatedError(
            f"plan checks cover two holes and zero slack, got k={cfg.k}, slack={plan.slack}"
        )
    run = run_message_plan(cfg, plan)
    late = _critical_pair_completion(plan)
    failures: list[str] = []
    if late is not None:
        failures.append(
            f"C1: completion with holes {sorted(tuple(h) for h in late)} "
            f"exceeds the deadline"
        )
    if not run.diagnostics["messages_generated"]:
        failures.append("reference configuration does not carry the plan pattern")
    else:
        failures.extend(
            f"C5: node {v} is not covered by any group" for v in run.diagnostics["unwilling"]
        )
    c5_ok = run.common_fire_time() == plan.deadline
    return PlanCheckReport(c1_ok=late is None, c5_ok=c5_ok, failures=failures)


# ---------------------------------------------------------------------------
# Plan files


def plan_to_json(plan: MessagePlan) -> str:
    doc = {
        "target_size": plan.target_size,
        "slack": plan.slack,
        "groups": [
            [[[site.x, site.y], off] for site, off in group] for group in plan.groups
        ],
        "pattern": {
            "nodes": sorted([p.x, p.y] for p in plan.pattern.domain - plan.pattern.holes),
            "holes": sorted([p.x, p.y] for p in plan.pattern.holes),
        },
    }
    return json.dumps(doc, separators=(", ", ": "))


def plan_from_json(text: str | bytes) -> MessagePlan:
    """Read a plan file; a "checked_region" key from older files is ignored."""
    try:
        doc = json.loads(text)
        nodes, holes = doc["pattern"]["nodes"], doc["pattern"]["holes"]
        groups = tuple(
            tuple((Position(*site), off) for site, off in group) for group in doc["groups"]
        )
        messages = [(*site, off) for group in groups for site, off in group]
        if not _only_ints(chain([doc["target_size"], doc["slack"]], *messages, *nodes, *holes)):
            raise TypeError("sizes, offsets and coordinates must be integers")
        nodes, holes = (frozenset(Position(*p) for p in cells) for cells in (nodes, holes))
        if nodes & holes:
            raise ValueError(f"cells {sorted(map(tuple, nodes & holes))} are nodes and holes")
        pattern = Pattern(nodes | holes, holes)
        return MessagePlan(doc["target_size"], doc["slack"], groups, pattern)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed plan JSON: {exc}") from exc


def worked_instance_plan() -> MessagePlan:
    """The worked single-configuration plan: size 7, a hole run along y=1.

    Size-check messages plus one message at (3, 0) keyed on the pattern
    "holes at (1,1), (2,1), (3,1)"; fires its one admissible configuration
    at exactly 14.
    """
    holes = frozenset(Position(x, 1) for x in (1, 2, 3))
    return MessagePlan(
        target_size=7,
        slack=0,
        groups=(((Position(3, 0), 0),),),
        pattern=Pattern(holes, holes),
    )
