"""The two-hole minimum-firing-time classifier with attached certificates.

For w >= 11 and exactly two holes, the minimum firing time is 2w+1 exactly
when one of three region conditions holds (no holes in U u V u W; a lone
critical hole in W with U u V clean; a critical pair inside U u V u W), and
2w otherwise.  A 2w+1 verdict carries a hole-relocation certificate chain;
a 2w verdict carries a message plan built from the region case analysis,
validated by the computational plan checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotUpperBoundCaseError,
    PreconditionViolatedError,
    SizeTooSmallError,
    WrongHoleCountError,
)
from .grid import (
    V_GEN,
    Configuration,
    Pattern,
    Position,
    bfs_distance,
    mh_distance,
    pattern_of,
    regions,
    validate,
)
from .sim.plan import MessagePlan, PlanCheckReport, check_c_conditions
from .timebounds import (
    CertificateChain,
    certificate_search_report,
    has_critical_pair,
    is_critical,
)


@dataclass(frozen=True)
class HoleTypeProfile:
    """Region counts of the two holes, all and critical only."""

    counts: tuple[int, int, int, int]  # (#U, #V, #W, #X)
    critical_in: tuple[int, int, int, int]

    @property
    def in_uvw(self) -> int:
        return self.counts[0] + self.counts[1] + self.counts[2]


def type_of(cfg: Configuration) -> HoleTypeProfile:
    if cfg.k != 2:
        raise WrongHoleCountError(f"type is defined for exactly 2 holes, got {cfg.k}")
    fam = regions(cfg.size)
    sets = (fam.U, fam.V, fam.W, fam.X)
    counts = tuple(sum(1 for h in cfg.holes if h in s) for s in sets)
    crit = tuple(sum(1 for h in cfg.holes if h in s and is_critical(h)) for s in sets)
    return HoleTypeProfile(counts, crit)  # type: ignore[arg-type]


@dataclass(frozen=True)
class MftVerdict:
    value: int
    kind: str  # "lower_chain" | "witness_plan"
    chain: CertificateChain | None = None
    plan: MessagePlan | None = None
    check: PlanCheckReport | None = None


def is_slow_case(cfg: Configuration) -> bool:
    """True iff one of the three 2w+1 conditions holds."""
    fam = regions(cfg.size)
    profile = type_of(cfg)
    if profile.in_uvw == 0:
        return True
    if profile.counts[0] == profile.counts[1] == 0 and profile.counts[2] == 1:
        (w_hole,) = [h for h in cfg.holes if h in fam.W]
        if is_critical(w_hole):
            return True
    if has_critical_pair(cfg) and all(h in fam.UVW for h in cfg.holes):
        return True
    return False


def classify(cfg: Configuration, with_certificate: bool = True) -> MftVerdict:
    """Minimum firing time of a two-hole configuration of size w >= 11."""
    if cfg.k != 2:
        raise WrongHoleCountError(f"classifier needs exactly 2 holes, got {cfg.k}")
    if cfg.size < 11:
        raise SizeTooSmallError(f"UNSUPPORTED_SIZE: classifier covers w >= 11, got {cfg.size}")
    w = cfg.size
    if is_slow_case(cfg):
        chain = None
        if with_certificate:
            chain, reason = certificate_search_report(cfg)
            if chain is None:
                raise AssertionError(
                    f"no relocation chain for a 2w+1 configuration ({reason}): {cfg}"
                )
        return MftVerdict(2 * w + 1, "lower_chain", chain=chain)
    plan = check = None
    if with_certificate:
        plan = build_witness_plan(cfg)
        check = check_c_conditions(plan, cfg)
    return MftVerdict(2 * w, "witness_plan", plan=plan, check=check)


# ---------------------------------------------------------------------------
# Witness-plan construction (the upper-bound case analysis)


def _transpose_cfg(cfg: Configuration) -> Configuration:
    return validate(cfg.size, [(h.y, h.x) for h in cfg.holes])


def _transpose_plan(plan: MessagePlan) -> MessagePlan:
    flip = lambda p: Position(p[1], p[0])
    return MessagePlan(
        plan.target_size,
        plan.slack,
        tuple(tuple((flip(site), off) for site, off in group) for group in plan.groups),
        Pattern(frozenset((flip(p), lbl) for p, lbl in plan.pattern.assignments)),
    )


def _plan(cfg: Configuration, region: frozenset[Position], groups) -> MessagePlan:
    return MessagePlan(
        target_size=cfg.size,
        slack=0,
        groups=tuple(tuple((Position(*s), 0) for s in group) for group in groups),
        pattern=pattern_of(cfg, region),
    )


def build_witness_plan(cfg: Configuration) -> MessagePlan:
    """A message plan firing cfg at exactly 2w, per the region case analysis.

    Only defined for fast (2w) configurations; the slow cases have no such
    plan and raise NotUpperBoundCaseError.
    """
    if cfg.k != 2:
        raise WrongHoleCountError(f"witness plans need exactly 2 holes, got {cfg.k}")
    if is_slow_case(cfg):
        raise NotUpperBoundCaseError("configuration is a 2w+1 case; no witness plan exists")
    fam = regions(cfg.size)
    v_cnt = fam.v_cnt
    profile = type_of(cfg)
    nU, nV, nW, nX = profile.counts

    if nU >= 1 and nV == 0:
        # Holes meet U, none in V: check U u V, one message at the V corner.
        return _plan(cfg, frozenset(fam.UV), [[v_cnt]])

    if nU == 0 and nV == 0 and nW >= 1:
        return _w_band_plan(cfg, fam)

    if nU == 0 and nV >= 1:
        return _v_band_plan(cfg, fam)

    if nU == 1 and nV == 1:
        v1 = next(h for h in cfg.holes if h in fam.V)
        if v1.y != cfg.size // 2:
            # V hole on the vertical arm: build in the reflected frame.
            return _transpose_plan(build_witness_plan(_transpose_cfg(cfg)))
        return _u_v_pair_plan(cfg, fam)

    raise AssertionError(f"unhandled fast-case type {profile.counts}")


def _w_band_plan(cfg: Configuration, fam) -> MessagePlan:
    """Both holes outside U u V, at least one in W."""
    w, v_cnt = cfg.size, fam.v_cnt
    corner = v_cnt + (1, 1)
    up, right = v_cnt + (0, 1), v_cnt + (1, 0)
    if cfg.holes == {up, right}:
        # Both cells just outside the V corner are holes: one checking
        # message cannot reach past them, so a second group pinning the two
        # critical cells covers the far corner.
        region = fam.UVW if w % 2 == 0 else fam.UVW - {corner}
        return _plan(
            cfg,
            frozenset(region),
            [[v_cnt], [v_cnt + (-1, 1), v_cnt + (1, -1)]],
        )
    if w % 2 == 0:
        return _plan(cfg, frozenset(fam.UVW), [[v_cnt]])
    # Odd w: the W band owns its outer corner, which no U u V neighbor sees.
    w_prime = fam.W - {corner}
    c0 = sum(1 for h in cfg.holes if h in w_prime and is_critical(h))
    c2 = corner in cfg.holes
    if c2 and c0 <= 1 and not any(
        h in w_prime and not is_critical(h) for h in cfg.holes
    ):
        # Corner hole present, rest of the band clean or one critical hole:
        # two alternative messages just past the V corner check it.
        return _plan(cfg, frozenset(fam.UVW), [[up], [right]])
    return _plan(cfg, frozenset(fam.UVW - {corner}), [[v_cnt]])


def _v_band_plan(cfg: Configuration, fam) -> MessagePlan:
    """No holes in U, at least one in V: the shrunk mirror of the W-band cases."""
    v_cnt = fam.v_cnt
    down, left = v_cnt - (0, 1), v_cnt - (1, 0)
    inner = v_cnt - (1, 1)
    if cfg.holes == {down, left}:
        return _plan(
            cfg,
            frozenset(fam.UV - {v_cnt}),
            [[inner], [v_cnt - (2, 0), v_cnt - (0, 2)]],
        )
    v_prime = fam.V - {v_cnt}
    crit_vp = [h for h in cfg.holes if h in v_prime and is_critical(h)]
    noncrit_vp = [h for h in cfg.holes if h in v_prime and not is_critical(h)]
    b2 = v_cnt in cfg.holes
    if b2 and len(crit_vp) <= 1 and not noncrit_vp:
        return _plan(cfg, frozenset(fam.UV), [[left], [down]])
    if len(crit_vp) == 1 and not noncrit_vp and not b2:
        # Unique critical hole in the band; its diagonal outward neighbor
        # must be pinned a node or a completion could close a critical pair.
        (v0,) = crit_vp
        if v0.y == cfg.size // 2:  # horizontal arm
            return _plan(cfg, frozenset(fam.UV | {v0 + (1, 1)}), [[left]])
        return _plan(cfg, frozenset(fam.UV | {v0 + (1, 1)}), [[down]])
    return _plan(cfg, frozenset(fam.UV - {v_cnt}), [[inner]])


def _u_v_pair_plan(cfg: Configuration, fam) -> MessagePlan:
    """One hole in U, one on the horizontal arm of V."""
    v0 = next(h for h in cfg.holes if h in fam.U)
    v1 = next(h for h in cfg.holes if h in fam.V)
    if v1 == v0 + (1, 1):
        return _plan(cfg, frozenset(fam.UV), [[v0 + (1, 0)], [v1 - (1, 0)]])
    return _plan(cfg, frozenset(fam.UV), [[v0 - (0, 1), v1 - (1, 0)]])


# ---------------------------------------------------------------------------
# Distance-bound predicate with the four exception geometries

HOLDS = "Holds"
EXCEPTIONS = ("Exception1", "Exception2", "Exception3", "Exception4")


def thm_appendix_check(cfg: Configuration, v: tuple[int, int], v2: tuple[int, int]) -> str:
    """Check mh(gen, v) + d_C(v, v') <= 2w for v in U u V, else name the exception.

    Every violation matches exactly one of the four listed hole/corner
    geometries; a violation matching none would falsify the distance bound
    and raises AssertionError.
    """
    w = cfg.size
    if w < 5 or cfg.k != 2:
        raise PreconditionViolatedError("needs w >= 5 and exactly 2 holes")
    fam = regions(w)
    v, v2 = Position(*v), Position(*v2)
    if v not in fam.UV or not cfg.is_node(v) or not cfg.is_node(v2):
        raise PreconditionViolatedError("v must be a U u V node and v' a node")
    if mh_distance(V_GEN, v) + bfs_distance(cfg, v, v2) <= 2 * w:
        return HOLDS
    h = w // 2
    even = w % 2 == 0
    if cfg.holes == {v + (0, 1), v + (1, 0)} and v2 in {
        Position(w - 1, w),
        Position(w, w - 1),
        Position(w, w),
    }:
        return "Exception1"
    if (
        v.x == h
        and cfg.holes == {v - (1, 0), v + (0, 1)}
        and v2 in ({Position(0, w - 1), Position(1, w), Position(0, w)} if even else {Position(0, w)})
    ):
        return "Exception2"
    if (
        v.y == h
        and cfg.holes == {v - (0, 1), v + (1, 0)}
        and v2 in ({Position(w - 1, 0), Position(w, 1), Position(w, 0)} if even else {Position(w, 0)})
    ):
        return "Exception3"
    if (
        even
        and v == fam.v_cnt
        and cfg.holes == {v - (0, 1), v - (1, 0)}
        and v2 in {Position(1, 0), Position(0, 1), Position(0, 0)}
    ):
        return "Exception4"
    raise AssertionError(
        f"distance bound violated outside the four exceptions: v={tuple(v)}, v'={tuple(v2)}, {cfg}"
    )
