"""The two-hole minimum-firing-time classifier with attached certificates.

For w >= 11 and exactly two holes, the minimum firing time is 2w+1 exactly
when one of three region conditions holds (no holes in U u V u W; a lone
critical hole in W with U u V clean; a critical pair inside U u V u W), and
2w otherwise.  A 2w+1 verdict carries a hole-relocation certificate chain;
a 2w verdict carries a message plan built from the region case analysis,
validated by the computational plan checks.  The 2w plans are three rules:
the U square, one band rule for V and W (the V plans are the W plans shrunk
by one), and the U-V pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotUpperBoundCaseError,
    OutOfSquareError,
    SizeTooSmallError,
    WrongHoleCountError,
)
from .grid import Configuration, Position, pattern_of
from .sim.plan import MessagePlan, PlanCheckReport, check_c_conditions
from .timebounds import (
    CertificateChain,
    certificate_search_report,
    has_critical_pair,
    is_critical,
)


def region_of(w: int, p: tuple[int, int]) -> str:
    """Which of the regions U, V, W, X of S_w holds the position p.

    With h = floor(w/2) and m = max(x, y): U is m < h and V is m == h, so
    U u V is the lower-left square up to h.  W is the L-shaped band m == h + 1
    one step further out, owning its outer corner (h+1, h+1) exactly when w
    is odd.  X is the rest.
    """
    x, y = p
    if not (0 <= x <= w and 0 <= y <= w):
        raise OutOfSquareError(f"{tuple(p)} is outside the {w}-square")
    h = w // 2
    m = max(x, y)
    if m < h:
        return "U"
    if m == h:
        return "V"
    if m == h + 1 and (min(x, y) <= h or w % 2):
        return "W"
    return "X"


def _square(n: int) -> set[tuple[int, int]]:
    """The cells with 0 <= x, y < n: U u V for n = h + 1, and U u V u W
    plus the band's outer corner (h+1, h+1) for n = h + 2."""
    return {(x, y) for x in range(n) for y in range(n)}


def _hole_regions(cfg: Configuration) -> dict[Position, str]:
    """The region of each of the two holes, computed once per answer."""
    if cfg.k != 2:
        raise WrongHoleCountError(f"type is defined for exactly 2 holes, got {cfg.k}")
    return {h: region_of(cfg.size, h) for h in cfg.holes}


def _counts(regions: dict[Position, str]) -> tuple[int, int, int, int]:
    names = list(regions.values())
    return tuple(names.count(r) for r in "UVWX")


def type_of(cfg: Configuration) -> tuple[int, int, int, int]:
    """How many of the two holes lie in U, V, W and X."""
    return _counts(_hole_regions(cfg))


@dataclass(frozen=True)
class MftVerdict:
    value: int
    kind: str  # "lower_chain" | "witness_plan"
    chain: CertificateChain | None = None
    plan: MessagePlan | None = None
    check: PlanCheckReport | None = None


def is_slow_case(cfg: Configuration) -> bool:
    """True iff one of the three 2w+1 conditions holds."""
    return _is_slow(cfg, _hole_regions(cfg))


def _is_slow(cfg: Configuration, regions: dict[Position, str]) -> bool:
    nU, nV, nW, _ = _counts(regions)
    in_uvw = nU + nV + nW
    if in_uvw == 0:
        return True
    if nU == nV == 0 and nW == 1:
        (w_hole,) = [h for h, r in regions.items() if r == "W"]
        if is_critical(w_hole):
            return True
    if has_critical_pair(cfg) and in_uvw == 2:
        return True
    return False


def classify(cfg: Configuration, with_certificate: bool = True) -> MftVerdict:
    """Minimum firing time of a two-hole configuration of size w >= 11."""
    if cfg.k != 2:
        raise WrongHoleCountError(f"classifier needs exactly 2 holes, got {cfg.k}")
    if cfg.size < 11:
        raise SizeTooSmallError(f"UNSUPPORTED_SIZE: classifier covers w >= 11, got {cfg.size}")
    w = cfg.size
    regions = _hole_regions(cfg)
    if _is_slow(cfg, regions):
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
        plan = _witness_plan(cfg, regions)
        check = check_c_conditions(plan, cfg)
    return MftVerdict(2 * w, "witness_plan", plan=plan, check=check)


# ---------------------------------------------------------------------------
# Witness-plan construction (the upper-bound case analysis)


def _plan(cfg: Configuration, region: set[tuple[int, int]], groups) -> MessagePlan:
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
    regions = _hole_regions(cfg)
    if _is_slow(cfg, regions):
        raise NotUpperBoundCaseError("configuration is a 2w+1 case; no witness plan exists")
    return _witness_plan(cfg, regions)


def _witness_plan(cfg: Configuration, regions: dict[Position, str]) -> MessagePlan:
    """build_witness_plan for a fast configuration whose hole regions are known."""
    h = cfg.size // 2
    nU, nV, nW, nX = _counts(regions)

    if nU >= 1 and nV == 0:
        # Holes meet U, none in V: check U u V, one message at the V corner.
        return _plan(cfg, _square(h + 1), [[Position(h, h)]])

    if nU == 0:
        return _band_plan(cfg, regions, "V" if nV else "W")

    if nU == 1 and nV == 1:
        return _u_v_pair_plan(cfg, regions)

    raise AssertionError(f"unhandled fast-case type {(nU, nV, nW, nX)}")


def _band_plan(cfg: Configuration, regions: dict[Position, str], band: str) -> MessagePlan:
    """No holes in U, at least one in the band: V, or W when V is clean too.

    The band is the L of cells with max(x, y) = c around its corner (c, c),
    c = h for V and h + 1 for W, and the plan checks _square(c + 1), so the
    V plans are the W plans shrunk by one.
    """
    c = cfg.size // 2 + (band == "W")
    corner = Position(c, c)
    inner, west, south = corner - (1, 1), corner - (1, 0), corner - (0, 1)
    square = _square(c + 1)
    if cfg.holes == {west, south}:
        # Both cells just inside the corner are holes: one checking message
        # cannot reach past them, so a second group pinning the two critical
        # cells covers the far corner.
        return _plan(cfg, square - {corner}, [[inner], [corner - (2, 0), corner - (0, 2)]])
    rest = [p for p, r in regions.items() if p != corner and r == band]
    # The W band owns its corner only for odd w; no U u V neighbor sees it.
    if regions.get(corner) == band and all(map(is_critical, rest)):
        # Corner hole present, rest of the band clean or one critical hole:
        # two alternative messages beside the corner check it.
        return _plan(cfg, square, [[west], [south]])
    if len(rest) == 1 and is_critical(rest[0]):
        # Unique critical hole in the band and the corner free (only V gets
        # here: in W it is a 2w+1 case); its diagonal outward neighbor must
        # be pinned a node or a completion could close a critical pair.
        (v0,) = rest
        return _plan(cfg, square | {v0 + (1, 1)}, [[west if v0.y == c else south]])
    return _plan(cfg, square - {corner}, [[inner]])


def _u_v_pair_plan(cfg: Configuration, regions: dict[Position, str]) -> MessagePlan:
    """One hole in U, one on either arm of V.

    along points down the V hole's arm: east on the horizontal arm, north on
    the vertical one, so one construction serves both mirror images.
    """
    w = cfg.size
    v0 = next(h for h, r in regions.items() if r == "U")
    v1 = next(h for h, r in regions.items() if r == "V")
    along = (1, 0) if v1.y == w // 2 else (0, 1)
    uv = _square(w // 2 + 1)
    if v1 == v0 + (1, 1):
        return _plan(cfg, uv, [[v0 + along], [v1 - along]])
    return _plan(cfg, uv, [[v0 - along[::-1], v1 - along]])

