import dataclasses
import hashlib
from collections import Counter

import pytest

from fssp_holes.errors import SizeMismatchError
from fssp_holes.grid import Position, bfs_distance, distance_grid, validate
from fssp_holes.timebounds import (
    CertificateChain,
    ChainStep,
    certificate_search_report,
    critical_holes,
    equiv_prime,
    has_critical_pair,
    max_t,
    pattern_move_equiv,
    t_of,
    verify_certificate,
)

from conftest import (
    NotInBarrierError,
    all_two_hole_configs,
    make_random_config,
    regions,
    t_formula,
)


class TestTOf:
    def test_examples(self):
        cfg = validate(5, [])
        assert t_of(cfg, (5, 5)) == 10
        assert t_of(cfg, (0, 0)) == 10
        assert t_of(validate(12, [(6, 4), (7, 5)]), (6, 5)) == 25

    def test_max_t_examples(self):
        assert max_t(validate(7, [])) == 14
        assert max_t(validate(12, [(6, 4), (7, 5)])) == 25
        assert max_t(validate(12, [(3, 3), (8, 8)])) == 24

    def test_max_t_at_least_2w(self, rng):
        for _ in range(25):
            cfg = make_random_config(rng, rng.randint(4, 12), rng.randint(0, 5))
            assert max_t(cfg) >= 2 * cfg.size


class TestFormula:
    def test_examples(self):
        cfg = validate(12, [(6, 4), (7, 5)])
        assert t_formula(cfg, (6, 5)) == 25 == t_of(cfg, (6, 5))
        assert t_formula(cfg, (7, 4)) == t_of(cfg, (7, 4)) == 21
        with pytest.raises(NotInBarrierError):
            t_formula(cfg, (1, 1))

    def test_matches_t_of_random(self, rng):
        checked = 0
        while checked < 300:
            cfg = make_random_config(rng, rng.randint(8, 20), rng.randint(1, 6))
            from fssp_holes.barriers import maximal_barriers

            for rect in maximal_barriers(cfg):
                for v in rect.cells():
                    if cfg.is_node(v):
                        assert t_formula(cfg, v) == t_of(cfg, v)
                        checked += 1


class TestCriticalPairs:
    def test_examples(self):
        assert critical_holes(validate(12, [(6, 4), (7, 5)])) == {
            Position(6, 4),
            Position(7, 5),
        }
        assert has_critical_pair(validate(12, [(6, 4), (7, 5)]))
        assert has_critical_pair(validate(12, [(4, 6), (5, 7)]))
        assert not has_critical_pair(validate(12, [(3, 3), (8, 8)]))
        assert not has_critical_pair(validate(12, [(5, 7), (9, 2)]))

    def test_theorem_check(self):
        for holes in ([(6, 4), (7, 5)], [(3, 3), (8, 8)], [(5, 7), (9, 2)]):
            cfg = validate(12, holes)
            assert max_t(cfg) == 2 * 12 + has_critical_pair(cfg)


class TestEquivPrime:
    def test_reflexive(self):
        cfg = validate(12, [(10, 3), (3, 10)])
        assert equiv_prime(cfg, cfg, 24, (12, 0))

    def test_relocation_example(self):
        a = validate(12, [(10, 3), (3, 10)])
        b = validate(12, [(10, 3), (9, 11)])
        assert equiv_prime(a, b, 24, (12, 0))

    def test_size_mismatch_is_distinguishable(self):
        a = validate(12, [(10, 3), (3, 10)])
        b = validate(13, [(10, 3), (3, 10)])
        assert max_t(a) <= 24
        for v in [(12, 0), (0, 12), (5, 5), (0, 0)]:
            assert not equiv_prime(a, b, 24, v)

    def test_symmetry_and_monotone(self, rng):
        w = 11
        for _ in range(10):
            a = make_random_config(rng, w, 2)
            b = make_random_config(rng, w, 2)
            for t in (0, w, 2 * w):
                r = equiv_prime(a, b, t, (0, 0))
                assert r == equiv_prime(b, a, t, (0, 0))
                if not r:
                    assert not equiv_prime(a, b, t + 1, (0, 0))


class TestPatternMoveEquiv:
    def test_examples(self):
        a = validate(12, [(10, 3), (3, 10)])
        assert pattern_move_equiv(a, a, "H0")
        b = validate(12, [(10, 3), (9, 11)])
        assert pattern_move_equiv(a, b, "H2")
        c = validate(12, [(5, 7), (9, 2)])
        d = validate(12, [(6, 7), (9, 2)])
        assert not pattern_move_equiv(c, d, "H1")

    def test_matches_pattern_of(self, rng):
        from fssp_holes.grid import pattern_of
        for _ in range(200):
            w = rng.randint(4, 12)
            a = make_random_config(rng, w, rng.randint(0, 3))
            b = make_random_config(rng, w, rng.randint(0, 3))
            if rng.random() < 0.5:
                b = validate(w, a.holes | {h for h in b.holes if h.x > w // 2})
            for plane in ("H0", "H1", "H2"):
                region = getattr(regions(w), plane)
                want = pattern_of(a, region) == pattern_of(b, region)
                assert pattern_move_equiv(a, b, plane) == want

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pattern_move_equiv(validate(11, []), validate(12, []), "H0")

    def test_unknown_set_is_an_error(self):
        a = validate(12, [(10, 3), (3, 10)])
        for b in (a, validate(12, [(10, 3), (9, 11)])):
            with pytest.raises(ValueError):
                pattern_move_equiv(a, b, "H3")

    def test_implies_equiv_prime_sample(self, rng):
        # full exhaustive version runs in the acceptance suite
        from fssp_holes.timebounds import WITNESS_CORNER

        w = 11
        for _ in range(40):
            cfg = make_random_config(rng, w, 2)
            plane = rng.choice(("H0", "H1", "H2"))
            region = getattr(regions(w), plane)
            movable = [h for h in cfg.holes if h not in region]
            if not movable:
                continue
            h = rng.choice(movable)
            targets = [
                Position(x, y)
                for x in range(1, w)
                for y in range(1, w)
                if Position(x, y) not in region and Position(x, y) not in cfg.holes
            ]
            other = validate(w, (cfg.holes - {h}) | {rng.choice(targets)})
            assert pattern_move_equiv(cfg, other, plane)
            corner = WITNESS_CORNER[plane](w)
            assert equiv_prime(cfg, other, 2 * w, corner)


class TestCertificates:
    def test_immediate_chain(self):
        cfg = validate(12, [(6, 4), (7, 5)])
        chain = certificate_search_report(cfg)[0]
        assert chain is not None and len(chain) == 0
        assert verify_certificate(chain, check_equiv=True)

    def test_two_step_chain(self):
        cfg = validate(12, [(10, 3), (3, 10)])
        chain, reason = certificate_search_report(cfg)
        assert reason == "found" and len(chain) == 2
        assert verify_certificate(chain, check_equiv=True)
        assert has_critical_pair(chain.final)

    def test_not_found_for_fast_configs(self):
        chain, reason = certificate_search_report(validate(12, [(3, 3), (8, 8)]))
        assert chain is None and reason == "exhausted"

    def test_every_found_chain_verifies(self, rng):
        w = 11
        found = 0
        for cfg in list(all_two_hole_configs(w))[::37]:
            chain = certificate_search_report(cfg)[0]
            if chain is not None:
                assert verify_certificate(chain)
                found += 1
        assert found > 0

    def test_every_chain_pinned(self):
        # One sha256 over how the search ended and the steps it found, for
        # every two-hole configuration at w=11: a change to which of the
        # shortest chains the search returns fails here.
        digest = hashlib.sha256()
        for cfg in all_two_hole_configs(11):
            chain, reason = certificate_search_report(cfg)
            steps = [] if chain is None else [
                (s.half_plane, *s.moved_from, *s.moved_to) for s in chain.steps
            ]
            digest.update(f"{reason} {steps}\n".encode())
        assert digest.hexdigest() == (
            "9c4ced4e384e8b3433012c87370fd261e5a0b11ce7898bbc1b31591b66565ea9"
        )

    @pytest.mark.parametrize(
        "w, census",
        [(9, {"immediate": 10, 1: 222, 2: 591, "exhausted": 1_193}),
         (12, {"immediate": 16, 1: 630, 2: 2_136, "exhausted": 4_478})],
    )
    def test_chain_census(self, w, census):
        # How every two-hole search ends, by reason or chain length: no
        # chain at w = 9 or 12 needs more than 2 steps.
        got = Counter()
        for cfg in all_two_hole_configs(w):
            chain, reason = certificate_search_report(cfg)
            got[len(chain) if reason == "found" else reason] += 1
        assert got == census

    def test_chain_holds_its_start_and_steps(self):
        chain, _ = certificate_search_report(validate(12, [(10, 3), (3, 10)]))
        assert [f.name for f in dataclasses.fields(chain)] == ["initial", "steps"]
        assert chain == _chain([(10, 3), (3, 10)], TWO_STEPS)
        assert chain.final == validate(12, [(7, 9), (8, 10)])


def _chain(holes, steps):
    steps = tuple(ChainStep(name, Position(*a), Position(*b)) for name, a, b in steps)
    return CertificateChain(validate(12, holes), steps)


# The shortest chain from holes (10, 3), (3, 10) at w=12.  H1 is x <= 7,
# H2 is y <= 7 and H0 is x + y <= 13.
TWO_STEPS = [("H2", (3, 10), (7, 9)), ("H1", (10, 3), (8, 10))]


@pytest.mark.parametrize(
    "holes, steps",
    [
        ([(10, 3), (3, 10)], [("H2", (4, 10), (7, 9)), TWO_STEPS[1]]),
        ([(10, 3), (3, 10)], [("H1", (3, 10), (7, 9)), TWO_STEPS[1]]),
        ([(6, 4), (10, 10)], [("H0", (10, 10), (7, 5))]),
        ([(10, 3), (3, 10)], [("H2", (3, 10), (7, 12)), TWO_STEPS[1]]),
        ([(10, 10), (11, 9)], [("H0", (10, 10), (11, 9))]),
        # Every other check passes: a merge of two of three holes leaves
        # the critical pair (7, 9), (8, 10).
        ([(7, 9), (10, 10), (11, 9)], [("H0", (11, 9), (10, 10)), ("H0", (10, 10), (8, 10))]),
        ([(10, 3), (3, 10)], TWO_STEPS[:1]),
        ([(10, 3), (3, 10)], [("H9", (3, 10), (7, 9)), TWO_STEPS[1]]),
    ],
    ids=["source-not-a-hole", "source-in-half-plane", "target-in-half-plane", "onto-boundary",
         "onto-other-hole", "merge-into-a-pair", "one-step-short", "unknown-half-plane"],
)
def test_tampered_chain_is_rejected(holes, steps):
    chain = _chain(holes, steps)
    assert not verify_certificate(chain)
    assert not verify_certificate(chain, check_equiv=True)


def test_per_size_caches_stay_bounded():
    """A sweep over many sizes keeps at most a few entries of the per-size
    distance_grid cache: an entry at w = MAX_SIZE holds about 39 MB."""
    for w in range(11, 19):
        cfg = validate(w, [(w - 2, 3), (3, w - 2)])
        chain, reason = certificate_search_report(cfg)
        assert reason == "found" and verify_certificate(chain)
        for corner in ((0, 0), (0, w), (w, 0), (w, w)):
            bfs_distance(cfg, corner, (w // 2, w // 2))
        assert t_of(cfg, (w, w)) == w + w
    assert distance_grid.cache_info().currsize <= 8
