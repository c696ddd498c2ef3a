"""Output checks that do not trust the program's own tables or checkers.

Each check returns None when the answer is right and a one-line reason when
it is wrong.  The benchmark counts every reason, and every exception the
program raises, as a failed answer.
"""

from __future__ import annotations

import json

#: The k = 2..6 rows of the c_k table: (c_k, shapes, pairs, argmax pairs).
#: A copy kept here so that a change to the program's reference table cannot
#: hide a wrong row.
REFERENCE_CK_ROWS = {
    2: (1, 5, 4, 2),
    3: (1, 29, 80, 34),
    4: (2, 224, 1_324, 16),
    5: (3, 2_220, 22_588, 24),
    6: (4, 26_898, 416_782, 14),
}


def check_ck_row(k: int, result) -> str | None:
    """The row compute_ck(k) returned must equal the reference row."""
    got = (result.c_k, result.shape_count, result.pair_count, result.argmax_pair_count)
    want = REFERENCE_CK_ROWS.get(k)
    if want is None:
        return f"no reference row for k={k}"
    if got != want:
        return f"c_k row k={k}: got {got}, reference {want}"
    return None


# ---------------------------------------------------------------------------
# The two-hole verdict, recomputed from the three 2w+1 region conditions.


def _is_critical(p) -> bool:
    return abs(p[0] - p[1]) == 2


def _regions(w: int):
    """(U, V, W) of the w-square, written out from their definitions."""
    h = w // 2
    uv = {(x, y) for x in range(h + 1) for y in range(h + 1)}
    u = {(x, y) for x, y in uv if x <= h - 1 and y <= h - 1}
    if w % 2 == 0:
        band = {(x, h + 1) for x in range(h + 1)} | {(h + 1, y) for y in range(h + 1)}
    else:
        band = {(x, y) for x in range(h + 2) for y in range(h + 2)} - uv
    return u, uv - u, band


def inner_and_outer_cells(w: int) -> tuple[list, list]:
    """Interior cells of U u V, and interior cells outside U u V u W."""
    u, v, band = _regions(w)
    interior = [(x, y) for x in range(1, w) for y in range(1, w)]
    return ([c for c in interior if c in u or c in v],
            [c for c in interior if c not in u and c not in v and c not in band])


def has_critical_pair(holes) -> bool:
    """Two critical holes at offset (1, 1)."""
    hs = {tuple(h) for h in holes}
    return any(_is_critical(a) and (a[0] + 1, a[1] + 1) in hs for a in hs)


def expected_mft(w: int, holes) -> int:
    """2w+1 when one of the three region conditions holds, else 2w.

    (1) no hole in U, V or W; (2) U and V clean and exactly one hole in W,
    which is critical; (3) a critical pair with both holes in U, V or W.
    """
    u, v, band = _regions(w)
    hs = [tuple(h) for h in holes]
    in_u = [h for h in hs if h in u]
    in_v = [h for h in hs if h in v]
    in_w = [h for h in hs if h in band]
    slow = (
        not (in_u or in_v or in_w)
        or (not in_u and not in_v and len(in_w) == 1 and _is_critical(in_w[0]))
        or (has_critical_pair(hs) and len(in_u) + len(in_v) + len(in_w) == len(hs))
    )
    return 2 * w + 1 if slow else 2 * w


def _replay_chain(holes, steps) -> set | str:
    """Apply (from, to) relocations to the hole set; a reason if one is invalid."""
    current = {tuple(h) for h in holes}
    for src, dst in steps:
        if src not in current or dst in current:
            return f"chain step {src} -> {dst} does not move a hole to a free cell"
        current = (current - {src}) | {dst}
    return current


def _check_chain(holes, steps, verified) -> str | None:
    if verified is not True:
        return "chain not verified"
    final = _replay_chain(holes, steps)
    if isinstance(final, str):
        return final
    if not has_critical_pair(final):
        return "chain does not end in a critical pair"
    return None


def check_verdict(cfg, verdict, recheck) -> str | None:
    """One in-process classify answer and its re-check.

    recheck is verify_certificate(chain, check_equiv=True) for a 2w+1
    verdict and the plan's firing time under run_message_plan for a 2w one.
    """
    w = cfg.size
    want = expected_mft(w, cfg.holes)
    if verdict.value != want:
        return f"verdict {verdict.value} for {sorted(cfg.holes)} at w={w}, regions give {want}"
    if want == 2 * w + 1:
        if verdict.kind != "lower_chain" or verdict.chain is None:
            return "2w+1 verdict without a relocation chain"
        if verdict.chain.initial != cfg:
            return "chain does not start at the queried configuration"
        steps = [(tuple(s.moved_from), tuple(s.moved_to)) for s in verdict.chain.steps]
        return _check_chain(cfg.holes, steps, recheck)
    if verdict.kind != "witness_plan" or verdict.plan is None or verdict.check is None:
        return "2w verdict without a witness plan"
    if not verdict.check.ok:
        return f"witness plan fails its checks: {verdict.check.failures[:1]}"
    if recheck != 2 * w:
        return f"witness plan fires at {recheck}, expected {2 * w}"
    return None


def check_cli_classify(cfg, returncode: int, stdout: str) -> str | None:
    """The output of `fssp-holes classify <cfg> --certificate`."""
    if returncode != 0:
        return f"classify exited with {returncode}"
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"unreadable classify output {stdout[:80]!r}"
    w = cfg.size
    want = expected_mft(w, cfg.holes)
    if doc.get("w") != w or doc.get("mft") != want:
        return f"classify said w={doc.get('w')} mft={doc.get('mft')}, regions give {want}"
    if want == 2 * w + 1:
        if doc.get("kind") != "lower_chain" or "chain" not in doc:
            return "2w+1 answer without a relocation chain"
        steps = [(tuple(s["from"]), tuple(s["to"])) for s in doc["chain"]]
        return _check_chain(cfg.holes, steps, doc.get("chain_verified"))
    if doc.get("kind") != "witness_plan" or doc.get("plan_checks_ok") is not True:
        return "2w answer without a checked witness plan"
    if doc.get("plan_fires") != 2 * w:
        return f"witness plan fires at {doc.get('plan_fires')}, expected {2 * w}"
    return None


# ---------------------------------------------------------------------------
# Synchronizers


def check_line(n: int, fire_time) -> str | None:
    """An n-cell line fires at exactly 2n - 2."""
    if fire_time != 2 * n - 2:
        return f"line n={n} fired at {fire_time}, expected {2 * n - 2}"
    return None


def check_square(cfg, transcript) -> str | None:
    """Every node fires at exactly 2w; the diagonal wave reaches (i, i) at 2i."""
    w = cfg.size
    holes = {tuple(h) for h in cfg.holes}
    nodes = {(x, y) for x in range(w + 1) for y in range(w + 1)} - holes
    fired = {tuple(p): t for p, t in transcript.fire_time.items()}
    if set(fired) != nodes:
        return f"square w={w}: transcript covers {len(fired)} of {len(nodes)} nodes"
    late = sorted(p for p, t in fired.items() if t != 2 * w)
    if late:
        return f"square w={w}: node {late[0]} fired at {fired[late[0]]}, expected {2 * w}"
    arrivals = {tuple(p): t for p, t in transcript.diagnostics["diag_arrivals"].items()}
    for i in range(w + 1):
        if (i, i) not in holes and arrivals.get((i, i)) != 2 * i:
            return f"square w={w}: diagonal reached {(i, i)} at {arrivals.get((i, i))}, expected {2 * i}"
    return None
