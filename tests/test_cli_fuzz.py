"""Random argv for every subcommand against the CLI's exit-code contract.

Each subcommand gets argv drawn from its own parser's options, with values
from small pools: 0, negatives, huge numbers, text, and a missing value (an
option left last, or followed by another option).  Positional arguments
come from a fixed pool of configuration and plan files, valid and
malformed, plus a missing path and a directory.  main() must return 0, 2,
3 or 4 (argparse's SystemExit(2) counts as 2) and never raise.

The ck and repro-tables k values either finish at once (at most 4) or are
rejected before any scan (below 2, or above HARD_MAX_K).  --jobs values stay
at most 2, and its default (the host's CPU count) is pinned at 2, since a
process pool starts all its workers at once.
"""

import argparse
import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssp_holes.cli import build_parser, main
from fssp_holes.grid import dump_ascii, dump_json, validate
from fssp_holes.shapes import HARD_MAX_K
from fssp_holes.sim.plan import plan_to_json, worked_instance_plan

HUGE = str(10**30)

#: Values of each option that takes one, by option string.
VALUES = {
    "--k": ["-3", "0", "1", "2", "3", "4", str(HARD_MAX_K + 1), HUGE, "x", "2.5"],
    "--ks": ["2", "2,3", "4,2", "0", "1,8", "2,x", "", "-2", HUGE, "3,,4"],
    "--jobs": ["-1", "0", "1", "2", "x", "1.5"],
    "--n": ["-3", "0", "1", "17", "100000", HUGE, "x"],
    "--t": ["-5", "0", "3", "24", HUGE, "x"],
    "--v": ["0,0", "6,0", "-1,5", "a,b", "1,2,3", HUGE + ",1", ""],
    "--log-level": ["info", "WARNING", "DEBUG", "", "x", "10"],
    "--checkpoint": [],  # files, filled in by the pool fixture
}


def _leaves(parser, prefix=()):
    """(subcommand words, parser) for every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, prefix + (name,))
            return
    yield prefix, parser


LEAVES = dict(_leaves(build_parser()))


def _options(parser):
    """(option string, takes a value) for every option but --help."""
    return [
        (opt, action.nargs != 0)
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
    ]


def _positionals(parser):
    return [action.dest for action in parser._actions if not action.option_strings]


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")

    def put(name, content):
        path = d / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return str(path)

    plan_doc = json.loads(plan_to_json(worked_instance_plan()))
    configs = [
        put("size1.json", '{"size": 1, "holes": []}'),
        put("k0.json", dump_json(validate(5, []))),
        put("k1.txt", dump_ascii(validate(5, [(2, 2)]))),
        put("k2.json", dump_json(validate(5, [(1, 1), (3, 3)]))),
        put("k2-w11.json", dump_json(validate(11, [(3, 3), (8, 8)]))),
        put("k2-w7.json", dump_json(validate(7, [(1, 1), (2, 1)]))),
        put("truncated.json", '{"size": 5, "holes": [[1,'),
        put("boundary.json", '{"size": 5, "holes": [[0, 3]]}'),
        put("not-utf8.json", b'{"size": 5, "holes": [[\xff, 2]]}'),
        put("too-big.json", '{"size": 100000, "holes": []}'),
        str(d / "absent.json"),
        str(d),
    ]
    plans = [
        put("plan.json", json.dumps(plan_doc)),
        put("plan-truncated.json", "{"),
        put("plan-not-utf8.json", b'{"target_size": \xff}'),
        put("plan-text-size.json", json.dumps({**plan_doc, "target_size": "7"})),
        put("plan-far-site.json", json.dumps({**plan_doc, "groups": [[[[50, 50], 0]]]})),
        put("plan-float-site.json", json.dumps({**plan_doc, "groups": [[[[3.5, 0], 0]]]})),
        put("plan-deep.json", '{"groups": ' + "[" * 100_000),
        put("plan-negative-slack.json", json.dumps({**plan_doc, "slack": -1})),
        put("plan-node-and-hole.json", json.dumps(
            {**plan_doc, "pattern": {**plan_doc["pattern"], "nodes": [[1, 1]]}})),
    ]
    checkpoints = [str(d / "ck.jsonl"), put("ck-garbage.jsonl", "not json\n"), str(d)]
    return {"configs": configs, "plans": plans, "--checkpoint": checkpoints}


@st.composite
def argvs(draw, words, pool):
    parser = LEAVES[words]
    argv = list(words)
    for dest in _positionals(parser) + ["extra"]:
        if draw(st.booleans()):
            kind = "plans" if dest == "plan" else "configs"
            other = "configs" if dest == "plan" else "plans"
            argv.append(draw(st.sampled_from(pool[kind] + pool[other][:1])))
    options = _options(parser)
    for opt, takes_value in draw(st.lists(st.sampled_from(options), max_size=4)) if options else []:
        argv.append(opt)
        if takes_value and draw(st.integers(0, 5)):  # 0: the value is missing
            argv.append(draw(st.sampled_from(pool.get(opt) or VALUES[opt])))
    return argv


def test_every_option_has_values():
    for parser in LEAVES.values():
        for opt, takes_value in _options(parser):
            assert not takes_value or opt in VALUES, opt


@pytest.mark.parametrize("words", list(LEAVES), ids=[" ".join(w) for w in LEAVES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_argv_exits_with_a_documented_code(pool, words, data):
    argv = data.draw(argvs(words, pool), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("fssp_holes.cli.os.cpu_count", return_value=2):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
