"""Property tests of the configuration and plan file formats and the CLI's
exit-code contract on malformed files.

Round trips through JSON and ASCII are bit-exact, and so are plan files.  A
malformed file makes `fssp-holes validate` exit 2 with an error code, never
a traceback; the mutations below are each guaranteed to break the file.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fssp_holes.cli import main
from fssp_holes.errors import ParseError, ValidationError
from fssp_holes.grid import (
    Pattern,
    Position,
    dump_ascii,
    dump_json,
    load_ascii,
    load_config_file,
    load_json,
    validate,
)
from fssp_holes.shapes import compute_ck
from fssp_holes.sim.plan import MessagePlan, plan_from_json, plan_to_json, worked_instance_plan


@st.composite
def configurations(draw):
    w = draw(st.integers(1, 14))
    if w == 1:
        return validate(1, [])
    interior = st.tuples(st.integers(1, w - 1), st.integers(1, w - 1))
    holes = draw(st.lists(interior, max_size=min(12, (w - 1) ** 2), unique=True))
    try:
        return validate(w, holes)
    except ValidationError:
        return validate(w, [])


@settings(max_examples=150, deadline=None)
@given(configurations())
def test_json_round_trip(cfg):
    text = dump_json(cfg)
    back = load_json(text)
    assert back == cfg and dump_json(back) == text


@settings(max_examples=150, deadline=None)
@given(configurations())
def test_ascii_round_trip(cfg):
    text = dump_ascii(cfg)
    back = load_ascii(text)
    assert back == cfg and dump_ascii(back) == text


@settings(max_examples=50, deadline=None)
@given(configurations(), st.booleans())
def test_file_round_trip(tmp_path_factory, cfg, ascii_form):
    path = tmp_path_factory.mktemp("rt") / "cfg"
    text = dump_ascii(cfg) if ascii_form else dump_json(cfg)
    path.write_text(text, encoding="utf-8")
    assert load_config_file(str(path)) == cfg


@st.composite
def plans(draw):
    """A plan whose pattern labels each of its cells a node or a hole, not both."""
    w = draw(st.integers(1, 14))
    cell = st.builds(Position, st.integers(-1, w + 1), st.integers(-1, w + 1))
    is_hole = draw(st.dictionaries(cell, st.booleans(), max_size=12))
    holes = frozenset(p for p, hole in is_hole.items() if hole)
    site = st.tuples(cell.filter(lambda p: p not in holes), st.integers(0, 5))
    groups = draw(st.lists(st.lists(site, min_size=1, max_size=3).map(tuple), max_size=3))
    return MessagePlan(w, draw(st.integers(0, 3)), tuple(groups), Pattern(frozenset(is_hole), holes))


@settings(max_examples=150, deadline=None)
@given(plans(), st.data())
def test_plan_round_trip(plan, data):
    text = plan_to_json(plan)
    back = plan_from_json(text)
    assert back == plan and plan_to_json(back) == text
    if plan.pattern.holes:
        # The same cell listed as a node and as a hole contradicts itself.
        hole = data.draw(st.sampled_from(sorted(plan.pattern.holes)))
        doc = json.loads(text)
        doc["pattern"]["nodes"].append(list(hole))
        with pytest.raises(ParseError):
            plan_from_json(json.dumps(doc))


# Text added by a mutation never holds a digit, so a mutated size stays small.
NO_DIGITS = st.text(
    st.characters(blacklist_categories=("Nd", "Cs")), min_size=1, max_size=4
).filter(lambda s: s.strip() and "." not in s and "#" not in s)


@st.composite
def malformed_files(draw):
    """Bytes of a valid JSON or ASCII file after one breaking mutation."""
    cfg = draw(configurations())
    kind = draw(st.sampled_from(
        ["json-truncate", "json-key", "json-junk", "json-repeat", "ascii-row", "ascii-char",
         "ascii-header", "ascii-blank", "not-utf8"]
    ))
    if kind.startswith("json"):
        text = dump_json(cfg)
        if kind == "json-truncate":
            # Every proper prefix lacks the closing brace.
            text = text[: draw(st.integers(1, len(text) - 1))]
        elif kind == "json-key":
            text = text.replace('"size"', '"' + draw(NO_DIGITS).replace('"', "") + 'x"')
        elif kind == "json-repeat":
            doc = json.loads(text)
            hole = draw(st.sampled_from(doc["holes"] or [[1, 1]]))
            doc["holes"] += [hole, hole]
            text = json.dumps(doc)
        else:
            text = text[:-1] + "," + draw(NO_DIGITS) + "}"
        return text.encode("utf-8")
    lines = dump_ascii(cfg).splitlines()
    if kind == "ascii-row":
        # One row too many, or one too few.
        at = draw(st.integers(1, len(lines) - 1))
        if draw(st.booleans()):
            lines.insert(at, "." * (cfg.size + 1))
        else:
            del lines[at]
    elif kind == "ascii-char":
        y = draw(st.integers(1, len(lines) - 1))
        x = draw(st.integers(0, cfg.size))
        junk = draw(NO_DIGITS)
        lines[y] = lines[y][:x] + junk + lines[y][x + 1:]
    elif kind == "ascii-header":
        lines[0] = draw(st.sampled_from(["", "w", "w:", "size="])) + draw(NO_DIGITS)
    elif kind == "ascii-blank":
        # A blank line between two rows of the grid.
        lines.insert(draw(st.integers(2, len(lines) - 1)), draw(st.sampled_from(["", " ", "\t"])))
    else:
        return dump_ascii(cfg).encode("utf-8") + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_files())
def test_malformed_file_exit_2_with_code(tmp_path, capsys, data):
    path = tmp_path / "cfg"
    path.write_bytes(data)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2, data
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["valid"] is False and doc["error"] == "ParseError", (data, doc)
    assert "Traceback" not in captured.err


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("bad", [2.0, True, "2", None, [2], {"x": 2}], ids=repr)
def test_every_json_reader_rejects_a_non_integer(tmp_path, bad):
    """Configurations, plans and checkpoints share one integer check."""
    doc = json.loads(dump_json(validate(5, [(2, 2), (3, 1)])))
    _put(doc, ("holes", 1, 1), bad)
    with pytest.raises(ParseError):
        load_json(json.dumps(doc))
    slots = [("target_size",), ("slack",), ("groups", 0, 0, 0, 1), ("groups", 0, 0, 1),
             ("pattern", "holes", 2, 0)]
    for slot in slots:
        doc = json.loads(plan_to_json(worked_instance_plan()))
        _put(doc, slot, bad)
        with pytest.raises(ParseError):
            plan_from_json(json.dumps(doc))
    path = tmp_path / "ck.jsonl"
    compute_ck(3, checkpoint=str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    at = next(i for i, r in enumerate(records) if r["arg"])
    for slot in [("row0",), ("best",), ("arg", 0, 2)]:
        doc = json.loads(json.dumps(records[at]))
        _put(doc, slot, bad)
        path.write_text("".join(json.dumps(r) + "\n" for r in [*records[:at], doc]))
        with pytest.raises(ParseError):
            compute_ck(3, jobs=1, checkpoint=str(path))
