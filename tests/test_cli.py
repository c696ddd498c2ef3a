import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fssp_holes
from fssp_holes.cli import main
from fssp_holes.grid import distance_grid, dump_ascii, dump_json, square_rows, validate
from fssp_holes.mft2 import build_witness_plan
from fssp_holes.shapes import HARD_MAX_K
from fssp_holes.sim.plan import plan_to_json, worked_instance_plan
from fssp_holes.timebounds import max_t, t_of

from conftest import serpentine_maze


@pytest.fixture
def cfg_file(tmp_path):
    def write(name, cfg, ascii_form=False):
        path = tmp_path / name
        path.write_text(dump_ascii(cfg) if ascii_form else dump_json(cfg))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


class TestValidate:
    def test_ok(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(12, [(8, 2), (2, 8)]))
        code, out = run_cli(capsys, "validate", path)
        assert code == 0 and json.loads(out)["valid"]

    def test_boundary_hole_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"size": 5, "holes": [[0, 3]]}')
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"] == "BoundaryHole"

    def test_ascii_input(self, cfg_file, capsys):
        path = cfg_file("a.txt", validate(5, [(2, 2), (3, 3)]), ascii_form=True)
        code, out = run_cli(capsys, "validate", path)
        assert code == 0 and json.loads(out) == {"valid": True, "size": 5, "holes": 2}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, text, code",
        [
            (["classify"], '{"size": 12, "holes": [[8, 2], [2', "ParseError"),
            (["classify"], '{"size": "12", "holes": []}', "ParseError"),
            (["classify"], "w=2\n...\n.x.\n...\n", "ParseError"),
            (["validate"], "w=2\n...\n.?.\n...\n", "ParseError"),
            (["validate"], '{"size": 0, "holes": []}', "SizeTooSmall"),
            (["validate"], "w=2\n...\n...\n...\n###\n", "ParseError"),
            (["validate"], b'{"size": 5, "holes": [[\xff, 2]]}', "ParseError"),
            (["validate"], "w=\u00b2\n...\n...\n...\n", "ParseError"),
            (["validate"], '{"size": ' + "[" * 100_000, "ParseError"),
            (["validate"], '{"size": 3, "holes": [[1, 1], [1, 1]]}', "ParseError"),
            (["validate"], "w=2\n...\n\n.#.\n\n...\n", "ParseError"),
            (["simulate", "line", "--n", "0"], None, "SizeTooSmall"),
            (["simulate", "line", "--n", "-3"], None, "SizeTooSmall"),
            (["simulate", "line", "--n", "100000"], None, "SizeTooLarge"),
            (["ck", "--k", "3", "--jobs", "0"], None, "ParseError"),
            (["ck", "--k", "3", "--jobs", "-1"], None, "ParseError"),
            (["repro-tables", "--ks", "2", "--jobs", "0"], None, "ParseError"),
            # Above the CPU count; a pool that large would fork every worker at once.
            (["ck", "--k", "2", "--jobs", "100000"], None, "ParseError"),
            (["repro-tables", "--ks", "2,x"], None, "ParseError"),
            (["repro-tables", "--ks", "2,3,2", "--jobs", "1"], None, "ParseError"),
            # The --v value is checked before either file is opened.
            (["equiv", "a.json", "b.json", "--t", "3", "--v", "a,b"], None, "ParseError"),
            (["equiv", "a.json", "b.json", "--t", "3", "--v", "1,2,3"], None, "ParseError"),
            (["simulate", "sh1"], '{"size": 1, "holes": []}', "SizeTooSmall"),
            (["ck", "--k", "1"], None, "WrongHoleCount"),
            (["ck", "--k", "0"], None, "WrongHoleCount"),
            (["ck", "--k", "3", "--jobs", "1", "--checkpoint"],
             '{"v": 4, "k": 3, "w": 1, "h": 1, "row0": 1, "shapes": 1.5, "pairs": 0, '
             '"best": -1, "arg": []}\n', "ParseError"),
            (["ck", "--k", "3", "--jobs", "1", "--checkpoint"],
             '{"v": 4, "k": 3, "w": 1, "h": 1, "row0": 1, "shapes": -5, "pairs": 0, '
             '"best": -1, "arg": []}\n', "ParseError"),
            # Two first-row holes leave the three rows above one hole: no task of k=4.
            (["ck", "--k", "4", "--jobs", "1", "--checkpoint"],
             '{"v": 4, "k": 4, "w": 2, "h": 4, "row0": 3, "shapes": 0, "pairs": 0, '
             '"best": -1, "arg": []}\n', "ParseError"),
        ],
        ids=["truncated-json", "string-size", "ascii-char", "validate-ascii-char", "size-0",
             "extra-row", "not-utf8", "superscript-size", "deep-json", "repeated-hole",
             "ascii-blank-line", "line-n-0", "line-n-negative", "line-n-huge",
             "ck-jobs-0", "ck-jobs-negative", "repro-jobs-0", "ck-jobs-huge", "repro-ks",
             "repro-ks-repeated", "equiv-v-text", "equiv-v-three", "sh1-size-1", "ck-k-1", "ck-k-0",
             "ck-checkpoint-float-count", "ck-checkpoint-negative-count",
             "ck-checkpoint-non-task"],
    )
    def test_exit_2_with_code(self, tmp_path, capsys, no_process_pool, argv, text, code):
        if text is not None:
            path = tmp_path / "cfg"
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
            argv = argv + [str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert code in captured.out + captured.err
        assert "Traceback" not in captured.err

    def test_plan_cell_both_node_and_hole_exit_2(self, cfg_file, tmp_path, capsys):
        cfg_path = cfg_file("a.json", validate(7, [(1, 1), (2, 1), (3, 1)]))
        doc = json.loads(plan_to_json(worked_instance_plan()))
        doc["pattern"]["nodes"].append([1, 1])
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        assert main(["simulate", "plan", cfg_path, str(plan_path)]) == 2
        captured = capsys.readouterr()
        assert "ParseError" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "path, value",
        [
            (["slack"], 0.5),
            (["target_size"], 7.0),
            (["groups", 0, 0, 1], 0.9),
            (["groups", 0, 0, 1], True),
        ],
    )
    def test_plan_number_not_an_int_exit_2(self, cfg_file, tmp_path, capsys, path, value):
        cfg_path = cfg_file("a.json", validate(7, [(1, 1), (2, 1), (3, 1)]))
        doc = json.loads(plan_to_json(worked_instance_plan()))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        assert main(["simulate", "plan", cfg_path, str(plan_path)]) == 2
        captured = capsys.readouterr()
        assert "ParseError" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("cmd", ["validate", "classify"])
    def test_directory_argument_exit_2(self, tmp_path, capsys, cmd):
        assert main([cmd, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: IsADirectoryError:")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text", ['{"size": 100000, "holes": []}', "w=100000\n...\n"], ids=["json", "ascii"]
    )
    def test_size_above_max_exit_2_at_once(self, tmp_path, capsys, text):
        path = tmp_path / "cfg"
        path.write_text(text)
        t0 = time.process_time()
        assert main(["validate", str(path)]) == 2
        assert time.process_time() - t0 < 0.2
        assert json.loads(capsys.readouterr().out)["error"] == "SizeTooLarge"
        assert main(["classify", str(path)]) == 2
        assert "SizeTooLarge" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError:")


class TestCk:
    def test_k2_payload(self, capsys):
        code, out = run_cli(capsys, "ck", "--k", "2")
        assert code == 0
        assert json.loads(out) == {
            "k": 2,
            "c_k": 1,
            "shapes": 5,
            "pairs": 4,
            "argmax_pairs": 2,
        }

    def test_budget_exit_4(self, capsys):
        assert main(["ck", "--k", str(HARD_MAX_K + 1)]) == 4

    @pytest.mark.parametrize(
        "ks, code, err",
        [(f"7,{HARD_MAX_K + 1}", 4, f"k={HARD_MAX_K + 1} exceeds the ceiling HARD_MAX_K="),
         ("3,1", 2, "WrongHoleCount: k must be >= 2, got 1")],
        ids=["above-cap", "below-2"],
    )
    def test_repro_tables_checks_every_k_before_any_row(self, monkeypatch, capsys, ks, code, err):
        def no_scan(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr("fssp_holes.shapes.compute_ck", no_scan)
        assert main(["repro-tables", "--ks", ks, "--jobs", "1"]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and err in captured.err

    def test_checkpoint_for_other_k_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "ck.jsonl")
        code, out = run_cli(capsys, "ck", "--k", "4", "--jobs", "1", "--checkpoint", path)
        assert code == 0 and json.loads(out)["shapes"] == 224
        code = main(["ck", "--k", "5", "--jobs", "1", "--checkpoint", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "CheckpointMismatch" in captured.err

    def test_list_argmax(self, capsys):
        code, out = run_cli(capsys, "ck", "--k", "2", "--list-argmax")
        payload = json.loads(out)
        assert len(payload["argmax"]) == 2


@pytest.mark.parametrize(
    "argv, records",
    [(["ck", "--k", "4", "--jobs", "1"], 25), (["repro-tables", "--ks", "2,3", "--jobs", "1"], 4 + 11)],
)
def test_log_level_writes_progress_to_stderr_only(argv, records):
    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "fssp_holes.cli", *argv, *extra],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )

    quiet, info = run(), run("--log-level", "INFO")
    assert quiet.returncode == info.returncode == 0
    assert quiet.stderr == b""
    assert info.stdout == quiet.stdout
    lines = info.stderr.decode().splitlines()
    assert len(lines) == records and all("fssp_holes.shapes: k=" in line for line in lines)


class TestClassifyAndCertify:
    def test_classify_example(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(12, [(8, 2), (2, 8)]))
        code, out = run_cli(capsys, "classify", path)
        assert code == 0 and json.loads(out)["mft"] == 25

    def test_classify_with_certificate(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(12, [(3, 3), (8, 8)]))
        code, out = run_cli(capsys, "classify", path, "--certificate")
        payload = json.loads(out)
        assert payload["mft"] == 24 and payload["plan_checks_ok"]
        assert payload["plan_fires"] == 24

    def test_certify_found(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(12, [(10, 3), (3, 10)]))
        code, out = run_cli(capsys, "certify", path)
        assert code == 0 and "verified=True" in out

    def test_certify_not_found_exit_3(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(12, [(3, 3), (8, 8)]))
        code, out = run_cli(capsys, "certify", path)
        assert code == 3 and out.startswith("NOT_FOUND")


class TestOtherCommands:
    def test_barriers_json(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(5, [(2, 2), (3, 3)]))
        code, out = run_cli(capsys, "barriers", path, "--json")
        assert json.loads(out) == {"maximal_barriers": [[2, 2, 3, 3]]}

    def test_simulate_line(self, capsys):
        code, out = run_cli(capsys, "simulate", "line", "--n", "5")
        assert json.loads(out) == {"n": 5, "fire_time": 8}

    def test_simulate_sh1(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(7, [(3, 5)]))
        code, out = run_cli(capsys, "simulate", "sh1", path)
        assert json.loads(out)["fire_time"] == 14

    def test_simulate_plan(self, cfg_file, tmp_path, capsys):
        cfg_path = cfg_file("a.json", validate(7, [(1, 1), (2, 1), (3, 1)]))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_to_json(worked_instance_plan()))
        code, out = run_cli(capsys, "simulate", "plan", cfg_path, str(plan_path))
        assert json.loads(out)["fire_time"] == 14

    def test_equiv(self, cfg_file, capsys):
        a = cfg_file("a.json", validate(12, [(10, 3), (3, 10)]))
        b = cfg_file("b.json", validate(12, [(10, 3), (9, 11)]))
        code, out = run_cli(capsys, "equiv", a, b, "--t", "24", "--v", "12,0")
        assert json.loads(out)["equiv_prime"] is True

    def test_tvc_json(self, cfg_file, capsys):
        path = cfg_file("a.json", validate(12, [(6, 4), (7, 5)]))
        code, out = run_cli(capsys, "tvc", path, "--json")
        assert json.loads(out)["max_t"] == 25

    @pytest.mark.parametrize(
        "cfg",
        [validate(5, []), validate(12, [(6, 4), (7, 5)]), serpentine_maze(40)],
        ids=["w5-empty", "w12-pair", "w40-maze"],
    )
    def test_tvc_makes_no_distance_grid_lookup(self, cfg_file, capsys, cfg):
        """One tvc call floods from both far corners at once, whatever the
        node count: no distance_grid lookup, per node or per corner."""
        path = cfg_file("a.json", cfg)
        before = distance_grid.cache_info()
        assert main(["tvc", path]) == 0
        after = distance_grid.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    def test_tvc_text_then_json_in_one_process(self, cfg_file, capsys):
        """Two calls in one process on equal configurations, each with its
        own flood; both print t_of at every node and max_t."""
        cfg = serpentine_maze(30)
        path = cfg_file("maze.json", cfg)
        assert main(["tvc", path]) == 0
        text = capsys.readouterr().out
        assert main(["tvc", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = square_rows(cfg, lambda v: t_of(cfg, v), hole=None)
        assert report == {"size": 30, "max_t": max_t(cfg), "t_grid_rows_north_to_south": rows}
        pictured = [" ".join("  #" if t is None else f"{t:>3}" for t in row) for row in rows]
        assert text == "\n".join([f"max_t {max_t(cfg)}", *pictured]) + "\n"

    def test_repro_tables(self, capsys):
        code, out = run_cli(capsys, "repro-tables", "--ks", "2,3", "--json")
        rows = json.loads(out)["results"]["rows"]
        assert [r["match"] for r in rows] == [True, True]

    def test_repro_tables_inputs_digest(self, capsys):
        def digest(*ks_and_flags):
            code, out = run_cli(capsys, "repro-tables", "--jobs", "1", "--json", *ks_and_flags)
            assert code == 0
            return json.loads(out)["inputs_digest"]

        first = digest("--ks", "2,3")
        want = hashlib.sha256(b'{"ks":[2,3]}').hexdigest()
        assert first == digest("--ks", "2,3") == want
        assert digest("--ks", "2,4") != first

    def test_repro_tables_reports_version_and_a_monotonic_time(self, capsys, monkeypatch):
        # A wall clock that steps backwards between two reads.
        wall = iter(range(10**9, 0, -10))
        monkeypatch.setattr(time, "time", lambda: float(next(wall)))
        code, out = run_cli(capsys, "repro-tables", "--ks", "2,3", "--jobs", "1", "--json")
        report = json.loads(out)
        assert code == 0 and report["elapsed_s"] >= 0
        assert report["version"] == fssp_holes.__version__


class TestPictures:
    """The square pictures, pinned byte for byte: sha256 of the exit code and stdout."""

    WORKED = (7, [(1, 1), (2, 1), (3, 1)])
    CRITICAL_PAIR = (12, [(4, 6), (5, 7)])
    ONE_HOLE = (9, [(4, 6)])
    U_V_PAIR = (12, [(2, 3), (6, 1)])  # V hole on the vertical arm

    @pytest.mark.parametrize(
        "argv, cfg, plan, digest",
        [
            (["tvc"], WORKED, None,
             "92f7b8a5c87f9e67d92b98568522845f2f312ff679d983666d3da6e6d0af1e5b"),
            (["tvc", "--json"], WORKED, None,
             "b907bdf100255c6712e56941b22ce4837af32d21049b7e3766b932f55f70e2f2"),
            (["tvc"], CRITICAL_PAIR, None,
             "bf744a78faea7996e339259825b782c0de01aadadc590c5b3d70595ebed0dffc"),
            (["tvc", "--json"], CRITICAL_PAIR, None,
             "133c2f5e0ade422b0ae0f4f56720b06bc98891dda53122f2c6c3490ed26a23a0"),
            (["tvc"], ONE_HOLE, None,
             "08fe20ac49d87614c745752944470e8ed58baf9fac4dfe1e019c641ad874a37b"),
            (["tvc", "--json"], ONE_HOLE, None,
             "693b3073dab51cfb2c6ce4651b84ff496786865164c8fe97daa44889db192956"),
            (["simulate", "sh1", "--trace"], ONE_HOLE, None,
             "84b336586471483b349441daf8dbc230d509280415c49eb310fa97d384a0a615"),
            (["simulate", "sh1", "--trace"], (5, []), None,
             "91ecadd73aa5893abbf6683d3797bfdaf308c2d64da8d8f1e86530f5acf343ff"),
            (["simulate", "plan", "--trace"], WORKED, "worked",
             "cf78e26fac16e614f9a4f942c70a24ab827dbf9baf12bebd8e8e29a9c234ef5d"),
            (["simulate", "plan", "--trace"], U_V_PAIR, U_V_PAIR,
             "b09a0cdddfaf83bb8aaeda8572d749eaefa746faca5f47a111d5dec22680dbe5"),
            (["simulate", "plan", "--trace"], CRITICAL_PAIR, U_V_PAIR,
             "e8b1123b94c53da798ea512fcdaea4b01f4e35b34442e482aa009e1998e788d9"),
        ],
        ids=["tvc-worked", "tvc-json-worked", "tvc-pair", "tvc-json-pair", "tvc-one-hole",
             "tvc-json-one-hole", "sh1-one-hole", "sh1-no-hole", "plan-worked",
             "plan-witness", "plan-witness-elsewhere"],
    )
    def test_output_digest(self, cfg_file, tmp_path, capsys, argv, cfg, plan, digest):
        argv = [*argv, cfg_file("cfg.json", validate(*cfg))]
        if plan is not None:
            witness = (
                worked_instance_plan() if plan == "worked" else build_witness_plan(validate(*plan))
            )
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(plan_to_json(witness))
            argv.append(str(plan_path))
        code = main(argv)
        out = capsys.readouterr().out
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest
