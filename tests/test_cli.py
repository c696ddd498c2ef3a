import hashlib
import json
import time

import pytest

from fssp_holes.cli import main
from fssp_holes.grid import dump_ascii, dump_json, validate
from fssp_holes.sim.plan import plan_to_json, worked_instance_plan


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
            (["repro-tables", "--ks", "2,x"], None, "ParseError"),
            # The --v value is checked before either file is opened.
            (["equiv", "a.json", "b.json", "--t", "3", "--v", "a,b"], None, "ParseError"),
            (["equiv", "a.json", "b.json", "--t", "3", "--v", "1,2,3"], None, "ParseError"),
            (["simulate", "sh1"], '{"size": 1, "holes": []}', "SizeTooSmall"),
            (["ck", "--k", "1"], None, "WrongHoleCount"),
            (["ck", "--k", "0"], None, "WrongHoleCount"),
        ],
        ids=["truncated-json", "string-size", "ascii-char", "validate-ascii-char", "size-0",
             "extra-row", "not-utf8", "superscript-size", "deep-json", "repeated-hole",
             "ascii-blank-line", "line-n-0", "line-n-negative", "line-n-huge",
             "ck-jobs-0", "ck-jobs-negative", "repro-jobs-0", "repro-ks", "equiv-v-text",
             "equiv-v-three", "sh1-size-1", "ck-k-1", "ck-k-0"],
    )
    def test_exit_2_with_code(self, tmp_path, capsys, argv, text, code):
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
        assert main(["ck", "--k", "8"]) == 4

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
