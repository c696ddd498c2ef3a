"""What each process loads: `import fssp_holes` loads no submodule, and each
CLI subcommand loads only the modules it runs. The package's public names
resolve on first use to the objects their modules define."""

import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fssp_holes
from fssp_holes.grid import dump_json, validate
from fssp_holes.sim.plan import plan_to_json, worked_instance_plan

SRC = Path(fssp_holes.__file__).parent.parent
README = SRC.parent / "README.md"

# Run in a fresh interpreter: the modules one CLI call (or, with no
# arguments, `import fssp_holes`) adds to sys.modules, and what it prints.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    if argv:
        from fssp_holes import cli
        rc = cli.main(argv)
    else:
        import fssp_holes
        rc = None
print(json.dumps({"added": sorted(set(sys.modules) - before), "rc": rc, "out": out.getvalue()}))
"""

INPUTS = {
    "chain": dump_json(validate(12, [(10, 3), (3, 10)])),  # 2w+1, certified by a chain
    "plan2w": dump_json(validate(13, [(3, 4), (9, 8)])),  # 2w, certified by a plan
    "one": dump_json(validate(9, [(4, 6)])),
    "worked": dump_json(validate(7, [(1, 1), (2, 1), (3, 1)])),
    "plan": plan_to_json(worked_instance_plan()),
}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Run the probe on argv, each '@name' replaced by the path of INPUTS[name]."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        (folder / f"{name}.json").write_text(text)

    def run(*argv: str) -> dict:
        argv = [str(folder / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, json.dumps(argv)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run


def test_import_package_loads_no_submodule(fresh):
    assert fresh()["added"] == ["fssp_holes"]


def test_validate_loads_only_grid_and_errors(fresh):
    run = fresh("validate", "@plan2w")
    assert (run["rc"], run["out"]) == (0, '{"holes": 2, "size": 13, "valid": true}\n')
    assert {m for m in run["added"] if m.startswith("fssp_holes")} == {
        "fssp_holes", "fssp_holes.cli", "fssp_holes.errors", "fssp_holes.grid",
    }


@pytest.mark.parametrize(
    "argv, out",
    [
        (["classify", "@chain", "--certificate"],
         '{"chain": [{"from": [3, 10], "half_plane": "H2", "to": [7, 9]}, '
         '{"from": [10, 3], "half_plane": "H1", "to": [8, 10]}], "chain_verified": true, '
         '"kind": "lower_chain", "mft": 25, "w": 12}\n'),
        (["classify", "@plan2w", "--certificate"],
         '{"kind": "witness_plan", "mft": 26, "plan_checks_ok": true, "plan_fires": 26, '
         '"w": 13}\n'),
        (["certify", "@chain"],
         "H2 3 10 -> 7 9\nH1 10 3 -> 8 10\nfinal [(7, 9), (8, 10)] verified=True\n"),
    ],
    ids=["classify-2w1", "classify-2w", "certify"],
)
def test_certificate_commands_skip_unused_modules(fresh, argv, out):
    run = fresh(*argv)
    assert (run["rc"], run["out"]) == (0, out)
    unused = {
        "fssp_holes.shapes", "fssp_holes.barriers", "fssp_holes.sim.line", "fssp_holes.sim.sh1",
        "logging", "concurrent.futures", "multiprocessing", "hashlib",
    }
    assert unused.isdisjoint(run["added"])


@pytest.mark.parametrize(
    "argv, out",
    [
        (["ck", "--k", "3", "--jobs", "1"],
         '{"argmax_pairs": 34, "c_k": 1, "k": 3, "pairs": 80, "shapes": 29}\n'),
        (["barriers", "@plan2w"], "3 4 3 4\n9 8 9 8\ncount 2\n"),
        (["simulate", "sh1", "@one"], '{"fire_time": 18, "size": 9}\n'),
        (["simulate", "line", "--n", "10"], '{"fire_time": 18, "n": 10}\n'),
        (["simulate", "plan", "@worked", "@plan"],
         '{"fire_time": 14, "fired": true, "size": 7, "target_size": 7}\n'),
        (["repro-tables", "--ks", "2,3", "--jobs", "1"],
         "| k | c_k | shapes | pairs | argmax pairs | match |\n"
         "|---|-----|--------|-------|--------------|-------|\n"
         "| 2 | 1 | 5 | 4 | 2 | True |\n"
         "| 3 | 1 | 29 | 80 | 34 | True |\n"),
        (["equiv", "@chain", "@plan2w", "--t", "24", "--v", "12,0"],
         '{"equiv_prime": false, "t": 24, "v": [12, 0]}\n'),
    ],
    ids=["ck", "barriers", "sh1", "line", "plan", "repro-tables", "equiv"],
)
def test_other_subcommands_print_as_before(fresh, argv, out):
    run = fresh(*argv)
    assert (run["rc"], run["out"]) == (0, out)


def test_tvc_prints_as_before(fresh):
    run = fresh("tvc", "@plan2w")
    digest = hashlib.sha256(f"{run['rc']}\n{run['out']}".encode()).hexdigest()
    assert digest == "db2b1f75c5c468b95915fdd4a4ade977702ecbb12732a5ff8f865d0e32fa9cc8"
    assert {"fssp_holes.barriers", "fssp_holes.shapes"}.isdisjoint(run["added"])


#: The package's public names, by the module that defines them.
PUBLIC = {
    "grid": "Configuration Pattern Position bfs_distance boundary_condition "
            "has_pattern mh_distance pattern_of validate",
    "barriers": "Rect is_barrier maximal_barriers",
    "shapes": "BarrierShape ShapeEval ck_bounds compute_ck d0_d1 e_of enumerate_shapes "
              "evaluate h_kw",
    "timebounds": "CertificateChain critical_holes equiv_prime has_critical_pair max_t "
                  "pattern_move_equiv t_of verify_certificate",
    "mft2": "MftVerdict build_witness_plan classify region_of type_of",
    "sim.line": "run_line_fssp",
    "sim.plan": "MessagePlan check_c_conditions run_message_plan",
    "sim.sh1": "run_sh1",
    "sim.transcript": "FiringTranscript",
}
PUBLIC_NAMES = [(name, home) for home, names in PUBLIC.items() for name in names.split()]


def test_public_names_resolve_to_their_home_objects():
    assert sorted(fssp_holes.__all__) == sorted([n for n, _ in PUBLIC_NAMES] + ["__version__"])
    for name, home in PUBLIC_NAMES:
        assert getattr(fssp_holes, name) is getattr(import_module(f"fssp_holes.{home}"), name)
    assert fssp_holes.__version__ == "0.1.0"
    assert set(fssp_holes.__all__) <= set(dir(fssp_holes))
    for sub in ("barriers", "errors", "grid", "mft2", "shapes", "sim", "timebounds"):
        assert getattr(fssp_holes, sub) is import_module(f"fssp_holes.{sub}")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fssp_holes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fssp_holes.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fssp_holes.no_such_name  # noqa: B018
    assert not hasattr(fssp_holes, "cli_main")


def test_readme_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout) == (0, "18\n24 True\n"), proc.stderr
