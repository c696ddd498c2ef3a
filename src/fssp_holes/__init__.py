"""Firing squad synchronization on square grids with holes.

Library layout mirrors the problem's structure:

* grid       -- positions, configurations, distances, patterns
* barriers   -- the barrier predicate and maximal barriers
* shapes     -- barrier-shape space and the worst-case excess constants c_k
* timebounds -- through-corner lower bounds and relocation certificates
* sim        -- line/square synchronizers and the message-plan simulator
* mft2       -- the U/V/W/X regions and the two-hole minimum-firing-time classifier
* cli        -- command-line front end

``import fssp_holes`` loads no submodule: each public name below, and each
submodule, is imported on first use (PEP 562), so a process pays only for
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "grid": "Configuration Pattern Position bfs_distance boundary_condition"
    " has_pattern mh_distance pattern_of validate",
    "barriers": "Rect is_barrier maximal_barriers",
    "shapes": "BarrierShape ShapeEval ck_bounds compute_ck d0_d1 e_of enumerate_shapes evaluate h_kw",
    "timebounds": "CertificateChain critical_holes equiv_prime has_critical_pair max_t"
    " pattern_move_equiv t_of verify_certificate",
    "mft2": "MftVerdict build_witness_plan classify region_of type_of",
    "sim.line": "run_line_fssp",
    "sim.plan": "MessagePlan check_c_conditions run_message_plan",
    "sim.sh1": "run_sh1",
    "sim.transcript": "FiringTranscript",
}
#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {"barriers", "errors", "grid", "mft2", "shapes", "sim", "timebounds"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
