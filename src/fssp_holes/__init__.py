"""Firing squad synchronization on square grids with holes.

Library layout mirrors the problem's structure:

* grid       -- positions, configurations, distances, patterns, regions
* barriers   -- maximal barrier computation and its enumeration oracle
* shapes     -- barrier-shape space and the worst-case excess constants c_k
* timebounds -- through-corner lower bounds and relocation certificates
* sim        -- line/square synchronizers and the message-plan simulator
* mft2       -- the two-hole minimum-firing-time classifier
* cli        -- command-line front end
"""

from .grid import (
    Configuration,
    Pattern,
    Position,
    RegionFamily,
    bfs_distance,
    boundary_condition,
    has_pattern,
    mh_distance,
    pattern_of,
    regions,
    validate,
)
from .barriers import Rect, corner_mh_access, is_barrier, maximal_barriers
from .shapes import BarrierShape, ShapeEval, ck_bounds, compute_ck, d0_d1, e_of, enumerate_shapes, evaluate, h_kw
from .timebounds import (
    CertificateChain,
    critical_holes,
    equiv_prime,
    has_critical_pair,
    lower_bound_certificate,
    max_t,
    pattern_move_equiv,
    t_formula,
    t_of,
    verify_certificate,
)
from .mft2 import HoleTypeProfile, MftVerdict, build_witness_plan, classify, thm_appendix_check, type_of
from .sim.line import run_line_fssp
from .sim.plan import MessagePlan, check_c_conditions, run_message_plan
from .sim.sh1 import run_sh1
from .sim.transcript import FiringTranscript

__version__ = "0.1.0"
