"""Capacity-game rationality criterion on the projective line.

Builds per-place Green matrices for families of marked rational points,
assembles the global matrix over all places, computes the associated
zero-sum game value with exact rational linear programming, runs the greedy
derivation schedule with its combinatorial bounds, and independently
certifies rationality of the given jets with a Hankel / multi-point Pade
oracle.
"""

from .arch import (
    ArchDomainAssignment,
    Disk,
    DisjointUnion,
    ExteriorDisk,
    IntervalComplement,
    arch_matrix,
    green,
    robin_constant,
)
from .cli import Verdict, build_global_matrix, run_check
from .errors import CapgameError, ComputationError, PreconditionError, ProblemFormatError
from .formal import (
    INFINITY,
    LocalSeries,
    MarkedPoint,
    TangentScaling,
    expand_rational_at_point,
)
from .game import (
    GameValueResult,
    Strategy,
    game_value,
    minimax_check,
    payoff_floor,
    rational_strategy,
)
from .gamematrix import GameMatrix, assemble, gauge_shift, irreducibility
from .nonarch import (
    AnalyticityReport,
    NonArchPlace,
    PrimeMatrix,
    a_analyticity_check,
    nonarch_matrix,
    size_preset,
)
from .oracle import (
    OracleReport,
    RationalFunction,
    certify_rationality,
    hankel_profile,
    multipoint_reconstruct,
    pade,
)
from .problem import ProblemSpec, parse_problem, serialize_problem
from .schedule import Schedule, build_schedule, check_bounds, weighted_floor

__version__ = "0.1.0"

# names from code that `check` never runs: they load on first use (PEP 562)
_LAZY = {"FiltrationProfile": "filtration", "abel_check": "filtration", "filtration_ranks": "filtration",
         "quadratic_bound_check": "filtration", "rank_oracle": "filtration",
         "GreenDiagnostics": "arch", "validate_green": "arch"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)

__all__ = [
    "ArchDomainAssignment",
    "AnalyticityReport",
    "CapgameError",
    "ComputationError",
    "Disk",
    "DisjointUnion",
    "ExteriorDisk",
    "FiltrationProfile",
    "GameMatrix",
    "GameValueResult",
    "GreenDiagnostics",
    "INFINITY",
    "IntervalComplement",
    "LocalSeries",
    "MarkedPoint",
    "NonArchPlace",
    "OracleReport",
    "PreconditionError",
    "PrimeMatrix",
    "ProblemFormatError",
    "ProblemSpec",
    "RationalFunction",
    "Schedule",
    "Strategy",
    "TangentScaling",
    "Verdict",
    "a_analyticity_check",
    "abel_check",
    "arch_matrix",
    "assemble",
    "build_global_matrix",
    "build_schedule",
    "certify_rationality",
    "check_bounds",
    "expand_rational_at_point",
    "filtration_ranks",
    "game_value",
    "gauge_shift",
    "green",
    "hankel_profile",
    "irreducibility",
    "minimax_check",
    "multipoint_reconstruct",
    "nonarch_matrix",
    "pade",
    "parse_problem",
    "payoff_floor",
    "quadratic_bound_check",
    "rank_oracle",
    "rational_strategy",
    "robin_constant",
    "run_check",
    "serialize_problem",
    "size_preset",
    "validate_green",
    "weighted_floor",
]
