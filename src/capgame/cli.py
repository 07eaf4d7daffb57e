"""Pipeline driver and command line interface.

Subcommands (all emit deterministic JSON on stdout, a one-line human summary
on stderr):

  check <file>                     full criterion + oracle verdict
  matrix <file>                    the assembled global matrix
  value <file>                     game value and optimal strategies
  schedule <file> --K n [--a ...]  greedy schedule and its bounds
  greens <file> --pole i --at x,y  one Green value at the real place
  oracle <file> [--degree d]       rationality oracle report

Exit codes: 0 success, 2 parse error, 3 computation error, 4 precondition
violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from ._record import Record
from .arch import arch_matrix, green
from .errors import CapgameError, ComputationError, PreconditionError, ProblemFormatError
from .exact import format_int, format_rational, parse_rational, support_primes
from .game import GameValueResult, game_value, rational_strategy, rationalize_matrix
from .gamematrix import GameMatrix, assemble, gauge_shift
from .nonarch import NonArchPlace, a_analyticity_check, nonarch_matrix
from .oracle import OracleReport, certify_rationality
from .problem import ProblemSpec, parse_problem
from .schedule import build_schedule, check_bounds, weighted_floor

SCHEDULE_DIAGNOSTIC_K = 200

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COMPUTATION = 3
EXIT_PRECONDITION = 4


# ---------------------------------------------------------------------------
# deterministic JSON emission


def _format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return f"{int(x)}.0"
    return format(x, ".15g")


def to_json(value, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, floats at 15 significant digits,
    rationals as "p/q" strings, infinities as "inf"."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f'"{format_rational(value)}"'
    if isinstance(value, int):
        return format_int(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [to_json(v, indent + 2) for v in value]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}"{k}": ' + to_json(value[k], indent + 2)
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# pipeline


def build_global_matrix(spec: ProblemSpec) -> GameMatrix:
    """Assemble every declared place plus the primes supporting the scalings.

    The real and prime matrices are built in the canonical parameters and
    shifted by the tangent scalings in one `gauge_shift`; user extra places
    are taken as given.  A prime dividing some scaling but missing from the
    declared places is added with zero size data, so the product formula
    keeps the assembled diagonal independent of the scalings.
    """
    points = spec.sorted_points()
    ids = spec.sorted_ids()
    scalings = spec.scaling_map()

    arch = [arch_matrix(a, points) for a in spec.arch_places]

    declared = {pl.p: pl for pl in spec.nonarch_places}
    needed = set(declared)
    for a in scalings.values():
        if a != 1:
            needed.update(support_primes(a))
    primes = [nonarch_matrix(declared.get(p, NonArchPlace(p)), ids) for p in sorted(needed)]

    shifted = gauge_shift(arch + primes, [scalings[pid] for pid in ids])
    extra = [e.entries for e in spec.extra_places]
    labels = [e.label for e in spec.extra_places]
    return assemble(shifted[: len(arch)], shifted[len(arch):], extra, ids=ids, extra_labels=labels)


class ScheduleDiagnostics(Record):
    v_prime: Fraction
    a: tuple
    K: int
    bounds_verdict: bool
    max_dev: Fraction
    min_dev: Fraction
    weighted_floor_c: Fraction
    weighted_floor_precondition_ok: bool

    def to_report(self) -> dict:
        return {**super().to_report(), "a": list(self.a)}


class Verdict(Record):
    """Joint outcome of the capacity-game criterion and the oracle."""

    value_result: GameValueResult
    criterion_holds: bool
    oracle: OracleReport
    agreement: str
    matrix: GameMatrix
    analyticity_verdict: bool
    analyticity_totals: dict
    schedule_diag: Optional[ScheduleDiagnostics]

    @property
    def game_value(self):
        return self.value_result.value

    def to_report(self) -> dict:
        return {
            "V_G": "inf" if self.value_result.is_infinite else float(self.game_value),
            "criterion_holds": self.criterion_holds,
            "margin_flag": self.value_result.margin_flag,
            "agreement": self.agreement,
            "value": self.value_result.to_report(),
            "oracle": self.oracle.to_report(),
            "matrix": self.matrix.to_report(),
            "a_analyticity": {
                "verdict": self.analyticity_verdict,
                "totals": self.analyticity_totals,
            },
            "schedule": self.schedule_diag.to_report() if self.schedule_diag else None,
        }


def run_check(spec: ProblemSpec) -> Verdict:
    """Assemble, solve the game, consult the oracle, and compare verdicts.

    The float matrix is rationalized once; the game value, the rational
    strategy and the weighted floor all read the same exact rows.  When the
    value is finite and positive, a schedule built from a strictly positive
    rational strategy at v' = value/2 is checked against its bounds and the
    weighted floor inequality as a diagnostic.
    """
    matrix = build_global_matrix(spec)
    points = spec.sorted_points()
    ids = spec.sorted_ids()

    analyticity = a_analyticity_check(
        spec.nonarch_places, ids, infinite_tail=spec.infinite_tail
    )

    rows = rationalize_matrix(matrix)
    result = game_value(rows)
    criterion_holds = result.is_infinite or result.value > 0

    jets = [spec.series_for(pid) for pid in ids]
    oracle_report = certify_rationality(jets, points, spec.degree_bound)

    found = oracle_report.status == "rational"
    if criterion_holds and found:
        agreement = "confirmed"
    elif criterion_holds:
        agreement = "criterion_only"
    elif found:
        agreement = "oracle_only"
    else:
        agreement = "both_negative"

    schedule_diag = None
    if not result.is_infinite and result.value > 0:
        v_prime = result.value / 2
        a = rational_strategy(rows, v_prime, result=result)
        sched = build_schedule(a, SCHEDULE_DIAGNOSTIC_K, ids=ids)
        bounds = check_bounds(sched)
        floor = weighted_floor(sched, rows, v_prime)
        schedule_diag = ScheduleDiagnostics(
            v_prime=v_prime,
            a=a.weights,
            K=SCHEDULE_DIAGNOSTIC_K,
            bounds_verdict=bounds.verdict,
            max_dev=bounds.max_dev,
            min_dev=bounds.min_dev,
            weighted_floor_c=floor.c,
            weighted_floor_precondition_ok=floor.precondition_ok,
        )

    return Verdict(
        value_result=result,
        criterion_holds=criterion_holds,
        oracle=oracle_report,
        agreement=agreement,
        matrix=matrix,
        analyticity_verdict=analyticity.verdict,
        analyticity_totals=analyticity.to_report()["totals"],
        schedule_diag=schedule_diag,
    )


# ---------------------------------------------------------------------------
# subcommands


def _load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "rb") as f:
            return parse_problem(f.read())
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc.strerror}") from exc


def _cmd_check(args) -> tuple[dict, str]:
    spec = _load_spec(args.file)
    verdict = run_check(spec)
    vg = "inf" if verdict.value_result.is_infinite else f"{float(verdict.game_value):.6g}"
    summary = (
        f"V_G = {vg} ({'criterion holds' if verdict.criterion_holds else 'criterion fails'}); "
        f"oracle: {verdict.oracle.status}; agreement: {verdict.agreement}"
    )
    return verdict.to_report(), summary


def _cmd_matrix(args) -> tuple[dict, str]:
    spec = _load_spec(args.file)
    matrix = build_global_matrix(spec)
    from .gamematrix import irreducibility

    report = matrix.to_report()
    report["irreducible"] = irreducibility(matrix)
    return report, f"{matrix.size}x{matrix.size} matrix over places {', '.join(matrix.places)}"


def _cmd_value(args) -> tuple[dict, str]:
    spec = _load_spec(args.file)
    result = game_value(build_global_matrix(spec))
    v = "inf" if result.is_infinite else f"{float(result.value):.6g}"
    return result.to_report(), f"game value {v} ({result.margin_flag})"


def _cmd_schedule(args) -> tuple[dict, str]:
    spec = _load_spec(args.file)
    ids = spec.sorted_ids()
    if args.a is not None:
        try:
            weights = [parse_rational(w) for w in args.a.split(",")]
        except ValueError as exc:
            raise PreconditionError(f"--a expects comma-separated rationals: {exc}") from exc
        if len(weights) != len(ids):
            raise PreconditionError("--a must list one weight per point")
    else:
        rows = rationalize_matrix(build_global_matrix(spec))
        result = game_value(rows)
        if result.is_infinite or result.value <= 0:
            raise PreconditionError(
                "--a is required when the game value is not finite positive"
            )
        weights = rational_strategy(rows, result.value / 2, result=result).weights
    sched = build_schedule(weights, args.K, ids=ids)
    bounds = check_bounds(sched)
    report = sched.to_report()
    report["bounds"] = bounds.to_report()
    return report, (
        f"schedule of length {args.K}; deviations in "
        f"[{float(bounds.min_dev):.4g}, {float(bounds.max_dev):.4g}]"
    )


def _cmd_greens(args) -> tuple[dict, str]:
    spec = _load_spec(args.file)
    if not spec.arch_places:
        raise PreconditionError("the problem declares no archimedean place")
    if not 0 <= args.place < len(spec.arch_places):
        raise PreconditionError(f"no archimedean place with index {args.place}")
    assignment = spec.arch_places[args.place]
    pole = None
    for p in spec.points:
        if p.id == args.pole:
            pole = p
    if pole is None:
        raise PreconditionError(f"unknown point id {args.pole}")
    try:
        x, y = (float(v) for v in args.at.split(","))
    except ValueError as exc:
        raise PreconditionError("--at expects two comma-separated numbers") from exc
    val = green(assignment.domain, pole.coordinate, complex(x, y))
    if math.isnan(val):
        raise PreconditionError(
            f"Green value at {x},{y} is not computable in floating point: "
            f"the domain and the pole collide after rounding"
        )
    report = {"pole": args.pole, "at": [x, y], "green": val}
    return report, f"g(pole={args.pole}, z={x}+{y}i) = {val:.6g}"


def _cmd_oracle(args) -> tuple[dict, str]:
    spec = _load_spec(args.file)
    ids = spec.sorted_ids()
    jets = [spec.series_for(pid) for pid in ids]
    bound = args.degree if args.degree is not None else spec.degree_bound
    report = certify_rationality(jets, spec.sorted_points(), bound)
    return report.to_report(), f"oracle: {report.status} (degree cap {report.degree_cap})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    later `main` call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="capgame",
        description="Capacity-game rationality criterion for families of formal series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full criterion + oracle verdict")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("matrix", help="assembled global matrix")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("value", help="game value and strategies")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("schedule", help="greedy derivation schedule")
    p.add_argument("file")
    p.add_argument("--K", type=int, required=True, help="schedule horizon")
    p.add_argument("--a", type=str, default=None,
                   help="comma-separated rational weights (default: from the game)")
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("greens", help="evaluate one Green function")
    p.add_argument("file")
    p.add_argument("--pole", type=int, required=True, help="point id of the pole")
    p.add_argument("--at", type=str, required=True, help="evaluation point x,y")
    p.add_argument("--place", type=int, default=0, help="archimedean place index")
    p.set_defaults(handler=_cmd_greens)

    p = sub.add_parser("oracle", help="rationality oracle report")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None, help="degree search cap")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, summary = args.handler(args)
    except ProblemFormatError as exc:
        _emit_error(EXIT_PARSE, "parse", str(exc))
        return EXIT_PARSE
    except PreconditionError as exc:
        _emit_error(EXIT_PRECONDITION, "precondition", str(exc))
        return EXIT_PRECONDITION
    except (ComputationError, CapgameError) as exc:
        _emit_error(EXIT_COMPUTATION, "computation", str(exc))
        return EXIT_COMPUTATION
    print(to_json(report))
    print(summary, file=sys.stderr)
    return EXIT_OK


def _emit_error(code: int, kind: str, message: str) -> None:
    print(to_json({"error": {"exit_code": code, "kind": kind, "message": message}}))
    print(f"error ({kind}): {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
