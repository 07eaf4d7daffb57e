import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from capgame import game
from capgame.cli import build_global_matrix, build_parser, main, run_check, to_json
from capgame.problem import parse_problem

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
BOREL_DWORK = ROOT / "problems" / "borel_dwork.json"
EXP_SMALL = ROOT / "problems" / "exp_small_disk.json"
TWO_POINT = ROOT / "problems" / "two_point_interval.json"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "capgame", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=timeout,
    )


def load_spec(path):
    return parse_problem(path.read_bytes())


# --- run_check ---------------------------------------------------------------


def test_run_check_borel_dwork():
    verdict = run_check(load_spec(BOREL_DWORK))
    assert float(verdict.game_value) == pytest.approx(math.log(2), abs=1e-9)
    assert verdict.criterion_holds
    assert verdict.agreement == "confirmed"
    assert verdict.oracle.status == "rational"
    assert verdict.schedule_diag is not None
    assert verdict.schedule_diag.bounds_verdict


def test_run_check_unit_disk_boundary_case():
    doc = json.loads(BOREL_DWORK.read_text())
    doc["arch_places"][0]["domain"]["radius"] = "1"
    verdict = run_check(parse_problem(json.dumps(doc)))
    assert float(verdict.game_value) == pytest.approx(0.0, abs=1e-12)
    assert not verdict.criterion_holds
    assert verdict.agreement == "oracle_only"
    assert verdict.value_result.margin_flag == "marginal"
    assert verdict.schedule_diag is None


def test_run_check_exp_small_disk():
    verdict = run_check(load_spec(EXP_SMALL))
    assert float(verdict.game_value) == pytest.approx(-math.log(2), abs=1e-9)
    assert verdict.agreement == "both_negative"


def test_run_check_two_point_interval():
    verdict = run_check(load_spec(TWO_POINT))
    assert verdict.agreement == "confirmed"
    assert verdict.matrix.entries[0][1] == pytest.approx(
        math.log(3 + math.sqrt(8)), abs=1e-9
    )


def test_global_matrix_includes_scaling_support_primes():
    doc = json.loads(BOREL_DWORK.read_text())
    doc["scalings"] = [{"point": 0, "scalar": "-5/6"}]
    g = build_global_matrix(parse_problem(json.dumps(doc)))
    assert set(g.places) == {"real", "p=2", "p=3", "p=5"}
    # product formula: the diagonal is unchanged by the scaling
    assert g.entries[0][0] == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.parametrize("path", [BOREL_DWORK, TWO_POINT], ids=["borel_dwork", "two_point"])
def test_run_check_rationalizes_each_float_entry_once(monkeypatch, path):
    # the game value, the rational strategy and the weighted floor all read
    # one exact copy of the matrix instead of rationalizing it three times,
    # and that copy rationalizes each distinct float once
    calls = []
    rationalize = game.rationalize_entry

    def counting(v):
        if isinstance(v, float) and math.isfinite(v):
            calls.append(v)
        return rationalize(v)

    monkeypatch.setattr(game, "rationalize_entry", counting)
    verdict = run_check(load_spec(path))
    assert verdict.schedule_diag is not None
    assert len(calls) == len(set(calls))
    assert set(calls) == {v for row in verdict.matrix.entries for v in row if math.isfinite(v)}


# --- subcommands -------------------------------------------------------------


def test_cli_check_exit_zero_and_agreement():
    res = run_cli("check", str(BOREL_DWORK))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["agreement"] == "confirmed"
    assert report["V_G"] == pytest.approx(math.log(2), abs=1e-9)
    assert "confirmed" in res.stderr


def test_cli_check_prime_declared_twice_exit_2(tmp_path):
    # the matrix would keep only the last place for p = 2 while the
    # a-analyticity totals add both
    doc = json.loads(BOREL_DWORK.read_text())
    doc["nonarch_places"] = [{"p": 2, "log_size_coeffs": {"0": "-1/2"}},
                             {"p": 2, "log_size_coeffs": {"0": "-1/3"}}]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path))
    assert res.returncode == 2
    assert json.loads(res.stdout)["error"]["message"] == "duplicate nonarch place for a prime"


def test_cli_check_missing_file_exit_2():
    res = run_cli("check", "no_such_problem.json")
    assert res.returncode == 2
    assert json.loads(res.stdout)["error"]["exit_code"] == 2


def test_cli_check_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("check", str(bad))
    assert res.returncode == 2


def test_cli_value_infinite_entries(tmp_path):
    doc = {
        "points": [{"id": 0, "coordinate": "0"}, {"id": 1, "coordinate": "1"}],
        "series": [
            {"point": 0, "coefficients": ["1"]},
            {"point": 1, "coefficients": ["1"]},
        ],
        "arch_places": [],
        "nonarch_places": [],
        "scalings": [],
        "extra_places": [
            {"label": "user", "entries": [[0, "inf"], ["inf", 0]]}
        ],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    res = run_cli("value", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == "inf"


def test_cli_matrix_report():
    res = run_cli("matrix", str(TWO_POINT))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["irreducible"] is True
    assert report["places"] == ["real"]
    assert len(report["entries"]) == 2


def test_cli_schedule():
    res = run_cli("schedule", str(TWO_POINT), "--K", "7", "--a", "2/3,1/3")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["sequence"][:3] == [0, 1, 0]
    assert report["bounds"]["verdict"] is True


def test_cli_schedule_bad_weights_exit_4():
    res = run_cli("schedule", str(TWO_POINT), "--K", "5", "--a", "1/2,1/3")
    assert res.returncode == 4


@pytest.mark.parametrize("weights", ["1/2,abc", "1/0,1", "", "1/2,"])
def test_cli_schedule_weight_not_rational_exit_4(weights):
    # each ended in a ValueError or ZeroDivisionError traceback; "" derived
    # the weights from the game as if --a were absent
    res = run_cli("schedule", str(TWO_POINT), "--K", "5", "--a", weights)
    assert res.returncode == 4, res.stderr
    assert json.loads(res.stdout)["error"]["message"].startswith("--a expects comma-separated rationals")
    assert "Traceback" not in res.stderr


def test_cli_schedule_derives_weights_from_game():
    res = run_cli("schedule", str(TWO_POINT), "--K", "6")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["bounds"]["verdict"] is True
    assert all(F(w) > 0 for w in report["a"])


def test_cli_schedule_needs_weights_when_value_negative():
    res = run_cli("schedule", str(EXP_SMALL), "--K", "5")
    assert res.returncode == 4


def test_cli_greens():
    res = run_cli("greens", str(BOREL_DWORK), "--pole", "0", "--at", "1,0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["green"] == pytest.approx(math.log(2), abs=1e-12)


def test_cli_greens_precondition_exit_4():
    res = run_cli("greens", str(BOREL_DWORK), "--pole", "0", "--at", "0,0")
    assert res.returncode == 4


def test_cli_oracle():
    res = run_cli("oracle", str(BOREL_DWORK), "--degree", "2")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["status"] == "rational"
    assert report["denominator"] == ["-1/2", "1"]


GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("command", ["check", "oracle"])
@pytest.mark.parametrize("problem", sorted(p.stem for p in (ROOT / "problems").glob("*.json")))
def test_cli_output_matches_golden(problem, command):
    # default JSON of the shipped problems is pinned byte for byte
    res = run_cli(command, str(ROOT / "problems" / f"{problem}.json"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / f"{problem}.{command}.json").read_text()


def test_cli_scaled_document_matches_golden():
    # tangent scalings -5/6 and 3/2 pull in the primes 2, 3 and 5 and scale
    # the point at infinity; the product formula keeps the matrix unchanged
    res = run_cli("check", str(GOLDEN / "two_point_interval_scaled.json"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / "two_point_interval_scaled.check.json").read_text()


def test_cli_game_wide_document_matches_golden():
    # ten points, two real places, p = 2 with off-diagonal coefficients, p = 3
    # and an extra place with a +inf pair: the shape of the game-wide benchmark
    res = run_cli("check", str(GOLDEN / "game_wide.json"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / "game_wide.check.json").read_text()


def test_cli_deterministic_output():
    a = run_cli("check", str(BOREL_DWORK))
    b = run_cli("check", str(BOREL_DWORK))
    assert a.stdout == b.stdout
    c = run_cli("check", str(TWO_POINT))
    d = run_cli("check", str(TWO_POINT))
    assert c.stdout == d.stdout


# --- JSON emitter ------------------------------------------------------------


def test_to_json_formats():
    assert to_json(F(3, 2)) == '"3/2"'
    assert to_json(math.inf) == '"inf"'
    assert to_json(0.5) == "0.5"
    assert to_json(True) == "true"
    assert to_json(None) == "null"
    assert json.loads(to_json({"b": [1.0, F(1, 3)], "a": "x"})) == {
        "a": "x",
        "b": [1.0, "1/3"],
    }
    # keys are emitted sorted, floats at 15 significant digits
    assert to_json({"b": 1, "a": 2}).index('"a"') < to_json({"b": 1, "a": 2}).index('"b"')
    assert to_json(math.log(2)) == "0.693147180559945"


def _digits(n: int) -> str:
    """The decimal digits of n >= 0, in blocks of 1,000 digits, each below
    int->str's digit limit."""
    blocks = []
    while n >= 10**1000:
        n, r = divmod(n, 10**1000)
        blocks.append(f"{r:01000d}")
    return str(n) + "".join(reversed(blocks))


def test_to_json_past_the_int_digit_limit():
    # 3**20000 has 9,543 digits, past the 4,300 that str(int) accepts by default
    n = 3**20000
    start = time.perf_counter()
    out = to_json(F(n, 7))
    assert time.perf_counter() - start < 0.1
    assert out == f'"{_digits(n)}/7"'
    assert to_json(F(7, n)) == f'"7/{_digits(n)}"'
    assert to_json(-n) == f"-{_digits(n)}"


# --- one parser per process ----------------------------------------------------


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_reuses_the_parser_across_calls(tmp_path, capsys):
    # a parse error, an argparse error and a full check in one process give
    # what a fresh interpreter gives for each
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    build_parser()
    runs = [["check", str(broken)], ["no_such_command", str(BOREL_DWORK)], ["check", str(BOREL_DWORK)]]
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code, out] == [0, (GOLDEN / "borel_dwork.check.json").read_text()]


# --- malformed documents exit 2 ----------------------------------------------


def _check_mutated(tmp_path, mutate):
    doc = json.loads(BOREL_DWORK.read_text())
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path))
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stdout)["error"]["kind"] == "parse"
    assert "Traceback" not in res.stderr
    return json.loads(res.stdout)["error"]["message"]


def test_cli_bad_placement_key_exit_2(tmp_path):
    _check_mutated(tmp_path, lambda d: d["arch_places"][0].update(placement={"x": 0}))


def test_cli_point_not_an_object_exit_2(tmp_path):
    _check_mutated(tmp_path, lambda d: d["points"].append(7))


def test_cli_extra_place_not_an_object_exit_2(tmp_path):
    _check_mutated(tmp_path, lambda d: d.update(extra_places=["abc"]))


def test_cli_extra_place_non_numeric_entry_exit_2(tmp_path):
    _check_mutated(tmp_path, lambda d: d.update(extra_places=[{"entries": [["abc"]]}]))


def test_cli_degree_bound_true_exit_2(tmp_path):
    _check_mutated(tmp_path, lambda d: d.update(degree_bound=True))


def test_cli_infinite_tail_string_exit_2(tmp_path):
    # the string "false" used to count as a declared infinite tail
    message = _check_mutated(tmp_path, lambda d: d.update(infinite_tail="false"))
    assert message == "field 'infinite_tail' in document has the wrong type"


def test_cli_point_id_true_exit_2(tmp_path):
    # true used to parse as point 1 and fail later at the placement
    message = _check_mutated(tmp_path, lambda d: d["points"][0].update(id=True))
    assert message == "field 'id' in points[0] has the wrong type"


def test_cli_placement_component_true_exit_2(tmp_path):
    message = _check_mutated(tmp_path, lambda d: d["arch_places"][0].update(placement={"0": True}))
    assert message == "bad integer True in arch_places[0].placement"


UNPARSABLE = {
    "not_utf8": b"\xff\xfe{",
    "nested_100000_deep": b"[" * 100_000 + b"]" * 100_000,
    # json.loads raises a ValueError past int()'s 4,300-digit limit
    "id_of_5001_digits": BOREL_DWORK.read_bytes().replace(b'"id": 0', b'"id": 1' + b"0" * 5000, 1),
}


@pytest.mark.parametrize("name", sorted(UNPARSABLE))
def test_cli_unparsable_document_exit_2(tmp_path, name):
    assert UNPARSABLE[name] != BOREL_DWORK.read_bytes()
    path = tmp_path / "unparsable.json"
    path.write_bytes(UNPARSABLE[name])
    res = run_cli("check", str(path))
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stdout)["error"]["message"].startswith("parse error")
    assert "Traceback" not in res.stderr


def test_cli_extra_place_label_not_a_string_exit_2(tmp_path):
    # a label of 7 ended `capgame matrix` in a TypeError and was echoed by check
    message = _check_mutated(
        tmp_path, lambda d: d.update(extra_places=[{"label": 7, "entries": [[0]]}]))
    assert message == "field 'label' in extra_places[0] has the wrong type"


def test_cli_large_prime_place_is_fast(tmp_path):
    doc = json.loads(BOREL_DWORK.read_text())
    doc["nonarch_places"] = [{"p": 1000000000000000009}]
    path = tmp_path / "large_prime.json"
    path.write_text(json.dumps(doc))
    # trial division up to 10**9 took over a minute here; Miller-Rabin is instant
    res = run_cli("check", str(path), timeout=30)
    assert res.returncode == 0
    assert json.loads(res.stdout)["agreement"] == "confirmed"


# --- large disk radius ---------------------------------------------------------


@pytest.mark.parametrize("npoints", [1, 2])
def test_cli_disk_radius_1e300(tmp_path, npoints):
    # the radius was squared in floats: inf from R ~ 1.3e154 and exit 4
    doc = json.loads(BOREL_DWORK.read_text())
    doc["arch_places"][0]["domain"]["radius"] = "1e300"
    if npoints == 2:
        doc["points"].append({"id": 1, "coordinate": "1"})
        doc["series"].append({"point": 1, "coefficients": ["-1", "2", "-4"]})
        doc["arch_places"][0]["placement"]["1"] = 0
    path = tmp_path / "big_disk.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path))
    assert res.returncode == 0, res.stdout
    report = json.loads(res.stdout)
    assert report["V_G"] == pytest.approx(300 * math.log(10), rel=1e-12)
    assert report["oracle"]["status"] == "rational"


def _collide_interval_endpoints(doc):
    doc["arch_places"][0]["domain"]["b"] = "1000000000000000000000000000001/1000000000000000000000000000000"


def _underflow_disk_radius(doc):
    doc["arch_places"][0]["domain"]["radius"] = "1e-400"


def _exterior_pole_at_center(doc):
    doc["points"][0]["coordinate"] = "1000000000000000000000000000001/1000000000000000000000000000000"
    doc["arch_places"][0]["domain"] = {"kind": "exterior_disk", "center": "1", "radius": "1e-31"}


@pytest.mark.parametrize("problem, mutate", [
    (TWO_POINT, _collide_interval_endpoints),  # ZeroDivisionError
    (BOREL_DWORK, _underflow_disk_radius),  # ZeroDivisionError
    (BOREL_DWORK, _exterior_pole_at_center),  # ValueError: math domain error
], ids=["interval_endpoints", "disk_radius_1e-400", "exterior_pole_at_center"])
def test_cli_float_collision_in_robin_constant_exit_4(tmp_path, problem, mutate):
    # exact data that differ but round to the same float used to end in a
    # traceback from the Robin constant's float formulas
    doc = json.loads(problem.read_text())
    mutate(doc)
    path = tmp_path / "collided.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path))
    assert res.returncode == 4, res.stderr
    error = json.loads(res.stdout)["error"]
    assert error["kind"] == "precondition"
    assert "collide after rounding" in error["message"]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("at", ["inf,0", "0,inf", "-inf,0", "inf,inf", "-inf,-inf"])
def test_cli_greens_at_infinity(at):
    # any point with an infinite part is the point at infinity of P^1
    res = run_cli("greens", str(TWO_POINT), "--pole", "0", f"--at={at}")
    assert res.returncode == 0, res.stdout
    assert json.loads(res.stdout)["green"] == 1.76274717403909


@pytest.mark.parametrize("at", ["nan,0", "0,nan", "nan,inf"])
def test_cli_greens_not_a_number_exit_4(at):
    res = run_cli("greens", str(TWO_POINT), "--pole", "0", f"--at={at}")
    assert res.returncode == 4, res.stderr
    error = json.loads(res.stdout)["error"]
    assert error["kind"] == "precondition"
    assert error["message"].endswith("is not a number")
    assert "Traceback" not in res.stderr


def test_cli_greens_nan_exit_4(tmp_path):
    # endpoints that collide in float give a NaN Green value, which the JSON
    # emitter used to meet with a ValueError traceback
    doc = json.loads(TWO_POINT.read_text())
    _collide_interval_endpoints(doc)
    path = tmp_path / "collided.json"
    path.write_text(json.dumps(doc))
    res = run_cli("greens", str(path), "--pole", "0", "--at", "3,0")
    assert res.returncode == 4, res.stderr
    error = json.loads(res.stdout)["error"]
    assert error["kind"] == "precondition"
    assert "collide after rounding" in error["message"]
    assert "Traceback" not in res.stderr


def _point_beyond_float_range(doc):
    doc["points"][1]["coordinate"] = "1e400"
    doc["series"][1]["coefficients"] = doc["series"][1]["coefficients"][:4]


def _disk_beyond_float_range(doc):
    doc["points"][0]["coordinate"] = "1e400"
    doc["arch_places"][0]["domain"]["center"] = "1e400"


@pytest.mark.parametrize("command", ["check", "matrix", "greens"])
@pytest.mark.parametrize("problem, mutate, pole", [
    (TWO_POINT, _point_beyond_float_range, "1"),
    (BOREL_DWORK, _disk_beyond_float_range, "0"),
], ids=["point_1e400", "disk_and_point_1e400"])
def test_beyond_float_range_exit_4(tmp_path, capsys, problem, mutate, pole, command):
    # float(1e400) used to end check, matrix and greens in an OverflowError
    doc = json.loads(problem.read_text())
    mutate(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    extra = ["--pole", pole, "--at", "1,2"] if command == "greens" else []
    assert main([command, str(path), *extra]) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "precondition"
    assert "beyond the float range" in error["message"]


# --- bounded factoring of scalings -------------------------------------------


def _check_scaling(tmp_path, scalar):
    doc = json.loads(BOREL_DWORK.read_text())
    doc["scalings"] = [{"point": 0, "scalar": scalar}]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    # trial division of these took hours; the bounded search takes well under 1 s
    return run_cli("check", str(path), timeout=20)


def test_cli_large_prime_scaling_is_fast(tmp_path):
    res = _check_scaling(tmp_path, "1000000000000000003")
    assert res.returncode == 0, res.stdout
    assert "p=1000000000000000003" in json.loads(res.stdout)["matrix"]["places"]


def test_cli_scaling_above_float_range_exit_0(tmp_path):
    res = _check_scaling(tmp_path, "1" + "0" * 400)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["matrix"]["places"] == ["real", "p=2", "p=5"]


def test_cli_scaling_below_float_range_exit_0(tmp_path):
    res = _check_scaling(tmp_path, "1/1" + "0" * 400)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["matrix"]["places"] == ["real", "p=2", "p=5"]


def test_cli_unfactorable_scaling_exit_4(tmp_path):
    res = _check_scaling(tmp_path, str(999999999989 * 1000000000039))
    assert res.returncode == 4
    assert json.loads(res.stdout)["error"]["kind"] == "precondition"
    assert "Traceback" not in res.stderr


NO_NUMPY_SCRIPT = """
import contextlib, io, sys
from pathlib import Path

import capgame
import capgame.cli

assert "numpy" not in sys.modules, "import capgame"
for path in sorted(Path("problems").glob("*.json")):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert capgame.cli.main(["check", str(path)]) == 0, path
    assert "numpy" not in sys.modules, f"check {path}"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert capgame.cli.main(
        ["greens", "problems/two_point_interval.json", "--pole", "0", "--at", "1,2"]
    ) == 0
assert "numpy" not in sys.modules, "greens"

from capgame.arch import Disk, validate_green
report = validate_green(Disk(0, 2), 0, 0.1)
assert report.interior_count > 0 and report.boundary_residual < 1e-9
assert "numpy" in sys.modules, "validate_green"
"""


def test_check_and_greens_leave_numpy_unloaded():
    res = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT], capture_output=True, text=True, cwd=ROOT
    )
    assert res.returncode == 0, res.stderr


LAZY_SCRIPT = """
import contextlib, io, sys
from pathlib import Path

import capgame
import capgame.cli

UNUSED = ("dataclasses", "inspect", "capgame.filtration", "capgame.greengrid")
assert not [m for m in UNUSED if m in sys.modules], ("import capgame", sys.modules.keys() & set(UNUSED))
for path in sorted(Path("problems").glob("*.json")):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert capgame.cli.main(["check", str(path)]) == 0, path
    assert not [m for m in UNUSED if m in sys.modules], (f"check {path}", sys.modules.keys() & set(UNUSED))

from capgame import FiltrationProfile, filtration_ranks
from capgame.arch import GreenDiagnostics, validate_green
import capgame.filtration, capgame.greengrid
assert filtration_ranks is capgame.filtration.filtration_ranks
assert FiltrationProfile is capgame.filtration.FiltrationProfile
assert validate_green is capgame.greengrid.validate_green is capgame.validate_green
assert GreenDiagnostics is capgame.greengrid.GreenDiagnostics is capgame.GreenDiagnostics
try:
    capgame.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("capgame.no_such_name resolved")
"""


def test_import_and_check_leave_dataclasses_and_unused_modules_unloaded():
    res = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT], capture_output=True, text=True, cwd=ROOT
    )
    assert res.returncode == 0, res.stderr
