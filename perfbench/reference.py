"""Checks of the program's answers against references that do not come from
capgame.  They run after the timed loop, in the parent process.

* The global matrix is rebuilt from the document with this file's own
  closed-form Green functions and Robin constants (1e-9 relative).
* Finite game values must agree with a float HiGHS solve of that matrix
  (scipy.optimize.linprog) to 1e-7 * (1 + max |G|).
* With +inf entries the value is checked against a float support
  enumeration, and the returned strategies exactly against V: the row
  strategy's floor >= V - 1e-9 (the slack _blend_to_floor documents) and the
  column strategy's ceiling over the row support <= V, both up to the
  rounding of the printed value.
* Oracle answers are compared with the generator's known P/Q by
  cross-multiplication; perturbed jets must give not_found.
* Shipped problems must give the answers the README states.
* Schedules: the deviation bounds are recomputed exactly from the returned
  sequence, and the weighted floor constant in floats (1e-6 relative).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

import gen

INF = math.inf
VALUE_TOL = 1e-7
ENTRY_TOL = 1e-9
BLEND_SLACK = Fraction(1, 10**9)

SHIPPED_ANSWERS = {
    "borel_dwork": (math.log(2), "confirmed"),
    "exp_small_disk": (-math.log(2), "both_negative"),
    "infinite_interaction": (INF, "criterion_only"),
    "two_point_interval": (None, "confirmed"),
}


# ---------------------------------------------------------------------------
# closed-form Green functions on real points (None stands for infinity)


def _psi(a, b, x):
    """Exterior Joukowski inverse of the segment [a, b], real x outside it."""
    phi = (2 * x - a - b) / (b - a)
    return phi + math.copysign(math.sqrt(phi * phi - 1), phi)


def _component_green(comp, w, z):
    kind = comp["kind"]
    if kind == "disk":
        c, r = float(Fraction(comp["center"])), float(Fraction(comp["radius"]))
        return math.log(abs(r * r - (w - c) * (z - c)) / (r * abs(z - w)))
    if kind == "exterior_disk":
        c, r = float(Fraction(comp["center"])), float(Fraction(comp["radius"]))
        if w is None or z is None:
            x = z if w is None else w
            return math.log(abs(x - c) / r)
        mw, mz = c + r * r / (w - c), c + r * r / (z - c)
        return math.log(abs(r * r - (mw - c) * (mz - c)) / (r * abs(mz - mw)))
    a, b = float(Fraction(comp["a"])), float(Fraction(comp["b"]))
    if w is None or z is None:
        return math.log(abs(_psi(a, b, z if w is None else w)))
    pw, pz = _psi(a, b, w), _psi(a, b, z)
    return math.log(abs(pz * pw - 1) / abs(pz - pw))


def _component_robin(comp, w):
    kind = comp["kind"]
    if kind == "disk":
        c, r = float(Fraction(comp["center"])), float(Fraction(comp["radius"]))
        return math.log((r * r - (w - c) ** 2) / r)
    if kind == "exterior_disk":
        c, r = float(Fraction(comp["center"])), float(Fraction(comp["radius"]))
        return -math.log(r) if w is None else math.log(((w - c) ** 2 - r * r) / r)
    a, b = float(Fraction(comp["a"])), float(Fraction(comp["b"]))
    if w is None:
        return math.log(4 / (b - a))
    phi = (2 * w - a - b) / (b - a)
    psi = _psi(a, b, w)
    dpsi = 2 / (b - a) * abs(psi) / math.sqrt(phi * phi - 1)
    return math.log((psi * psi - 1) / dpsi)


def _inside(comp, x) -> bool:
    kind = comp["kind"]
    if x is None:
        return kind != "disk"
    x = Fraction(x)
    if kind == "disk":
        return abs(x - Fraction(comp["center"])) < Fraction(comp["radius"])
    if kind == "exterior_disk":
        return abs(x - Fraction(comp["center"])) > Fraction(comp["radius"])
    return not Fraction(comp["a"]) <= x <= Fraction(comp["b"])


def arch_reference(domain, coords):
    comps = domain["components"] if domain["kind"] == "union" else [domain]
    where = [next(k for k, c in enumerate(comps) if _inside(c, x)) for x in coords]
    xs = [None if x is None else float(x) for x in coords]
    n = len(coords)
    G = [[0.0] * n for _ in range(n)]
    for i in range(n):
        comp = comps[where[i]]
        G[i][i] = _component_robin(comp, xs[i])
        for j in range(n):
            if j != i and where[j] == where[i]:
                G[i][j] = max(_component_green(comp, xs[i], xs[j]), 0.0)
    return G


PRESETS = {
    "good_reduction": lambda p: Fraction(0),
    "leaf": lambda p: Fraction(-1, p - 1),
    "leaf_p_curvature": lambda p: Fraction(-1, p * (p - 1)),
}


def matrix_reference(doc) -> list:
    """The global matrix, summed over every place of the document."""
    ids = sorted(pt["id"] for pt in doc["points"])
    pos = {pid: k for k, pid in enumerate(ids)}
    coords = [None] * len(ids)
    for pt in doc["points"]:
        coords[pos[pt["id"]]] = None if pt["coordinate"] == "inf" else Fraction(pt["coordinate"])
    n = len(ids)
    total = [[0.0] * n for _ in range(n)]
    for place in doc.get("arch_places", []):
        G = arch_reference(place["domain"], coords)
        for i in range(n):
            for j in range(n):
                total[i][j] += G[i][j]
    for place in doc.get("nonarch_places", []):
        p = place["p"]
        coeff = [[Fraction(0)] * n for _ in range(n)]
        for i, q in place.get("log_size_coeffs", {}).items():
            coeff[pos[int(i)]][pos[int(i)]] = Fraction(q)
        for i, name in place.get("preset", {}).items():
            coeff[pos[int(i)]][pos[int(i)]] = PRESETS[name](p)
        for key, v in place.get("off_diagonal", {}).items():
            i, j = (int(t) for t in key.split(","))
            coeff[pos[i]][pos[j]] = Fraction(v)
        for i in range(n):
            for j in range(n):
                total[i][j] += float(coeff[i][j]) * math.log(p)
    for place in doc.get("extra_places", []):
        for i, row in enumerate(place["entries"]):
            for j, v in enumerate(row):
                total[i][j] += INF if v == "inf" else float(v)
    return total


# ---------------------------------------------------------------------------
# game values


def lp_value(G, rows, cols) -> float:
    """max_x min_j sum_i x_i G_ij over x on `rows`, columns `cols` (HiGHS)."""
    if not cols:
        return INF
    A = np.array([[G[i][j] for j in cols] for i in rows], dtype=float)
    m = len(rows)
    # variables x_1..x_m, v; minimise -v s.t. v - x.A[:, j] <= 0, sum x = 1
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A.T, np.ones((len(cols), 1))])
    A_eq = np.hstack([np.ones((1, m)), np.zeros((1, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(len(cols)), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


def value_reference(G) -> float:
    """Game value; with +inf entries, the best finite sub-game over the row
    supports generated by unions of the rows' infinity patterns."""
    n = len(G)
    pattern = [frozenset(j for j in range(n) if G[i][j] == INF) for i in range(n)]
    if not any(pattern):
        return lp_value(G, range(n), list(range(n)))
    distinct = sorted(set(pattern), key=sorted)
    best = -INF
    for r in range(1, len(distinct) + 1):
        for combo in combinations(distinct, r):
            blocked = frozenset().union(*combo)
            rows = [i for i in range(n) if pattern[i] <= blocked]
            cols = [j for j in range(n) if j not in blocked]
            best = max(best, lp_value(G, rows, cols))
    return best


def _exact(G):
    return [[v if v == INF else Fraction(v) for v in row] for row in G]


def strategy_failure(G, value: Fraction, x, y, scale: float):
    """Exact floor/ceiling certificate of the strategies against V."""
    E = _exact(G)
    n = len(E)
    tol = Fraction(VALUE_TOL) * (1 + Fraction(scale))
    floor = None
    for j in range(n):
        acc = Fraction(0)
        for i in range(n):
            if x[i]:
                if E[i][j] == INF:
                    acc = INF
                    break
                acc += x[i] * E[i][j]
        floor = acc if floor is None or acc < floor else floor
    if floor != INF and floor < value - BLEND_SLACK - tol:
        return f"row strategy floor {float(floor)} below V {float(value)} - 1e-9"
    if y is None:
        return None
    for i in range(n):
        if x[i]:
            ceiling = sum((y[j] * E[i][j] for j in range(n) if y[j]), Fraction(0))
            if ceiling > value + tol:
                return f"column strategy ceiling {float(ceiling)} above V {float(value)}"
    return None


# ---------------------------------------------------------------------------
# per-job checks; each returns None or the cause of failure


def check_report(item: dict, report: dict):
    doc, expect = item["doc"], item["expect"]
    if "shipped" in expect:
        want_v, want_agreement = SHIPPED_ANSWERS[expect["shipped"]]
        if report["agreement"] != want_agreement:
            return f"agreement {report['agreement']}, README says {want_agreement}"
        got = report["V_G"]
        if want_v == INF and got != "inf":
            return f"V_G {got}, README says inf"
        if want_v not in (None, INF) and (got == "inf" or abs(got - want_v) > 1e-9):
            return f"V_G {got}, README says {want_v}"
        return None

    G = matrix_reference(doc)
    got_G = report["matrix"]["entries"]
    for i, row in enumerate(G):
        for j, v in enumerate(row):
            g = got_G[i][j]
            if (v == INF) != (g == "inf") or (v != INF and abs(g - v) > ENTRY_TOL * (1 + abs(v))):
                return f"matrix entry ({i}, {j}) is {g}, closed form gives {v}"

    scale = max((abs(v) for row in G for v in row if v != INF), default=0.0)
    ref = value_reference(G)
    got = INF if report["V_G"] == "inf" else report["V_G"]
    if (ref == INF) != (got == INF) or (ref != INF and abs(got - ref) > VALUE_TOL * (1 + scale)):
        return f"V_G {got}, HiGHS reference {ref}"
    if any(v == INF for row in G for v in row):
        x = [Fraction(v) for v in report["value"]["x_star"]]
        y = report["value"]["y_star"]
        y = None if y is None else [Fraction(v) for v in y]
        exact_v = INF if got == INF else Fraction(got)
        if exact_v != INF:
            cause = strategy_failure(G, exact_v, x, y, scale)
            if cause:
                return cause

    holds = got == INF or got > 0
    if got != INF and abs(got) <= VALUE_TOL * (1 + scale):
        holds = report["criterion_holds"]  # sign not resolvable in floats
    if report["criterion_holds"] != holds:
        return f"criterion_holds {report['criterion_holds']} for V_G {got}"
    sched = report["schedule"]
    if sched is not None and not (sched["bounds_verdict"] and sched["weighted_floor_precondition_ok"]):
        return "schedule diagnostics violate the proven bounds"

    oracle = report["oracle"]
    if oracle["degree_cap"] != expect["cap"]:
        return f"degree cap {oracle['degree_cap']}, expected {expect['cap']}"
    if expect["rational"]:
        if oracle["status"] != "rational":
            return f"oracle {oracle['status']}, jets come from a degree <= cap function"
        num = [Fraction(c) for c in oracle["numerator"]]
        den = [Fraction(c) for c in oracle["denominator"]]
        P = [Fraction(c) for c in expect["P"]]
        Q = [Fraction(c) for c in expect["Q"]]
        if not gen.same_function(P, Q, num, den):
            return "oracle function differs from the generating function"
    elif oracle["status"] != "not_found":
        return f"oracle {oracle['status']} on perturbed jets, which no function of degree <= cap matches"
    found = oracle["status"] == "rational"
    want = {(True, True): "confirmed", (True, False): "criterion_only",
            (False, True): "oracle_only", (False, False): "both_negative"}[(report["criterion_holds"], found)]
    if report["agreement"] != want:
        return f"agreement {report['agreement']}, expected {want}"
    return None


def check_schedule(item: dict, result: dict):
    weights = [Fraction(w) for w in item["weights"]]
    seq = result["sequence"]
    m, K = len(weights), item["K"]
    if len(seq) != K or any(not 1 <= s <= m for s in seq):
        return "sequence has the wrong length or ids"
    D = math.lcm(*(w.denominator for w in weights))
    n = [int(w * D) for w in weights]
    v = [0] * m
    hi = lo = 0
    for s in seq:
        v = [vi - ni for vi, ni in zip(v, n)]
        v[s - 1] += D
        hi, lo = max(hi, max(v)), min(lo, min(v))
    if Fraction(hi, D) != Fraction(result["max_dev"]) or Fraction(lo, D) != Fraction(result["min_dev"]):
        return "deviation bounds differ from the recomputed ones"
    if not (result["verdict"] and hi <= D and lo >= (1 - m) * D):
        return "deviations leave [1 - |I|, 1]"
    if not result["precondition_ok"]:
        return "weights fail to beat v' on some column"
    G = np.array(item["matrix"])
    sums = np.cumsum(G[np.array(seq) - 1], axis=0)
    gaps = np.arange(1, K + 1)[:, None] * float(Fraction(item["v_prime"])) - sums
    c_ref = max(0.0, float(gaps.max()))
    c = float(Fraction(result["c"]))
    if abs(c - c_ref) > 1e-6 * (1 + abs(c_ref)):
        return f"weighted floor c {c}, float recomputation {c_ref}"
    return None


def check_job(workload: str, item: dict, rec: dict):
    """None when the job's answer is right, else the cause."""
    if rec.get("error"):
        return rec["error"]
    if rec.get("mismatch"):
        return f"decomposed pipeline: {rec['mismatch']}"
    if rec["exit"] is None:
        return "timed out"
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}"
    if workload == "schedule-long":
        return check_schedule(item, rec["result"])
    try:
        report = json.loads(rec["output"])
    except json.JSONDecodeError:
        return "output is not JSON"
    return check_report(item, report)
