"""Seeded input documents for the four workloads, and the polynomial code
the references use.

Document k of a run is a pure function of (workload, seed, k): the same
seed always gives the same documents and nothing here imports capgame.
Each workload walks a fixed cycle of size classes (point count, degree
cap, schedule width and weight kind).  What sets a document's cost beyond
its class (points, domains, primes, schedule matrices) comes from a base
stream that depends on k alone; the seed draws the rest (jets, which of
them are perturbed, a jitter of the game-wide points, schedule weights).
With the geometry drawn from the seed as well, the median job time of
game-wide moved by about 20% from seed to seed, so a 25% regression could
not be told from a change of seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

SHIPPED = ("borel_dwork", "exp_small_disk", "infinite_interaction", "two_point_interval")
SCHEDULE_K = 5_000
PRIMES = (2, 3, 5, 7, 11, 13)
# per-job time limits (s); a job over its limit counts as failed
TIME_LIMIT = {"cli-cold": 20.0, "game-wide": 60.0, "oracle-deep": 30.0, "schedule-long": 30.0}
# documents in a traced run, fixed so that its counts repeat exactly
TRACE_DOCS = {"cli-cold": 24, "game-wide": 20, "oracle-deep": 20, "schedule-long": 10}
# period in k of each workload's size classes; a timed run ends on a whole
# cycle, so the job mix is the same in every run
CYCLE = {"cli-cold": 4, "game-wide": 10, "oracle-deep": 10, "schedule-long": 10}


def rng_for(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# polynomials: lists of Fractions, ascending degree


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def pshift(p, a):
    """Coefficients of p(a + t) in t, by Horner's rule."""
    out = []
    for c in reversed(p):
        out = pmul(out, [Fraction(a), Fraction(1)]) or [Fraction(0)]
        out[0] += c
    return trim(out)


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def series_quotient(num, den, order):
    """First order+1 coefficients of num/den as a power series (den[0] != 0)."""
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def jet(P, Q, coordinate, order):
    """Taylor coefficients of P/Q in t = z - p, or t = 1/z at infinity."""
    if coordinate == "inf":
        D = max(len(P), len(Q)) - 1
        num = list(reversed(P + [Fraction(0)] * (D + 1 - len(P))))
        den = list(reversed(Q + [Fraction(0)] * (D + 1 - len(Q))))
    else:
        num, den = pshift(P, coordinate), pshift(Q, coordinate)
    return series_quotient(num, den, order)


def same_function(P, Q, num, den) -> bool:
    """P/Q == num/den, by cross-multiplication."""
    return pmul(trim(P), trim(den)) == pmul(trim(num), trim(Q))


def random_function(rng, d, coords):
    """P/Q with deg Q = d, deg P <= d, integer coefficients, and no pole at
    any marked coordinate (nor at infinity, since deg P <= deg Q)."""
    while True:
        Q = [Fraction(rng.randint(-3, 3)) for _ in range(d)] + [Fraction(rng.choice((-2, -1, 1, 2)))]
        P = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, d + 1))]
        if not trim(P):
            continue
        if all(c == "inf" or peval(Q, c) != 0 for c in coords):
            return trim(P), Q


def jets_for(rng, coords, orders, d, perturbed):
    """Series entries of a random degree-d function at the coordinates.

    A perturbed document adds 1 to the last coefficient of one jet.  With
    N >= d + cap + 2 conditions no function of degree <= cap matches the
    result: it would agree with P/Q to total order N - 1 > d + cap."""
    P, Q = random_function(rng, d, coords)
    series = [jet(P, Q, c, m) for c, m in zip(coords, orders)]
    if perturbed:
        series[rng.randrange(len(series))][-1] += 1
    return P, Q, series


# ---------------------------------------------------------------------------
# geometry: points in [-6, -1] and [1, 6], domains built around them


def random_points(rng, n):
    pts = set()
    while len(pts) < n:
        q = rng.choice((1, 2, 3, 4, 5, 7))
        x = Fraction(rng.randint(q, 6 * q), q) * rng.choice((-1, 1))
        pts.add(x)
    return sorted(pts)


def jitter(rng, xs):
    """Move each point away from 0 by j/1000, j in 0..10.  Points of
    random_points lie at least 1/42 apart, so they stay distinct and keep
    their order."""
    return [x + Fraction(rng.randint(0, 10) * (1 if x > 0 else -1), 1000) for x in xs]


def domain(rng, kind, xs):
    """A domain of the given kind whose interior holds every finite x in xs
    (and infinity, for the kinds that contain it); the gap (-1, 1) is empty."""
    if kind == "disk":
        c = Fraction(rng.randint(-4, 4), 4)
        r = max(abs(x - c) for x in xs) + Fraction(rng.randint(2, 8), 4)
        return {"kind": "disk", "center": fmt(c), "radius": fmt(r)}
    if kind == "exterior_disk":
        return {"kind": "exterior_disk", "center": fmt(Fraction(rng.randint(-1, 1), 4)),
                "radius": fmt(Fraction(rng.randint(1, 2), 4))}
    if kind == "interval_complement":
        a = Fraction(-rng.randint(1, 3), 4)
        return {"kind": "interval_complement", "a": fmt(a), "b": fmt(a + Fraction(rng.randint(1, 3), 4))}
    comps = []
    for side in ([x for x in xs if x < 0], [x for x in xs if x > 0]):
        if side:
            lo, hi = min(side), max(side)
            comps.append({"kind": "disk", "center": fmt((lo + hi) / 2),
                          "radius": fmt((hi - lo) / 2 + Fraction(1, 4))})
    return {"kind": "union", "components": comps}


def points_json(coords):
    return [{"id": i, "coordinate": c if c == "inf" else fmt(c)} for i, c in enumerate(coords)]


def series_json(series):
    return [{"point": i, "coefficients": [fmt(c) for c in s]} for i, s in enumerate(series)]


def nonarch_json(rng, n, count):
    places = []
    for p in sorted(rng.sample(PRIMES, count)):
        coeffs, preset = {}, {}
        for i in rng.sample(range(n), rng.randint(1, n)):
            if rng.random() < 0.3:
                preset[str(i)] = rng.choice(("good_reduction", "leaf", "leaf_p_curvature"))
            else:
                coeffs[str(i)] = fmt(Fraction(-rng.randint(0, 3), rng.randint(1, 3)))
        off = {}
        for _ in range(rng.randint(0, 2) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            v = fmt(Fraction(rng.randint(1, 3), rng.randint(1, 4)))
            off[f"{i},{j}"] = off[f"{j},{i}"] = v
        place = {"p": p, "log_size_coeffs": coeffs, "preset": preset}
        if off:
            place["off_diagonal"] = off
        places.append(place)
    return places


# ---------------------------------------------------------------------------
# workloads


DOMAIN_KINDS = ("disk", "exterior_disk", "interval_complement", "union")


def game_wide(seed: int, k: int) -> dict:
    """10-14 finite points, 1-2 real places of every kind, 1-3 primes,
    jets of order 1-2 and degree_bound 1.  Sizes and kinds repeat every ten
    documents.  One document in ten (n = 10) adds an extra place with a
    +inf pair (i, j) and interaction 5 between i and every other point, so
    game_value takes its cap-doubling path and then support enumeration."""
    base, rng = rng_for("game-wide", "base", k), rng_for("game-wide", seed, k)
    pos = k % 10
    n = 10 + pos % 5
    has_inf = pos == 5
    xs = jitter(rng, random_points(base, n))
    kinds = [DOMAIN_KINDS[(pos + i) % 4] for i in range(1 + pos // 5)]
    orders = [rng.randint(1, 2) for _ in xs]
    rational = rng.random() < 0.5
    P, Q, series = jets_for(rng, xs, orders, 1, not rational)
    doc = {
        "points": points_json(xs),
        "series": series_json(series),
        "arch_places": [{"domain": domain(base, kind, xs)} for kind in kinds],
        "nonarch_places": nonarch_json(base, n, 1 + pos % 3),
        "scalings": [],
        "degree_bound": 1,
    }
    if has_inf:
        entries = [[0] * n for _ in range(n)]
        i, j = base.sample(range(n), 2)
        for m in range(n):
            if m != i:
                entries[i][m] = entries[m][i] = 5
        entries[i][j] = entries[j][i] = "inf"
        doc["extra_places"] = [{"label": "divergent", "entries": entries}]
    return {"doc": doc, "expect": _oracle_expect(P, Q, rational, 1), "has_inf": has_inf}


# (rational cap, perturbed cap, points, one of them at infinity) per pair of
# documents.  Rational cap 19 and perturbed cap 11 cost about the same and
# hold the middle of the latency order, so job_p50_s falls among many
# documents rather than in the gap between two classes
ORACLE_CLASSES = ((10, 10, 1, False), (16, 14, 2, True), (22, 18, 3, False),
                  (13, 11, 2, False), (19, 16, 3, True))


def oracle_deep(seed: int, k: int) -> dict:
    """1-3 points (infinity among them in two pairs of five) carrying
    2*cap+2 coefficients in all.  Even documents are jets of a
    function of degree cap/2, cap 10-22, found half-way up the search; odd
    ones have one coefficient perturbed and cap 10-18, so the search scans
    every degree to the cap (a scan to 22 alone takes 4-5 s, a fifth of a
    run).  The seed draws the function and the perturbed coefficient."""
    base, rng = rng_for("oracle-deep", "base", k), rng_for("oracle-deep", seed, k)
    rational = k % 2 == 0
    cap_r, cap_p, npts, with_inf = ORACLE_CLASSES[k // 2 % len(ORACLE_CLASSES)]
    cap = cap_r if rational else cap_p
    xs = random_points(base, npts)
    coords = xs[: npts - 1] + ["inf"] if with_inf else xs
    orders = [len(part) - 1 for part in _split(2 * cap + 2, npts)]
    P, Q, series = jets_for(rng, coords, orders, cap // 2, not rational)
    kind = "interval_complement" if with_inf else "disk"
    finite = [c for c in coords if c != "inf"]
    doc = {
        "points": points_json(coords),
        "series": series_json(series),
        "arch_places": [{"domain": domain(base, kind, finite)}],
        "nonarch_places": nonarch_json(base, npts, int(with_inf)),
        "scalings": [],
        "degree_bound": cap,
    }
    return {"doc": doc, "expect": _oracle_expect(P, Q, rational, cap)}


def _split(total, parts):
    """`total` coefficients dealt round-robin to `parts` jets."""
    return [range(p, total, parts) for p in range(parts)]


def cli_cold(seed: int, k: int, problems_dir: Path) -> dict:
    """Every fourth job runs a shipped problem; the rest are small seeded
    documents (1-3 points, degree_bound 1-4)."""
    if k % 4 == 0:
        name = SHIPPED[(k // 4) % len(SHIPPED)]
        doc = json.loads((problems_dir / f"{name}.json").read_text())
        return {"doc": doc, "expect": {"shipped": name}}
    rng = rng_for("cli-cold", seed, k)
    cap = rng.randint(1, 4)
    npts = rng.randint(1, 3)
    xs = random_points(rng, npts)
    with_inf = npts > 1 and rng.random() < 0.3
    coords = xs[: npts - 1] + ["inf"] if with_inf else xs
    orders = [len(part) - 1 for part in _split(2 * cap + 2 + rng.randint(0, 2), npts)]
    rational = rng.random() < 0.5
    P, Q, series = jets_for(rng, coords, orders, rng.randint(1, cap), not rational)
    finite = [c for c in coords if c != "inf"]
    kind = rng.choice(("exterior_disk", "interval_complement")) if with_inf else rng.choice(DOMAIN_KINDS)
    doc = {
        "points": points_json(coords),
        "series": series_json(series),
        "arch_places": [{"domain": domain(rng, kind, finite)}],
        "nonarch_places": nonarch_json(rng, npts, rng.randint(0, 1)),
        "scalings": [],
        "degree_bound": cap,
    }
    return {"doc": doc, "expect": _oracle_expect(P, Q, rational, cap)}


def schedule_long(seed: int, k: int) -> dict:
    """m points, m cycling through 3, 4, 5, 6, 6 (so the median job is an
    m = 5 one and the p80 job an m = 6 one, not a boundary between sizes),
    and a symmetric float matrix from the base stream.  Every other block of five takes weights n_i/D with D <= 60 (period <= D,
    far below K); the others take continued-fraction approximations with
    denominators up to 10**9, renormalised, the form rational_strategy
    returns, so the period is far longer than K."""
    base, rng = rng_for("schedule-long", "base", k), rng_for("schedule-long", seed, k)
    m = (3, 4, 5, 6, 6)[k % 5]
    short = (k // 5) % 2 == 0
    if short:
        D = rng.choice((12, 20, 24, 30, 36, 40, 48, 60))
        cuts = sorted(rng.sample(range(1, D), m - 1))
        weights = [Fraction(b - a, D) for a, b in zip([0] + cuts, cuts + [D])]
    else:
        raw = [Fraction(rng.uniform(0.05, 1.0)).limit_denominator(10**9) for _ in range(m)]
        weights = [w / sum(raw) for w in raw]
    G = [[0.0] * m for _ in range(m)]
    for i in range(m):
        G[i][i] = base.uniform(-1.0, 2.0)
        for j in range(i + 1, m):
            G[i][j] = G[j][i] = base.uniform(0.0, 3.0)
    floor = min(sum(float(w) * G[i][j] for i, w in enumerate(weights)) for j in range(m))
    v_prime = Fraction(floor - 0.25).limit_denominator(1000)
    return {
        "weights": [fmt(w) for w in weights],
        "matrix": G,
        "v_prime": fmt(v_prime),
        "K": SCHEDULE_K,
        "short_period": math.lcm(*(w.denominator for w in weights)) <= SCHEDULE_K,
    }


def _oracle_expect(P, Q, rational, cap):
    return {"rational": rational, "P": [fmt(c) for c in P], "Q": [fmt(c) for c in Q], "cap": cap}


def make(workload: str, seed: int, k: int, problems_dir: Path) -> dict:
    if workload == "cli-cold":
        return cli_cold(seed, k, problems_dir)
    if workload == "game-wide":
        return game_wide(seed, k)
    if workload == "oracle-deep":
        return oracle_deep(seed, k)
    if workload == "schedule-long":
        return schedule_long(seed, k)
    raise ValueError(f"unknown workload {workload!r}")
