"""Greedy derivation schedules and their exact combinatorial bounds.

Given a strictly positive rational weight vector a on the point set, the
schedule picks at each step the point whose visit count lags furthest below
its target share: i_{k+1} minimizes omega_i(k) - k*a_i, ties to the smallest
id.  The deviations omega_i(k) - k*a_i then stay inside [1 - |I|, 1].

All three routines work on integers: the deviations are scaled by the common
denominator d of a, and each column of the weighted floor by the lcm of its
denominator and v''s.  They also certify over one period.  The scaled deviations
vanish together only at multiples of d, and the first step P where they do
puts the greedy rule back in its start state.  A sequence that repeats with
period P (checked outright, so hand-built schedules stay sound) has
deviations of period P and column sums that gain the same amount every
period, so one period of work gives the exact answer at any horizon.
Without such a P the period is the whole sequence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from ._record import Record
from .errors import PreconditionError
from .exact import scaled
from .game import Strategy, _beats, rationalize_matrix


class Schedule(Record):
    """A derivation sequence with its weight vector and visit counters."""

    ids: tuple
    a: tuple  # strictly positive Fractions summing to 1, aligned with ids
    K: int
    sequence: tuple  # ids, length K

    @property
    def size(self) -> int:
        return len(self.ids)

    def omega_final(self) -> dict:
        counts = {pid: 0 for pid in self.ids}
        for pid in self.sequence:
            counts[pid] += 1
        return counts

    def omega_history(self):
        """Yield (k, counts) for k = 0..K; counts is reused, copy if kept."""
        counts = {pid: 0 for pid in self.ids}
        yield 0, counts
        for k, pid in enumerate(self.sequence, start=1):
            counts[pid] += 1
            yield k, counts

    def to_report(self) -> dict:
        return {"a": list(self.a), "K": self.K, "sequence": list(self.sequence)}


def _validated_weights(a, size: Optional[int] = None) -> tuple:
    weights = tuple(Fraction(v) for v in a)
    if size is not None and len(weights) != size:
        raise PreconditionError("weight vector length does not match the id list")
    if any(w <= 0 for w in weights):
        raise PreconditionError("schedule weights must be strictly positive")
    if sum(weights) != 1:
        raise PreconditionError("schedule weights must sum to 1 exactly")
    return weights


def build_schedule(a, K: int, ids: Optional[Sequence[int]] = None) -> Schedule:
    """Run the greedy rule for K steps (smallest-id tie-break)."""
    if K < 0:
        raise PreconditionError("horizon K must be >= 0")
    if isinstance(a, Strategy):
        a = a.weights
    weights = _validated_weights(a, None if ids is None else len(tuple(ids)))
    m = len(weights)
    id_list = tuple(ids) if ids is not None else tuple(range(1, m + 1))
    if len(set(id_list)) != m:
        raise PreconditionError("schedule ids must be distinct")
    if list(id_list) != sorted(id_list):
        raise PreconditionError("schedule ids must be sorted ascending")

    n, d = scaled(weights)
    # v_i tracks d*(omega_i(k) - k*a_i); pick argmin, then advance one step
    v = [0] * m
    seq = []
    rng = range(m)
    for _ in range(K):
        j = v.index(min(v))
        seq.append(id_list[j])
        v = [v[i] - n[i] for i in rng]
        v[j] += d
        if not any(v):
            break  # back in the start state, so seq repeats from here on
    P = len(seq)
    if P:
        seq = seq * (K // P) + seq[: K % P]
    return Schedule(ids=id_list, a=weights, K=K, sequence=tuple(seq))


def _one_period(schedule: Schedule, d: int, n: list) -> list:
    """Indices of the points visited in one period of the sequence.

    The period ends at the first step P where every scaled deviation
    d*omega_i(P) - P*n_i is zero, provided the sequence repeats with
    period P; otherwise it is the whole sequence.
    """
    pos = {pid: i for i, pid in enumerate(schedule.ids)}
    seq = schedule.sequence
    counts = [0] * len(n)
    idx = []
    for k, pid in enumerate(seq, start=1):
        i = pos[pid]
        idx.append(i)
        counts[i] += 1
        if k % d == 0 and all(c * d == k * x for c, x in zip(counts, n)):
            break
    P, K = len(idx), len(seq)
    if P < K and seq != seq[:P] * (K // P) + seq[: K % P]:
        idx += [pos[pid] for pid in seq[P:]]
    return idx


class BoundsReport(Record):
    max_dev: Fraction
    min_dev: Fraction
    verdict: bool


def check_bounds(schedule: Schedule) -> BoundsReport:
    """Exact verification of 1 - |I| <= omega_i(k) - k*a_i <= 1 at every step.

    The deviations repeat with the period, so one period covers every step.
    """
    m = schedule.size
    n, d = scaled([Fraction(w) for w in schedule.a])
    v = [0] * m
    max_num, min_num = 0, 0
    rng = range(m)
    for j in _one_period(schedule, d, n):
        v = [v[i] - n[i] for i in rng]
        v[j] += d
        hi, lo = max(v), min(v)
        if hi > max_num:
            max_num = hi
        if lo < min_num:
            min_num = lo
    max_dev = Fraction(max_num, d)
    min_dev = Fraction(min_num, d)
    return BoundsReport(
        max_dev=max_dev,
        min_dev=min_dev,
        verdict=(max_dev <= 1 and min_dev >= 1 - m),
    )


class WeightedFloorReport(Record):
    """Smallest c >= 0 with sum_i omega_i(k) G_ij >= k*v_prime - c throughout."""

    c: Fraction
    precondition_ok: bool
    worst_k: int
    worst_column: int


def weighted_floor(schedule: Schedule, matrix, v_prime) -> WeightedFloorReport:
    """Exact constant for the schedule/game inequality.

    The schedule is expected to come from a weight vector whose column
    payoffs all exceed v_prime; a violation is reported in the result, not
    raised.  Infinite entries weighted by omega_i = 0 contribute nothing,
    and once touched they satisfy the column constraint outright.
    """
    game = rationalize_matrix(matrix)
    m = schedule.size
    if len(game) != m:
        raise PreconditionError("matrix size does not match the schedule")
    v_prime = Fraction(v_prime)
    precondition_ok = _beats(game, schedule.a, v_prime)

    n, d = scaled([Fraction(w) for w in schedule.a])
    idx = _one_period(schedule, d, n)
    K, P = len(schedule.sequence), len(idx)
    c, c_den, worst_k, worst_j = 0, 1, 0, 0
    for j, (nums, scale, inf_rows) in enumerate(game.columns):
        # D puts v' and the column's finite entries on the integers; D*(v' - G_ij) per visit to i
        D = math.lcm(scale, v_prime.denominator)
        unit, V = D // scale, v_prime.numerator * (D // v_prime.denominator)
        gain = [V - a * unit for a in nums]
        # the first visit to an infinite entry satisfies column j for good
        end = min((idx.index(i) for i in inf_rows if i in idx), default=P)
        # gaps[k-1] = D*(k*v' - S_j(k)) over the steps before the column dies
        gaps = list(accumulate(gain[i] for i in idx[:end]))
        if not gaps:
            continue
        gap, k = _worst_step(gaps, K, P)
        if gap * c_den > c * D or (gap * c_den == c * D and k < worst_k):  # gap/D against c/c_den
            c, c_den, worst_k, worst_j = gap, D, k, j
    return WeightedFloorReport(
        c=Fraction(c, c_den), precondition_ok=precondition_ok, worst_k=worst_k, worst_column=worst_j
    )


def _worst_step(gaps: list, K: int, P: int) -> tuple:
    """Largest gap of one column over steps 1..K and the first step with it.

    A column that stays finite for a whole period (len(gaps) == P) has
    gap(k + t*P) = gap(k) + t*gaps[-1]; one that dies inside the first
    period has no gaps past it.
    """
    drift = gaps[-1] if len(gaps) == P else 0
    if drift <= 0:
        top = max(gaps)
        return top, gaps.index(top) + 1
    q, r = divmod(K, P)
    # steps r+1..P last recur in period q-1, steps 1..r in period q
    top = max(gaps[r:])
    best = (top + (q - 1) * drift, gaps.index(top, r) + 1 + (q - 1) * P)
    if r:
        top = max(gaps[:r])
        if top + q * drift > best[0]:
            best = (top + q * drift, gaps.index(top) + 1 + q * P)
    return best
