"""Verification campaigns for the probabilistic and arithmetic claims behind
the Max-2-SAT reduction: the fixing-string structural property, its per-pair
probability bounds, the approximation-gap inequalities, and the Las-Vegas
retry loop.

Words are manipulated as packed integers here (blocks are adjacent bit
pairs), which keeps the exhaustive enumerations fast enough to run in CI.
Every check of the structural property reads one far table per n. A
campaign scores a block of trials with one draw of all their fixing strings
and one product with that table, and re-scores trial 0 on its own through
:func:`lemma_fixing_trial`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import exact
from .exact import block_rows, distances, packed, symbol_matrix
from .reductions import (
    Max2SatInstance,
    NonCanonicalCenterError,
    decode_center,
    fixing_strings,
    reduce_max2sat_to_cms,
)
from .rng import derive_seed, stream_bits
from .words import StringSet, Word

MAX_N = 8
# values of m that experiment inequalities sweeps; 2^24 of them take a few seconds
MAX_GAP_M = 2**24
# a float32 sum of 0/1 terms is an exact integer while it stays below 2^24
_FLOAT32_EXACT = 1 << 24


def _pair_mask(n: int) -> int:
    return int("01" * n, 2)


def noncanonical_words(n: int) -> np.ndarray:
    """Packed integers for all words in {0,1}^(2n) \\ {00,11}^n."""
    mask = _pair_mask(n)
    arr = np.arange(1 << (2 * n), dtype=np.uint32)
    keep = ((arr ^ (arr >> 1)) & mask) != 0
    return arr[keep]


def all_fixing_words(n: int) -> np.ndarray:
    """Packed integers for all 2^n words in {01,10}^n, ascending: bit t of
    the index puts block 10 instead of 01 at bits 2t and 2t + 1."""
    index = np.arange(1 << n, dtype=np.uint32)[:, None]
    t = np.arange(n, dtype=np.uint32)
    return ((index >> t & 1) << 2 * t).sum(axis=1, dtype=np.uint32) + np.uint32(_pair_mask(n))


def _check_n(n: int):
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    exact.check_budget("the far table", f"4^{n} words", ("^", 4, n), 4**MAX_N)


def _check_fixing_count(count: int):
    exact.check_budget("the float32 far count", f"{count} fixing strings", count, _FLOAT32_EXACT - 1)


@functools.lru_cache(maxsize=1)
def _far_table(n: int):
    """``(words, fixing, far)`` for length 2n: the :func:`noncanonical_words`,
    the :func:`all_fixing_words`, and the ``float32`` table with ``far[i, j]``
    = 1 when d(words[i], fixing[j]) > n, else 0. Built in :func:`block_rows`
    row blocks; read-only, because the cache hands it to every caller."""
    words, fixing = noncanonical_words(n), all_fixing_words(n)
    far = np.empty((len(words), len(fixing)), dtype=np.float32)
    step = block_rows(fixing)
    for lo in range(0, len(words), step):
        far[lo : lo + step] = distances(words[lo : lo + step], fixing) > n
    for table in (words, fixing, far):
        table.flags.writeable = False
    return words, fixing, far


def structural_property_holds(fixing: StringSet, n: int, m: int):
    """Check the fixing-string property for a concrete set F of words from
    {01,10}^n: every non-canonical word must be at distance > n from at
    least m strings of F. F is scored as one mat-vec of the far table
    against how many times F holds each fixing word.

    Returns (holds, witness word or None, witness's far-string count); the
    witness is the first failing word in :func:`noncanonical_words` order.
    """
    _check_n(n)
    rows = symbol_matrix(fixing)
    if not fixing.alphabet.is_binary or fixing.length != 2 * n or (rows[:, 0::2] == rows[:, 1::2]).any():
        raise ValueError(f"fixing strings must lie in {{01,10}}^{n}")
    _check_fixing_count(fixing.size)
    words, fixing_words, far = _far_table(n)
    held = np.bincount(np.searchsorted(fixing_words, packed(fixing)), minlength=len(fixing_words))
    counts = far @ held.astype(np.float32)
    bad = np.flatnonzero(counts < m)
    if len(bad) == 0:
        return True, None, None
    i = int(bad[0])
    return False, Word.from_index(int(words[i]), 2 * n), int(counts[i])


@dataclass(frozen=True)
class TrialOutcome:
    holds: bool
    witness: Optional[Word] = None
    far_count: Optional[int] = None


def _check_trial(n: int, m: int, c: int):
    """Reject a trial's parameters before anything is drawn."""
    if c < 1:
        raise ValueError(f"--c must be at least 1, got {c}")
    _check_n(n)
    if m < n:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    _check_fixing_count(c * m)


def lemma_fixing_trial(n: int, m: int, c: int, seed: int) -> TrialOutcome:
    """One draw of F (cm random fixing strings) checked exhaustively."""
    _check_trial(n, m, c)
    holds, witness, far = structural_property_holds(fixing_strings(c * m, n, seed), n, m)
    return TrialOutcome(holds=holds, witness=witness, far_count=far)


@dataclass
class TrialReport:
    trials: int
    failures: int = 0
    worst_witnesses: list = field(default_factory=list)
    bound: Optional[float] = None
    slack: Optional[float] = None
    within_bound: Optional[bool] = None

    @property
    def failure_fraction(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


def one_sided_binomial_slack(p: float, trials: int, z: float = 1.645) -> float:
    """95% one-sided normal-approximation slack for an observed fraction."""
    return z * math.sqrt(p * (1 - p) / trials)


# trials per campaign block, and fixing strings per draw, keep the uint64
# draws and the float32 far counts near 2^18 elements, a few MB each
_BLOCK_ELEMENTS = 1 << 18


def _fixing_indices(states: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """For each trial state, the :func:`all_fixing_words` indices of its
    fixing strings ``lo`` .. ``hi - 1``: a string's n draws, read as a
    big-endian number (a ``uint8``, as n <= MAX_N = 8)."""
    draws = stream_bits(states, lo * n, hi * n).reshape(len(states), hi - lo, n)
    return draws @ (1 << np.arange(n - 1, -1, -1)).astype(np.uint8)


def _failing_trials(n: int, m: int, count: int, trials: int, seed: int):
    """Yield ``(trial, witness Word, far count)`` for each failing trial in
    order, as :func:`lemma_fixing_trial` scores it with ``count`` strings.

    A block of trials is scored at once: their held counts (how many times
    each trial draws each fixing word) come from one offset ``np.bincount``
    per chunk of strings, and one product of the far table with them gives
    every word's far count in every trial. The witness is the trial's first
    failing word in :func:`noncanonical_words` order."""
    words, fixing, far = _far_table(n)
    rows = max(1, _BLOCK_ELEMENTS // max(count * n, len(words)))
    chunk = max(1, _BLOCK_ELEMENTS // (rows * n))
    for lo in range(0, trials, rows):
        states = derive_seed(seed, np.arange(lo, min(lo + rows, trials), dtype=np.uint64))
        offsets = np.arange(len(states))[:, None] * len(fixing)
        held = sum(
            np.bincount((_fixing_indices(states, first, min(first + chunk, count), n) + offsets).ravel(),
                        minlength=len(states) * len(fixing))
            for first in range(0, count, chunk)
        )
        far_counts = held.reshape(len(states), -1).astype(np.float32) @ far.T
        failing = far_counts < m
        for t in np.flatnonzero(failing.any(axis=1)):
            i = int(failing[t].argmax())
            yield lo + int(t), Word.from_index(int(words[i]), 2 * n), int(far_counts[t, i])


def lemma_fixing_campaign(n: int, m: int, c: int, trials: int, seed: int) -> TrialReport:
    """Repeated trials of the structural property; the observed failure
    fraction is compared against the 0.9^n bound plus binomial slack.

    The comparison is recorded in the report, not raised: it is a
    statistical claim, not a unit test.

    Trials are scored in blocks by :func:`_failing_trials`; trial 0 is scored
    again on its own by :func:`lemma_fixing_trial`, and a mismatch raises.
    """
    if trials < 0:
        raise ValueError(f"--trials must be at least 0, got {trials}")
    _check_trial(n, m, c)
    report = TrialReport(trials=trials)
    if trials == 0:
        return report
    failures = list(_failing_trials(n, m, c * m, trials, seed))
    batch = TrialOutcome(False, *failures[0][1:]) if failures and failures[0][0] == 0 else TrialOutcome(True)
    single = lemma_fixing_trial(n, m, c, derive_seed(seed, 0))
    if single != batch:
        raise AssertionError(f"the campaign scored trial 0 as {batch}, lemma_fixing_trial as {single}")
    report.failures = len(failures)
    report.worst_witnesses = [(t, str(witness), far) for t, witness, far in failures]
    report.bound = 0.9**n
    report.slack = one_sided_binomial_slack(report.bound, trials)
    report.within_bound = report.failure_fraction <= report.bound + report.slack
    return report


def per_pair_quarter_bound(n: int) -> float:
    """Exact minimum over all non-canonical s of the fraction of fixing
    strings at distance >= n+1; must be >= 1/4."""
    _check_n(n)
    _, fixing, far = _far_table(n)
    return float(far.sum(axis=1).min()) / len(fixing)


def conditional_half_bound(n: int) -> float:
    """Exact minimum conditional fraction: for every non-canonical s and
    every mismatched block of s, restrict to fixing strings whose block there
    opposes s's, and measure the fraction at distance >= n+1; must be >= 1/2.

    Half of the fixing strings oppose s at a given block. For each block t,
    one mat-vec of the far table with the indicator of block t being 10
    counts, for every s at once, the far strings holding 10 there; the row
    sum less that count gives those holding 01."""
    _check_n(n)
    words, fixing, far = _far_table(n)
    shifts = 2 * np.arange(n, dtype=np.uint32)
    s_blocks = words[:, None] >> shifts & 0b11
    holds_10 = (fixing >> shifts[:, None] & 0b11 == 0b10).astype(np.float32)
    # mat-vecs, not one matrix product: that would map a ~40 MB BLAS buffer
    far_10 = np.stack([far @ column for column in holds_10], axis=1)
    opposing = np.where(s_blocks == 0b01, far_10, far.sum(axis=1, keepdims=True) - far_10)
    mismatched = (s_blocks == 0b01) | (s_blocks == 0b10)
    return float(opposing[mismatched].min()) / (len(fixing) // 2)


def conditional_distance_distribution(s_bits: int, block: int, n: int) -> dict:
    """Histogram of d(s, f) over fixing strings f whose block ``block``
    opposes s's mismatched block there; symmetric about n+1."""
    f_arr = all_fixing_words(n)
    sblock = (s_bits >> (2 * block)) & 0b11
    if sblock in (0b00, 0b11):
        raise ValueError("designated block must be mismatched (01 or 10)")
    opposing = 0b11 ^ sblock
    cond = f_arr[((f_arr >> (2 * block)) & 0b11) == opposing]
    dist = np.bitwise_count(np.uint32(s_bits) ^ cond)
    values, freq = np.unique(dist, return_counts=True)
    return {int(v): int(f) for v, f in zip(values, freq)}


@dataclass
class InequalityReport:
    epsilon_threshold: float
    gap_holds: bool
    structural_threshold_holds: bool
    union_bound_holds: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.gap_holds and self.structural_threshold_holds and self.union_bound_holds


def gap_failures(c: int, m_max: int, eps_grid) -> list:
    """("gap", m, k, eps), in (m, eps) order, wherever some k in [ceil(m/2), m]
    has (cm + k)/(1+eps) <= cm + (21/22)k. The gap is affine in k, so only the
    two ends are evaluated, 2^16 values of m at a time; k is the lower end
    when the check fails there, else m."""
    exact.check_budget("the gap sweep", f"{m_max} values of m", m_max, MAX_GAP_M)
    failures = []
    for lo in range(1, m_max + 1, 1 << 16):
        m = np.arange(lo, min(lo + (1 << 16), m_max + 1), dtype=np.float64)[:, None]
        ends = np.hstack([(m + 1) // 2, m])
        fails = np.stack([(c * m + ends) / (1.0 + eps) <= c * m + (21.0 / 22.0) * ends for eps in eps_grid], axis=1)
        for i, e in zip(*np.nonzero(fails.any(axis=2))):
            failures.append(("gap", lo + int(i), float(ends[i, fails[i, e].argmax()]), eps_grid[e]))
    return failures


def inequality_checks(c: int, m_max: int, n_max: int = 60) -> InequalityReport:
    """Numerically verify the three arithmetic facts behind the reduction:

    (a) for every m <= m_max, every achievable optimum k* in [ceil(m/2), m],
        and eps below the threshold 1/(21+44c):
        (cm + k*)/(1+eps) > cm + (21/22) k*;
    (b) those eps also sit below the structural-lemma applicability
        threshold 1/(2c);
    (c) the union-bound quantity (4^n - 2^n) exp(-(c-4)^2 n / (8c)) stays
        at or below 0.9^n for n in [1, n_max] (log-space comparison).
    """
    if c < 5:
        raise ValueError("c must be >= 5")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    threshold = 1.0 / (21 + 44 * c)
    eps_grid = [0.1 * threshold, 0.5 * threshold, 0.9 * threshold]
    failures = gap_failures(c, m_max, eps_grid)
    report = InequalityReport(
        epsilon_threshold=threshold,
        gap_holds=not failures,
        structural_threshold_holds=True,
        union_bound_holds=True,
        failures=failures,
    )
    for eps in eps_grid:
        if not eps < 1.0 / (2 * c):
            report.structural_threshold_holds = False
            report.failures.append(("structural", eps))
    exponent = (c - 4) ** 2 / (8.0 * c)
    for n in range(1, n_max + 1):
        log_lhs = n * math.log(4.0) + math.log1p(-(2.0 ** (-n))) - exponent * n
        log_rhs = n * math.log(0.9)
        if log_lhs > log_rhs:
            report.union_bound_holds = False
            report.failures.append(("union", n, log_lhs, log_rhs))
    return report


def las_vegas_loop(
    phi: Max2SatInstance,
    c: int = 20,
    seed: int = 0,
    cms_solver=None,
    trial_limit: int = 1000,
):
    """Re-run the randomized reduction with fresh bits until the solver's
    center is canonical, then decode it. Returns (assignment, trial count)."""
    if cms_solver is None:
        cms_solver = exact.solve_cms_exact
    for t in range(trial_limit):
        inst, _ = reduce_max2sat_to_cms(phi, c=c, seed=derive_seed(seed, t))
        result = cms_solver(inst)
        try:
            return decode_center(result.center), t + 1
        except NonCanonicalCenterError:
            continue
    raise exact.BudgetExceededError(f"no canonical center within {trial_limit} trials")
