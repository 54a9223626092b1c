"""Verification campaigns for the probabilistic and arithmetic claims behind
the Max-2-SAT reduction: the fixing-string structural property, its per-pair
probability bounds and the gap and union-bound inequalities (both decided in
closed form, the bounds for every n and the inequalities for every m and n),
and the Las-Vegas retry loop.

Words are manipulated as packed integers here (blocks are adjacent bit
pairs), which keeps the exhaustive enumerations fast enough to run in CI.
Every check of a concrete fixing set reads one far table per n, up to
``MAX_N``. A campaign scores a block of trials with one draw of all their
fixing strings and one product with that table, and re-scores trial 0 on its
own through :func:`lemma_fixing_trial`.
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
# a float32 sum of 0/1 terms is an exact integer while it stays below 2^24
_FLOAT32_EXACT = 1 << 24


def _pair_mask(n: int) -> int:
    return int("01" * n, 2)


def all_fixing_words(n: int) -> np.ndarray:
    """Packed integers for all 2^n words in {01,10}^n, ascending: bit t of
    the index puts block 10 instead of 01 at bits 2t and 2t + 1."""
    index = np.arange(1 << n, dtype=np.uint32)[:, None]
    t = np.arange(n, dtype=np.uint32)
    return ((index >> t & 1) << 2 * t).sum(axis=1, dtype=np.uint32) + np.uint32(_pair_mask(n))


def _check_n(n: int):
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")


def _check_far_table(n: int):
    _check_n(n)
    exact.check_budget("the far table", f"4^{n} words", ("^", 4, n), 4**MAX_N)


def _check_fixing_count(count: int):
    exact.check_budget("the float32 far count", f"{count} fixing strings", count, _FLOAT32_EXACT - 1)


@functools.lru_cache(maxsize=1)
def _far_table(n: int):
    """``(words, fixing, far)`` for length 2n: the words of {00,01,10}^n
    \\ {0^(2n)}, ascending, the :func:`all_fixing_words`, and the ``float32``
    table with ``far[i, j]`` = 1 when d(words[i], fixing[j]) > n, else 0.
    Built in :func:`block_rows` row blocks, each the words-major buffer of one
    :func:`distances` call; read-only, because the cache hands it to every
    caller.

    A 11 block, like a 00 block, is at distance 1 from both 01 and 10, so
    every non-canonical word (outside {00,11}^n) has the far row of the word
    with its 11 blocks turned into 00: one row per block class, 3^n - 1 rows
    instead of 4^n - 2^n."""
    words = np.arange(1 << (2 * n), dtype=np.uint32)
    words = words[((words & words >> 1 & _pair_mask(n)) == 0) & (words != 0)]
    fixing = all_fixing_words(n)
    far = np.empty((len(words), len(fixing)), dtype=np.float32)
    step = block_rows(fixing)
    for lo in range(0, len(words), step):
        far[lo : lo + step] = distances(fixing, words[lo : lo + step], 1).T > n
    for table in (words, fixing, far):
        table.flags.writeable = False
    return words, fixing, far


def structural_property_holds(fixing: StringSet, n: int, m: int):
    """Check the fixing-string property for a concrete set F of words from
    {01,10}^n: every non-canonical word must be at distance > n from at
    least m strings of F. F is scored as one mat-vec of the far table
    against how many times F holds each fixing word.

    Returns (holds, witness word or None, witness's far-string count); the
    witness is the first failing non-canonical word in ascending order, which
    has a row in the far table: turning a 11 block into 00 would give a
    smaller word with the same far count.
    """
    _check_far_table(n)
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
    _check_far_table(n)
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


# trials per campaign block, fixing strings per draw and far-table rows per
# product keep the uint64 draws, the held counts and the float32 far counts
# near 2^18 elements, a few MB each
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
    per chunk of strings, and products of row chunks of the far table with
    them give every word's far count in every trial. A block holds at most
    sqrt(_BLOCK_ELEMENTS) trials, so that each product spans at least as many
    table rows. The witness is the trial's first failing word in ascending
    order, as in :func:`structural_property_holds`."""
    words, fixing, far = _far_table(n)
    rows = max(1, min(math.isqrt(_BLOCK_ELEMENTS), _BLOCK_ELEMENTS // max(count * n, len(fixing))))
    chunk = max(1, _BLOCK_ELEMENTS // (rows * n))
    for lo in range(0, trials, rows):
        states = derive_seed(seed, np.arange(lo, min(lo + rows, trials), dtype=np.uint64))
        offsets = np.arange(len(states))[:, None] * len(fixing)
        held = sum(
            np.bincount((_fixing_indices(states, first, min(first + chunk, count), n) + offsets).ravel(),
                        minlength=len(states) * len(fixing))
            for first in range(0, count, chunk)
        )
        held = held.reshape(len(states), -1).astype(np.float32)
        span = max(1, _BLOCK_ELEMENTS // len(states))
        witnesses = {}
        for top in range(0, len(words), span):
            far_counts = held @ far[top : top + span].T
            failing = far_counts < m
            for t in np.flatnonzero(failing.any(axis=1)):
                if t not in witnesses:
                    i = int(failing[t].argmax())
                    witnesses[t] = Word.from_index(int(words[top + i]), 2 * n), int(far_counts[t, i])
        for t in sorted(witnesses):
            yield lo + int(t), *witnesses[t]


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
    # each trial draws c*m fixing strings of n bits
    work = f"{trials}*{c}*{m}*{n} fixing draws"
    exact.check_budget("fixing campaign", work, trials * c * m * n, exact.DEFAULT_WORK_BUDGET)
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


def _least_far_fraction(n: int, opposed: int) -> float:
    """The least fraction, over non-canonical words s of length 2n, of fixing
    strings f at distance > n from s, among the f that oppose s at ``opposed``
    (0 or 1) given blocks of J, the set of s's 01 and 10 blocks.

    f is at distance 1 from each block of s outside J and 0 or 2 from each in
    J, so d(s, f) = (n - |J|) + 2i, with i the blocks of J where f opposes s:
    d > n iff i > |J|/2. For |J| = j the fraction is P[opposed + Bin(j -
    opposed, 1/2) > j/2], least over 1 <= j <= n at j <= 2. Unconditioned, an
    odd j gives 1/2 and an even j (1 - C(j, j/2)/2^j)/2, which grows from 1/4
    at j = 2; conditioned, an even j gives 1/2 and an odd j more. So the
    bounds are 1/2 and 1 at n = 1 and 1/4 and 1/2 for every larger n. Each is
    an integer count over 2^(j - opposed) <= 4, which a float holds exactly."""
    _check_n(n)
    return min(sum(math.comb(j - opposed, i - opposed) for i in range(j // 2 + 1, j + 1)) / 2 ** (j - opposed)
               for j in range(1, min(n, 2) + 1))


def per_pair_quarter_bound(n: int) -> float:
    """Exact minimum over all non-canonical s of the fraction of fixing
    strings at distance >= n+1; must be >= 1/4."""
    return _least_far_fraction(n, 0)


def conditional_half_bound(n: int) -> float:
    """Exact minimum conditional fraction: for every non-canonical s and
    every mismatched block of s, restrict to fixing strings whose block there
    opposes s's, and measure the fraction at distance >= n+1; must be >= 1/2."""
    return _least_far_fraction(n, 1)


@dataclass
class InequalityReport:
    epsilon_threshold: float
    gap_holds: bool
    structural_threshold_holds: bool
    union_bound_holds: bool

    @property
    def passed(self) -> bool:
        return self.gap_holds and self.structural_threshold_holds and self.union_bound_holds


def gap_holds(c: int, p: int, q: int) -> bool:
    """The gap check (a) of :func:`inequality_checks` at eps = p/q."""
    return p * (21 + 44 * c) < q


def inequality_checks(c: int, m_max: int) -> InequalityReport:
    """Decide exactly, for all m >= 2 and n >= 1 (``m_max`` need only be 2):
    (a) the gap (cm + k)/(1+eps) > cm + (21/22)k, i.e. k(1 - 21 eps) > 22 eps c m.
        The least k/m with k >= ceil(m/2) is 1/2 (m = 2, k = 1), so it holds for
        all m and k iff eps < 1/(21 + 44c); checked at 0.1, 0.5 and 0.9 of that.
    (b) those eps < 1/(2c), the structural-lemma threshold.
    (c) the union bound: log((4^n - 2^n) e^(-(c-4)^2 n/(8c)) / 0.9^n) is
        n (log 4 - (c-4)^2/(8c) - log 0.9) + log(1 - 2^-n), whose last term is
        negative, so it is <= 0 for every n iff the bracket is: from c = 20 on.
    """
    if c < 5:
        raise ValueError(f"--c must be at least 5, got {c}")
    if m_max < 2:
        raise ValueError(f"--m must be at least 2, got {m_max}")
    eps_grid = [(tenths, 10 * (21 + 44 * c)) for tenths in (1, 5, 9)]
    return InequalityReport(
        epsilon_threshold=1.0 / (21 + 44 * c),
        gap_holds=all(gap_holds(c, p, q) for p, q in eps_grid),
        structural_threshold_holds=all(2 * c * p < q for p, q in eps_grid),
        union_bound_holds=math.log(4.0) - (c - 4) ** 2 / (8.0 * c) <= math.log(0.9),
    )


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
