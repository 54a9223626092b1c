"""Decision wrapper for Closest to k Strings built on a (1+eps)-approximation
oracle.

Because radii are integers, querying the oracle with any eps satisfying
(1+eps)*d < d+1 makes the approximate radius answer the exact decision
"is the optimal radius at most d". We use eps = 1/(2(d+1)), which satisfies
that inequality for every d >= 1. (Some statements of this trick give the
looser-looking bound eps < (d+1)/d; the inequality chain actually needs
eps < 1/d, which is what the choice above guarantees.) The d = 0 query does
not need an oracle at all: the radius is 0 iff some word occurs k times.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exact import CenterResult, _center_blocks, _cks_result, coverage_counts, solve_cks_exact, symbol_matrix
from .rng import SplitMix64
from .words import CksInstance, hamming

ApproxOracle = Callable[[CksInstance, float], CenterResult]


class OracleContractError(Exception):
    """The plugged-in oracle returned an infeasible or mis-scored solution."""


def _validate_oracle_result(inst: CksInstance, result: CenterResult) -> int:
    if result.chosen_subset is None or len(result.chosen_subset) != inst.k:
        raise OracleContractError("oracle must return a subset of exactly k strings")
    if not inst.is_subset(result.chosen_subset):
        raise OracleContractError(f"oracle returned subset {result.chosen_subset}, not k distinct indices of words")
    radius = max(hamming(result.center, inst.set.words[i]) for i in result.chosen_subset)
    if radius != result.value:
        raise OracleContractError(
            f"oracle reported radius {result.value} but its solution re-scores to {radius}"
        )
    return radius


def epsilon_for(d: int) -> float:
    return 1.0 / (2 * (d + 1))


def decide_cks(inst: CksInstance, d: int, oracle: ApproxOracle) -> bool:
    """True iff the optimal radius of ``inst`` is at most ``d``."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        _, counts = np.unique(symbol_matrix(inst.set), axis=0, return_counts=True)
        return int(counts.max()) >= inst.k
    result = oracle(inst, epsilon_for(d))
    d_alg = _validate_oracle_result(inst, result)
    return d_alg <= d


def exact_oracle(inst: CksInstance, eps: float) -> CenterResult:
    """The trivially contract-honoring oracle: ignore eps, solve exactly."""
    return solve_cks_exact(inst)


def _radii(dist: np.ndarray, k: int, length: int) -> np.ndarray:
    """Each center's CkS radius, the smallest r at which it covers k words:
    the number of radii r < l at which it covers fewer, counted in passes
    upward from 0 that stop once every center of the block covers k words."""
    radii = np.zeros(len(dist), dtype=np.min_scalar_type(length))
    for r in range(length):
        short = coverage_counts(dist, r) < k
        if not short.any():
            break
        radii += short
    return radii


def synthetic_inflating_oracle(inst: CksInstance, eps: float, seed: int = 0) -> CenterResult:
    """Worst contract-honoring oracle for stress tests: returns a feasible
    solution whose radius is drawn from [d_opt, floor((1+eps)*d_opt)].

    The drawn solution is uniform over the centers attaining the drawn
    radius (or d_opt, if none does), in lexicographic order."""
    radii = np.concatenate([_radii(dist, inst.k, inst.set.length) for _, dist in _center_blocks(inst.set)])
    d_opt = int(radii.min())
    hi = int((1 + eps) * d_opt)
    rng = SplitMix64(seed)
    target = d_opt + rng.next_below(hi - d_opt + 1) if hi > d_opt else d_opt
    candidates = np.flatnonzero(radii == target)
    if not len(candidates):
        # no feasible solution attains exactly the drawn radius
        candidates = np.flatnonzero(radii == d_opt)
    return _cks_result(inst, int(candidates[rng.next_below(len(candidates))]))


def make_inflating_oracle(seed: int) -> ApproxOracle:
    return lambda inst, eps: synthetic_inflating_oracle(inst, eps, seed)
