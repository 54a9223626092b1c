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

from operator import ne
from typing import Callable

import numpy as np

from . import exact
from .exact import CenterResult, coverage_counts, solve_cks_exact, symbol_matrix
from .rng import SplitMix64
from .words import CksInstance

ApproxOracle = Callable[[CksInstance, float], CenterResult]


class OracleContractError(Exception):
    """The plugged-in oracle returned an infeasible or mis-scored solution."""


def _validate_oracle_result(inst: CksInstance, result: CenterResult) -> int:
    center, sset, length = result.center, inst.set, inst.set.length
    if (center.alphabet, len(center)) != (sset.alphabet, length):
        shape = f"{len(center)} symbols over {center.alphabet.size}, not {length} over {sset.alphabet.size}"
        raise OracleContractError(f"oracle returned a center of {shape}")
    if result.chosen_subset is None or len(result.chosen_subset) != inst.k:
        raise OracleContractError("oracle must return a subset of exactly k strings")
    if not inst.is_subset(result.chosen_subset):
        raise OracleContractError(f"oracle returned subset {result.chosen_subset}, not k distinct indices of words")
    # the k chosen rows of the row buffer, recounted in Python: no Word per string, no numpy call
    radius = max(sum(map(ne, sset.rows[i * length : (i + 1) * length], center.symbols)) for i in result.chosen_subset)
    if radius != result.value:
        raise OracleContractError(f"oracle reported radius {result.value} but its solution re-scores to {radius}")
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


def _at_radius(dist: np.ndarray, k: int, r: int, d_opt: int) -> np.ndarray:
    """Which centers of a block have CkS radius exactly r >= d_opt: they
    cover k words within r, and, unless r = d_opt, fewer within r - 1."""
    hits = coverage_counts(dist, r) >= k
    if r > d_opt and hits.any():
        hits &= coverage_counts(dist, r - 1) < k
    return hits


def synthetic_inflating_oracle(inst: CksInstance, eps: float, seed: int = 0) -> CenterResult:
    """Worst contract-honoring oracle for stress tests: returns a feasible
    solution whose radius is drawn from [d_opt, floor((1+eps)*d_opt)].

    The drawn solution is uniform over the centers attaining the drawn
    radius (or d_opt, if none does), in lexicographic order. d_opt comes
    from the pruned CkS search; the candidates are counted block by block,
    and only the block that holds the drawn one is scored again. Block 0's
    distances and hits are kept; the scorer is called for the others, so a
    string set whose centers fit one block is scored once."""
    blocks, score = exact._center_blocks(inst.set)
    blocks = list(blocks)  # read by every pass; one range per block, as the counts keep one count
    first = score(blocks[0])
    *_, d_opt = exact._cks_optimum(inst, ((ids, score(ids) if b else first) for b, ids in enumerate(blocks)))
    hi = int((1 + eps) * d_opt)
    rng = SplitMix64(seed)
    target = d_opt + rng.next_below(hi - d_opt + 1) if hi > d_opt else d_opt
    # the centers of d_opt are drawn from when none has the drawn radius
    for radius in dict.fromkeys((target, d_opt)):
        hits = _at_radius(first, inst.k, radius, d_opt).nonzero()[0]
        counts = [len(hits)] + [int(_at_radius(score(ids), inst.k, radius, d_opt).sum()) for ids in blocks[1:]]
        if any(counts):
            break
    index, b = rng.next_below(sum(counts)), 0
    while index >= counts[b]:
        index, b = index - counts[b], b + 1
    # block 0's distances and hits are kept; any other block is scored again
    dist = score(blocks[b]) if b else first
    hits = _at_radius(dist, inst.k, radius, d_opt).nonzero()[0] if b else hits
    i = int(hits[index])
    return exact._cks_result(inst, blocks[b][i], dist[i])


def make_inflating_oracle(seed: int) -> ApproxOracle:
    return lambda inst, eps: synthetic_inflating_oracle(inst, eps, seed)
