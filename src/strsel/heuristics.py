"""Restarted hill climbing for Close to Most Strings and Far from Most
Strings. Deterministic: best-improvement moves with a fixed (position,
symbol) scan order, strict improvement only, seeded restarts.

The climb holds the input words once, as a transposed ``uint8`` symbol
matrix, and moves a block of restarts in lockstep: a boolean (r, l, n) array
of the words each center's positions mismatch, and an (r, n) array of its
distances in the narrowest unsigned dtype that holds l + 1. Moving position
p from symbol a to b changes word i's distance by
``[w_i[p] != b] - [w_i[p] != a]``, so one iteration scores the sigma - 1 real
neighbours of every position of every restart (one when binary) with the
objective that the exact solvers use (:func:`exact.coverage_counts` or
:func:`exact.anticoverage_counts`). In each restart's (l, sigma) value
array the current symbol stays -1; the move taken is the first maximum in
row-major order, the (position, symbol) scan order, and only if it beats
the current value, else the restart drops out. A block holds as many
restarts as keep the mismatch array within ``exact._BLOCK_ELEMENTS``
elements, and at least one. Ties between restarts go to the smaller center;
only the winner becomes a ``Word``, re-scored on the independent per-word
path (:func:`words.coverage` or :func:`words.anticoverage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact
from .exact import CenterResult, anticoverage_counts, block_rows, coverage_counts, symbol_matrix
from .rng import SplitMix64, derive_seed
from .words import CmsInstance, FfmsInstance, StringSet, Word, anticoverage, coverage


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    restarts: int = 1
    max_iterations: int = 10_000
    start: str = "inputs"  # "inputs" | "random" | "canonical"

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        if self.start not in ("inputs", "random", "canonical"):
            raise ValueError(f"unknown start strategy {self.start!r}")


def _start_symbols(sset: StringSet, cfg: SearchConfig, restart: int) -> Sequence[int]:
    if cfg.start == "inputs":
        return symbol_matrix(sset)[restart % sset.size]
    rng = SplitMix64(derive_seed(cfg.seed, restart))
    if cfg.start == "random":
        return [rng.next_below(sset.alphabet.size) for _ in range(sset.length)]
    # random element of {00,11}^(l/2); used for instances built by the
    # Max-2-SAT reduction, whose good centers are all canonical
    if not sset.alphabet.is_binary or sset.length % 2 != 0:
        raise ValueError("canonical starts need a binary instance of even length")
    return np.repeat(rng.bits(sset.length // 2), 2)


def _climb(words_t: np.ndarray, sigma: int, score, centers: np.ndarray, max_iterations: int):
    """Climb from every row of the (r, l) ``centers`` at once over the (l, n)
    symbol matrix ``words_t``, where ``score`` maps a (..., n) distance array
    to one value per center; ``centers`` is updated in place. Returns the
    final values."""
    mismatch = words_t != centers[:, :, None]
    dist = mismatch.sum(axis=1, dtype=np.min_scalar_type(len(words_t) + 1))
    values = score(dist).astype(np.int64)
    live = np.arange(len(centers))
    positions = np.arange(len(words_t))
    for _ in range(max_iterations):
        # base[k, p]: restart k's distances with position p left out; adding
        # [w[p] != b] gives the distances of the neighbour that writes b at p
        base = dist[:, None, :] - mismatch
        neighbours = np.full((len(live), len(words_t), sigma), -1, dtype=np.int64)
        for shift in range(1, sigma):
            b = (centers[live] + shift) % sigma
            neighbours[np.arange(len(live))[:, None], positions, b] = score(base + (words_t != b[:, :, None]))
        neighbours = neighbours.reshape(len(live), -1)
        top = neighbours.max(axis=1)
        moved = np.flatnonzero(top > values[live])
        if not moved.size:
            break
        if len(moved) < len(live):
            live, mismatch, base = live[moved], mismatch[moved], base[moved]
        p, b = np.divmod(neighbours[moved].argmax(axis=1), sigma)
        rows = np.arange(len(live))
        mismatch[rows, p] = words_t[p] != b[:, None]
        dist = base[rows, p] + mismatch[rows, p]
        centers[live, p] = b
        values[live] = top[moved]
    return values


def _local_search(sset: StringSet, score, rescore, cfg: SearchConfig) -> CenterResult:
    # each restart climbs on one mismatch cell per (position, word) pair
    work = f"{cfg.restarts}*{sset.length}*{sset.size} mismatch cells"
    exact.check_budget("hill climbing", work, cfg.restarts * sset.length * sset.size, exact.DEFAULT_WORK_BUDGET)
    words_t = np.ascontiguousarray(symbol_matrix(sset).T)
    step = block_rows(words_t)
    best = None
    for lo in range(0, cfg.restarts, step):
        restarts = range(lo, min(lo + step, cfg.restarts))
        centers = np.array([_start_symbols(sset, cfg, r) for r in restarts], dtype=np.uint8)
        values = _climb(words_t, sset.alphabet.size, score, centers, cfg.max_iterations)
        # the highest value, ties to the smallest center
        block_best = min(zip((-values).tolist(), centers.tolist()))
        best = min(best, block_best) if best else block_best
    result = CenterResult(center=Word(best[1], sset.alphabet), value=-best[0])
    checked = rescore(result.center)
    if checked != result.value:
        raise AssertionError(
            f"hill climbing scored {result.center} as {result.value}, the per-word rescore as {checked}"
        )
    return result


def local_search_cms(inst: CmsInstance, cfg: SearchConfig) -> CenterResult:
    return _local_search(
        inst.set, lambda dist: coverage_counts(dist, inst.d), lambda s: coverage(s, inst), cfg
    )


def local_search_ffms(inst: FfmsInstance, cfg: SearchConfig) -> CenterResult:
    return _local_search(
        inst.set, lambda dist: anticoverage_counts(dist, inst.d), lambda s: anticoverage(s, inst), cfg
    )
