"""Restarted hill climbing for Close to Most Strings and Far from Most
Strings. Deterministic: best-improvement moves with a fixed (position,
symbol) scan order, strict improvement only, seeded restarts.

The climb holds the input words once, as a transposed ``uint8`` symbol
matrix, and the current center's distance to every word as one vector.
Moving position p from symbol a to b changes word i's distance by
``[w_i[p] != b] - [w_i[p] != a]``, so one iteration scores every
(position, symbol) neighbour at once, as an (l, sigma) value array filled
one symbol at a time by the objective that the exact solvers use
(:func:`exact.coverage_counts` or :func:`exact.anticoverage_counts`). The
move taken is the first maximum of that array in row-major order, which is
the (position, symbol) scan order, and only if it beats the current value.
A ``Word`` is built only for each restart's final center, and the winner is
re-scored on the independent per-word path (:func:`words.coverage` or
:func:`words.anticoverage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exact import CenterResult, anticoverage_counts, coverage_counts, symbol_matrix
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


def _climb(words_t: np.ndarray, sigma: int, score, start: Sequence[int], max_iterations: int):
    """Climb from ``start`` over the (l, n) symbol matrix ``words_t``, where
    ``score`` maps a (centers, words) distance array to one value per center.
    Returns the final center's symbols and its value."""
    center = np.array(start, dtype=np.uint8)
    positions = np.arange(len(center))
    mismatch = words_t != center[:, None]
    dist = mismatch.sum(axis=0)
    value = int(score(dist[None, :])[0])
    values = np.empty((len(center), sigma), dtype=np.int64)
    for _ in range(max_iterations):
        # row p: every word's distance to the center with position p left
        # out; adding [w[p] != b] gives its distance to the neighbour that
        # writes b at p
        base = dist - mismatch
        for b in range(sigma):
            values[:, b] = score(base + (words_t != b))
        values[positions, center] = -1
        p, b = divmod(int(np.argmax(values)), sigma)
        if values[p, b] <= value:
            break
        mismatch[p] = words_t[p] != b
        dist = base[p] + mismatch[p]
        center[p] = b
        value = int(values[p, b])
    return center.tolist(), value


def _local_search(sset: StringSet, score, rescore, cfg: SearchConfig) -> CenterResult:
    words_t = np.ascontiguousarray(symbol_matrix(sset).T)
    best: Optional[CenterResult] = None
    for restart in range(cfg.restarts):
        symbols, value = _climb(
            words_t, sset.alphabet.size, score, _start_symbols(sset, cfg, restart), cfg.max_iterations
        )
        center = Word(symbols, sset.alphabet)
        if best is None or value > best.value or (value == best.value and center < best.center):
            best = CenterResult(center=center, value=value)
    checked = rescore(best.center)
    if checked != best.value:
        raise AssertionError(
            f"hill climbing scored {best.center} as {best.value}, the per-word rescore as {checked}"
        )
    return best


def local_search_cms(inst: CmsInstance, cfg: SearchConfig) -> CenterResult:
    return _local_search(
        inst.set, lambda dist: coverage_counts(dist, inst.d), lambda s: coverage(s, inst), cfg
    )


def local_search_ffms(inst: FfmsInstance, cfg: SearchConfig) -> CenterResult:
    return _local_search(
        inst.set, lambda dist: anticoverage_counts(dist, inst.d), lambda s: anticoverage(s, inst), cfg
    )
