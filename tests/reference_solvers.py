"""Pure-Python reference solvers for the center problems.

These are the per-center, per-word loops that ``strsel.exact`` and
``strsel.fpt`` replaced with the packed numpy distance kernel, and the
per-neighbour hill climbing that ``strsel.heuristics`` replaced with an
incremental distance vector. They are kept here, built only on ``Word`` and
``hamming``, as the differential oracle for the fast paths: those must
return equal ``CenterResult`` values, including the lexicographic
tie-breaks.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from strsel.exact import CenterResult
from strsel.heuristics import SearchConfig
from strsel.rng import SplitMix64, derive_seed
from strsel.words import Alphabet, CksInstance, CmsInstance, FfmsInstance, StringSet, Word, anticoverage, coverage, hamming


def enumerate_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All words of the given length in lexicographic order."""
    if alphabet.is_binary:
        for bits in range(1 << length):
            yield Word.from_bits(bits, length)
    else:
        for symbols in itertools.product(range(alphabet.size), repeat=length):
            yield Word(symbols, alphabet)


def solve_cms_exact(inst: CmsInstance) -> CenterResult:
    best = None
    best_value = -1
    for s in enumerate_words(inst.set.alphabet, inst.set.length):
        v = coverage(s, inst)
        if v > best_value:
            best, best_value = s, v
    return CenterResult(center=best, value=best_value)


def solve_ffms_exact(inst: FfmsInstance) -> CenterResult:
    best = None
    best_value = -1
    for s in enumerate_words(inst.set.alphabet, inst.set.length):
        v = anticoverage(s, inst)
        if v > best_value:
            best, best_value = s, v
    return CenterResult(center=best, value=best_value)


def k_nearest(center: Word, sset: StringSet, k: int):
    """(radius, indices of the k nearest strings); ties by lowest index."""
    ranked = sorted(range(sset.size), key=lambda i: (hamming(center, sset.words[i]), i))
    chosen = ranked[:k]
    radius = max(hamming(center, sset.words[i]) for i in chosen)
    return radius, tuple(sorted(chosen))


def solve_cks_exact(inst: CksInstance) -> CenterResult:
    best = None
    for s in enumerate_words(inst.set.alphabet, inst.set.length):
        radius, chosen = k_nearest(s, inst.set, inst.k)
        if best is None or radius < best.value:
            best = CenterResult(center=s, value=radius, chosen_subset=chosen)
    return best


def radius_table(inst: CksInstance) -> dict:
    """All achievable radii with every feasible solution attaining each, in
    lexicographic order of the center."""
    table = {}
    for s in enumerate_words(inst.set.alphabet, inst.set.length):
        radius, chosen = k_nearest(s, inst.set, inst.k)
        table.setdefault(radius, []).append(CenterResult(s, radius, chosen))
    return table


def synthetic_inflating_oracle(inst: CksInstance, eps: float, seed: int = 0) -> CenterResult:
    table = radius_table(inst)
    d_opt = min(table)
    hi = int((1 + eps) * d_opt)
    rng = SplitMix64(seed)
    target = d_opt + rng.next_below(hi - d_opt + 1) if hi > d_opt else d_opt
    candidates = table.get(target)
    if not candidates:
        candidates = table[d_opt]
    return candidates[rng.next_below(len(candidates))]


def _random_word(sset: StringSet, rng: SplitMix64) -> Word:
    return Word([rng.next_below(sset.alphabet.size) for _ in range(sset.length)], sset.alphabet)


def _canonical_word(sset: StringSet, rng: SplitMix64) -> Word:
    if not sset.alphabet.is_binary or sset.length % 2 != 0:
        raise ValueError("canonical starts need a binary instance of even length")
    symbols = []
    for _ in range(sset.length // 2):
        b = rng.next_bit()
        symbols.extend((b, b))
    return Word(symbols)


def _start_word(sset: StringSet, cfg: SearchConfig, restart: int) -> Word:
    if cfg.start == "inputs":
        return sset.words[restart % sset.size]
    rng = SplitMix64(derive_seed(cfg.seed, restart))
    if cfg.start == "random":
        return _random_word(sset, rng)
    return _canonical_word(sset, rng)


def _climb(start: Word, objective: Callable[[Word], int], max_iterations: int):
    current = start
    value = objective(current)
    for _ in range(max_iterations):
        best_move: Optional[Word] = None
        best_value = value
        sigma = current.alphabet.size
        for pos in range(current.length):
            old = current[pos]
            for sym in range(sigma):
                if sym == old:
                    continue
                cand = Word(
                    current.symbols[:pos] + (sym,) + current.symbols[pos + 1 :],
                    current.alphabet,
                )
                v = objective(cand)
                if v > best_value:
                    best_move, best_value = cand, v
        if best_move is None:
            break
        current, value = best_move, best_value
    return current, value


def _local_search(sset: StringSet, objective, cfg: SearchConfig) -> CenterResult:
    best: Optional[CenterResult] = None
    for restart in range(cfg.restarts):
        center, value = _climb(_start_word(sset, cfg, restart), objective, cfg.max_iterations)
        if best is None or value > best.value or (value == best.value and center < best.center):
            best = CenterResult(center=center, value=value)
    return best


def local_search_cms(inst: CmsInstance, cfg: SearchConfig) -> CenterResult:
    return _local_search(inst.set, lambda s: coverage(s, inst), cfg)


def local_search_ffms(inst: FfmsInstance, cfg: SearchConfig) -> CenterResult:
    return _local_search(inst.set, lambda s: anticoverage(s, inst), cfg)
