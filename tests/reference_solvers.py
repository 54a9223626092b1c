"""Pure-Python reference solvers for the center problems.

These are the per-center, per-word loops that ``strsel.exact`` and
``strsel.fpt`` replaced with the packed numpy distance kernel. They are kept
here, built only on ``Word`` and ``hamming``, as the differential oracle for
that kernel: the fast solvers must return equal ``CenterResult`` values,
including the lexicographic tie-breaks.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from strsel.exact import CenterResult
from strsel.rng import SplitMix64
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
