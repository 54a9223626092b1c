"""Pure-Python reference solvers.

These are the per-center, per-word loops that ``strsel.exact`` and
``strsel.fpt`` replaced with the packed numpy distance kernel, the
per-neighbour hill climbing that ``strsel.heuristics`` replaced with an
incremental distance vector, the MSFBC combination loop that
``strsel.exact`` replaced with a table over all subsets, and the MSFBC
column-set loop with generator-built group keys. They are kept here,
built only on ``Word``, ``hamming`` and ``bad_columns``, as the differential
oracle for the fast paths: those must return equal ``CenterResult`` and
``SubsetResult`` values, including the lexicographic tie-breaks.

The fixing-string references draw one ``next_bit()`` per block and score
each trial of a campaign, and each (word, block) pair of the half bound, on
its own, where ``strsel`` draws the bits of a block of trials at once and
scores them with one product against the far table of n. The gap check
evaluates every (m, k) pair where ``strsel`` evaluates the two ends of each
k range. The certificate references at the end build one (index, kind, ref)
entry per generated string, where a certificate records runs of refs.
"""

from __future__ import annotations

import itertools
from math import comb, sqrt
from typing import Callable, Iterator, Optional

import numpy as np

from strsel.exact import (
    DEFAULT_SUBSET_BUDGET,
    BudgetExceededError,
    CenterResult,
    SubsetResult,
    block_rows,
    distances,
    packed,
)
from strsel.experiments import all_fixing_words, noncanonical_words
from strsel.heuristics import SearchConfig
from strsel.reductions import Graph, Max2SatInstance, ReductionCertificate
from strsel.rng import SplitMix64, derive_seed
from strsel.words import (
    BINARY,
    Alphabet,
    CksInstance,
    CmsInstance,
    FfmsInstance,
    MsfbcInstance,
    StringSet,
    Word,
    anticoverage,
    bad_columns,
    coverage,
    hamming,
)


def enumerate_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All words of the given length in lexicographic order."""
    if alphabet.is_binary:
        for bits in range(1 << length):
            yield Word.from_index(bits, length)
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


def solve_msfbc_subsets(inst: MsfbcInstance, subset_budget: int = DEFAULT_SUBSET_BUDGET) -> SubsetResult:
    """Largest cardinality first; within one, ``itertools.combinations``
    yields index lists in lexicographic order, so the first feasible subset
    found is the canonical answer."""
    n = inst.set.size
    if 2**n > subset_budget:
        raise BudgetExceededError(
            f"subset enumeration needs 2^{n} subsets, above the budget of {subset_budget}"
        )
    words = inst.set.words
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            bad = bad_columns([words[i] for i in combo])
            if len(bad) <= inst.k:
                return SubsetResult(indices=combo, bad_column_count=len(bad))
    raise AssertionError("unreachable: any single string has zero bad columns")


def solve_msfbc_columns(inst: MsfbcInstance, column_budget: int = DEFAULT_SUBSET_BUDGET) -> SubsetResult:
    """Every column set J of size min(k, l); group the words by their symbols
    outside J, one generator-built key per word, and keep the best group."""
    ell = inst.set.length
    j_size = min(inst.k, ell)
    if comb(ell, j_size) > column_budget:
        raise BudgetExceededError(
            f"column enumeration needs C({ell},{j_size}) column sets, above the budget of {column_budget}"
        )
    words = inst.set.words
    best: Optional[tuple] = None
    for j_set in itertools.combinations(range(ell), j_size):
        keep = [j for j in range(ell) if j not in j_set]
        groups: dict = {}
        for i, w in enumerate(words):
            key = tuple(w[j] for j in keep)
            groups.setdefault(key, []).append(i)
        for indices in groups.values():
            cand = (-len(indices), tuple(indices))
            if best is None or cand < best:
                best = cand
    indices = best[1]
    bad = bad_columns([words[i] for i in indices])
    return SubsetResult(indices=indices, bad_column_count=len(bad))


_BLOCKS = ((0, 1), (1, 0))


def fixing_strings(count: int, n: int, seed: int) -> StringSet:
    rng = SplitMix64(seed)
    return StringSet(BINARY, 2 * n, bytes(c for _ in range(count * n) for c in _BLOCKS[rng.next_bit()]))


def _far_counts(s_arr: np.ndarray, f_arr: np.ndarray, n: int) -> np.ndarray:
    """For each s, how many f are at Hamming distance > n."""
    counts = np.zeros(len(s_arr), dtype=np.int64)
    step = block_rows(f_arr)
    for lo in range(0, len(s_arr), step):
        counts[lo : lo + step] = (distances(s_arr[lo : lo + step], f_arr) > n).sum(axis=1)
    return counts


def structural_property_holds(fixing: StringSet, n: int, m: int):
    s_arr = noncanonical_words(n)
    counts = _far_counts(s_arr, packed(fixing), n)
    bad = np.nonzero(counts < m)[0]
    if len(bad) == 0:
        return True, None, None
    i = int(bad[0])
    return False, Word.from_index(int(s_arr[i]), 2 * n), int(counts[i])


def lemma_fixing_campaign(n: int, m: int, c: int, trials: int, seed: int) -> dict:
    """The fixing-lemma campaign report fields, trial by trial: per-bit draws
    of each trial's c*m fixing strings, scored by per-pair far counts."""
    witnesses = []
    for t in range(trials):
        holds, witness, far = structural_property_holds(fixing_strings(c * m, n, derive_seed(seed, t)), n, m)
        if not holds:
            witnesses.append((t, str(witness), far))
    if trials == 0:
        return {"failures": 0, "worst_witnesses": [], "bound": None, "slack": None, "within_bound": None}
    bound = 0.9**n
    slack = 1.645 * sqrt(bound * (1 - bound) / trials)
    return {
        "failures": len(witnesses),
        "worst_witnesses": witnesses,
        "bound": bound,
        "slack": slack,
        "within_bound": len(witnesses) / trials <= bound + slack,
    }


def per_pair_quarter_bound(n: int) -> float:
    f_arr = all_fixing_words(n)
    return float(_far_counts(noncanonical_words(n), f_arr, n).min()) / len(f_arr)


def conditional_half_bound(n: int) -> float:
    f_arr = all_fixing_words(n)
    minimum = 1.0
    for s in noncanonical_words(n):
        s = int(s)
        for t in range(n):
            block = (s >> (2 * t)) & 0b11
            if block in (0b00, 0b11):
                continue
            cond = f_arr[((f_arr >> (2 * t)) & 0b11) == 0b11 ^ block]
            dist = np.bitwise_count(np.uint32(s) ^ cond)
            minimum = min(minimum, float((dist >= n + 1).sum()) / len(cond))
    return minimum


def gap_failures(c: int, m_max: int, eps_grid) -> list:
    """("gap", m, k, eps) for the smallest k in [ceil(m/2), m] at which
    (cm + k)/(1+eps) <= cm + (21/22)k, per failing (m, eps)."""
    failures = []
    for m in range(1, m_max + 1):
        k = np.arange((m + 1) // 2, m + 1, dtype=np.float64)
        for eps in eps_grid:
            lhs = (c * m + k) / (1.0 + eps)
            rhs = c * m + (21.0 / 22.0) * k
            bad = np.nonzero(lhs <= rhs)[0]
            if len(bad):
                failures.append(("gap", m, float(k[bad[0]]), eps))
    return failures


def sat2cms_index_map(phi: Max2SatInstance, c: int) -> tuple:
    """(index, kind, ref) per string of ``reduce_max2sat_to_cms(phi, c)``."""
    fixing = c * phi.clause_count
    return tuple(
        [(i, "fixing", str(i)) for i in range(fixing)]
        + [(fixing + j, "clause", str(j)) for j in range(phi.clause_count)]
    )


def dks2msfbc_index_map(graph: Graph) -> tuple:
    """(index, kind, ref) per string of ``reduce_dks_to_msfbc(graph, k)``."""
    return tuple(
        [(i, "edge", f"{u},{v}") for i, (u, v) in enumerate(graph.edges)] + [(len(graph.edges), "zero", "0")]
    )


def serialize_certificate(cert: ReductionCertificate, index_map: tuple, source_path: str = "-") -> str:
    out = [f"seed={cert.seed}"] if cert.seed is not None else []
    out += [f"{key}={value}" for key, value in sorted(cert.parameters.items())]
    out.append(f"source={source_path}")
    out += [f"map={index} {kind} {ref}" for (index, kind, ref) in index_map]
    return "\n".join(out) + "\n"
