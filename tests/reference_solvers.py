"""Pure-Python reference solvers.

These are the per-center, per-word loops that ``strsel.exact`` and
``strsel.fpt`` replaced with the packed numpy distance kernel, the hill
climbing that re-scores each neighbour ``Word`` of one restart at a time,
where ``strsel.heuristics`` climbs blocks of restarts in lockstep on
incremental distance arrays, the MSFBC combination loop that
``strsel.exact`` replaced with a table over all subsets, the pure-Python
MSFBC column-set loop, one generator-built group key per word, that
``strsel.exact`` replaced with sorted numpy keys over blocks of column sets,
and the DkS and Max-2-SAT loops over ``itertools`` that ``strsel.exact``
replaced with numpy blocks, scored one subset or assignment at a time by
``Graph.induced_edge_count`` and ``Max2SatInstance.satisfied_count``. They are kept here, built only on
``Word``, ``hamming``, ``bad_columns`` and those two methods, as the
differential oracle for the fast paths: those must return equal results,
``CenterResult`` and ``SubsetResult`` values and (answer, count) pairs,
including the lexicographic tie-breaks.

:func:`solve_max2sat_clause_tests` is the numpy Max-2-SAT enumeration that
tested every clause under every assignment, 2^n·m tests, before
``strsel.exact`` summed three falsified-clause tables of a split and list,
2^n additions. It shares no code with either, and it covers n <= 20 at
any clause count the tests use, which the per-assignment loop cannot.

The numpy CkS scorer, :func:`sorted_radii`, is the one ``strsel.exact``
used before it decided radii by coverage counts: a symbol-matrix column loop
for the distances and a stable sort of each center's row for its k-th
smallest distance. It is fast enough for mid-size instances that the
per-center loops cannot reach.

The fixing-string references draw one ``next_bit()`` per block and score
each trial of a campaign, and each (word, block) pair of the half bound, on
its own, over every non-canonical word, where ``strsel`` draws the bits of a
block of trials at once and scores them with one product against the far
table of n, which holds one row per block class. The quarter and half bounds,
which ``strsel`` decides in closed form for every n, are also read here from
that far table, as its row sums and one mat-vec per block, for n <= 8; and
the conditional distance histogram of one (word, block) pair is counted
directly over the fixing words. The gap and union-bound
checks evaluate every (m, k) pair and every n up to a bound in floats, where
``strsel`` decides both in closed form for all m and n. The certificate
references at the end build one (index, kind, ref) entry per generated
string, where a certificate records runs of refs.
"""

from __future__ import annotations

import itertools
from math import comb, log, log1p, sqrt
from typing import Callable, Iterator, Optional

import numpy as np

from strsel import experiments
from strsel.exact import (
    DEFAULT_SUBSET_BUDGET,
    BudgetExceededError,
    CenterResult,
    SubsetResult,
    block_rows,
    distances,
    packed,
)
from strsel.experiments import all_fixing_words
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


def center_distances(sset: StringSet) -> np.ndarray:
    """The (centers, words) distance array of every center, in lexicographic
    order, by ``hamming``: what ``exact._center_blocks`` scores as head and
    tail sums, block by block."""
    return np.array([[hamming(c, w) for w in sset] for c in enumerate_words(sset.alphabet, sset.length)])


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


def sorted_radii(sset: StringSet, k: int) -> np.ndarray:
    """Every center's CkS radius in lexicographic order, scored the way
    ``strsel.exact`` did before it counted coverage: distances by a column
    loop over the symbol matrices of all centers and of the words, then the
    k-th smallest distance of each center by a stable sort of its row."""
    sigma, length = sset.alphabet.size, sset.length
    centers = np.arange(sigma**length)[:, None] // sigma ** np.arange(length - 1, -1, -1) % sigma
    words = np.frombuffer(sset.rows, dtype=np.uint8).reshape(-1, length)
    dist = np.zeros((len(centers), len(words)), dtype=np.uint8)
    for j in range(length):
        dist += centers[:, j, None] != words[None, :, j]
    return np.sort(dist, axis=1, kind="stable")[:, k - 1]


def _cks_result_at(inst: CksInstance, index: int) -> CenterResult:
    center = Word.from_index(index, inst.set.length, inst.set.alphabet)
    radius, chosen = k_nearest(center, inst.set, inst.k)
    return CenterResult(center=center, value=radius, chosen_subset=chosen)


def solve_cks_by_sort(inst: CksInstance) -> CenterResult:
    """The first center in lexicographic order with the smallest
    :func:`sorted_radii` radius."""
    return _cks_result_at(inst, int(sorted_radii(inst.set, inst.k).argmin()))


def inflating_oracle_by_sort(inst: CksInstance, eps: float, seed: int = 0) -> CenterResult:
    """:func:`synthetic_inflating_oracle` over the :func:`sorted_radii` array."""
    radii = sorted_radii(inst.set, inst.k)
    d_opt = int(radii.min())
    hi = int((1 + eps) * d_opt)
    rng = SplitMix64(seed)
    target = d_opt + rng.next_below(hi - d_opt + 1) if hi > d_opt else d_opt
    candidates = np.flatnonzero(radii == target)
    if not len(candidates):
        candidates = np.flatnonzero(radii == d_opt)
    return _cks_result_at(inst, int(candidates[rng.next_below(len(candidates))]))


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


def solve_max2sat_exact(phi: Max2SatInstance):
    """Every assignment in ``itertools.product`` order, scored one at a time
    by ``satisfied_count``; the first maximum wins."""
    best = None
    best_count = -1
    for assignment in itertools.product((False, True), repeat=phi.variable_count):
        count = phi.satisfied_count(assignment)
        if count > best_count:
            best, best_count = assignment, count
    return best, best_count


def solve_max2sat_clause_tests(phi: Max2SatInstance):
    """The numpy enumeration that ``strsel.exact`` replaced with its split and
    list: blocks of assignment indices, each tested against every clause. With
    variable v as bit n - v of the index and True as 1, a clause is false
    exactly when the index, masked to its variables' bits, equals the bits
    that make both its literals false. The first maximum of m minus the false
    clauses wins."""
    n, m = phi.variable_count, phi.clause_count
    mask, false = [], []
    for a, b in phi.clauses:
        x, y = 1 << n - a.variable, 1 << n - b.variable
        mask.append(x | y)
        false.append((not a.positive) * x | (not b.positive) * y)
    mask, false = np.array(mask, dtype=np.int64), np.array(false, dtype=np.int64)
    step = max(1, (1 << 20) // m)
    best_index, best = None, -1
    for lo in range(0, 1 << n, step):
        ids = np.arange(lo, min(lo + step, 1 << n), dtype=np.int64)
        counts = m - (ids[:, None] & mask == false).sum(axis=1)
        i = int(counts.argmax())
        if counts[i] > best:
            best_index, best = lo + i, int(counts[i])
    return tuple(bool(best_index >> n - v & 1) for v in range(1, n + 1)), best


def solve_dks_exact(graph: Graph, k: int):
    """Every k-subset in ``itertools.combinations`` order, scored one at a time
    by ``induced_edge_count``; the first maximum wins."""
    best = max(itertools.combinations(range(1, graph.vertex_count + 1), k), key=graph.induced_edge_count)
    return best, graph.induced_edge_count(best)


_BLOCKS = ((0, 1), (1, 0))


def fixing_strings(count: int, n: int, seed: int) -> StringSet:
    rng = SplitMix64(seed)
    return StringSet(BINARY, 2 * n, bytes(c for _ in range(count * n) for c in _BLOCKS[rng.next_bit()]))


def noncanonical_words(n: int) -> np.ndarray:
    """Packed integers for all words in {0,1}^(2n) \\ {00,11}^n, ascending:
    every word that ``strsel.experiments`` scores through the far row of its
    11 -> 00 representative."""
    arr = np.arange(1 << (2 * n), dtype=np.uint32)
    return arr[((arr ^ (arr >> 1)) & int("01" * n, 2)) != 0]


def _far_counts(s_arr: np.ndarray, f_arr: np.ndarray, n: int) -> np.ndarray:
    """For each s, how many f are at Hamming distance > n."""
    counts = np.zeros(len(s_arr), dtype=np.int64)
    step = block_rows(f_arr)
    for lo in range(0, len(s_arr), step):
        counts[lo : lo + step] = (distances(s_arr[lo : lo + step], f_arr, 1) > n).sum(axis=1)
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


def far_table_quarter_bound(n: int) -> float:
    """The quarter bound as the smallest row sum of ``experiments._far_table(n)``."""
    _, fixing, far = experiments._far_table(n)
    return float(far.sum(axis=1).min()) / len(fixing)


def far_table_half_bound(n: int) -> float:
    """The half bound from ``experiments._far_table(n)``. Half of the fixing
    strings oppose s at a given block. For each block t, one mat-vec of the
    far table with the indicator of block t being 10 counts, for every s at
    once, the far strings holding 10 there; the row sum less that count gives
    those holding 01."""
    words, fixing, far = experiments._far_table(n)
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


def union_bound_failures(c: int, n_max: int = 60) -> list:
    """The n in [1, n_max] at which (4^n - 2^n) exp(-(c-4)^2 n / (8c)) > 0.9^n,
    compared in logs."""
    exponent = (c - 4) ** 2 / (8.0 * c)
    return [n for n in range(1, n_max + 1) if n * log(4.0) + log1p(-(2.0**-n)) - exponent * n > n * log(0.9)]


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
