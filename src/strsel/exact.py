"""Brute-force exact solvers. These are the ground-truth oracles for the
heuristics, the reductions, and the experiments, so they fail loudly when an
instance exceeds their enumeration budget rather than truncating.

Tie-breaking is lexicographic everywhere (smallest center, then smallest
index list), which makes every solver deterministic.

The center solvers (CMS, FFMS, CkS) share one skeleton and one numpy
distance kernel, :func:`distances`, over packed string sets: an unsigned
integer per word when binary, a ``uint8`` symbol matrix otherwise. All
sigma^l centers are enumerated as blocks of consecutive lexicographic
indices, and each block is scored at once. A :class:`Word` is built only for
the winning center. ``--recheck``, :func:`words.hamming`,
:func:`words.coverage` and :func:`words.anticoverage` stay per-word Python,
so they re-score that winner on an independent path. The kernel lives here
rather than in :mod:`words` so that ``import strsel`` does not load numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .words import Alphabet, CksInstance, CmsInstance, FfmsInstance, MsfbcInstance, StringSet, Word, bad_columns

DEFAULT_ENUM_BUDGET = 2**24
DEFAULT_SUBSET_BUDGET = 2**20
DEFAULT_ASSIGNMENT_VARS = 24


class BudgetExceededError(Exception):
    """Raised when an exact solver would exceed its enumeration budget."""


@dataclass(frozen=True)
class CenterResult:
    center: Word
    value: int
    chosen_subset: Optional[tuple] = None


@dataclass(frozen=True)
class SubsetResult:
    indices: tuple
    bad_column_count: int


def symbol_matrix(sset: StringSet) -> np.ndarray:
    """The words as an (n, l) ``uint8`` symbol matrix."""
    return np.array([w.symbols for w in sset], dtype=np.uint8)


def packed(sset: StringSet) -> np.ndarray:
    """The words as a :func:`distances` operand: one unsigned integer per word
    when binary (length at most 64), else their :func:`symbol_matrix`."""
    if sset.alphabet.is_binary:
        return np.array([w.bits for w in sset], dtype=_bits_dtype(sset.length))
    return symbol_matrix(sset)


def _bits_dtype(length: int) -> np.dtype:
    """Narrowest unsigned integer that holds a packed binary word."""
    return np.min_scalar_type((1 << length) - 1)


_BLOCK_ELEMENTS = 1 << 20


def block_rows(words: np.ndarray) -> int:
    """Centers per :func:`distances` call that keep its intermediates near
    2^20 elements, whatever the number and length of the words."""
    return max(1, _BLOCK_ELEMENTS // words.size)


def center_block(alphabet: Alphabet, length: int, lo: int, hi: int) -> np.ndarray:
    """The packed words with lexicographic indices ``lo`` .. ``hi - 1``."""
    if alphabet.is_binary:
        return np.arange(lo, hi, dtype=_bits_dtype(length))
    index = np.arange(lo, hi, dtype=np.uint64)
    powers = np.uint64(alphabet.size) ** np.arange(length - 1, -1, -1, dtype=np.uint64)
    return (index[:, None] // powers % np.uint64(alphabet.size)).astype(np.uint8)


def distances(centers: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Hamming distance from every packed center to every packed word, as a
    (centers, words) array. 1-D operands are bit-packed binary words, 2-D
    operands are symbol matrices."""
    if words.ndim == 1:
        return np.bitwise_count(centers[:, None] ^ words[None, :])
    # column by column: no (centers, words, l) intermediate to sum over, which
    # measured 5-8x slower for sigma in {3, 4}
    length = words.shape[1]
    dist = np.zeros((len(centers), len(words)), dtype=np.min_scalar_type(length))
    for j in range(length):
        dist += centers[:, j, None] != words[None, :, j]
    return dist


def _check_enum_budget(sset: StringSet, budget: int):
    count = sset.alphabet.size**sset.length
    if count > budget:
        raise BudgetExceededError(
            f"center enumeration needs {count} words, above the budget of {budget}"
        )


def _center_scores(sset: StringSet, score, enum_budget: int):
    """Yield ``(lo, score(d))`` for consecutive blocks of all centers in
    lexicographic order, where ``d`` is the block's distance array and ``lo``
    the index of its first center. The budget is checked before anything is
    allocated."""
    _check_enum_budget(sset, enum_budget)
    words = packed(sset)
    total = sset.alphabet.size**sset.length
    step = block_rows(words)
    for lo in range(0, total, step):
        centers = center_block(sset.alphabet, sset.length, lo, min(lo + step, total))
        yield lo, score(distances(centers, words))


def _best_center(sset: StringSet, score, enum_budget: int) -> tuple:
    """(index, score) of the first center in lexicographic order with the
    largest score: first maximum within a block, strictly larger across."""
    best_index, best_value = 0, None
    for lo, values in _center_scores(sset, score, enum_budget):
        i = int(np.argmax(values))
        if best_value is None or values[i] > best_value:
            best_index, best_value = lo + i, int(values[i])
    return best_index, best_value


def coverage_counts(dist: np.ndarray, d: int) -> np.ndarray:
    """The CMS objective of each row of a (centers, words) distance array:
    how many words lie within distance ``d``."""
    return (dist <= d).sum(axis=1)


def anticoverage_counts(dist: np.ndarray, d: int) -> np.ndarray:
    """The FFMS objective of each row of a (centers, words) distance array:
    how many words lie at distance ``d`` or more."""
    return (dist >= d).sum(axis=1)


def solve_cms_exact(inst: CmsInstance, enum_budget: int = DEFAULT_ENUM_BUDGET) -> CenterResult:
    """Maximize coverage over all possible centers."""
    index, value = _best_center(inst.set, lambda dist: coverage_counts(dist, inst.d), enum_budget)
    return CenterResult(center=Word.from_index(index, inst.set.length, inst.set.alphabet), value=value)


def solve_ffms_exact(inst: FfmsInstance, enum_budget: int = DEFAULT_ENUM_BUDGET) -> CenterResult:
    """Maximize anticoverage over all possible centers."""
    index, value = _best_center(inst.set, lambda dist: anticoverage_counts(dist, inst.d), enum_budget)
    return CenterResult(center=Word.from_index(index, inst.set.length, inst.set.alphabet), value=value)


def _kth_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Each center's CkS radius: its k-th smallest distance."""
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


def _cks_result(inst: CksInstance, index: int) -> CenterResult:
    """The center with lexicographic index ``index`` and its k nearest
    strings, ties to the lowest index."""
    sset = inst.set
    dist = distances(center_block(sset.alphabet, sset.length, index, index + 1), packed(sset))[0]
    nearest = np.argsort(dist, kind="stable")[: inst.k]
    return CenterResult(
        center=Word.from_index(index, sset.length, sset.alphabet),
        value=int(dist[nearest[-1]]),
        chosen_subset=tuple(sorted(int(i) for i in nearest)),
    )


def solve_cks_exact(inst: CksInstance, enum_budget: int = DEFAULT_ENUM_BUDGET) -> CenterResult:
    """Minimize the k-th smallest distance over all possible centers.

    With k = n this is the classic Closest String problem.
    """
    index, _ = _best_center(inst.set, lambda dist: -_kth_smallest(dist, inst.k).astype(np.int64), enum_budget)
    return _cks_result(inst, index)


def solve_msfbc_subsets(
    inst: MsfbcInstance, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> SubsetResult:
    """Exhaustive search over all subsets, largest cardinality first.

    Within a cardinality, ``itertools.combinations`` yields index lists in
    lexicographic order, so the first feasible subset found is the canonical
    answer.
    """
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


def solve_msfbc_columns(
    inst: MsfbcInstance, column_budget: int = DEFAULT_SUBSET_BUDGET
) -> SubsetResult:
    """Independent exact MSFBC algorithm used to cross-check the subset solver.

    A subset has at most k bad columns iff all its words agree outside some
    column set J with |J| = min(k, l) (bad-column sets only grow when J
    shrinks, so size exactly min(k, l) suffices). For each J, group words by
    their restriction to the other columns and take the largest group.
    """
    ell = inst.set.length
    j_size = min(inst.k, ell)
    if comb(ell, j_size) > column_budget:
        raise BudgetExceededError(
            f"column enumeration needs C({ell},{j_size}) sets, above the budget of {column_budget}"
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


def solve_max2sat_exact(phi, max_vars: int = DEFAULT_ASSIGNMENT_VARS):
    """Enumerate all assignments; ties go to the lexicographically smallest
    assignment (false < true, variable order). Returns (assignment, count)."""
    n = phi.variable_count
    if n > max_vars:
        raise BudgetExceededError(
            f"assignment enumeration needs 2^{n} assignments, above the cap of 2^{max_vars}"
        )
    best = None
    best_count = -1
    for assignment in itertools.product((False, True), repeat=n):
        count = phi.satisfied_count(assignment)
        if count > best_count:
            best, best_count = assignment, count
    return best, best_count


def solve_dks_exact(graph, k: int, subset_budget: int = DEFAULT_SUBSET_BUDGET):
    """Densest-k-Subgraph by exhaustive k-subset enumeration.

    Returns (vertex tuple, induced edge count); vertices are 1-based.
    """
    v = graph.vertex_count
    if k > v:
        raise ValueError(f"k={k} exceeds the vertex count {v}")
    if comb(v, k) > subset_budget:
        raise BudgetExceededError(
            f"subset enumeration needs C({v},{k}) subsets, above the budget of {subset_budget}"
        )
    # max keeps the first maximum, the lexicographically smallest subset
    best = max(itertools.combinations(range(1, v + 1), k), key=graph.induced_edge_count)
    return best, graph.induced_edge_count(best)
