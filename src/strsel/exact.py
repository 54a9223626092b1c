"""Brute-force exact solvers. These are the ground-truth oracles for the
heuristics, the reductions, and the experiments, so they fail loudly when an
instance exceeds their enumeration budget rather than truncating.

Tie-breaking is lexicographic everywhere (smallest center, then smallest
index list), which makes every solver deterministic.

Every solver reads a string set through :func:`symbol_matrix`, an (n, l)
``uint8`` view of its row buffer, or :func:`packed`, one unsigned integer
per word with ceil(log2 sigma) bits per symbol. Candidates come in ``(ids,
values)`` blocks, ``values[i]`` the score of ``ids[i]``, and one loop,
:func:`_first_max`, picks the first maximum of CMS, FFMS, DkS and Max-2-SAT.
CMS, FFMS and CkS take blocks of whole heads from :func:`_center_blocks` and
its scorer, which adds the heads' distances from the numpy kernel
:func:`distances` to a table of every tail's. CkS decides radii by coverage
counts, since a center's radius is at most r exactly when k words lie
within r of it, and skips every block that cannot beat its incumbent. A
:class:`Word` is built only for the winning center.
``--recheck``, :func:`words.hamming`, :func:`words.coverage` and
:func:`words.anticoverage` stay per-word Python, so they re-score that
winner on an independent path. numpy stays out of :mod:`words`, so that
``import strsel`` does not load it.

MSFBC has two solvers: :func:`solve_msfbc_subsets` fills one numpy table over
all subsets, and :func:`solve_msfbc_columns` sorts the words' keys under
blocks of column sets, for words of any width, sharing no code with it, as
its independent check. :func:`solve_dks_exact` and
:func:`solve_max2sat_exact` score blocks of k-subsets, and of assignment
indices as sums of three tables, in the order ``itertools`` would yield them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .words import Alphabet, CksInstance, CmsInstance, FfmsInstance, MsfbcInstance, StringSet, Word

DEFAULT_ENUM_BUDGET = 2**24
DEFAULT_SUBSET_BUDGET = 2**20
DEFAULT_WORK_BUDGET = 2**32


class BudgetExceededError(Exception):
    """Raised when an exact solver would exceed its enumeration budget."""


def check_budget(task: str, work: str, count, budget: int) -> None:
    """Refuse ``task`` before it allocates anything when ``count`` is above
    ``budget``; a count equal to it passes. ``work`` writes the count as it is
    counted ("2^25 assignments"), never as a decimal of thousands of digits.
    ``count`` is an int, ``("^", b, e)`` for b^e, or ``("C", n, k)`` for C(n, k)
    with 0 <= k <= n. Neither is built: once e, or min(k, n - k), reaches the
    budget's bit length, the count is at least 2^bits, above the budget."""
    bits = budget.bit_length()
    if isinstance(count, tuple):
        form, a, b = count
        count = a ** min(b, bits) if form == "^" else comb(a, min(b, a - b, bits))
    if count > budget:
        raise BudgetExceededError(f"{task} needs {work}, above the budget of {budget}")


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
    """The words as a read-only (n, l) ``uint8`` symbol matrix: a view of the
    set's row buffer, not a copy."""
    return np.frombuffer(sset.rows, dtype=np.uint8).reshape(-1, sset.length)


def field_bits(alphabet: Alphabet) -> int:
    """Bits per symbol field of a packed word: b = ceil(log2 sigma)."""
    return (alphabet.size - 1).bit_length()


def packed(sset: StringSet, columns: slice = slice(None)) -> np.ndarray:
    """The words' ``columns`` as :func:`distances` operands: one unsigned
    integer per word of :func:`field_bits` bits per symbol, the first column
    in the most significant field. Refuses words of more than 64 bits."""
    matrix = symbol_matrix(sset)[:, columns]
    bits, length = field_bits(sset.alphabet), matrix.shape[1]
    width = length * bits
    if width > 64:
        raise ValueError(f"{length} symbols of {bits} bits need {width} bits, above the 64 of one packed word")
    # the fields do not overlap, so adding each symbol times its field's unit ORs them
    units = [1 << bits * j for j in range(length - 1, -1, -1)]
    return matrix @ np.array(units, dtype=np.min_scalar_type((1 << width) - 1))


_BLOCK_ELEMENTS = 1 << 20


def block_rows(words: np.ndarray, buffers: int = 1) -> int:
    """Centers per :func:`distances` call that keep its ``buffers`` widest
    intermediates, one word-sized element per (word, center) pair each, near
    2^20 bytes together, whatever the number and width of the words."""
    return max(1, _BLOCK_ELEMENTS // (buffers * words.nbytes))


def center_block(alphabet: Alphabet, length: int, ids: range) -> np.ndarray:
    """The packed words with the lexicographic indices of the range ``ids``:
    the indices themselves when sigma is a power of two, else their
    base-sigma digits re-packed into fields."""
    bits = field_bits(alphabet)
    dtype = np.min_scalar_type((1 << length * bits) - 1)
    index = np.arange(ids.start, ids.stop, ids.step, dtype=dtype)
    if alphabet.size == 1 << bits:
        return index
    words = np.zeros_like(index)
    sigma = dtype.type(alphabet.size)
    for j in range(length):
        index, digit = np.divmod(index, sigma)
        words |= digit << dtype.type(j * bits)
    return words


def distances(centers: np.ndarray, words: np.ndarray, bits: int) -> np.ndarray:
    """Hamming distance from every packed center to every packed word of
    ``bits``-bit symbol fields, as a (centers, words) array: the transposed
    view of a words-major buffer, so that a sum over words adds whole rows.

    A field differs when its XOR is nonzero. ORing each field's bits onto
    its lowest bit, in ceil(log2 bits) shifts that at most double the span
    covered, then masking the lowest bits, leaves one set bit per differing
    field to count."""
    diff = words[:, None] ^ centers[None, :]
    if bits > 1:
        span = 1
        while span < bits:
            step = min(span, bits - span)
            diff |= diff >> diff.dtype.type(step)
            span += step
        diff &= diff.dtype.type(sum(1 << j for j in range(0, 8 * diff.itemsize, bits)))
    return np.bitwise_count(diff).T


def _center_blocks(sset: StringSet) -> tuple:
    """``(blocks, score)``: all centers in lexicographic order as ranges of
    consecutive indices, made as they are read, and the scorer that maps a
    block's ``ids`` to its :func:`distances` array. Center ``h * sigma^t +
    u`` is head h, its first l - t columns, and tail u, its last t, so its
    distances are the sums of theirs. t is the most columns that fit one
    byte, fewer while the (words, sigma^t) table of the tails' distances
    passes the block budget. A block is a run of whole heads."""
    sigma, length, n = sset.alphabet.size, sset.length, sset.size
    check_budget("center enumeration", f"{sigma}^{length} words", ("^", sigma, length), DEFAULT_ENUM_BUDGET)
    bits = field_bits(sset.alphabet)
    t = min(length, 8 // bits)
    while t and sigma**t * n > _BLOCK_ELEMENTS:
        t -= 1
    tails, heads = sigma**t, packed(sset, slice(length - t))
    table = distances(center_block(sset.alphabet, t, range(tails)), packed(sset, slice(length - t, None)), bits).T
    # per head: its sums and a solver's flags on them, a byte per (word, tail) each, and its XOR, doubled by folding
    step = max(1, _BLOCK_ELEMENTS // (2 * n * tails + (1 + (bits > 1)) * heads.nbytes))
    total = sigma ** (length - t)
    blocks = (range(lo * tails, min(lo + step, total) * tails) for lo in range(0, total, step))

    def score(ids: range) -> np.ndarray:
        block = center_block(sset.alphabet, length - t, range(ids.start // tails, ids.stop // tails))
        # the sums fill a words-major buffer, as the kernel does
        return (distances(block, heads, bits).T[:, :, None] + table[:, None, :]).reshape(n, len(ids)).T

    return blocks, score


def _first_max(blocks) -> tuple:
    """``(id, value)`` of the first maximum over ``(ids, values)`` blocks,
    where ``values[i]`` scores the candidate ``ids[i]``: first maximum within
    a block, strictly larger across, so the earliest candidate wins ties."""
    best_id, best = None, None
    for ids, values in blocks:
        i = int(values.argmax())
        if best is None or values[i] > best:
            best_id, best = ids[i], int(values[i])
    return best_id, best


def coverage_counts(dist: np.ndarray, d: int) -> np.ndarray:
    """The CMS objective of each center of a (..., words) distance array:
    how many words lie within distance ``d``."""
    return np.add.reduce(dist <= d, axis=-1, dtype=np.min_scalar_type(dist.shape[-1]))


def anticoverage_counts(dist: np.ndarray, d: int) -> np.ndarray:
    """The FFMS objective of each center of a (..., words) distance array:
    how many words lie at distance ``d`` or more."""
    return np.add.reduce(dist >= d, axis=-1, dtype=np.min_scalar_type(dist.shape[-1]))


def solve_cms_exact(inst: CmsInstance) -> CenterResult:
    """Maximize coverage over all possible centers."""
    blocks, score = _center_blocks(inst.set)
    index, value = _first_max((ids, coverage_counts(score(ids), inst.d)) for ids in blocks)
    return CenterResult(center=Word.from_index(index, inst.set.length, inst.set.alphabet), value=value)


def solve_ffms_exact(inst: FfmsInstance) -> CenterResult:
    """Maximize anticoverage over all possible centers."""
    blocks, score = _center_blocks(inst.set)
    index, value = _first_max((ids, anticoverage_counts(score(ids), inst.d)) for ids in blocks)
    return CenterResult(center=Word.from_index(index, inst.set.length, inst.set.alphabet), value=value)


def _cks_result(inst: CksInstance, index: int, dist: np.ndarray) -> CenterResult:
    """The center with lexicographic index ``index``, whose distances to the
    words are ``dist``, and its k nearest strings, ties to the lowest index."""
    # a stable sort in Python, which for one row is cheaper than a numpy call
    row = dist.tolist()
    nearest = sorted(range(len(row)), key=row.__getitem__)[: inst.k]
    return CenterResult(
        center=Word.from_index(index, inst.set.length, inst.set.alphabet),
        value=row[nearest[-1]],
        chosen_subset=tuple(sorted(nearest)),
    )


def _cks_optimum(inst: CksInstance, blocks) -> tuple:
    """``(index, dist, radius)`` over ``(ids, dist)`` blocks of all centers:
    the smallest CkS radius, a center's k-th smallest distance, and the
    lexicographic index and distance row of the first center that has it.

    A center's radius is at most r exactly when it covers k words within r,
    so a block is scored only if some center covers k words within the
    incumbent radius minus one; its smallest such radius is found by a
    binary search below that, its first center at that radius wins, and a
    radius of 0 ends the search.
    """
    k, length, best = inst.k, inst.set.length, inst.set.length + 1
    for ids, dist in blocks:
        # no pass at best - 1 = length: every center covers all words within it
        hits = coverage_counts(dist, best - 1) >= k if best <= length else np.ones(len(dist), dtype=bool)
        if not hits.any():
            continue
        low, best = 0, best - 1
        while low < best:
            mid = (low + best) // 2
            within = coverage_counts(dist, mid) >= k
            if within.any():
                hits, best = within, mid
            else:
                low = mid + 1
        i = int(hits.argmax())
        # a copy, so that this block's distances are freed before the next block is scored
        index, row = ids[i], dist[i].copy()
        if best == 0:
            break
    return index, row, best


def solve_cks_exact(inst: CksInstance) -> CenterResult:
    """Minimize the k-th smallest distance over all possible centers. With
    k = n this is the classic Closest String problem."""
    blocks, score = _center_blocks(inst.set)
    index, row, _ = _cks_optimum(inst, ((ids, score(ids)) for ids in blocks))
    return _cks_result(inst, index, row)


def solve_msfbc_subsets(inst: MsfbcInstance) -> SubsetResult:
    """The largest subset with at most k bad columns, ties to the first index
    list in lexicographic order, from one table over all 2^n subsets.

    Bit ``j*sigma + c`` of a word's one-hot code is set when it has symbol
    ``c`` at column ``j``; column j is constant on a subset exactly when the
    subset's AND keeps one of its bits. The table of ANDs is filled by
    doubling, one 64-bit limb at a time. Word i is mask bit n-1-i, so among
    subsets of one size the largest mask is the first index list.
    """
    n = inst.set.size
    check_budget("subset enumeration", f"2^{n} subsets", ("^", 2, n), DEFAULT_SUBSET_BUDGET)
    ell, sigma = inst.set.length, inst.set.alphabet.size
    onehot = (symbol_matrix(inst.set)[:, :, None] == np.arange(sigma)).reshape(n, ell * sigma)
    limbs = np.packbits(np.pad(onehot, ((0, 0), (0, -ell * sigma % 64))), axis=1).view(np.uint64)
    table = np.empty(1 << n, dtype=np.uint64)
    constant = np.zeros(1 << n, dtype=np.min_scalar_type(ell))
    for limb in limbs.T:
        table[0] = ~np.uint64(0)
        for p in range(n):
            np.bitwise_and(table[: 1 << p], limb[n - 1 - p], out=table[1 << p : 2 << p])
        table[0] = 0  # the empty set: no constant column
        constant += np.bitwise_count(table)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for p in range(n):
        np.add(sizes[: 1 << p], 1, out=sizes[1 << p : 2 << p])
    sizes[constant < ell - inst.k] = 0
    mask = int(np.flatnonzero(sizes == sizes.max())[-1])
    indices = tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)
    return SubsetResult(indices=indices, bad_column_count=ell - int(constant[mask]))


def solve_msfbc_columns(inst: MsfbcInstance) -> SubsetResult:
    """Independent exact MSFBC algorithm used to cross-check the subset solver.

    A subset has at most k bad columns iff all its words agree outside some
    column set J with |J| = min(k, l) (bad-column sets only grow when J
    shrinks, so size exactly min(k, l) suffices). For each J, group words by
    their restriction to the other columns and take the largest group.

    Each word is a row of 64-bit limbs of whole ceil(log2 sigma)-bit fields,
    and its key under J is that row with J's fields zeroed. A block of column
    sets is keyed at once, each J's keys are sorted, and a run of equal keys
    is a group, its word indices in ascending order. The answer, the first
    index list among the largest groups over all J, does not depend on the
    order of the J: only a block's largest runs become index lists, and a
    later block wins only with a larger group or a smaller index list.
    Nothing is shared with the subset table: no one-hot codes, no AND table.
    """
    ell, n = inst.set.length, inst.set.size
    j_size = min(inst.k, ell)
    check_budget("column enumeration", f"C({ell},{j_size}) column sets", ("C", ell, j_size), DEFAULT_SUBSET_BUDGET)
    # `per` fields per limb, column 0 most significant: column j is field `fields[j % per]` of limb j // per
    bits = field_bits(inst.set.alphabet)
    per = 64 // bits
    shifts = np.arange(per - 1, -1, -1, dtype=np.uint64) * np.uint64(bits)
    fields = np.uint64((1 << bits) - 1) << shifts
    words = np.empty((n, -(-ell // per)), dtype=np.uint64)
    for limb in range(words.shape[1]):
        columns = symbol_matrix(inst.set)[:, limb * per : (limb + 1) * per]
        words[:, limb] = np.bitwise_or.reduce(columns << shifts[: columns.shape[1]], axis=1)
    # the word index rides in the zero low bits of a one-limb word where it fits, so that one
    # sort orders each J's keys and, within a run of equal keys, their word indices
    index_bits = (n - 1).bit_length()
    inline = words.shape[1] == 1 and index_bits <= (per - ell) * bits
    low = np.uint64((1 << index_bits) - 1)
    # a block's widest buffers: the keys, their sort order, the sorted keys and the XOR of sorted
    # neighbours, or the fields of its column sets when k is near l
    step = max(1, _BLOCK_ELEMENTS // max(4 * words.nbytes, j_size * words[0].nbytes))
    total = comb(ell, j_size)
    combos = itertools.chain.from_iterable(itertools.combinations(range(ell), j_size))
    position = np.arange(n, dtype=np.min_scalar_type(n))
    best_size, best = 0, ()
    for lo in range(0, total, step):
        count = min(step, total - lo)
        sets = np.fromiter(combos, np.intp, count * j_size).reshape(count, j_size)
        masks = np.zeros((count, j_size, words.shape[1]), dtype=np.uint64)
        masks[np.arange(count)[:, None], np.arange(j_size), sets // per] = fields[sets % per]
        keys = words & ~np.bitwise_or.reduce(masks, axis=1)[:, None]
        if inline:
            ordered = keys | np.arange(n, dtype=np.uint64)[:, None]
            # the keys are distinct, so any sort will do; the stable one pages in less of numpy's
            # sort code than the default SIMD quicksort, about 0.3 MB less resident memory
            ordered.sort(axis=1, kind="stable")
            order = (ordered[..., 0] & low).view(np.intp)
            ordered &= ~low
        else:
            order = np.lexsort(keys.transpose(2, 0, 1), axis=-1)
            ordered = np.take_along_axis(keys, order[..., None], axis=1)
        # runs[J, p]: the length, up to sorted position p, of the run that holds p
        runs = np.zeros((count, n), dtype=position.dtype)
        runs[:, 1:] = (ordered[:, 1:] ^ ordered[:, :-1]).any(axis=2) * position[1:]
        runs = position + 1 - np.maximum.accumulate(runs, axis=1)
        size = int(runs.max())
        if size < best_size:
            continue
        # of the runs of the block's largest size (none is larger), the first index list starts
        # with the smallest first index
        rows, ends = np.nonzero(runs >= size)
        starts = ends - (size - 1)
        firsts = order[rows, starts]
        pick = firsts == firsts.min()
        group = min(map(tuple, order[rows[pick, None], starts[pick, None] + np.arange(size)].tolist()))
        if size > best_size or group < best:
            best_size, best = size, group
    chosen = symbol_matrix(inst.set)[list(best)]
    return SubsetResult(indices=best, bad_column_count=int((chosen != chosen[0]).any(axis=0).sum()))


def solve_max2sat_exact(phi):
    """Enumerate all assignments; ties go to the lexicographically smallest
    assignment (false < true, variable order). Returns (assignment, count).

    Index i sets variable v to bit n - v of i, True as 1: ``itertools.product``
    order. In the listing half of R. Williams' split and list (Theor. Comput.
    Sci. 348, 2005), consecutive groups A, B, C, |B| = |C| = min(n // 3, 10),
    make the clauses false under (a, b, c) F_AB[a, b] + F_AC[a, c] + F_BC[b, c],
    two additions whatever m; the first maximum wins (:func:`_first_max`).
    """
    n, m = phi.variable_count, phi.clause_count
    check_budget("assignment enumeration", f"2^{n} assignments", ("^", 2, n), DEFAULT_WORK_BUDGET)
    k = min(n // 3, 10)
    a = n - 2 * k
    # literal 2v - 2 is x_v and 2v - 1 is ~x_v; each clause's smaller one first (a numpy sort pages in 0.25 MB)
    literals = np.array([sorted(2 * lit.variable - 1 - lit.positive for lit in clause) for clause in phi.clauses])
    pairs = np.bincount(literals @ [2 * n, 1], minlength=4 * n * n).reshape(2 * n, 2 * n)
    # (x, 2t + s) is 1 when literal s of A's t-th variable is false under x; B's and C's are A's last 2k columns
    # of its first 2^k rows, where those variables take x's bits
    false_a = (np.arange(1 << a)[:, None] >> (np.arange(2 * a - 1, -1, -1) >> 1) ^ np.arange(1, 2 * a + 1)) & 1
    false = (false_a, false_a[: 1 << k, 2 * (a - k) :], false_a[: 1 << k, 2 * (a - k) :])
    spans = (slice(0, 2 * a), slice(2 * a, 2 * (a + k)), slice(2 * (a + k), 2 * n))
    # first[g][x, j]: the clauses whose first literal is in group g and false under x, and whose second is j
    first = [false[g] @ pairs[spans[g]] for g in range(3)]
    inside = [(first[g][:, spans[g]] * false[g]).sum(axis=1) for g in range(3)]
    dtype = np.min_scalar_type(m)  # no entry, nor a sum of three, is above m
    f_ab = (first[0][:, spans[1]] @ false[1].T + inside[0][:, None]).astype(dtype)
    f_ac = (first[0][:, spans[2]] @ false[2].T).astype(dtype)
    s_bc = (m - first[1][:, spans[2]] @ false[2].T - inside[1][:, None] - inside[2]).astype(dtype)
    blocks = ((range(x << 2 * k, x + 1 << 2 * k), (s_bc - f_ab[x][:, None] - f_ac[x]).ravel()) for x in range(1 << a))
    index, best = _first_max(blocks)
    return tuple(bool(index >> n - v & 1) for v in range(1, n + 1)), best


def solve_dks_exact(graph, k: int):
    """Densest-k-Subgraph by exhaustive k-subset enumeration.

    Returns (vertex tuple, induced edge count); vertices are 1-based.

    k-subsets come in ``itertools.combinations`` order, a block at a time.
    Each block is scored at once through a membership matrix with one column
    per vertex that touches an edge and one spare column for all the others.
    The first maximum wins (:func:`_first_max`), so the lexicographically
    smallest densest subset wins.
    """
    graph.check_k(k)
    v = graph.vertex_count
    check_budget("subset enumeration", f"C({v},{k}) subsets", ("C", v, k), DEFAULT_SUBSET_BUDGET)
    total = comb(v, k)
    # each subset is built as k vertex entries
    check_budget("subset enumeration", f"C({v},{k})*{k} vertex entries", total * k, DEFAULT_ENUM_BUDGET)
    touched = sorted({x for edge in graph.edges for x in edge})
    column = np.full(v + 1, len(touched), dtype=np.intp)
    column[touched] = np.arange(len(touched))
    ends = column[np.array(graph.edges, dtype=np.intp).reshape(-1, 2)]
    step = max(1, _BLOCK_ELEMENTS // max(k, len(touched) + 1, len(ends)))
    combos = itertools.chain.from_iterable(itertools.combinations(range(1, v + 1), k))

    def blocks():
        for lo in range(0, total, step):
            rows = np.fromiter(combos, np.intp, min(step, total - lo) * k).reshape(-1, k)
            member = np.zeros((len(rows), len(touched) + 1), dtype=bool)
            member[np.arange(len(rows))[:, None], column[rows]] = True
            yield rows, (member[:, ends[:, 0]] & member[:, ends[:, 1]]).sum(axis=1)

    best, count = _first_max(blocks())
    return tuple(best.tolist()), count
