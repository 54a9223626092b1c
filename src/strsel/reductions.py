"""Hardness reductions implemented as verified instance generators.

Two constructions live here:

* Max-2-SAT -> Close to Most Strings (randomized; fixing strings from
  {01,10}^n plus one clause string per clause, distance parameter n).
* Densest-k-Subgraph -> Most Strings with Few Bad Columns (deterministic;
  edge incidence strings plus the all-zero string, same parameter k).

Each reduction returns a certificate recording the seed, the parameters,
and the layout of the generated strings: which source object each came from.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import exact
from .rng import SplitMix64
from .words import BINARY, CmsInstance, ItemError, MsfbcInstance, StringSet, Word, bad_columns, hamming


# reduce_max2sat_to_cms holds every string, and a certificate line per string, in memory
MAX_REDUCTION_ROWS = 2**20


class NonCanonicalCenterError(Exception):
    """A center outside {00,11}^n cannot be decoded to an assignment."""


@dataclass(frozen=True)
class Literal:
    variable: int  # 1-based; Max2SatInstance checks the range
    positive: bool

    def value(self, assignment) -> bool:
        v = assignment[self.variable - 1]
        return v if self.positive else not v

    def __str__(self):
        return f"x{self.variable}" if self.positive else f"~x{self.variable}"


Clause = tuple  # (Literal, Literal)


@dataclass(frozen=True)
class Max2SatInstance:
    variable_count: int
    clauses: tuple

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("need at least one clause")
        for j, (a, b) in enumerate(self.clauses):
            if not (1 <= a.variable <= self.variable_count and 1 <= b.variable <= self.variable_count):
                raise ItemError(j, f"clause {j + 1} uses a variable outside the range 1..{self.variable_count}")
            if a.variable == b.variable and a.positive != b.positive:
                raise ItemError(j, f"clause {j + 1} is a tautology (x and ~x on variable {a.variable})")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def satisfied_count(self, assignment) -> int:
        return sum(a.value(assignment) or b.value(assignment) for a, b in self.clauses)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 1..vertex_count."""

    vertex_count: int
    edges: tuple  # of (u, v) with u < v

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"vertex count must be at least 0, got {self.vertex_count}")
        seen = set()
        for j, (u, v) in enumerate(self.edges):
            if u == v:
                raise ItemError(j, f"loop edge ({u},{v}) not allowed in a simple graph")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ItemError(j, f"edge ({u},{v}) outside vertex range 1..{self.vertex_count}")
            if u > v:
                raise ItemError(j, f"edge ({u},{v}) must be stored with u < v")
            if (u, v) in seen:
                raise ItemError(j, f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def check_k(self, k: int):
        """The densest-k-subgraph size rule, 1 <= k <= vertex count."""
        if not 1 <= k <= self.vertex_count:
            raise ValueError(f"k must be in [1, {self.vertex_count}], got {k}")

    def induced_edge_count(self, vertices) -> int:
        chosen = set(vertices)
        return sum(1 for (u, v) in self.edges if u in chosen and v in chosen)


@dataclass(frozen=True)
class ReductionCertificate:
    """Binds a generated instance to its seed and parameters.

    ``layout`` lists runs ``(kind, refs)`` in string order, refs a ``range`` or
    a tuple of strings; kind is "fixing", "clause", "edge", or "zero".
    """

    seed: Optional[int]
    parameters: dict = field(default_factory=dict)
    layout: tuple = ()


def clause_string(clause: Clause, n: int) -> Word:
    """Binary word of length 2n encoding one 2-clause, block per variable:
    00 for a negative literal, 11 for a positive literal, 01 otherwise."""
    a, b = clause
    if a.variable > n or b.variable > n:
        raise ValueError("clause variable exceeds the variable count")
    polarity = {}
    for lit in (a, b):
        if lit.variable in polarity:
            if polarity[lit.variable] != lit.positive:
                raise ValueError("clause with x and ~x on the same variable is not encodable")
            warnings.warn(
                f"duplicate literal on variable {lit.variable} collapses to a single block",
                stacklevel=2,
            )
        polarity[lit.variable] = lit.positive
    symbols = []
    for i in range(1, n + 1):
        if i not in polarity:
            symbols.extend((0, 1))
        elif polarity[i]:
            symbols.extend((1, 1))
        else:
            symbols.extend((0, 0))
    return Word(symbols)


def encode_assignment(assignment: Sequence[bool]) -> Word:
    """Canonical center for an assignment: block 11 if true, 00 if false."""
    symbols = []
    for v in assignment:
        symbols.extend((1, 1) if v else (0, 0))
    return Word(symbols)


def decode_center(s: Word) -> tuple:
    """Inverse of :func:`encode_assignment`; rejects non-canonical centers."""
    if s.length % 2 != 0:
        raise NonCanonicalCenterError(f"center length {s.length} is odd")
    out = []
    for i in range(0, s.length, 2):
        block = (s[i], s[i + 1])
        if block == (1, 1):
            out.append(True)
        elif block == (0, 0):
            out.append(False)
        else:
            raise NonCanonicalCenterError(
                f"block {''.join(map(str, block))} at variable {i // 2 + 1} is not in {{00,11}}"
            )
    return tuple(out)


_BLOCKS = np.array([[0, 1], [1, 0]], dtype=np.uint8)


def fixing_strings(count: int, n: int, seed: int) -> StringSet:
    """``count`` random words from {01,10}^n, deterministic given ``seed``:
    one draw per block, block 01 for a 0 draw and 10 for a 1 draw, in
    reading order."""
    return StringSet(BINARY, 2 * n, _BLOCKS[SplitMix64(seed).bits(count * n)].tobytes())


def clause_distance_identity(assignment, clause: Clause, n: int) -> int:
    """Distance from the canonical center to a clause string; equals
    n - 2 + 2 * (falsified literals)."""
    return hamming(encode_assignment(assignment), clause_string(clause, n))


def reduce_max2sat_to_cms(phi: Max2SatInstance, c: int = 20, seed: int = 0):
    """Randomized reduction: cm fixing strings + m clause strings, length 2n,
    distance parameter d = n. Returns (CmsInstance, ReductionCertificate)."""
    n, m = phi.variable_count, phi.clause_count
    if m < n:
        raise ValueError(
            f"reduction requires m >= n (got m={m}, n={n}); eliminate variables that "
            "appear in at most one clause first"
        )
    if c < 1:
        raise ValueError("c must be >= 1")
    exact.check_budget("the reduction", f"(c+1)*m = {(c + 1) * m} strings", (c + 1) * m, MAX_REDUCTION_ROWS)
    fixing = fixing_strings(c * m, n, seed)
    clauses = b"".join(bytes(clause_string(cl, n).symbols) for cl in phi.clauses)
    inst = CmsInstance(set=StringSet(BINARY, 2 * n, fixing.rows + clauses), d=n)
    layout = (("fixing", range(c * m)), ("clause", range(m)))
    return inst, ReductionCertificate(seed=seed, parameters={"c": c, "d": n}, layout=layout)


def incidence_vector(edge, vertex_count: int) -> Word:
    """0-1 string with 1s exactly at the edge's two endpoint positions."""
    u, v = edge
    if u == v:
        raise ValueError("loop edges have no incidence vector in a simple graph")
    if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
        raise ValueError(f"edge ({u},{v}) outside vertex range 1..{vertex_count}")
    symbols = [0] * vertex_count
    symbols[u - 1] = 1
    symbols[v - 1] = 1
    return Word(symbols)


def reduce_dks_to_msfbc(graph: Graph, k: int):
    """Deterministic reduction: one incidence string per edge plus the
    all-zero string, with the same parameter k."""
    graph.check_k(k)
    words = [incidence_vector(e, graph.vertex_count) for e in graph.edges]
    words.append(Word([0] * graph.vertex_count))
    inst = MsfbcInstance(set=StringSet.from_words(words), k=k)
    layout = (("edge", tuple(f"{u},{v}" for u, v in graph.edges)), ("zero", ("0",)))
    return inst, ReductionCertificate(seed=None, parameters={"k": k}, layout=layout)


def normalize_contains_zero(subset: Sequence[Word], k: int) -> tuple:
    """Rewrite a feasible subset of a reduced MSFBC instance into one that
    contains the all-zero string, is no smaller, and has no more bad columns.

    Returns the words sorted lexicographically.
    """
    words = sorted(set(subset))
    if not words:
        raise ValueError("subset must be non-empty")
    ell = words[0].length
    if len(bad_columns(words)) > k:
        raise ValueError("subset is not feasible: more than k bad columns")
    zero = Word([0] * ell)
    if zero in words:
        return tuple(words)
    all_ones_column = any(all(w[j] == 1 for w in words) for j in range(ell))
    if not all_ones_column:
        # adding the zero string creates no new bad column
        return tuple(sorted(words + [zero]))
    # Every word is an edge string through the all-ones vertex; dropping the
    # lexicographically first one trades its private column for the shared
    # one, so the bad-column count never grows.
    removed = words[0]
    return tuple(sorted([w for w in words if w != removed] + [zero]))


def decode_msfbc_solution(subset: Sequence[Word], graph: Graph, k: int) -> tuple:
    """Map a feasible MSFBC subset back to a k-vertex set whose induced edge
    count is at least |subset| - 1."""
    normalized = normalize_contains_zero(subset, k)
    bad = bad_columns(normalized)
    if len(bad) > k:
        raise AssertionError("normalization produced more than k bad columns")
    chosen = set(j + 1 for j in bad)
    for v in range(1, graph.vertex_count + 1):
        if len(chosen) >= k:
            break
        chosen.add(v)
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class ClaimReport:
    alpha: int
    beta: int
    passed: bool


def verify_claim_optval(graph: Graph, k: int) -> ClaimReport:
    """Check that the reduced instance's optimum is exactly the densest
    k-subgraph optimum plus one."""
    _, alpha = exact.solve_dks_exact(graph, k)
    inst, _ = reduce_dks_to_msfbc(graph, k)
    # both MSFBC solvers are exact; the subset table is the faster one while
    # its 2^(|E|+1) subsets fit the budget, which dense graphs soon exceed
    if 2**inst.set.size <= exact.DEFAULT_SUBSET_BUDGET:
        result = exact.solve_msfbc_subsets(inst)
    else:
        result = exact.solve_msfbc_columns(inst)
    beta = len(result.indices)
    return ClaimReport(alpha=alpha, beta=beta, passed=(beta == alpha + 1))
