"""Seeded random instance generators for tests, experiments, and the CLI."""

from __future__ import annotations

from math import comb

from . import exact
from .reductions import Graph, Literal, Max2SatInstance
from .rng import SplitMix64
from .words import Alphabet, StringSet


def random_max2sat(n: int, m: int, seed: int) -> Max2SatInstance:
    """Random 2-CNF: each clause picks two distinct variables and polarities."""
    if n < 2:
        raise ValueError("need at least two variables to form 2-clauses")
    # the clauses are Python tuples built one at a time: the subset budget caps them too
    exact.check_budget("Max-2-SAT generation", f"{m} clauses", m, exact.DEFAULT_SUBSET_BUDGET)
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(m):
        v1 = rng.next_below(n) + 1
        v2 = rng.next_below(n - 1) + 1
        if v2 >= v1:
            v2 += 1
        clauses.append(
            (Literal(v1, rng.next_bit() == 1), Literal(v2, rng.next_bit() == 1))
        )
    return Max2SatInstance(variable_count=n, clauses=tuple(clauses))


def random_graph(vertex_count: int, edge_count: int, seed: int) -> Graph:
    """Random simple graph with exactly ``edge_count`` edges."""
    total = comb(max(vertex_count, 0), 2)
    if not 0 <= edge_count <= total:
        raise ValueError(f"edge count must be in [0, {total}] on {vertex_count} vertices, got {edge_count}")
    # the pairs are built as one list: the subset budget caps these 2-subsets
    exact.check_budget("graph generation", f"C({vertex_count},2) vertex pairs", total, exact.DEFAULT_SUBSET_BUDGET)
    rng = SplitMix64(seed)
    all_pairs = [(u, v) for u in range(1, vertex_count + 1) for v in range(u + 1, vertex_count + 1)]
    rng.shuffle(all_pairs)
    return Graph(vertex_count=vertex_count, edges=tuple(sorted(all_pairs[:edge_count])))


def random_string_set(sigma: int, length: int, n: int, seed: int) -> StringSet:
    """n uniform words of the given length, drawn symbol by symbol, row by row."""
    rng = SplitMix64(seed)
    return StringSet(Alphabet(sigma), length, bytes(rng.next_below(sigma) for _ in range(n * length)))
