"""Metamorphic checks of the exact center solvers and the exact Max-2-SAT
solver. Permuting the columns of a string set and relabeling the symbols of
one column map every center to one at the same distances, so the CMS, FFMS
and CkS optima keep their values. The maps move columns across the block
scorer's head and tail split. Each reported center is mapped back and
re-scored on the original set by the per-word ``coverage``, ``anticoverage``
and ``hamming``. Renaming the variables of a 2-CNF formula, or flipping one
variable's sign in every clause, maps every assignment to one that satisfies
the same clauses and moves variables across the solver's split into groups,
so the Max-2-SAT optimum keeps its value; the reported assignment is mapped
back and re-scored by ``Max2SatInstance.satisfied_count``.

The full-budget cases run only when ``STRSEL_FULL_BUDGET`` is set:

    STRSEL_FULL_BUDGET=1 PYTHONPATH=src python -m pytest tests/test_metamorphic.py
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strsel.cli import main
from strsel.exact import solve_cks_exact, solve_cms_exact, solve_ffms_exact, solve_max2sat_exact, symbol_matrix
from strsel.formats import serialize_cnf, serialize_strings_instance
from strsel.gen import random_max2sat, random_string_set
from strsel.reductions import Literal, Max2SatInstance
from strsel.words import (
    Alphabet,
    CksInstance,
    CmsInstance,
    FfmsInstance,
    StringSet,
    Word,
    anticoverage,
    coverage,
    hamming,
)

# word lengths past one byte of tail columns, so that every set has several heads
LENGTHS = {2: (9, 12), 3: (5, 7), 4: (5, 6), 5: (3, 5)}


def transformed(sset: StringSet, order, column: int, relabel) -> StringSet:
    """``sset`` with column p taken from column ``order[p]``, then symbol c of
    column ``column`` written as ``relabel[c]``."""
    rows = symbol_matrix(sset)[:, order]
    rows[:, column] = np.asarray(relabel, dtype=np.uint8)[rows[:, column]]
    return StringSet(sset.alphabet, sset.length, rows.tobytes())


def mapped_back(center: Word, order, column: int, relabel) -> Word:
    """The center of the original set that :func:`transformed` maps to ``center``."""
    symbols = list(center.symbols)
    symbols[column] = relabel.index(symbols[column])
    original = [0] * len(symbols)
    for p, j in enumerate(order):
        original[j] = symbols[p]
    return Word(original, center.alphabet)


@st.composite
def transformed_sets(draw):
    sigma = draw(st.sampled_from(sorted(LENGTHS)))
    length = draw(st.integers(*LENGTHS[sigma]))
    n = draw(st.integers(1, 10))
    symbols = st.lists(st.integers(0, sigma - 1), min_size=length, max_size=length)
    rows = draw(st.lists(symbols, min_size=n, max_size=n))
    sset = StringSet.from_words([Word(r, Alphabet(sigma)) for r in rows])
    order = draw(st.permutations(range(length)))
    column = draw(st.integers(0, length - 1))
    relabel = draw(st.permutations(range(sigma)))
    return sset, order, column, relabel


@settings(max_examples=8, deadline=None)
@given(transformed_sets(), st.data())
def test_optima_are_invariant_under_column_maps(case, data):
    sset, order, column, relabel = case
    d = data.draw(st.integers(0, sset.length), label="d")
    k = data.draw(st.integers(1, sset.size), label="k")
    other = transformed(sset, order, column, relabel)
    pairs = ((solve_cms_exact, CmsInstance, coverage), (solve_ffms_exact, FfmsInstance, anticoverage))
    for solve, make, rescore in pairs:
        before, after = solve(make(sset, d)), solve(make(other, d))
        assert after.value == before.value
        assert rescore(mapped_back(after.center, order, column, relabel), make(sset, d)) == before.value
    before, after = solve_cks_exact(CksInstance(sset, k)), solve_cks_exact(CksInstance(other, k))
    assert after.value == before.value
    center = mapped_back(after.center, order, column, relabel)
    assert max(hamming(center, sset.words[i]) for i in after.chosen_subset) == before.value


def _solve(capsys, path, problem) -> dict:
    """The ``key=value`` lines of ``solve <problem> --algo exact --recheck``."""
    assert main(["solve", problem, "-f", str(path), "--algo", "exact", "--recheck"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["recheck"] == "ok"
    return out


@pytest.mark.skipif(not os.environ.get("STRSEL_FULL_BUDGET"), reason="full-budget sizes run in their own CI step")
@pytest.mark.parametrize("problem, sigma, length", [("cms", 3, 15), ("cms", 4, 12), ("cks", 4, 11)])
def test_optimum_is_invariant_at_full_budget(capsys, tmp_path, problem, sigma, length):
    sset = random_string_set(sigma, length, 50, seed=length)
    rng = np.random.default_rng(length)
    order, column = rng.permutation(length).tolist(), int(rng.integers(length))
    relabel = rng.permutation(sigma).tolist()
    make = (lambda s: CmsInstance(s, length // 3)) if problem == "cms" else (lambda s: CksInstance(s, 25))
    outputs = []
    for i, s in enumerate((sset, transformed(sset, order, column, relabel))):
        path = tmp_path / f"{i}.txt"
        path.write_text(serialize_strings_instance(make(s)))
        outputs.append(_solve(capsys, path, problem))
    before, after = outputs
    assert after["value"] == before["value"]
    center = mapped_back(Word.from_text(after["center"], sset.alphabet), order, column, relabel)
    if problem == "cms":
        assert coverage(center, make(sset)) == int(before["value"])
    else:
        subset = [int(i) - 1 for i in after["subset"].split()]
        assert max(hamming(center, sset.words[i]) for i in subset) == int(before["value"])


def renamed(phi: Max2SatInstance, order, flip: int) -> Max2SatInstance:
    """``phi`` with variable v written as ``order[v - 1]``, after every literal
    of variable ``flip`` is negated."""
    return Max2SatInstance(phi.variable_count, tuple(
        tuple(Literal(order[lit.variable - 1], lit.positive != (lit.variable == flip)) for lit in clause)
        for clause in phi.clauses
    ))


def assignment_back(assignment, order, flip: int) -> tuple:
    """The assignment of the original formula that :func:`renamed` maps to ``assignment``."""
    return tuple(assignment[order[v - 1] - 1] != (v == flip) for v in range(1, len(assignment) + 1))


@st.composite
def renamed_formulas(draw):
    n = draw(st.integers(1, 16))
    literal = st.builds(Literal, st.integers(1, n), st.booleans())
    clause = st.tuples(literal, literal).filter(lambda c: c[0].variable != c[1].variable or c[0] == c[1])
    phi = Max2SatInstance(n, tuple(draw(st.lists(clause, min_size=1, max_size=3 * n))))
    order = draw(st.permutations(range(1, n + 1)))
    # flip 0 renames only
    return phi, order, draw(st.integers(0, n))


@settings(max_examples=30, deadline=None)
@given(renamed_formulas())
def test_max2sat_optimum_is_invariant_under_renaming_and_sign_flips(case):
    phi, order, flip = case
    before, after = solve_max2sat_exact(phi), solve_max2sat_exact(renamed(phi, order, flip))
    assert after[1] == before[1]
    assert phi.satisfied_count(assignment_back(after[0], order, flip)) == before[1]


@pytest.mark.skipif(not os.environ.get("STRSEL_FULL_BUDGET"), reason="full-budget sizes run in their own CI step")
def test_max2sat_optimum_is_invariant_at_full_budget(capsys, tmp_path):
    phi = random_max2sat(30, 90, seed=30)
    rng = np.random.default_rng(30)
    identity = list(range(1, 31))
    maps = [(identity, 0), ((rng.permutation(30) + 1).tolist(), 0), (identity, int(rng.integers(1, 31)))]
    outputs = []
    for i, (order, flip) in enumerate(maps):
        path = tmp_path / f"{i}.cnf"
        path.write_text(serialize_cnf(renamed(phi, order, flip)))
        outputs.append(_solve(capsys, path, "max2sat"))
    optimum = int(outputs[0]["value"])
    for (order, flip), out in zip(maps, outputs):
        assert int(out["value"]) == optimum
        assignment = tuple(bit == "1" for bit in out["assignment"])
        assert phi.satisfied_count(assignment_back(assignment, order, flip)) == optimum
