"""Exhaustive probability-bound checks, the closed-form arithmetic
inequalities, and the Las-Vegas retry loop, cross-checked against slow
pure-Python oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from strsel import BINARY, Alphabet, StringSet, Word, experiments, hamming
from strsel.exact import BudgetExceededError, solve_max2sat_exact
from strsel.experiments import (
    TrialOutcome,
    all_fixing_words,
    conditional_half_bound,
    gap_holds,
    inequality_checks,
    las_vegas_loop,
    lemma_fixing_campaign,
    lemma_fixing_trial,
    per_pair_quarter_bound,
    structural_property_holds,
)
from strsel.gen import random_max2sat
from strsel.reductions import fixing_strings
from strsel.rng import derive_seed


def slow_noncanonical(n):
    """Oracle: words of length 2n with at least one block outside {00,11}."""
    out = []
    for bits in range(4**n):
        word = Word.from_index(bits, 2 * n)
        blocks = [(word[2 * i], word[2 * i + 1]) for i in range(n)]
        if any(b in ((0, 1), (1, 0)) for b in blocks):
            out.append(word)
    return out


def test_noncanonical_enumeration_matches_oracle():
    for n in (1, 2, 3):
        fast = {int(x) for x in ref.noncanonical_words(n)}
        slow = {w.bits for w in slow_noncanonical(n)}
        assert fast == slow
        assert len(fast) == 4**n - 2**n


def test_all_fixing_words_enumeration():
    for n in (1, 2, 3):
        packed = all_fixing_words(n)
        words = [Word.from_index(int(b), 2 * n) for b in packed]
        assert len(words) == 2**n
        for w in words:
            for i in range(n):
                assert w[2 * i] != w[2 * i + 1]
        assert len({w.bits for w in words}) == 2**n
        assert (packed[1:] > packed[:-1]).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_far_table_rows_are_the_block_classes(n):
    words, fixing, far = experiments._far_table(n)
    blocks = itertools.product((0b00, 0b01, 0b10), repeat=n)
    classes = sorted(sum(block << 2 * t for t, block in enumerate(word)) for word in blocks)[1:]
    assert words.tolist() == classes and len(words) == 3**n - 1
    assert far.shape == (3**n - 1, 2**n)
    # every non-canonical word has the far row of its 11 -> 00 representative
    every = ref.noncanonical_words(n)
    eleven = every & every >> 1 & int("01" * n, 2)
    rows = far[np.searchsorted(words, every & ~(eleven * 3))]
    assert (rows == (np.bitwise_count(every[:, None] ^ fixing[None, :]) > n)).all()
    assert (rows.sum(axis=1) == ref._far_counts(every, fixing, n)).all()


def test_far_table_at_the_cap_has_one_row_per_block_class():
    words, fixing, far = experiments._far_table(experiments.MAX_N)
    assert far.shape == (6560, 256) and far.dtype == np.float32 and len(words) == 6560


@pytest.mark.parametrize("n", range(1, 7))
def test_bounds_equal_the_per_pair_references(n):
    assert per_pair_quarter_bound(n) == ref.per_pair_quarter_bound(n)
    assert conditional_half_bound(n) == ref.conditional_half_bound(n)


@pytest.mark.parametrize("n", range(1, experiments.MAX_N + 1))
def test_bounds_equal_the_far_table_scans(n):
    assert per_pair_quarter_bound(n) == ref.far_table_quarter_bound(n)
    assert conditional_half_bound(n) == ref.far_table_half_bound(n)


def test_bounds_equal_the_least_binomial_tail_over_every_j():
    # a word with j mismatched blocks: P[Bin(j, 1/2) > j/2] of all fixing strings are far,
    # P[1 + Bin(j - 1, 1/2) > j/2] of those that oppose it at one of them
    quarter = half = 1
    for j in range(1, 201):
        quarter = min(quarter, Fraction(sum(math.comb(j, x) for x in range(j + 1) if 2 * x > j), 2**j))
        half = min(half, Fraction(sum(math.comb(j - 1, y) for y in range(j) if 2 * (1 + y) > j), 2 ** (j - 1)))
        # now the least over 1 <= j <= n, for n = j
        assert (per_pair_quarter_bound(j), conditional_half_bound(j)) == (quarter, half), j


@pytest.mark.parametrize("n", range(1, 7))
def test_conditional_distances_follow_the_binomial_law(n):
    # opposing s at one of its j mismatched blocks, f is at distance (n - j) + 2(1 + i)
    # from s for C(j - 1, i) of the 2^(n-1) such f
    for s in ref.noncanonical_words(n).tolist():
        blocks = [s >> 2 * t & 0b11 for t in range(n)]
        mismatched = [t for t, block in enumerate(blocks) if block in (0b01, 0b10)]
        j = len(mismatched)
        law = {n - j + 2 * (1 + i): math.comb(j - 1, i) * 2 ** (n - j) for i in range(j)}
        for t in mismatched:
            assert ref.conditional_distance_distribution(s, t, n) == law, (s, t)


@given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_fixing_strings_equal_the_per_bit_reference(count, n, seed):
    assert fixing_strings(count, n, seed) == ref.fixing_strings(count, n, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 2**64 - 1))
def test_structural_property_equals_the_per_pair_reference(n, extra, seed):
    # c = 1 and m close to n: failures are common, so witnesses are compared too
    m = n + extra
    fixing = fixing_strings(m, n, seed)
    assert structural_property_holds(fixing, n, m) == ref.structural_property_holds(fixing, n, m)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**64 - 1), st.data())
def test_structural_property_rejects_a_non_fixing_set(n, count, seed, data):
    rows = bytearray(fixing_strings(count, n, seed).rows)
    at = 2 * data.draw(st.integers(0, count * n - 1))
    rows[at : at + 2] = bytes([data.draw(st.integers(0, 1))]) * 2  # one block becomes 00 or 11
    with pytest.raises(ValueError, match="must lie in"):
        structural_property_holds(StringSet(BINARY, 2 * n, bytes(rows)), n, n)


def test_structural_property_rejects_a_wrong_length_or_alphabet():
    for fixing in (fixing_strings(3, 3, 0), StringSet.from_texts(["0110"], Alphabet(3))):
        with pytest.raises(ValueError, match="must lie in"):
            structural_property_holds(fixing, 2, 2)


class TestQuarterBound:
    def test_n1_exact_value(self):
        # s="01": of f in {"01","10"} only "10" is at distance 2 >= 2
        assert per_pair_quarter_bound(1) == 0.5

    def test_bound_holds_up_to_6(self):
        for n in range(1, 7):
            assert per_pair_quarter_bound(n) >= 0.25

    def test_slow_oracle_n2(self):
        # independent enumeration with Word-level hamming
        fs = [Word.from_index(int(b), 4) for b in all_fixing_words(2)]
        minimum = 1.0
        for s in slow_noncanonical(2):
            frac = sum(hamming(s, f) >= 3 for f in fs) / len(fs)
            minimum = min(minimum, frac)
        assert per_pair_quarter_bound(2) == minimum

    def test_budget(self):
        # no far-table budget: past MAX_N both bounds are decided without the table
        tables = experiments._far_table.cache_info()
        for n in (9, 64, 10**6):
            assert per_pair_quarter_bound(n) == 0.25 and conditional_half_bound(n) == 0.5
        assert experiments._far_table.cache_info() == tables
        for bound in (per_pair_quarter_bound, conditional_half_bound):
            with pytest.raises(ValueError, match=r"^--n must be at least 1, got 0$"):
                bound(0)


class TestHalfBound:
    def test_n1_conditional_is_one(self):
        assert conditional_half_bound(1) == 1.0

    def test_bound_holds_up_to_6(self):
        for n in range(1, 7):
            assert conditional_half_bound(n) >= 0.5

    def test_distribution_symmetric_about_n_plus_1(self):
        for n in (2, 3, 4):
            for s in slow_noncanonical(n)[:40]:
                for i in range(n):
                    if s[2 * i] == s[2 * i + 1]:
                        continue
                    hist = ref.conditional_distance_distribution(s.bits, n - 1 - i, n)
                    for d, count in hist.items():
                        assert hist.get(2 * (n + 1) - d) == count
                    break


class TestFixingTrials:
    def test_deterministic(self):
        a = lemma_fixing_trial(3, 3, 20, seed=5)
        b = lemma_fixing_trial(3, 3, 20, seed=5)
        assert a == b

    def test_structural_property_slow_oracle(self):
        # tiny F checked by hand against the numpy path
        n, m = 2, 2
        fixing = fixing_strings(6, n, seed=11)
        holds, witness, far = structural_property_holds(fixing, n, m)
        slow_holds = all(
            sum(hamming(s, f) > n for f in fixing) >= m for s in slow_noncanonical(n)
        )
        assert holds == slow_holds
        if not holds:
            assert sum(hamming(witness, f) > n for f in fixing) == far < m

    def test_witness_reported_on_failure(self):
        # c=1 with tiny m fails often; scan seeds for a failing draw
        saw_failure = False
        for seed in range(50):
            outcome = lemma_fixing_trial(2, 2, 1, seed=seed)
            if not outcome.holds:
                saw_failure = True
                assert outcome.witness is not None
                assert outcome.far_count < 2
                break
        assert saw_failure

    def test_campaign_counts(self):
        report = lemma_fixing_campaign(3, 3, 20, trials=20, seed=1)
        assert report.trials == 20
        assert 0 <= report.failures <= 20
        assert report.bound == pytest.approx(0.9**3)
        assert report.within_bound in (True, False)

    def test_empty_campaign(self):
        report = lemma_fixing_campaign(3, 3, 20, trials=0, seed=1)
        assert report.trials == 0 and report.failures == 0
        assert report.bound is None

    def test_m_budget(self):
        with pytest.raises(BudgetExceededError):
            lemma_fixing_trial(9, 9, 20, seed=0)


def report_fields(report) -> dict:
    return {name: getattr(report, name) for name in ("failures", "worst_witnesses", "bound", "slack", "within_bound")}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 3), st.integers(0, 60), st.integers(0, 2**64 - 1))
def test_campaign_equals_the_per_trial_reference(n, c, extra, trials, seed):
    # small c and m close to n: failures, and so witnesses, are common
    m = n + extra
    assert report_fields(lemma_fixing_campaign(n, m, c, trials, seed)) == ref.lemma_fixing_campaign(n, m, c, trials, seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_campaign_at_n7_equals_the_per_trial_reference(seed):
    # c = 1 and m = n: most trials fail, so witnesses are compared too
    report = lemma_fixing_campaign(7, 7, 1, 30, seed)
    assert report_fields(report) == ref.lemma_fixing_campaign(7, 7, 1, 30, seed)
    assert report.failures > 0


@pytest.mark.parametrize("elements", [1, 16, 100, 500])
@pytest.mark.parametrize("n, m, c, trials, seed", [(3, 3, 3, 25, 1), (2, 4, 1, 60, 7), (4, 5, 2, 13, 2**64 - 1)])
def test_campaign_blocks_and_chunks_equal_the_reference(monkeypatch, elements, n, m, c, trials, seed):
    draws = []

    def recording(states, lo, hi, n):
        draws.append((len(states), hi - lo))
        return fixing_indices(states, lo, hi, n)

    fixing_indices = experiments._fixing_indices
    monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", elements)
    monkeypatch.setattr(experiments, "_fixing_indices", recording)
    report = lemma_fixing_campaign(n, m, c, trials, seed)
    assert report_fields(report) == ref.lemma_fixing_campaign(n, m, c, trials, seed)
    assert report.failures > 0
    # every string of every trial is drawn once, in several trial blocks
    assert sum(rows * strings for rows, strings in draws) == trials * c * m
    assert max(rows for rows, _ in draws) < trials
    if elements < c * m * n:
        # one trial's strings span several draws
        assert max(strings for _, strings in draws) < c * m


# n = m = 2, c = 5: trial 0 holds for seed 1 and fails for seed 0, with witness 0110
ALTERED_TRIAL_0 = {
    "a pass as a failure": (1, lambda o: TrialOutcome(False, Word.from_text("0110"), 0)),
    "a failure as a pass": (0, lambda o: TrialOutcome(True)),
    "another witness": (0, lambda o: TrialOutcome(False, Word.from_text("0010"), o.far_count)),
    "another far count": (0, lambda o: TrialOutcome(False, o.witness, o.far_count + 1)),
}


@pytest.mark.parametrize("change", list(ALTERED_TRIAL_0))
def test_campaign_raises_when_trial_0_rescores_differently(monkeypatch, change):
    seed, alter = ALTERED_TRIAL_0[change]
    trial = experiments.lemma_fixing_trial
    assert trial(2, 2, 5, derive_seed(seed, 0)).holds == (seed == 1)
    lemma_fixing_campaign(2, 2, 5, 10, seed)
    monkeypatch.setattr(experiments, "lemma_fixing_trial", lambda *args: alter(trial(*args)))
    with pytest.raises(AssertionError, match="trial 0"):
        lemma_fixing_campaign(2, 2, 5, 10, seed)


class TestInequalities:
    def test_threshold_value(self):
        report = inequality_checks(20, 100)
        assert report.epsilon_threshold == pytest.approx(1 / 901)

    def test_passes_for_c20(self):
        assert inequality_checks(20, 500).passed

    @pytest.mark.parametrize("c", [5, 6, 20, 100])
    def test_gap_ends_match_the_full_grid(self, c):
        threshold = 1 / (21 + 44 * c)
        # not at the threshold itself, where the float sweep may round either way
        eps_grid = [f * threshold for f in (0.1, 0.5, 0.9, 1.01, 1.1, 2.0, 10.0)] + [1 / 21]
        for m_max in (2, 3, 17, 400):
            for eps in eps_grid:
                assert gap_holds(c, *eps.as_integer_ratio()) == (not ref.gap_failures(c, m_max, [eps])), (m_max, eps)
        assert [gap_holds(c, *eps.as_integer_ratio()) for eps in eps_grid] == [True] * 3 + [False] * 5
        assert inequality_checks(c, 400).gap_holds

    def test_union_bound_matches_the_per_n_loop(self):
        for c in range(5, 201):
            assert inequality_checks(c, 2).union_bound_holds == (not ref.union_bound_failures(c)), c
        assert ref.union_bound_failures(19) and not ref.union_bound_failures(20)

    def test_exponent_identity(self):
        assert (20 - 4) ** 2 / (8 * 20) == pytest.approx(1.6)

    def test_union_bound_sample_point(self):
        # direct evaluation at n=10, c=20
        lhs = (4**10 - 2**10) * math.exp(-1.6 * 10)
        assert lhs <= 0.9**10

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^--c must be at least 5, got 4$"):
            inequality_checks(4, 100)
        with pytest.raises(ValueError, match=r"^--m must be at least 2, got 1$"):
            inequality_checks(20, 1)


class TestLasVegas:
    def test_recovers_max2sat_optimum(self):
        for seed in range(15):
            phi = random_max2sat(3, 3, seed=seed)
            assignment, trials = las_vegas_loop(phi, c=20, seed=seed + 1000)
            assert trials >= 1
            _, optimum = solve_max2sat_exact(phi)
            assert phi.satisfied_count(assignment) == optimum

    def test_trial_limit(self):
        phi = random_max2sat(2, 2, seed=0)

        def stubborn_solver(inst):
            from strsel.exact import CenterResult

            return CenterResult(center=Word.from_text("01" * 2), value=0)

        with pytest.raises(BudgetExceededError):
            las_vegas_loop(phi, seed=0, cms_solver=stubborn_solver, trial_limit=5)

    def test_deterministic(self):
        phi = random_max2sat(3, 4, seed=2)
        assert las_vegas_loop(phi, seed=7) == las_vegas_loop(phi, seed=7)
