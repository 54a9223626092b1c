"""Exact solvers against independent brute-force oracles and spec'd
tie-breaking rules."""

import itertools
from math import comb

import pytest

from strsel import exact, experiments, reductions
from strsel import (
    CksInstance,
    CmsInstance,
    FfmsInstance,
    MsfbcInstance,
    StringSet,
    Word,
    anticoverage,
    bad_columns,
    complement,
    coverage,
    hamming,
)
from strsel.exact import (
    BudgetExceededError,
    check_budget,
    solve_cks_exact,
    solve_cms_exact,
    solve_dks_exact,
    solve_ffms_exact,
    solve_max2sat_exact,
    solve_msfbc_columns,
    solve_msfbc_subsets,
)
from strsel.gen import random_graph, random_max2sat, random_string_set
from strsel.heuristics import SearchConfig, local_search_cms
from strsel.reductions import Graph, Literal

from reference_solvers import enumerate_words


def sset(*texts, sigma=2):
    from strsel import Alphabet

    return StringSet.from_texts(texts, Alphabet(sigma))


def brute_cms(inst):
    """Independent oracle: plain max over all centers via coverage."""
    return max(coverage(s, inst) for s in enumerate_words(inst.set.alphabet, inst.set.length))


def brute_ffms(inst):
    return max(anticoverage(s, inst) for s in enumerate_words(inst.set.alphabet, inst.set.length))


def brute_cks(inst):
    best = None
    for s in enumerate_words(inst.set.alphabet, inst.set.length):
        radius = sorted(hamming(s, t) for t in inst.set)[inst.k - 1]
        best = radius if best is None else min(best, radius)
    return best


def brute_msfbc(inst):
    n = inst.set.size
    best = 0
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if len(bad_columns([inst.set.words[i] for i in combo])) <= inst.k:
                best = max(best, size)
    return best


class TestCms:
    def test_three_strings(self):
        inst = CmsInstance(sset("00", "01", "11"), d=1)
        assert brute_cms(inst) == 3
        res = solve_cms_exact(inst)
        assert res.value == 3 and res.center == Word.from_text("01")

    def test_singleton(self):
        res = solve_cms_exact(CmsInstance(sset("0"), d=0))
        assert res.value == 1 and str(res.center) == "0"

    def test_lexicographic_tie_break(self):
        inst = CmsInstance(sset("00", "11"), d=0)
        assert brute_cms(inst) == 1
        res = solve_cms_exact(inst)
        assert res.value == 1 and str(res.center) == "00"

    def test_budget(self, monkeypatch):
        inst = CmsInstance(sset("0" * 10), d=0)
        monkeypatch.setattr(exact, "DEFAULT_ENUM_BUDGET", 100)
        with pytest.raises(BudgetExceededError, match="budget"):
            solve_cms_exact(inst)

    def test_monotone_in_d(self):
        s = random_string_set(2, 6, 5, seed=11)
        values = [solve_cms_exact(CmsInstance(s, d)).value for d in range(7)]
        assert values == sorted(values)


class TestFfms:
    def test_opposite_pair_unreachable(self):
        inst = FfmsInstance(sset("00", "11"), d=2)
        assert brute_ffms(inst) == 1
        assert solve_ffms_exact(inst).value == 1

    def test_complementary_pair(self):
        inst = FfmsInstance(sset("01", "10"), d=2)
        assert brute_ffms(inst) == 1
        assert solve_ffms_exact(inst).value == 1

    def test_d_zero_covers_all(self):
        s = random_string_set(2, 4, 6, seed=3)
        assert solve_ffms_exact(FfmsInstance(s, 0)).value == 6

    def test_binary_duality_with_cms(self):
        for seed in range(5):
            s = random_string_set(2, 5, 4, seed=seed)
            for d in range(6):
                cms = solve_cms_exact(CmsInstance(s, d))
                ffms = solve_ffms_exact(FfmsInstance(s, 5 - d))
                assert cms.value == ffms.value
                assert anticoverage(complement(cms.center), FfmsInstance(s, 5 - d)) == ffms.value


class TestCks:
    def test_radius_one(self):
        inst = CksInstance(sset("000", "011", "111"), k=2)
        assert brute_cks(inst) == 1
        res = solve_cks_exact(inst)
        assert res.value == 1
        assert len(res.chosen_subset) == 2

    def test_closest_string_case(self):
        inst = CksInstance(sset("000", "011", "111"), k=3)
        assert brute_cks(inst) == 2
        assert solve_cks_exact(inst).value == 2

    def test_duplicates_radius_zero(self):
        inst = CksInstance(sset("01", "01", sigma=3), k=2)
        assert solve_cks_exact(inst).value == 0

    def test_subset_rescored(self):
        inst = CksInstance(sset("010", "111", "001", "100"), k=3)
        res = solve_cks_exact(inst)
        assert max(hamming(res.center, inst.set.words[i]) for i in res.chosen_subset) == res.value

    def test_monotone_in_k(self):
        s = random_string_set(2, 5, 5, seed=21)
        radii = [solve_cks_exact(CksInstance(s, k)).value for k in range(1, 6)]
        assert radii == sorted(radii)


class TestMsfbc:
    def test_all_strings_fit(self):
        inst = MsfbcInstance(sset("110", "101", "011", "000"), k=3)
        assert brute_msfbc(inst) == 4
        assert len(solve_msfbc_subsets(inst).indices) == 4

    def test_tight_k(self):
        inst = MsfbcInstance(sset("110", "101", "011", "000"), k=2)
        assert brute_msfbc(inst) == 2
        res = solve_msfbc_subsets(inst)
        assert len(res.indices) == 2
        assert res.indices == (0, 1)  # lexicographically smallest index list

    def test_k_equals_length(self):
        s = random_string_set(2, 4, 6, seed=9)
        assert len(solve_msfbc_subsets(MsfbcInstance(s, 4)).indices) == 6

    def test_columns_matches_examples(self):
        inst = MsfbcInstance(sset("110", "101", "011", "000"), k=2)
        assert len(solve_msfbc_columns(inst).indices) == 2
        inst = MsfbcInstance(sset("00", "00", "01"), k=0)
        assert solve_msfbc_columns(inst).indices == (0, 1)
        inst = MsfbcInstance(sset("1", "0"), k=1)
        assert len(solve_msfbc_columns(inst).indices) == 2

    def test_result_invariant(self):
        s = random_string_set(2, 5, 7, seed=2)
        res = solve_msfbc_subsets(MsfbcInstance(s, 2))
        assert res.bad_column_count == len(bad_columns([s.words[i] for i in res.indices]))
        assert res.bad_column_count <= 2

    def test_oracle_agreement_random(self):
        for seed in range(40):
            n = 3 + seed % 8
            ell = 3 + (seed * 7) % 8
            s = random_string_set(2, ell, n, seed=seed)
            for k in range(ell + 1):
                inst = MsfbcInstance(s, k)
                # both promise the first optimal index list, not only its size
                assert solve_msfbc_subsets(inst) == solve_msfbc_columns(inst), (seed, k)

    def test_monotone_in_k(self):
        s = random_string_set(2, 5, 6, seed=4)
        sizes = [len(solve_msfbc_subsets(MsfbcInstance(s, k)).indices) for k in range(6)]
        assert sizes == sorted(sizes)

    def test_budget(self, monkeypatch):
        s = random_string_set(2, 3, 12, seed=0)
        monkeypatch.setattr(exact, "DEFAULT_SUBSET_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            solve_msfbc_subsets(MsfbcInstance(s, 1))


class TestMax2Sat:
    def test_single_clause(self):
        phi = random_max2sat(2, 1, seed=0)
        _, count = solve_max2sat_exact(phi)
        assert count == 1

    def test_all_four_polarity_clauses(self):
        lits = lambda a, b, pa, pb: (Literal(a, pa), Literal(b, pb))
        from strsel.reductions import Max2SatInstance

        phi = Max2SatInstance(
            2,
            (
                lits(1, 2, True, True),
                lits(1, 2, False, True),
                lits(1, 2, True, False),
                lits(1, 2, False, False),
            ),
        )
        # oracle: all 4 assignments by hand
        best = max(
            phi.satisfied_count(x) for x in itertools.product((False, True), repeat=2)
        )
        assert best == 3
        assignment, count = solve_max2sat_exact(phi)
        assert count == 3
        assert phi.satisfied_count(assignment) == 3

    def test_half_clauses_lower_bound(self):
        for seed in range(10):
            phi = random_max2sat(4, 6, seed=seed)
            _, count = solve_max2sat_exact(phi)
            assert count >= (phi.clause_count + 1) // 2

    def test_lexicographic_tie(self):
        from strsel.reductions import Max2SatInstance

        # x1 alone: satisfied by (T,*); smallest maximizer is (T, F) -> but
        # lexicographic with false < true means (True, False) vs (True, True)
        phi = Max2SatInstance(2, ((Literal(1, True), Literal(2, False)),))
        assignment, count = solve_max2sat_exact(phi)
        assert count == 1
        assert assignment == (False, False)


class TestDks:
    def test_triangle_whole(self):
        g = Graph(3, ((1, 2), (1, 3), (2, 3)))
        assert solve_dks_exact(g, 3) == ((1, 2, 3), 3)

    def test_triangle_pair(self):
        g = Graph(3, ((1, 2), (1, 3), (2, 3)))
        vertices, count = solve_dks_exact(g, 2)
        assert count == 1
        assert vertices == (1, 2)

    def test_edgeless(self):
        g = Graph(4, ())
        assert solve_dks_exact(g, 2)[1] == 0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            solve_dks_exact(Graph(3, ()), 4)

    def test_against_bruteforce(self):
        for seed in range(10):
            g = random_graph(6, 7, seed=seed)
            for k in range(1, 7):
                best = max(
                    g.induced_edge_count(c) for c in itertools.combinations(range(1, 7), k)
                )
                assert solve_dks_exact(g, k)[1] == best


# site -> (module, its budget constant, the constant's value when the budget equals the
#          count, a call that runs the check, the refusal with the constant one below)
BUDGET_SITES = {
    "centers": (exact, "DEFAULT_ENUM_BUDGET", 2**10, lambda: solve_cms_exact(CmsInstance(sset("0" * 10), d=0)),
                "center enumeration needs 2^10 words, above the budget of 1023"),
    "msfbc subsets": (exact, "DEFAULT_SUBSET_BUDGET", 2**12,
                      lambda: solve_msfbc_subsets(MsfbcInstance(random_string_set(2, 3, 12, seed=0), 1)),
                      "subset enumeration needs 2^12 subsets, above the budget of 4095"),
    "msfbc columns": (exact, "DEFAULT_SUBSET_BUDGET", 56,
                      lambda: solve_msfbc_columns(MsfbcInstance(random_string_set(2, 8, 5, seed=0), 3)),
                      "column enumeration needs C(8,3) column sets, above the budget of 55"),
    "max2sat": (exact, "DEFAULT_WORK_BUDGET", 2**3, lambda: solve_max2sat_exact(random_max2sat(3, 4, seed=0)),
                "assignment enumeration needs 2^3 assignments, above the budget of 7"),
    "dks": (exact, "DEFAULT_SUBSET_BUDGET", 20, lambda: solve_dks_exact(random_graph(6, 7, seed=0), 3),
            "subset enumeration needs C(6,3) subsets, above the budget of 19"),
    "dks entries": (exact, "DEFAULT_ENUM_BUDGET", 60, lambda: solve_dks_exact(random_graph(6, 7, seed=0), 3),
                    "subset enumeration needs C(6,3)*3 vertex entries, above the budget of 59"),
    "sat2cms rows": (reductions, "MAX_REDUCTION_ROWS", 84,
                     lambda: reductions.reduce_max2sat_to_cms(random_max2sat(3, 4, seed=0), c=20, seed=1),
                     "the reduction needs (c+1)*m = 84 strings, above the budget of 83"),
    # an exponent too: 4^MAX_N words, read where a fixing set is scored
    "far table": (experiments, "MAX_N", 3, lambda: experiments.lemma_fixing_trial(3, 3, 1, seed=0),
                  "the far table needs 4^3 words, above the budget of 16"),
    # an exclusive bound: the budget is _FLOAT32_EXACT - 1 strings
    "fixing count": (experiments, "_FLOAT32_EXACT", 7, lambda: experiments.lemma_fixing_trial(3, 3, 2, seed=0),
                     "the float32 far count needs 6 fixing strings, above the budget of 5"),
    "graph pairs": (exact, "DEFAULT_SUBSET_BUDGET", 15, lambda: random_graph(6, 7, seed=0),
                    "graph generation needs C(6,2) vertex pairs, above the budget of 14"),
    "dks2msfbc symbols": (reductions, "MAX_REDUCTION_SYMBOLS", 48,
                          lambda: reductions.reduce_dks_to_msfbc(random_graph(6, 7, seed=0), 3),
                          "the reduction needs V*(E+1) = 48 symbols, above the budget of 47"),
    "max2sat clauses": (exact, "DEFAULT_SUBSET_BUDGET", 7, lambda: random_max2sat(3, 7, seed=0),
                        "Max-2-SAT generation needs 7 clauses, above the budget of 6"),
    "local restarts": (exact, "DEFAULT_WORK_BUDGET", 2 * 4 * 3,
                       lambda: local_search_cms(CmsInstance(sset("0000", "0110", "1111"), 1), SearchConfig(restarts=2)),
                       "hill climbing needs 2*4*3 mismatch cells, above the budget of 23"),
    "fixing draws": (exact, "DEFAULT_WORK_BUDGET", 2 * 2 * 3 * 3,
                     lambda: experiments.lemma_fixing_campaign(3, 3, 2, trials=2, seed=0),
                     "fixing campaign needs 2*2*3*3 fixing draws, above the budget of 35"),
}


@pytest.mark.parametrize("site", list(BUDGET_SITES))
def test_every_budget_passes_its_count_and_refuses_one_more(monkeypatch, site):
    module, name, at_count, call, refusal = BUDGET_SITES[site]
    monkeypatch.setattr(module, name, at_count)
    call()
    monkeypatch.setattr(module, name, at_count - 1)
    with pytest.raises(BudgetExceededError) as err:
        call()
    assert str(err.value) == refusal


def test_check_budget_compares_powers_and_binomials_as_built_integers():
    for budget in [*range(70), 2**20 - 1, 2**20, 2**24]:
        for base, exponent in itertools.product((2, 3, 4), range(30)):
            refused = base**exponent > budget
            try:
                check_budget("t", "w", ("^", base, exponent), budget)
            except BudgetExceededError:
                assert refused, (base, exponent, budget)
            else:
                assert not refused, (base, exponent, budget)
        for n in range(50):
            for k in range(n + 1):
                refused = comb(n, k) > budget
                try:
                    check_budget("t", "w", ("C", n, k), budget)
                except BudgetExceededError:
                    assert refused, (n, k, budget)
                else:
                    assert not refused, (n, k, budget)
    # exponents and binomials far too large to build are refused all the same
    for count in (("^", 2, 10**18), ("C", 10**18, 5 * 10**17), ("C", 10**18, 10**18 - 21)):
        with pytest.raises(BudgetExceededError, match="t needs w, above the budget of 1048576"):
            check_budget("t", "w", count, 2**20)
