"""Both reductions: construction rules, encode/decode maps, the
zero-normalization procedure, and the +1 optimum identity."""

import itertools

import pytest

from strsel import StringSet, Word, bad_columns, coverage, hamming
from strsel.exact import solve_msfbc_subsets
from strsel.gen import random_graph, random_max2sat
from strsel.reductions import (
    Graph,
    Literal,
    Max2SatInstance,
    NonCanonicalCenterError,
    clause_distance_identity,
    clause_string,
    decode_center,
    decode_msfbc_solution,
    encode_assignment,
    fixing_strings,
    incidence_vector,
    normalize_contains_zero,
    reduce_dks_to_msfbc,
    reduce_max2sat_to_cms,
    verify_claim_optval,
)
from strsel.rng import SplitMix64


def clause(v1, p1, v2, p2):
    return (Literal(v1, p1), Literal(v2, p2))


class TestClauseString:
    def test_positive_and_negative(self):
        assert str(clause_string(clause(1, True, 3, False), 3)) == "110100"

    def test_both_negative(self):
        assert str(clause_string(clause(1, False, 2, False), 2)) == "0000"

    def test_both_positive_middle(self):
        assert str(clause_string(clause(2, True, 3, True), 4)) == "01111101"

    def test_tautology_rejected(self):
        with pytest.raises(ValueError):
            clause_string(clause(1, True, 1, False), 2)

    def test_duplicate_literal_warns(self):
        with pytest.warns(UserWarning):
            word = clause_string(clause(1, True, 1, True), 2)
        assert str(word) == "1101"


class TestAssignmentCoding:
    def test_single_true(self):
        assert str(encode_assignment((True,))) == "11"

    def test_false_true(self):
        assert str(encode_assignment((False, True))) == "0011"

    def test_three(self):
        assert str(encode_assignment((True, False, True))) == "110011"

    def test_decode_inverse(self):
        for n in range(1, 6):
            for x in itertools.product((False, True), repeat=n):
                assert decode_center(encode_assignment(x)) == x

    def test_decode_rejects_mixed_block(self):
        with pytest.raises(NonCanonicalCenterError):
            decode_center(Word.from_text("0110"))

    def test_decode_examples(self):
        assert decode_center(Word.from_text("110011")) == (True, False, True)
        assert decode_center(Word.from_text("0011")) == (False, True)


class TestFixingStrings:
    def test_blocks_are_mismatched(self):
        for f in fixing_strings(10, 4, seed=1):
            for i in range(4):
                assert f[2 * i] != f[2 * i + 1]

    def test_distance_to_canonical_is_n(self):
        fs = fixing_strings(5, 3, seed=2)
        for x in itertools.product((False, True), repeat=3):
            for f in fs:
                assert hamming(encode_assignment(x), f) == 3

    def test_deterministic(self):
        assert fixing_strings(3, 2, seed=42) == fixing_strings(3, 2, seed=42)
        assert fixing_strings(3, 2, seed=42) != fixing_strings(3, 2, seed=43)

    def test_pinned_to_the_seeded_draws(self):
        assert [str(f) for f in fixing_strings(4, 3, seed=11)] == ["010110", "100110", "011001", "100101"]
        for seed in range(5):
            rng = SplitMix64(seed)
            expected = []
            for _ in range(7):
                symbols = []
                for _ in range(6):
                    symbols.extend((0, 1) if rng.next_bit() == 0 else (1, 0))
                expected.append(Word(symbols))
            assert fixing_strings(7, 6, seed) == expected


class TestSatReduction:
    def test_instance_shape(self):
        phi = random_max2sat(3, 4, seed=0)
        inst, cert = reduce_max2sat_to_cms(phi, c=20, seed=1)
        assert inst.set.size == 84
        assert inst.set.length == 6
        assert inst.d == 3
        assert cert.seed == 1 and cert.parameters["c"] == 20
        assert len(cert.index_map) == 84

    def test_small_c_shape(self):
        phi = random_max2sat(2, 2, seed=5)
        inst, _ = reduce_max2sat_to_cms(phi, c=1, seed=0)
        assert inst.set.size == 4 and inst.set.length == 4 and inst.d == 2

    def test_m_less_than_n_rejected(self):
        phi = random_max2sat(4, 3, seed=0)
        with pytest.raises(ValueError, match="m >= n"):
            reduce_max2sat_to_cms(phi, seed=0)

    def test_coverage_identity_exhaustive(self):
        for seed in range(5):
            phi = random_max2sat(3, 5, seed=seed)
            inst, _ = reduce_max2sat_to_cms(phi, c=20, seed=seed + 100)
            for x in itertools.product((False, True), repeat=3):
                assert coverage(encode_assignment(x), inst) == 20 * 5 + phi.satisfied_count(x)

    def test_deterministic_given_seed(self):
        phi = random_max2sat(3, 4, seed=7)
        a, _ = reduce_max2sat_to_cms(phi, c=3, seed=9)
        b, _ = reduce_max2sat_to_cms(phi, c=3, seed=9)
        assert a == b


class TestClauseDistance:
    def test_one_falsified(self):
        assert clause_distance_identity((True, False, True), clause(1, True, 3, False), 3) == 3

    def test_both_falsified(self):
        assert clause_distance_identity((False, False, True), clause(1, True, 3, False), 3) == 5

    def test_both_satisfied(self):
        assert clause_distance_identity((True, False, True), clause(1, True, 2, False), 3) == 1

    def test_law_over_all_assignments(self):
        cl = clause(2, True, 4, False)
        n = 4
        for x in itertools.product((False, True), repeat=n):
            falsified = sum(not lit.value(x) for lit in cl)
            assert clause_distance_identity(x, cl, n) == n - 2 + 2 * falsified


class TestIncidence:
    def test_first_edge(self):
        assert str(incidence_vector((1, 2), 5)) == "11000"

    def test_middle_edge(self):
        assert str(incidence_vector((2, 4), 4)) == "0101"

    def test_weight_two(self):
        assert sum(incidence_vector((3, 7), 9).symbols) == 2

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            incidence_vector((2, 2), 4)


K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))


class TestDksReduction:
    def test_triangle(self):
        inst, cert = reduce_dks_to_msfbc(K3, 2)
        assert {str(w) for w in inst.set} == {"110", "101", "011", "000"}
        assert inst.k == 2
        assert cert.seed is None

    def test_size(self):
        g = random_graph(5, 5, seed=1)
        inst, _ = reduce_dks_to_msfbc(g, 3)
        assert inst.set.size == 6 and inst.set.length == 5

    def test_edgeless(self):
        inst, _ = reduce_dks_to_msfbc(Graph(4, ()), 1)
        assert inst.set.size == 1 and str(inst.set.words[0]) == "0000"


class TestNormalize:
    def test_case_c_all_ones_column(self):
        T = [Word.from_text("110"), Word.from_text("101")]
        out = normalize_contains_zero(T, 2)
        assert Word.from_text("000") in out
        assert len(out) == 2
        assert len(bad_columns(out)) <= 2

    def test_case_a_already_contains_zero(self):
        T = (Word.from_text("000"),)
        assert normalize_contains_zero(T, 0) == T

    def test_add_zero_when_no_all_ones_column(self):
        T = [Word.from_text(t) for t in ("110", "011", "101")]
        out = normalize_contains_zero(T, 3)
        assert set(out) == set(T) | {Word.from_text("000")}
        assert len(out) == 4

    def test_single_edge_swaps_to_zero(self):
        # both columns of a lone edge string are all-ones, so the swap case
        # fires; growing to {"110","000"} would raise the bad-column count
        out = normalize_contains_zero([Word.from_text("110")], 2)
        assert out == (Word.from_text("000"),)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            normalize_contains_zero([Word.from_text("110"), Word.from_text("011")], 1)

    def test_contract_on_random_subsets(self):
        from strsel.rng import SplitMix64

        rng = SplitMix64(99)
        for trial in range(200):
            g = random_graph(6, 3 + rng.next_below(10), seed=trial)
            k = 1 + rng.next_below(6)
            inst, _ = reduce_dks_to_msfbc(g, k)
            words = list(inst.set.words)
            subset = [w for w in words if rng.next_bit()]
            if not subset or len(bad_columns(subset)) > k:
                continue
            out = normalize_contains_zero(subset, k)
            assert Word([0] * 6) in out
            assert len(out) >= len(set(subset))
            assert len(bad_columns(out)) <= len(bad_columns(subset))


class TestDecode:
    def test_full_triangle(self):
        S = [Word.from_text(t) for t in ("110", "101", "011", "000")]
        U = decode_msfbc_solution(S, K3, 3)
        assert U == (1, 2, 3)
        assert K3.induced_edge_count(U) >= len(S) - 1

    def test_zero_only(self):
        U = decode_msfbc_solution([Word.from_text("000")], K3, 2)
        assert U == (1, 2)

    def test_single_edge(self):
        U = decode_msfbc_solution([Word.from_text("110"), Word.from_text("000")], K3, 2)
        assert U == (1, 2)
        assert K3.induced_edge_count(U) >= 1

    def test_soundness_random(self):
        for seed in range(30):
            g = random_graph(6, 8, seed=seed)
            k = 1 + seed % 6
            inst, _ = reduce_dks_to_msfbc(g, k)
            res = solve_msfbc_subsets(inst)
            chosen = [inst.set.words[i] for i in res.indices]
            U = decode_msfbc_solution(chosen, g, k)
            assert len(U) == k
            assert g.induced_edge_count(U) >= len(chosen) - 1


class TestClaimOptval:
    def test_triangle_k3(self):
        report = verify_claim_optval(K3, 3)
        assert (report.alpha, report.beta, report.passed) == (3, 4, True)

    def test_triangle_k2(self):
        report = verify_claim_optval(K3, 2)
        assert (report.alpha, report.beta, report.passed) == (1, 2, True)

    def test_edgeless(self):
        report = verify_claim_optval(Graph(3, ()), 1)
        assert (report.alpha, report.beta, report.passed) == (0, 1, True)

    def test_random_graphs(self):
        for seed in range(20):
            g = random_graph(5, seed % 9, seed=seed)
            for k in range(1, 6):
                assert verify_claim_optval(g, k).passed, (seed, k)


class TestGraphValidation:
    def test_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_duplicate(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (1, 2)))

    def test_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 4),))


class TestMax2SatValidation:
    def test_tautology(self):
        with pytest.raises(ValueError, match="tautology"):
            Max2SatInstance(2, ((Literal(1, True), Literal(1, False)),))

    def test_variable_range(self):
        with pytest.raises(ValueError):
            Max2SatInstance(2, ((Literal(1, True), Literal(3, True)),))
