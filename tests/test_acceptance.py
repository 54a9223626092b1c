"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete).
"""

import itertools

import pytest

from strsel import (
    CksInstance,
    CmsInstance,
    FfmsInstance,
    MsfbcInstance,
    StringSet,
    Word,
    bad_columns,
    coverage,
    hamming,
)
from strsel.exact import (
    solve_cks_exact,
    solve_cms_exact,
    solve_dks_exact,
    solve_ffms_exact,
    solve_max2sat_exact,
    solve_msfbc_columns,
    solve_msfbc_subsets,
)
from strsel.experiments import (
    conditional_half_bound,
    inequality_checks,
    las_vegas_loop,
    lemma_fixing_campaign,
    per_pair_quarter_bound,
    structural_property_holds,
)
from strsel.fpt import decide_cks, make_inflating_oracle
from strsel.gen import random_graph, random_max2sat, random_string_set
from strsel.heuristics import SearchConfig, local_search_cms
from strsel.reductions import (
    encode_assignment,
    fixing_strings,
    normalize_contains_zero,
    reduce_dks_to_msfbc,
    reduce_max2sat_to_cms,
    verify_claim_optval,
)
from strsel.rng import SplitMix64, derive_seed

MASTER_SEED = 20240901


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _reduction_cases(count, n_lo, n_hi, seed_base):
    rng = SplitMix64(seed_base)
    cases = []
    for i in range(count):
        n = n_lo + rng.next_below(n_hi - n_lo + 1)
        m = n + rng.next_below(n + 1)  # m in [n, 2n]
        phi = random_max2sat(n, m, seed=derive_seed(seed_base, 2 * i))
        inst, cert = reduce_max2sat_to_cms(phi, c=20, seed=derive_seed(seed_base, 2 * i + 1))
        cases.append((phi, inst, cert))
    return cases


def test_criterion_01_02_coverage_and_fixing_distance():
    ok = True
    for phi, inst, cert in _reduction_cases(100, 2, 6, MASTER_SEED):
        n, m = phi.variable_count, phi.clause_count
        fixing = inst.set.words[: 20 * m]
        for x in itertools.product((False, True), repeat=n):
            s_hat = encode_assignment(x)
            if coverage(s_hat, inst) != 20 * m + phi.satisfied_count(x):
                ok = False
            if any(hamming(s_hat, f) != n for f in fixing):
                ok = False
    report(1, "coverage identity over all assignments", ok)
    report(2, "fixing-string distance law", ok)


def test_criterion_03_reduction_optimum_equality():
    ok = True
    checked = 0
    for phi, inst, cert in _reduction_cases(50, 2, 4, MASTER_SEED + 1):
        n, m = phi.variable_count, phi.clause_count
        fixing = StringSet.from_words(inst.set.words[: 20 * m])
        holds, _, _ = structural_property_holds(fixing, n, m)
        if not holds:
            continue
        checked += 1
        cms_value = solve_cms_exact(inst).value
        _, sat_opt = solve_max2sat_exact(phi)
        if cms_value - 20 * m != sat_opt:
            ok = False
    ok = ok and checked > 0
    report(3, f"reduction optimum equality ({checked}/50 trials had the property)", ok)


def test_criterion_04_per_pair_bounds():
    ok = all(per_pair_quarter_bound(n) >= 0.25 for n in range(1, 7)) and all(
        conditional_half_bound(n) >= 0.5 for n in range(1, 7)
    )
    report(4, "per-pair 1/4 and conditional 1/2 bounds, n <= 6", ok)


def test_criterion_05_lemma_statistical_bound():
    ok = True
    for (n, m) in ((4, 4), (6, 6)):
        rep = lemma_fixing_campaign(n, m, 20, trials=200, seed=MASTER_SEED + n)
        if not rep.within_bound:
            ok = False
    report(5, "structural-lemma failure fraction within 0.9^n + slack", ok)


def test_criterion_06_arithmetic_claims():
    rep = inequality_checks(20, 10_000)
    report(6, "approximation-gap and union-bound arithmetic", rep.passed)


def test_criterion_07_beta_equals_alpha_plus_one():
    ok = True
    rng = SplitMix64(MASTER_SEED + 7)
    for i in range(100):
        v = 2 + rng.next_below(7)  # |V| in [2, 8]
        max_edges = v * (v - 1) // 2
        g = random_graph(v, rng.next_below(max_edges + 1), seed=derive_seed(MASTER_SEED + 7, i))
        for k in range(1, v + 1):
            if not verify_claim_optval(g, k).passed:
                ok = False
    report(7, "reduced-instance optimum is alpha + 1", ok)


def test_criterion_08_normalization_contract():
    ok = True
    rng = SplitMix64(MASTER_SEED + 8)
    done = 0
    while done < 1000:
        v = 3 + rng.next_below(5)
        max_edges = v * (v - 1) // 2
        g = random_graph(v, 1 + rng.next_below(max_edges), seed=rng.next_u64())
        k = 1 + rng.next_below(v)
        inst, _ = reduce_dks_to_msfbc(g, k)
        subset = [w for w in inst.set.words if rng.next_bit()]
        if not subset or len(bad_columns(subset)) > k:
            continue
        done += 1
        out = normalize_contains_zero(subset, k)
        zero = Word([0] * v)
        if zero not in out or len(out) < len(set(subset)):
            ok = False
        if len(bad_columns(out)) > len(bad_columns(subset)):
            ok = False
    report(8, "zero-normalization contract on 1000 feasible subsets", ok)


def test_criterion_09_msfbc_oracle_agreement():
    ok = True
    rng = SplitMix64(MASTER_SEED + 9)
    for i in range(500):
        n = 2 + rng.next_below(11)  # n in [2, 12]
        ell = 2 + rng.next_below(9)  # l in [2, 10]
        s = random_string_set(2, ell, n, seed=derive_seed(MASTER_SEED + 9, i))
        for k in range(ell + 1):
            inst = MsfbcInstance(s, k)
            if len(solve_msfbc_subsets(inst).indices) != len(solve_msfbc_columns(inst).indices):
                ok = False
    report(9, "two exact MSFBC algorithms agree on 500 instances", ok)


def test_criterion_10_complement_duality():
    ok = True
    rng = SplitMix64(MASTER_SEED + 10)
    for i in range(200):
        n = 2 + rng.next_below(7)  # n in [2, 8]
        ell = 2 + rng.next_below(9)  # l in [2, 10]
        s = random_string_set(2, ell, n, seed=derive_seed(MASTER_SEED + 10, i))
        for d in range(ell + 1):
            cms = solve_cms_exact(CmsInstance(s, d)).value
            ffms = solve_ffms_exact(FfmsInstance(s, ell - d)).value
            if cms != ffms:
                ok = False
    report(10, "CMS(S,d) optimum equals FFMS(S,l-d) optimum", ok)


def test_criterion_11_decision_wrapper():
    ok = True
    rng = SplitMix64(MASTER_SEED + 11)
    for i in range(100):
        sigma = 2 + rng.next_below(2)  # sigma in {2, 3}
        ell = 2 + rng.next_below(5)  # l in [2, 6]
        n = 2 + rng.next_below(5)  # n in [2, 6]
        s = random_string_set(sigma, ell, n, seed=derive_seed(MASTER_SEED + 11, i))
        k = 1 + rng.next_below(n)
        inst = CksInstance(s, k)
        d_opt = solve_cks_exact(inst).value
        for d in range(ell + 1):
            for oracle_seed in range(10):
                if decide_cks(inst, d, make_inflating_oracle(oracle_seed)) != (d_opt <= d):
                    ok = False
    report(11, "FPT decision agrees with brute force under inflating oracles", ok)


def test_criterion_12_heuristic_sandwich():
    ok = True
    rng = SplitMix64(MASTER_SEED + 12)
    for i in range(100):
        ell = 3 + rng.next_below(6)  # l in [3, 8]
        n = 2 + rng.next_below(5)
        s = random_string_set(2, ell, n, seed=derive_seed(MASTER_SEED + 12, i))
        d = rng.next_below(ell + 1)
        inst = CmsInstance(s, d)
        baseline = max(coverage(w, inst) for w in s)
        heur = local_search_cms(inst, SearchConfig(seed=i, restarts=min(4, n), start="inputs"))
        optimum = solve_cms_exact(inst).value
        if not baseline <= heur.value <= optimum:
            ok = False
    report(12, "heuristic value within [input baseline, exact optimum]", ok)


def test_criterion_13_las_vegas_loop():
    ok = True
    trial_counts = []
    for i in range(50):
        phi = random_max2sat(4, 4, seed=derive_seed(MASTER_SEED + 13, i))
        seed = derive_seed(MASTER_SEED + 14, i)
        assignment, trials = las_vegas_loop(phi, c=20, seed=seed, trial_limit=1000)
        trial_counts.append(trials)
        # replay the final trial's fixing strings and re-check the property
        final_f = fixing_strings(20 * 4, 4, derive_seed(seed, trials - 1))
        holds, _, _ = structural_property_holds(final_f, 4, 4)
        if holds:
            _, optimum = solve_max2sat_exact(phi)
            if phi.satisfied_count(assignment) != optimum:
                ok = False
    mean_trials = sum(trial_counts) / len(trial_counts)
    report(13, f"Las-Vegas loop (mean trials {mean_trials:.2f})", ok)
