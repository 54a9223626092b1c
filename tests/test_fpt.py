"""Decision wrapper for Closest to k Strings with pluggable oracles."""

import pytest

import reference_solvers as ref
from strsel import CksInstance, StringSet, exact, fpt
from strsel.cli import PROBLEMS
from strsel.exact import CenterResult, solve_cks_exact
from strsel.fpt import (
    OracleContractError,
    decide_cks,
    epsilon_for,
    exact_oracle,
    make_inflating_oracle,
    synthetic_inflating_oracle,
)
from strsel.gen import random_string_set
from strsel.rng import SplitMix64
from strsel.words import Alphabet, Word


def test_epsilon_below_integrality_threshold():
    for d in range(1, 200):
        eps = epsilon_for(d)
        assert (1 + eps) * d < d + 1
        assert eps < 1 / d


def test_decide_with_exact_oracle():
    inst = CksInstance(StringSet.from_texts(["000", "011", "111"]), k=2)
    assert solve_cks_exact(inst).value == 1
    assert decide_cks(inst, 1, exact_oracle) is True
    assert decide_cks(inst, 0, exact_oracle) is False


def test_duplicates_decide_zero():
    inst = CksInstance(StringSet.from_texts(["00", "00"]), k=2)
    assert decide_cks(inst, 0, exact_oracle) is True


def test_inflating_oracle_zero_eps_is_exact():
    inst = CksInstance(random_string_set(2, 5, 4, seed=1), k=3)
    assert synthetic_inflating_oracle(inst, 0.0, seed=9).value == solve_cks_exact(inst).value


def test_inflating_oracle_radius_window():
    inst = CksInstance(random_string_set(2, 6, 5, seed=2), k=4)
    d_opt = solve_cks_exact(inst).value
    for seed in range(30):
        res = synthetic_inflating_oracle(inst, 0.5, seed=seed)
        assert d_opt <= res.value <= int(1.5 * d_opt)


def test_inflating_oracle_feasible():
    from strsel import hamming

    inst = CksInstance(random_string_set(3, 4, 5, seed=3), k=3)
    res = synthetic_inflating_oracle(inst, 0.4, seed=7)
    assert len(res.chosen_subset) == 3
    assert max(hamming(res.center, inst.set.words[i]) for i in res.chosen_subset) == res.value


def test_inflating_oracle_falls_back_to_d_opt_when_no_center_has_the_drawn_radius():
    # for k = 2 every center of {000, 111} has radius 2 or 3, and eps = 3 draws
    # targets from 2 to 8
    inst = CksInstance(StringSet.from_texts(["000", "111"]), k=2)
    fallbacks = 0
    for seed in range(20):
        target = 2 + SplitMix64(seed).next_below(7)
        res = synthetic_inflating_oracle(inst, 3.0, seed)
        assert res == ref.synthetic_inflating_oracle(inst, 3.0, seed)
        assert res.value == (target if target <= 3 else 2)
        fallbacks += target > 3
    assert 0 < fallbacks < 20


def record_scored_blocks(monkeypatch):
    """Wrap ``exact._center_blocks`` so that every ``ids`` reaching its block
    scorer is appended to the returned list."""
    calls, source = [], exact._center_blocks

    def recording_source(sset):
        blocks, score = source(sset)

        def recording(ids):
            calls.append(ids)
            return score(ids)

        return blocks, recording

    monkeypatch.setattr(exact, "_center_blocks", recording_source)
    return calls


@pytest.mark.parametrize("elements", [1, 64, 2048, 1 << 20])
def test_inflating_oracle_scores_again_only_the_block_of_the_drawn_center(monkeypatch, elements):
    inst = CksInstance(random_string_set(2, 9, 6, seed=4), k=3)
    # one center per block (no tail), 2^3 tails per head, 2^8 tails per head, both heads at once
    size = {1: 1, 64: 8, 2048: 256, 1 << 20: 512}[elements]
    monkeypatch.setattr(exact, "_BLOCK_ELEMENTS", elements)
    calls = record_scored_blocks(monkeypatch)
    # consecutive index ranges from the first center on
    first, *others = [range(lo, lo + size) for lo in range(0, 512, size)]
    later = 0
    for seed in range(40):
        calls.clear()
        res = synthetic_inflating_oracle(inst, 0.5, seed)
        assert res == ref.synthetic_inflating_oracle(inst, 0.5, seed)
        # the first block is scored once and kept, with its hits; every pass
        # scores the others, and then the drawn center's block is scored again
        if not others:
            assert calls == [first]
            continue
        assert calls[0] == first
        drawn = res.center.bits  # a binary word's lexicographic index
        passes = calls[1:] if drawn in first else calls[1:-1]
        assert passes[: 2 * len(others)] == others * 2
        # whole passes only: d_opt, the drawn radius and at most one fallback to d_opt
        assert passes == others * (len(passes) // len(others)) and len(passes) // len(others) in (2, 3)
        if drawn not in first:
            assert calls[-1] in others and drawn in calls[-1]
            later += 1
    assert later > 0 or not others


def test_decision_agrees_with_bruteforce():
    for seed in range(20):
        sigma = 2 + seed % 2
        inst = CksInstance(random_string_set(sigma, 5, 5, seed=seed), k=1 + seed % 5)
        d_opt = solve_cks_exact(inst).value
        for d in range(6):
            for oracle_seed in range(5):
                got = decide_cks(inst, d, make_inflating_oracle(oracle_seed))
                assert got == (d_opt <= d), (seed, d, oracle_seed)


def test_contract_violation_detected():
    inst = CksInstance(StringSet.from_texts(["000", "011", "111"]), k=2)

    def lying_oracle(inst, eps):
        res = solve_cks_exact(inst)
        return type(res)(center=res.center, value=res.value + 1, chosen_subset=res.chosen_subset)

    with pytest.raises(OracleContractError):
        decide_cks(inst, 1, lying_oracle)


# (texts, k, subset): a repeated index, one past the last word, one before the first
BAD_SUBSETS = [
    (["000", "111"], 2, (0, 0)),
    (["000", "111", "010"], 3, (0, 1, 9)),
    (["000", "111", "010"], 3, (-1, 0, 1)),
]


@pytest.mark.parametrize("texts, k, subset", BAD_SUBSETS)
def test_contract_requires_k_distinct_indices_in_range(texts, k, subset):
    inst = CksInstance(StringSet.from_texts(texts), k=k)
    res = CenterResult(center=inst.set.words[0], value=0, chosen_subset=subset)
    with pytest.raises(OracleContractError, match="not k distinct indices"):
        decide_cks(inst, 1, lambda inst, eps: res)
    # the solve cks recheck rejects the same subsets instead of indexing with them
    recheck = PROBLEMS["cks"][2]
    assert recheck(inst, res) is False
    assert recheck(inst, solve_cks_exact(inst)) is True


# a center one symbol short, and one of the right length over another alphabet
WRONG_CENTERS = [(Word.from_text("00"), "2 symbols over 2, not 3 over 2"),
                 (Word.from_text("000", Alphabet(3)), "3 symbols over 3, not 3 over 2")]


@pytest.mark.parametrize("center, shape", WRONG_CENTERS)
def test_contract_requires_a_center_of_the_words_length_and_alphabet(center, shape):
    inst = CksInstance(StringSet.from_texts(["000", "011", "111"]), k=2)
    res = CenterResult(center=center, value=1, chosen_subset=(0, 1))
    with pytest.raises(OracleContractError, match=f"oracle returned a center of {shape}"):
        decide_cks(inst, 1, lambda inst, eps: res)


def test_repeated_index_no_longer_fakes_a_small_radius():
    # center 000 with subset (0, 0) has radius 0, but covering both words takes 2
    inst = CksInstance(StringSet.from_texts(["000", "111"]), k=2)
    assert solve_cks_exact(inst).value == 2
    cheat = CenterResult(center=inst.set.words[0], value=0, chosen_subset=(0, 0))
    with pytest.raises(OracleContractError):
        decide_cks(inst, 1, lambda inst, eps: cheat)
    assert decide_cks(inst, 1, exact_oracle) is False


def test_negative_d_rejected():
    inst = CksInstance(StringSet.from_texts(["00"]), k=1)
    with pytest.raises(ValueError):
        decide_cks(inst, -1, exact_oracle)
