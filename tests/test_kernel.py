"""The packed distance kernel and the center solvers built on it, checked
against the pure-Python reference solvers in ``reference_solvers``."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from strsel import exact
from strsel.cli import main
from strsel.exact import center_block, distances, packed, solve_cks_exact, solve_cms_exact, solve_ffms_exact
from strsel.fpt import epsilon_for, synthetic_inflating_oracle
from strsel.formats import serialize_strings_instance
from strsel.gen import random_string_set
from strsel.words import Alphabet, CksInstance, CmsInstance, FfmsInstance, StringSet, Word, hamming

# longest words per alphabet that keep the reference solvers fast
MAX_LENGTH = {2: 8, 3: 5, 4: 4}
# element budgets per kernel call: one word per block up to everything at once
BLOCK_ELEMENTS = [1, 7, 64, 1 << 20]


@st.composite
def string_sets(draw):
    sigma = draw(st.sampled_from(sorted(MAX_LENGTH)))
    length = draw(st.integers(1, MAX_LENGTH[sigma]))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, sigma - 1), min_size=length, max_size=length), min_size=1, max_size=12
        )
    )
    return StringSet([Word(r, Alphabet(sigma)) for r in rows])


@settings(max_examples=150, deadline=None)
@given(string_sets(), st.sampled_from(BLOCK_ELEMENTS), st.data())
def test_center_solvers_match_reference(sset, block, data):
    d = data.draw(st.integers(0, sset.length), label="d")
    k = data.draw(st.integers(1, sset.size), label="k")
    with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
        assert solve_cms_exact(CmsInstance(sset, d)) == ref.solve_cms_exact(CmsInstance(sset, d))
        assert solve_ffms_exact(FfmsInstance(sset, d)) == ref.solve_ffms_exact(FfmsInstance(sset, d))
        assert solve_cks_exact(CksInstance(sset, k)) == ref.solve_cks_exact(CksInstance(sset, k))


@settings(max_examples=100, deadline=None)
@given(
    string_sets(),
    st.sampled_from(BLOCK_ELEMENTS),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
    st.data(),
)
def test_inflating_oracle_matches_reference(sset, block, seeds, eps, data):
    inst = CksInstance(sset, data.draw(st.integers(1, sset.size), label="k"))
    with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
        for seed in seeds:
            assert synthetic_inflating_oracle(inst, eps, seed) == ref.synthetic_inflating_oracle(inst, eps, seed)


@settings(max_examples=60, deadline=None)
@given(string_sets())
def test_kernel_matches_hamming_in_lexicographic_order(sset):
    centers = list(ref.enumerate_words(sset.alphabet, sset.length))
    block = center_block(sset.alphabet, sset.length, 0, len(centers))
    expected = [[hamming(c, w) for w in sset] for c in centers]
    assert distances(block, packed(sset)).tolist() == expected
    assert [Word.from_index(i, sset.length, sset.alphabet) for i in range(len(centers))] == centers


def test_binary_kernel_on_24_bit_centers():
    sset = random_string_set(2, 24, 5, seed=3)
    lo = (1 << 24) - 3
    block = center_block(sset.alphabet, sset.length, lo, 1 << 24)
    expected = [[hamming(Word.from_index(i, 24), w) for w in sset] for i in range(lo, 1 << 24)]
    assert np.array_equal(distances(block, packed(sset)), expected)


def _expected_center_output(problem, res) -> str:
    lines = [f"problem={problem}", "algorithm=exact", f"value={res.value}", f"center={res.center}"]
    if res.chosen_subset is not None:
        lines.append("subset=" + " ".join(str(i + 1) for i in res.chosen_subset))
    return "\n".join(lines) + "\n"


def test_cli_output_matches_reference_solvers(capsys, tmp_path):
    for seed, (sigma, length, n) in enumerate([(2, 7, 12), (3, 4, 9), (4, 3, 10), (2, 5, 30)]):
        sset = random_string_set(sigma, length, n, seed=seed)
        cases = [
            ("cms", CmsInstance(sset, length // 3), ref.solve_cms_exact),
            ("ffms", FfmsInstance(sset, length - length // 3), ref.solve_ffms_exact),
            ("cks", CksInstance(sset, n // 2), ref.solve_cks_exact),
        ]
        for problem, inst, solve in cases:
            path = tmp_path / f"{problem}-{seed}.txt"
            path.write_text(serialize_strings_instance(inst))
            assert main(["solve", problem, "-f", str(path), "--algo", "exact"]) == 0
            assert capsys.readouterr().out == _expected_center_output(problem, solve(inst))
        inst = cases[2][1]
        for d in (1, 2, 3):
            for oracle_seed in (0, 7, 2**63 + 5):
                radius = ref.synthetic_inflating_oracle(inst, epsilon_for(d), oracle_seed).value
                argv = ["decide-cks", "-f", str(tmp_path / f"cks-{seed}.txt"), "--d", str(d)]
                assert main(argv + ["--oracle", f"inflate:{oracle_seed}"]) == 0
                answer = "yes" if radius <= d else "no"
                assert capsys.readouterr().out == f"problem=cks-decision\nd={d}\nanswer={answer}\n"
