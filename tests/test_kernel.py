"""The packed distance kernel, the center solvers and the hill climbing built
on it, the two MSFBC solvers, the block-scored DkS solver and the
split-and-list Max-2-SAT solver, checked against the reference solvers in
``reference_solvers``."""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from strsel import exact
from strsel.cli import main
from strsel.exact import (
    BudgetExceededError,
    SubsetResult,
    center_block,
    distances,
    field_bits,
    packed,
    solve_cks_exact,
    solve_cms_exact,
    solve_dks_exact,
    solve_ffms_exact,
    solve_max2sat_exact,
    solve_msfbc_columns,
    solve_msfbc_subsets,
    symbol_matrix,
)
from strsel.fpt import epsilon_for, synthetic_inflating_oracle
from strsel.formats import serialize_strings_instance
from strsel.gen import random_graph, random_max2sat, random_string_set
from strsel.heuristics import SearchConfig, local_search_cms, local_search_ffms
from strsel.reductions import (
    ClaimReport,
    Graph,
    Literal,
    Max2SatInstance,
    reduce_dks_to_msfbc,
    reduce_max2sat_to_cms,
    verify_claim_optval,
)
from strsel.words import Alphabet, CksInstance, CmsInstance, FfmsInstance, MsfbcInstance, StringSet, Word, hamming

# longest words per alphabet that keep the reference solvers fast
MAX_LENGTH = {2: 8, 3: 5, 4: 4}
# the same for the kernel against hamming over all centers, with fields of
# 1, 2, 3 and 6 bits, the last three not filled by the symbols
KERNEL_LENGTH = {2: 8, 3: 5, 4: 4, 5: 4, 36: 2}
# element budgets per kernel call: one word per block up to everything at once
BLOCK_ELEMENTS = [1, 7, 64, 1 << 20]


@st.composite
def string_sets(draw, max_length=MAX_LENGTH):
    sigma = draw(st.sampled_from(sorted(max_length)))
    length = draw(st.integers(1, max_length[sigma]))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, sigma - 1), min_size=length, max_size=length), min_size=1, max_size=12
        )
    )
    return StringSet.from_words([Word(r, Alphabet(sigma)) for r in rows])


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


def _solve_cks_counting_passes(inst):
    """``solve_cks_exact(inst)``, the index blocks that reach its block
    scorer, and the number of coverage passes it makes on each of them."""
    blocks, passes = [], []
    source, counts = exact._center_blocks, exact.coverage_counts

    def recording_source(sset):
        ranges, score = source(sset)

        def recording(ids):
            blocks.append(ids)
            passes.append(0)
            return score(ids)

        return ranges, recording

    def counting(dist, d):
        passes[-1] += 1
        return counts(dist, d)

    with mock.patch.object(exact, "_center_blocks", recording_source), mock.patch.object(
        exact, "coverage_counts", counting
    ):
        result = solve_cks_exact(inst)
    assert len(blocks) == len(passes)
    return result, blocks, passes


@pytest.mark.parametrize("sigma, length, n", [(2, 14, 40), (3, 9, 30)])
@pytest.mark.parametrize("block", [1 << 13, 1 << 16])
def test_cks_and_oracle_match_the_sort_scorer_at_mid_size(sigma, length, n, block):
    sset = random_string_set(sigma, length, n, seed=length)
    total = sigma**length
    # three copies of a center two thirds of the way in: for k <= 3 its radius
    # of 0 is the optimum, in a later block than the first
    late = Word.from_index(2 * total // 3, length, sset.alphabet)
    repeated = StringSet.from_words(list(sset.words) + [late] * 3)
    cases = [CksInstance(sset, k) for k in (1, n // 4, n // 2, n)] + [CksInstance(repeated, k) for k in (2, 3)]
    with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
        for inst in cases:
            expected = ref.solve_cks_by_sort(inst)
            result, blocks, passes = _solve_cks_counting_passes(inst)
            assert result == expected
            # consecutive index blocks from the first center on, of more than one in all
            assert len(list(exact._center_blocks(inst.set)[0])) > 1
            assert [i for ids in blocks for i in ids] == list(range(blocks[-1][-1] + 1))
            if inst.set is repeated:
                assert result.center == late and result.value == 0
                # the search stopped at radius 0, before the last block
                assert blocks[-1][-1] < inst.set.alphabet.size ** inst.set.length - 1
            if expected.value > 0:
                # some blocks were skipped after the one pass at the incumbent
                # radius minus one, and some were scored
                assert 1 in passes and max(passes) > 1
            for eps, seed in ((0.0, 1), (0.5, 2), (3.0, 2**64 - 1)):
                assert synthetic_inflating_oracle(inst, eps, seed) == ref.inflating_oracle_by_sort(inst, eps, seed)


@st.composite
def repeated_string_sets(draw):
    """String sets whose rows repeat, so that restarts started from input
    words tie on value."""
    sset = draw(string_sets())
    picks = draw(st.lists(st.integers(0, sset.size - 1), min_size=2, max_size=12))
    return StringSet.from_words([sset.words[i] for i in picks])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(string_sets(), repeated_string_sets()),
    st.sampled_from(["inputs", "random", "canonical"]),
    st.sampled_from([1, 2, 10_000]),
    st.integers(1, 20),
    st.integers(0, 2**64 - 1),
    st.sampled_from(BLOCK_ELEMENTS),
)
def test_local_search_matches_reference(sset, start, max_iterations, restarts, seed, block):
    cfg = SearchConfig(seed=seed, restarts=restarts, max_iterations=max_iterations, start=start)
    if start == "canonical" and not (sset.alphabet.is_binary and sset.length % 2 == 0):
        with pytest.raises(ValueError, match="canonical"):
            local_search_cms(CmsInstance(sset, 0), cfg)
        return
    # a block cap of 1, 7 or 64 elements splits the restarts across blocks
    with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
        for d in range(sset.length + 1):
            cms, ffms = CmsInstance(sset, d), FfmsInstance(sset, d)
            assert local_search_cms(cms, cfg) == ref.local_search_cms(cms, cfg)
            assert local_search_ffms(ffms, cfg) == ref.local_search_ffms(ffms, cfg)


@settings(max_examples=60, deadline=None)
@given(string_sets(KERNEL_LENGTH))
def test_kernel_matches_hamming_in_lexicographic_order(sset):
    centers = list(ref.enumerate_words(sset.alphabet, sset.length))
    block = center_block(sset.alphabet, sset.length, range(len(centers)))
    expected = [[hamming(c, w) for w in sset] for c in centers]
    assert distances(block, packed(sset), field_bits(sset.alphabet)).tolist() == expected
    assert [Word.from_index(i, sset.length, sset.alphabet) for i in range(len(centers))] == centers


# field widths of 1 to 6 bits, filled by the symbols and not
TAIL_SIGMAS = [2, 3, 4, 5, 8, 9, 16, 17, 36]


def _tail_columns(sigma: int, n: int, elements: int) -> int:
    """The tail the block scorer takes for words longer than it: the most
    columns that fit one byte, fewer while the table of sigma^t tails by n
    words passes ``elements``, down to none."""
    per_byte = 8 // field_bits(Alphabet(sigma))
    return max([0] + [t for t in range(1, per_byte + 1) if sigma**t * n <= elements])


@pytest.mark.parametrize("sigma", TAIL_SIGMAS)
def test_block_scorer_matches_hamming_across_the_head_and_tail_split(sigma):
    expected = {}
    for elements in (1, 64, exact._BLOCK_ELEMENTS):
        # under 64 elements, 3 words shrink the tail and 65 leave none
        for n in (1, 3, 65):
            t = _tail_columns(sigma, n, elements)
            # with no tail, every head is a whole word
            for length in range(max(1, t - 1), max(2 * t + 1, 2) + 1):
                if sigma**length * n > 36**3:
                    break  # sigma = 36 reaches 2t + 1 = 3 columns; the per-word reference stays fast
                sset = random_string_set(sigma, length, n, seed=length)
                if (length, n) not in expected:
                    expected[length, n] = ref.center_distances(sset)
                with mock.patch.object(exact, "_BLOCK_ELEMENTS", elements):
                    blocks, score = exact._center_blocks(sset)
                    blocks = list(blocks)
                    dist = np.concatenate([score(ids) for ids in blocks])
                assert [i for ids in blocks for i in ids] == list(range(sigma**length))
                assert np.array_equal(dist, expected[length, n]), (elements, n, length)


def _packed_symbols(word: Word) -> int:
    bits = field_bits(word.alphabet)
    return sum(c << bits * (len(word) - 1 - j) for j, c in enumerate(word.symbols))


@pytest.mark.parametrize(
    "sigma, length", [(2, 1), (2, 8), (2, 9), (2, 33), (2, 64), (3, 7), (36, 5), (3, 32), (5, 21), (36, 10)]
)
def test_views_of_the_row_buffer_match_the_words(sigma, length):
    sset = random_string_set(sigma, length, 6, seed=length)
    matrix = symbol_matrix(sset)
    assert not matrix.flags.writeable
    assert matrix.tolist() == [list(w.symbols) for w in sset]
    assert packed(sset).tolist() == [_packed_symbols(w) for w in sset]
    if sigma == 2:
        assert packed(sset).tolist() == [w.bits for w in sset]


@pytest.mark.parametrize("sigma, length", [(2, 65), (3, 33), (5, 22), (36, 11)])
def test_packed_refuses_words_past_64_bits(sigma, length):
    with pytest.raises(ValueError, match="above the 64 of one packed word"):
        packed(random_string_set(sigma, length, 2, seed=1))


def test_every_alphabet_packs_its_budget_lengths_into_64_bits():
    # sigma^l <= 2^24 gives l*b <= 48, so a center enumeration never meets the refusal
    for sigma in range(2, 37):
        length = max(l for l in range(1, 25) if sigma**l <= exact.DEFAULT_ENUM_BUDGET)
        assert length * field_bits(Alphabet(sigma)) <= 48


@pytest.mark.parametrize("sigma, length", [(2, 24), (3, 15), (4, 12), (5, 10), (36, 4)])
def test_kernel_at_the_budget_matches_from_index(sigma, length):
    # the longest words whose sigma^l centers the enumeration budget admits
    total = sigma**length
    assert total <= exact.DEFAULT_ENUM_BUDGET < total * sigma
    sset = random_string_set(sigma, length, 5, seed=3)
    for lo in (0, total // 3, total - 3):
        block = center_block(sset.alphabet, length, range(lo, lo + 3))
        words = [Word.from_index(i, length, sset.alphabet) for i in range(lo, lo + 3)]
        assert block.tolist() == [_packed_symbols(w) for w in words]
        expected = [[hamming(c, w) for w in sset] for c in words]
        assert np.array_equal(distances(block, packed(sset), field_bits(sset.alphabet)), expected)
    assert words[-1] == Word([sigma - 1] * length, sset.alphabet)


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


def test_cli_local_search_output_matches_reference(capsys, tmp_path):
    reduced, _ = reduce_max2sat_to_cms(random_max2sat(4, 5, seed=2), c=3, seed=2)
    cases = [
        ("cms", reduced, ["inputs", "random", "canonical"]),
        ("cms", CmsInstance(random_string_set(3, 5, 12, seed=1), 2), ["inputs", "random"]),
        ("ffms", FfmsInstance(random_string_set(2, 8, 20, seed=3), 5), ["inputs", "random", "canonical"]),
        ("ffms", FfmsInstance(random_string_set(4, 4, 15, seed=4), 3), ["inputs", "random"]),
    ]
    for i, (problem, inst, starts) in enumerate(cases):
        solve = ref.local_search_cms if problem == "cms" else ref.local_search_ffms
        path = tmp_path / f"{problem}-{i}.txt"
        path.write_text(serialize_strings_instance(inst))
        for start in starts:
            seed = 17 + i
            argv = ["solve", problem, "-f", str(path), "--algo", "local", "--recheck", "--seed", str(seed)]
            assert main(argv + ["--restarts", "5", "--start", start]) == 0
            res = solve(inst, SearchConfig(seed=seed, restarts=5, start=start))
            expected = [f"problem={problem}", "algorithm=local", f"seed={seed}", f"value={res.value}",
                        f"center={res.center}", "recheck=ok"]
            assert capsys.readouterr().out == "\n".join(expected) + "\n"


@st.composite
def msfbc_sets(draw, cells=80, sigmas=(2, 3, 4)):
    """Up to 10 words, some of them repeated, that differ from one base word
    in a few columns; sigma * l reaches up to ``cells``, by default past one
    64-bit limb, and l reaches at least 3."""
    sigma = draw(st.sampled_from(sigmas))
    length = draw(st.integers(1, max(cells // sigma, 3)))
    base = draw(st.lists(st.integers(0, sigma - 1), min_size=length, max_size=length))
    edits = st.dictionaries(st.integers(0, length - 1), st.integers(0, sigma - 1), max_size=length)
    variants = draw(st.lists(edits, min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(variants) - 1), min_size=1, max_size=10))
    rows = [[variants[p].get(j, base[j]) for j in range(length)] for p in picks]
    return StringSet.from_words([Word(r, Alphabet(sigma)) for r in rows])


@settings(max_examples=150, deadline=None)
@given(msfbc_sets())
def test_msfbc_subset_table_matches_reference(sset):
    for k in range(sset.length + 1):
        inst = MsfbcInstance(sset, k)
        assert solve_msfbc_subsets(inst) == ref.solve_msfbc_subsets(inst)
    budget = 2**sset.size - 1
    # the budget is checked before anything is built
    with (
        pytest.raises(BudgetExceededError) as fast,
        mock.patch.object(exact, "symbol_matrix", None),
        mock.patch.object(exact, "DEFAULT_SUBSET_BUDGET", budget),
    ):
        solve_msfbc_subsets(inst)
    with pytest.raises(BudgetExceededError) as slow:
        ref.solve_msfbc_subsets(inst, subset_budget=budget)
    assert str(fast.value) == str(slow.value)


@settings(max_examples=150, deadline=None)
@given(msfbc_sets(cells=24, sigmas=(2, 3, 4, 36)), st.sampled_from(BLOCK_ELEMENTS))
def test_msfbc_columns_solver_matches_reference(sset, block):
    # k = 0 keeps every column; k = l keeps none, so every word falls into one group
    for k in range(sset.length + 1):
        inst = MsfbcInstance(sset, k)
        with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
            res = solve_msfbc_columns(inst)
        assert res == ref.solve_msfbc_columns(inst) == solve_msfbc_subsets(inst)


def assert_msfbc_columns_match(sset, ks):
    """The columns solver, at every block size, against the reference and the
    subset table, for each k of ``ks``."""
    for k in ks:
        inst = MsfbcInstance(sset, k)
        expected = ref.solve_msfbc_columns(inst)
        assert solve_msfbc_subsets(inst) == expected, k
        for block in BLOCK_ELEMENTS:
            with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
                assert solve_msfbc_columns(inst) == expected, (k, block)


@pytest.mark.parametrize(
    "sigma, length", [(2, 61), (2, 64), (36, 10), (2, 65), (2, 72), (2, 80), (36, 11), (36, 12), (36, 14)]
)
def test_msfbc_columns_solver_on_full_and_wide_words(sigma, length):
    # 60 to 64 bits per word leave too few zero bits for the 4-bit index of
    # nine words; 65 to 84 bits take two limbs. Nine picks of five variants of
    # one base word: the base, the base with its last column (in the last
    # limb) changed, the base with column 0 changed, and two with up to three
    # random columns changed; groups of one size then tie across column sets.
    rng = np.random.default_rng(length)
    variants = np.tile(rng.integers(0, sigma, length), (5, 1))
    variants[1, -1] = (variants[1, -1] + 1) % sigma
    variants[2, 0] = (variants[2, 0] + 1) % sigma
    for v in (3, 4):
        columns = rng.choice(length, size=rng.integers(1, 4), replace=False)
        variants[v, columns] = rng.integers(0, sigma, len(columns))
    rows = variants[[0, 1, 3, 0, 2, 1, 4, 0, 2]]
    sset = StringSet.from_words([Word(r.tolist(), Alphabet(sigma)) for r in rows])
    assert_msfbc_columns_match(sset, (0, 1, 2, length - 1, length))


@pytest.mark.parametrize("sigma, length", [(2, 1), (2, 64), (2, 65), (36, 10), (36, 11)])
def test_msfbc_columns_solver_on_one_word(sigma, length):
    sset = StringSet.from_words([Word([sigma - 1] * length, Alphabet(sigma))])
    assert_msfbc_columns_match(sset, sorted({0, 1, length}))
    assert solve_msfbc_columns(MsfbcInstance(sset, 1)) == SubsetResult((0,), 0)


def test_msfbc_columns_tie_goes_to_the_first_index_list_over_all_column_sets():
    # k = 1. J = {0} groups words (0, 2) and (1, 3), J = {1} none, and J = {2}
    # groups (0, 1) and (2, 3): the first index list comes from the last J, in
    # a later block than (0, 2) whenever a block holds one or two column sets
    sset = StringSet.from_texts(["000", "001", "100", "101"])
    assert_msfbc_columns_match(sset, (1,))
    assert solve_msfbc_columns(MsfbcInstance(sset, 1)) == SubsetResult((0, 1), 1)


def test_msfbc_columns_memory_does_not_grow_with_the_square_of_the_width():
    # two words of 8,192 columns, one limb row each of 1 KiB: a table of every
    # column's field, one limb row per column, would hold 8 MiB
    inst = MsfbcInstance(random_string_set(2, 8192, 2, seed=1), 1)
    tracemalloc.start()
    try:
        res = solve_msfbc_columns(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == SubsetResult((0,), 0)
    assert peak < 3 << 20


def test_claim_optval_past_the_subset_table():
    # 61 strings: 2^61 subsets are past the table's budget, so the check runs
    # the columns solver over all C(40, 5) = 658,008 column sets
    with mock.patch.object(exact, "solve_msfbc_subsets", None):
        report = verify_claim_optval(random_graph(40, 60, seed=1), 5)
    assert report == ClaimReport(alpha=7, beta=8, passed=True)


def test_msfbc_subset_table_at_full_budget():
    # 2^20 subsets: 14 copies of the zero word and 6 words with 3 private ones
    # each, so k = 7 admits two of those 6 at most
    deviant = {3: 0, 5: 1, 8: 2, 11: 3, 15: 4, 19: 5}
    rows = [[int(i in deviant and j // 3 == deviant[i]) for j in range(30)] for i in range(20)]
    inst = MsfbcInstance(StringSet.from_words([Word(r) for r in rows]), 7)
    res = solve_msfbc_subsets(inst)
    assert res == ref.solve_msfbc_subsets(inst)
    assert res.indices == tuple(i for i in range(20) if i not in (8, 11, 15, 19)) and res.bad_column_count == 6


def test_cli_msfbc_output_matches_reference(capsys, tmp_path):
    cases = [MsfbcInstance(random_string_set(sigma, length, n, seed=seed), length // 3)
             for seed, (sigma, length, n) in enumerate([(2, 9, 12), (3, 25, 10), (4, 6, 14), (2, 40, 8)])]
    cases.append(reduce_dks_to_msfbc(random_graph(6, 9, seed=1), 3)[0])
    for i, inst in enumerate(cases):
        path = tmp_path / f"msfbc-{i}.txt"
        path.write_text(serialize_strings_instance(inst))
        assert main(["solve", "msfbc", "-f", str(path), "--algo", "exact", "--recheck"]) == 0
        res = ref.solve_msfbc_subsets(inst)
        expected = ["problem=msfbc", "algorithm=exact", f"value={len(res.indices)}",
                    "indices=" + " ".join(str(j + 1) for j in res.indices), f"bad_columns={res.bad_column_count}",
                    "recheck=ok"]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


@st.composite
def graphs(draw, max_vertices=9):
    """Any simple graph on 1 to ``max_vertices`` vertices, edgeless and
    complete ones included."""
    v = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(1, v + 1), 2))
    chosen = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(v, tuple(p for i, p in enumerate(pairs) if chosen >> i & 1))


@settings(max_examples=150, deadline=None)
@given(graphs(), st.sampled_from(BLOCK_ELEMENTS))
def test_dks_solver_matches_reference(graph, block):
    with mock.patch.object(exact, "_BLOCK_ELEMENTS", block):
        for k in range(1, graph.vertex_count + 1):
            assert solve_dks_exact(graph, k) == ref.solve_dks_exact(graph, k)


@pytest.mark.parametrize("v", range(1, 10))
def test_dks_on_an_edgeless_graph_takes_the_first_vertices(v):
    for k in range(1, v + 1):
        vertices, count = solve_dks_exact(Graph(v, ()), k)
        assert (vertices, count) == (tuple(range(1, k + 1)), 0)
        assert all(type(x) is int for x in vertices) and type(count) is int


@st.composite
def formulas(draw, max_variables=12):
    """2-CNF formulas on up to ``max_variables`` variables; clauses repeat,
    and a clause may name one literal twice."""
    n = draw(st.integers(1, max_variables))
    literal = st.builds(Literal, st.integers(1, n), st.booleans())
    clause = st.tuples(literal, literal).filter(lambda c: c[0].variable != c[1].variable or c[0] == c[1])
    distinct = draw(st.lists(clause, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=24))
    return Max2SatInstance(n, tuple(distinct[p] for p in picks))


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_max2sat_solver_matches_reference(phi):
    assignment, count = solve_max2sat_exact(phi)
    assert (assignment, count) == ref.solve_max2sat_exact(phi)
    assert all(type(x) is bool for x in assignment) and type(count) is int


def _tie_formula(n: int) -> Max2SatInstance:
    """x or x with ~x or ~x satisfies one of the two, and the four sign
    patterns on one pair of variables satisfy three of the four, whatever
    the assignment."""
    units = [(Literal(v, p), Literal(v, p)) for v in range(1, n + 1) for p in (True, False)]
    pairs = [(Literal(v, p), Literal(v + 1, q)) for v in range(1, n) for p in (True, False) for q in (True, False)]
    return Max2SatInstance(n, tuple(units + pairs))


@pytest.mark.parametrize("n", range(1, 13))
def test_max2sat_tie_over_every_assignment_is_all_false(n):
    assert solve_max2sat_exact(_tie_formula(n)) == ((False,) * n, n + 3 * (n - 1))


def _split_cases(n: int) -> dict:
    """Formulas on n variables built around the solver's split into groups A,
    B and C: clauses inside each group, across each pair of groups, repeated
    clauses, one clause, and a formula on which every assignment ties."""
    k = min(n // 3, 10)
    groups = {"A": range(1, n - 2 * k + 1), "B": range(n - 2 * k + 1, n - k + 1), "C": range(n - k + 1, n + 1)}
    groups = {name: variables for name, variables in groups.items() if variables}
    rng = random.Random(n)

    def clause(left, right):
        u, v = rng.choice(left), rng.choice(right)
        p = rng.random() < 0.5
        return Literal(u, p), Literal(v, p if u == v else rng.random() < 0.5)

    def formula(left, right, m):
        return Max2SatInstance(n, tuple(clause(left, right) for _ in range(m)))

    cases = {f"inside {g}": formula(groups[g], groups[g], 2 * n) for g in groups}
    cases |= {f"across {g}{h}": formula(groups[g], groups[h], 2 * n) for g, h in itertools.combinations(groups, 2)}
    distinct = formula(range(1, n + 1), range(1, n + 1), 3).clauses
    cases["repeated"] = Max2SatInstance(n, distinct * 3 + distinct[:1] * 4)
    cases["one clause"] = formula(range(1, n + 1), range(1, n + 1), 1)
    cases["random"] = formula(range(1, n + 1), range(1, n + 1), 3 * n)
    cases["every assignment ties"] = _tie_formula(n)
    if n == 1:
        cases["x1 or x1"] = Max2SatInstance(1, ((Literal(1, True),) * 2,))
    return cases


@pytest.mark.parametrize("n", range(1, 21))
def test_max2sat_split_and_list_matches_both_references(n):
    for name, phi in _split_cases(n).items():
        expected = ref.solve_max2sat_clause_tests(phi)
        assert solve_max2sat_exact(phi) == expected, name
        # the per-assignment loop where its 2^n * m clause evaluations stay near a second
        if phi.clause_count << n <= 1 << 20:
            assert ref.solve_max2sat_exact(phi) == expected, name
        if name == "every assignment ties":
            assert expected[0] == (False,) * n
