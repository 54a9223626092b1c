"""Core word operations: frozen examples plus metric/duality properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strsel import (
    BINARY,
    Alphabet,
    CmsInstance,
    FfmsInstance,
    StringSet,
    Word,
    anticoverage,
    bad_columns,
    complement,
    coverage,
    hamming,
)
from strsel.gen import random_string_set


def w(text, sigma=2):
    return Word.from_text(text, Alphabet(sigma))


binary_words = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
).map(Word)


def word_triples(max_len=8, sigma=4):
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(
            *[st.lists(st.integers(0, sigma - 1), min_size=n, max_size=n) for _ in range(3)]
        )
    ).map(lambda t: tuple(Word(x, Alphabet(sigma)) for x in t))


class TestHamming:
    def test_identity(self):
        assert hamming(w("0011"), w("0011")) == 0

    def test_full_mismatch(self):
        assert hamming(w("00"), w("11")) == 2

    def test_single_position(self):
        assert hamming(w("0110"), w("1110")) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming(w("00"), w("000"))

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming(w("00"), w("00", sigma=3))

    def test_equal_alphabets_built_apart_are_compatible(self):
        a, b = Word([0, 1, 2], Alphabet(3)), Word([2, 1, 0], Alphabet(3))
        assert a.alphabet is not b.alphabet
        assert hamming(a, b) == hamming(b, a) == 2

    def test_different_alphabet_or_length_raises(self):
        sigma3 = Alphabet(3)
        with pytest.raises(ValueError, match="different alphabets"):
            hamming(Word([0, 1], sigma3), Word([0, 1], Alphabet(4)))
        with pytest.raises(ValueError, match="word lengths differ: 2 vs 3"):
            hamming(Word([0, 1], sigma3), Word([0, 1, 2], sigma3))

    def test_matches_naive_count_nonbinary(self):
        a = w("0120", sigma=3)
        b = w("0210", sigma=3)
        assert hamming(a, b) == sum(x != y for x, y in zip(a.symbols, b.symbols))

    @given(word_triples())
    @settings(max_examples=200)
    def test_metric(self, words):
        a, b, c = words
        assert hamming(a, b) >= 0
        assert (hamming(a, b) == 0) == (a == b)
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestComplement:
    def test_flip(self):
        assert complement(w("0101")) == w("1010")

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            complement(w("012", sigma=3))

    @given(binary_words)
    def test_involution(self, word):
        assert complement(complement(word)) == word

    def test_distance_identity_exhaustive_small(self):
        # hamming(~s, t) = l - hamming(s, t), all pairs up to length 5
        for ell in range(1, 6):
            for s_bits in range(1 << ell):
                s = Word.from_index(s_bits, ell)
                for t_bits in range(1 << ell):
                    t = Word.from_index(t_bits, ell)
                    assert hamming(complement(s), t) == ell - hamming(s, t)


class TestBadColumns:
    def test_two_words(self):
        # columns are 0-based internally: columns 0 and 1 are mixed
        assert bad_columns([w("110"), w("000")]) == {0, 1}

    def test_singleton(self):
        assert bad_columns([w("101")]) == frozenset()

    def test_all_columns_bad(self):
        T = [w("110"), w("101"), w("011"), w("000")]
        assert bad_columns(T) == {0, 1, 2}

    def test_column_scan_oracle(self):
        # independent per-column scan on a non-binary set
        T = [w("0120", sigma=3), w("0220", sigma=3), w("0121", sigma=3)]
        expected = {
            j for j in range(4) if len({t[j] for t in T}) > 1
        }
        assert bad_columns(T) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bad_columns([])

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=6),
           st.lists(st.integers(0, 63), min_size=0, max_size=3))
    def test_monotone(self, base, extra):
        T = [Word.from_index(b, 6) for b in base]
        T2 = T + [Word.from_index(b, 6) for b in extra]
        assert bad_columns(T) <= bad_columns(T2)


class TestCoverage:
    def test_all_covered(self):
        inst = CmsInstance(StringSet.from_texts(["00", "01", "11"]), d=1)
        # oracle: per-string hamming check
        s = w("01")
        assert sum(hamming(s, t) <= 1 for t in inst.set) == 3
        assert coverage(s, inst) == 3

    def test_none_covered(self):
        assert coverage(w("00"), CmsInstance(StringSet.from_texts(["11"]), d=0)) == 0

    def test_duplicates_counted(self):
        assert coverage(w("00"), CmsInstance(StringSet.from_texts(["00", "00"]), d=0)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coverage(w("000"), CmsInstance(StringSet.from_texts(["00"]), d=0))


class TestAnticoverage:
    def test_both_far(self):
        inst = FfmsInstance(StringSet.from_texts(["00", "01"]), d=1)
        s = w("11")
        assert sum(hamming(s, t) >= 1 for t in inst.set) == 2
        assert anticoverage(s, inst) == 2

    def test_identical_string(self):
        assert anticoverage(w("00"), FfmsInstance(StringSet.from_texts(["00"]), d=1)) == 0

    def test_d_zero_always_satisfied(self):
        assert anticoverage(w("0"), FfmsInstance(StringSet.from_texts(["1", "0"]), d=0)) == 2


class TestDuality:
    @given(st.integers(1, 8), st.data())
    @settings(max_examples=100)
    def test_coverage_equals_anticoverage_of_complement(self, ell, data):
        n = data.draw(st.integers(1, 5))
        words = [Word.from_index(data.draw(st.integers(0, (1 << ell) - 1)), ell) for _ in range(n)]
        s = Word.from_index(data.draw(st.integers(0, (1 << ell) - 1)), ell)
        d = data.draw(st.integers(0, ell))
        sset = StringSet.from_words(words)
        assert coverage(s, CmsInstance(sset, d)) == anticoverage(
            complement(s), FfmsInstance(sset, ell - d)
        )


class TestStringSet:
    def test_rows_are_validated(self):
        for length, rows in [(2, bytes([0, 1, 1, 2])), (3, bytes(4)), (2, b""), (0, b"")]:
            with pytest.raises(ValueError):
                StringSet(BINARY, length, rows)

    def test_equality_ignores_the_built_words(self):
        a, b = StringSet.from_texts(["01", "10"]), StringSet.from_words([w("01"), w("10")])
        assert a.words == (w("01"), w("10"))
        assert a == b and hash(a) == hash(b) and b.rows == bytes([0, 1, 1, 0])


    @pytest.mark.parametrize("sigma, length", [(2, 1), (2, 20), (4, 5), (36, 3)])
    def test_words_are_the_words_of_each_row(self, sigma, length):
        sset = random_string_set(sigma, length, 9, seed=sigma)
        rows = [sset.rows[i : i + length] for i in range(0, len(sset.rows), length)]
        assert len(sset.words) == len(rows) == 9
        for row, word in zip(rows, sset.words):
            assert word == Word(row, sset.alphabet) and type(word.symbols) is tuple
            assert word.alphabet is sset.alphabet


class TestValidation:
    def test_alphabet_bounds(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            Word([0, 2], Alphabet(2))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            StringSet.from_words([w("00"), w("000")])

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            CmsInstance(StringSet.from_texts(["00"]), d=3)

    def test_alphabet_rule_has_one_message(self):
        message = "symbol '2' at column 2 outside alphabet of size 2"
        for build in (
            lambda: Word([0, 2]),
            lambda: StringSet(BINARY, 2, bytes([0, 0, 0, 2])),
            lambda: StringSet.from_texts(["00", "02"]),
        ):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
        with pytest.raises(ValueError, match="string 2 differs from string 1"):
            StringSet.from_words([w("00"), w("02", 3)])
        with pytest.raises(ValueError, match="unrecognized symbol character '#' at column 2"):
            StringSet.from_texts(["00", "0#"])

    def test_word_is_immutable(self):
        word = w("01")
        with pytest.raises(AttributeError):
            word.symbols = (1, 1)
        assert word == StringSet.from_texts(["01"]).words[0] and word.symbols == (0, 1)
