"""Words over small integer alphabets, Hamming distance, and coverage counting.

Column indices are 0-based everywhere inside the library; only rendered
output (CLI, reports) uses 1-based columns.

A :class:`Word` holds one small integer per symbol, whatever the alphabet;
its packed binary form (``bits``, column 0 as the most significant bit, so
that integer order is lexicographic order) is computed when read. A
:class:`StringSet` stores all its words once, as one buffer of symbol codes.
Everything here is pure Python: it is the independent per-word path that
re-checks the numpy solvers in :mod:`exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import ne
from typing import Iterable, Sequence

SYMBOL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(SYMBOL_CHARS)


@dataclass(frozen=True)
class Alphabet:
    """Alphabet of ``size`` symbols, represented as integers 0..size-1."""

    size: int

    def __post_init__(self):
        if not 2 <= self.size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {self.size}")

    @property
    def is_binary(self) -> bool:
        return self.size == 2


BINARY = Alphabet(2)


class ItemError(ValueError):
    """A ValueError about one item of a collection (a string set's row, a
    formula's clause, a graph's edge); ``index`` is 0-based, so that a parser
    can name the item's line."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class Word:
    """Immutable fixed-length word over an :class:`Alphabet`.

    Orderable; comparison is lexicographic on symbols, which is what every
    solver tie-break in this package relies on.
    """

    __slots__ = ("alphabet", "_symbols")

    def __init__(self, symbols: Sequence[int], alphabet: Alphabet = BINARY):
        symbols = tuple(map(int, symbols))
        if len(symbols) < 1:
            raise ValueError("word length must be >= 1")
        if min(symbols) < 0 or max(symbols) >= alphabet.size:
            raise _outside_alphabet(symbols, alphabet, len(symbols))
        self.alphabet = alphabet
        self._symbols = symbols

    @classmethod
    def _of(cls, symbols: tuple, alphabet: Alphabet) -> "Word":
        """The word of ``symbols``, already known to lie in ``alphabet``."""
        w = cls.__new__(cls)
        w.alphabet, w._symbols = alphabet, symbols
        return w

    @classmethod
    def from_index(cls, index: int, length: int, alphabet: Alphabet = BINARY) -> "Word":
        """The word at position ``index`` of the lexicographic order; for a
        binary word, its packed bits (column 0 = MSB)."""
        symbols = []
        for _ in range(length):
            index, c = divmod(index, alphabet.size)
            symbols.append(c)
        return cls._of(tuple(reversed(symbols)), alphabet)

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet = BINARY) -> "Word":
        return StringSet.from_texts([text], alphabet).words[0]

    @property
    def symbols(self) -> tuple:
        return self._symbols

    @property
    def length(self) -> int:
        return len(self._symbols)

    @property
    def bits(self) -> int:
        """The packed binary word (column 0 = MSB)."""
        if not self.alphabet.is_binary:
            raise ValueError("bit representation only exists for binary words")
        return int(str(self), 2)

    def __len__(self):
        return len(self._symbols)

    def __getitem__(self, j):
        return self._symbols[j]

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self._symbols == other._symbols
        )

    def __lt__(self, other):
        return self._symbols < other._symbols

    def __le__(self, other):
        return self._symbols <= other._symbols

    def __hash__(self):
        return hash((self.alphabet, self._symbols))

    def __str__(self):
        return "".join(SYMBOL_CHARS[c] for c in self._symbols)

    def __repr__(self):
        return f"Word({str(self)!r}, sigma={self.alphabet.size})"


def _outside_alphabet(symbols: Sequence[int], alphabet: Alphabet, length: int) -> ItemError:
    """The error for the first of ``symbols`` (rows of ``length`` symbol
    codes) outside ``alphabet``, naming its row and 1-based column."""
    k, c = next((k, c) for k, c in enumerate(symbols) if not 0 <= c < alphabet.size)
    i, j = divmod(k, length)
    shown = repr(SYMBOL_CHARS[c]) if 0 <= c < MAX_ALPHABET else c
    return ItemError(i, f"symbol {shown} at column {j + 1} outside alphabet of size {alphabet.size}")


def _check_compatible(a: Word, b: Word):
    # words of one StringSet share its Alphabet object
    if a.alphabet is not b.alphabet and a.alphabet != b.alphabet:
        raise ValueError("words are over different alphabets")
    if len(a._symbols) != len(b._symbols):
        raise ValueError(f"word lengths differ: {a.length} vs {b.length}")


def hamming(a: Word, b: Word) -> int:
    """Number of mismatched positions between two equal-length words."""
    _check_compatible(a, b)
    return sum(map(ne, a._symbols, b._symbols))


def complement(s: Word) -> Word:
    """Flip every bit of a binary word (an involution)."""
    if not s.alphabet.is_binary:
        raise ValueError("complement is defined only over the binary alphabet")
    return Word([1 - c for c in s.symbols])


# symbol character -> symbol code, 255 for a byte that is no symbol character
_CODES = bytes(SYMBOL_CHARS.find(chr(b)) % 256 for b in range(256))
# symbol code -> symbol character
_CHARS = bytes.maketrans(bytes(range(MAX_ALPHABET)), SYMBOL_CHARS.encode())


@dataclass(frozen=True)
class StringSet:
    """An ordered collection of equal-length words over one alphabet.

    Duplicates are allowed and counted with multiplicity. The words are
    stored once, as ``rows``: the n*l symbol codes of all words, row by row.
    ``exact.symbol_matrix`` views that buffer as an (n, l) array; ``words``
    builds :class:`Word` objects from it for the per-word paths.
    """

    alphabet: Alphabet
    length: int
    rows: bytes

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("word length must be >= 1")
        if not self.rows:
            raise ValueError("a StringSet needs at least one word")
        if len(self.rows) % self.length:
            raise ValueError(f"{len(self.rows)} symbols do not fill rows of length {self.length}")
        if self.rows.translate(None, bytes(range(self.alphabet.size))):
            raise _outside_alphabet(self.rows, self.alphabet, self.length)

    @classmethod
    def from_texts(cls, texts: Iterable[str], alphabet: Alphabet = BINARY, length: int | None = None) -> "StringSet":
        """The set of the words spelt by ``texts``, each of ``length`` symbol
        characters (by default, as many as the first has)."""
        texts = list(texts)
        if not texts:
            raise ValueError("a StringSet needs at least one word")
        if length is None:
            length = len(texts[0])
        if set(map(len, texts)) != {length}:
            i = next(i for i, t in enumerate(texts) if len(t) != length)
            raise ItemError(i, f"string {i + 1} has length {len(texts[i])}, expected {length}")
        rows = "".join(texts).encode("ascii", "replace").translate(_CODES)
        if 255 in rows:
            i, j = divmod(rows.index(255), length)
            raise ItemError(i, f"unrecognized symbol character {texts[i][j]!r} at column {j + 1}")
        return cls(alphabet, length, rows)

    @classmethod
    def from_words(cls, words: Iterable[Word]) -> "StringSet":
        """The set of ``words``, all over the first's alphabet and of its length."""
        words = list(words)
        if not words:
            raise ValueError("a StringSet needs at least one word")
        first = words[0]
        for i, w in enumerate(words):
            if w.alphabet != first.alphabet or w.length != first.length:
                raise ItemError(i, f"string {i + 1} differs from string 1 in alphabet or length")
        return cls(first.alphabet, first.length, bytes(c for w in words for c in w.symbols))

    def texts(self) -> list:
        """Each word as its symbol characters."""
        text = self.rows.translate(_CHARS).decode("ascii")
        return [text[i : i + self.length] for i in range(0, len(text), self.length)]

    @cached_property
    def words(self) -> tuple:
        """The words as :class:`Word` objects, built on first use in one pass
        that cuts the row buffer into symbol tuples."""
        new, alphabet, words = Word.__new__, self.alphabet, []
        for symbols in zip(*[iter(self.rows)] * self.length):
            w = new(Word)
            w.alphabet, w._symbols = alphabet, symbols
            words.append(w)
        return tuple(words)

    @property
    def size(self) -> int:
        return len(self.rows) // self.length

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return self.size


def bad_columns(words: Iterable[Word]) -> frozenset:
    """Columns (0-based) whose entries are not all equal across ``words``."""
    words = list(words)
    if not words:
        raise ValueError("bad_columns needs a non-empty collection of words")
    for w in words[1:]:
        _check_compatible(words[0], w)
    return frozenset(j for j, column in enumerate(zip(*(w.symbols for w in words))) if len(set(column)) > 1)


def _check_instance_word(s: Word, sset: StringSet):
    if s.alphabet != sset.alphabet or s.length != sset.length:
        raise ValueError("candidate word does not match the instance's length/alphabet")


@dataclass(frozen=True)
class CmsInstance:
    """Close to Most Strings: maximize #strings within Hamming distance d."""

    set: StringSet
    d: int

    def __post_init__(self):
        if not 0 <= self.d <= self.set.length:
            raise ValueError(f"d must be in [0, {self.set.length}], got {self.d}")


@dataclass(frozen=True)
class FfmsInstance:
    """Far from Most Strings: maximize #strings at Hamming distance >= d."""

    set: StringSet
    d: int

    def __post_init__(self):
        if not 0 <= self.d <= self.set.length:
            raise ValueError(f"d must be in [0, {self.set.length}], got {self.d}")


@dataclass(frozen=True)
class CksInstance:
    """Closest to k Strings: pick k strings and a center minimizing the radius."""

    set: StringSet
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.set.size:
            raise ValueError(f"k must be in [1, {self.set.size}], got {self.k}")

    def is_subset(self, indices) -> bool:
        """Whether ``indices`` names k distinct words of the set."""
        return len(set(indices)) == len(indices) == self.k and all(0 <= i < self.set.size for i in indices)


@dataclass(frozen=True)
class MsfbcInstance:
    """Most Strings with Few Bad Columns: k bounds the number of bad columns."""

    set: StringSet
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.set.length:
            raise ValueError(f"k must be in [0, {self.set.length}], got {self.k}")


def coverage(s: Word, inst: CmsInstance) -> int:
    """Number of instance strings within distance d of ``s``."""
    _check_instance_word(s, inst.set)
    return sum(hamming(s, w) <= inst.d for w in inst.set)


def anticoverage(s: Word, inst: FfmsInstance) -> int:
    """Number of instance strings at distance >= d from ``s``."""
    _check_instance_word(s, inst.set)
    return sum(hamming(s, w) >= inst.d for w in inst.set)
