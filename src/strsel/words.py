"""Words over small integer alphabets, Hamming distance, and coverage counting.

Column indices are 0-based everywhere inside the library; only rendered
output (CLI, reports) uses 1-based columns.

Binary words are stored bit-packed (column 0 is the most significant bit,
so integer order on the packed value equals lexicographic order on the
symbols); larger alphabets store one small integer per symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class Word:
    """Immutable fixed-length word over an :class:`Alphabet`.

    Orderable; comparison is lexicographic on symbols, which is what every
    solver tie-break in this package relies on.
    """

    __slots__ = ("alphabet", "length", "_bits", "_symbols")

    def __init__(self, symbols: Sequence[int], alphabet: Alphabet = BINARY):
        symbols = tuple(int(c) for c in symbols)
        if len(symbols) < 1:
            raise ValueError("word length must be >= 1")
        for j, c in enumerate(symbols):
            if not 0 <= c < alphabet.size:
                raise ValueError(f"symbol {c} at column {j} outside alphabet of size {alphabet.size}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "length", len(symbols))
        object.__setattr__(self, "_symbols", symbols)
        if alphabet.is_binary:
            bits = 0
            for c in symbols:
                bits = (bits << 1) | c
            object.__setattr__(self, "_bits", bits)
        else:
            object.__setattr__(self, "_bits", None)

    @classmethod
    def from_bits(cls, bits: int, length: int) -> "Word":
        """Binary word from a packed integer (column 0 = MSB)."""
        w = cls.__new__(cls)
        object.__setattr__(w, "alphabet", BINARY)
        object.__setattr__(w, "length", length)
        object.__setattr__(w, "_bits", bits)
        object.__setattr__(w, "_symbols", tuple((bits >> (length - 1 - j)) & 1 for j in range(length)))
        return w

    @classmethod
    def from_index(cls, index: int, length: int, alphabet: Alphabet = BINARY) -> "Word":
        """The word at position ``index`` of the lexicographic order."""
        if alphabet.is_binary:
            return cls.from_bits(index, length)
        symbols = []
        for _ in range(length):
            index, c = divmod(index, alphabet.size)
            symbols.append(c)
        return cls(reversed(symbols), alphabet)

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet = BINARY) -> "Word":
        try:
            symbols = [SYMBOL_CHARS.index(ch) for ch in text]
        except ValueError:
            raise ValueError(f"unrecognized symbol character in {text!r}") from None
        return cls(symbols, alphabet)

    @property
    def symbols(self) -> tuple:
        return self._symbols

    @property
    def bits(self) -> int:
        if self._bits is None:
            raise ValueError("bit representation only exists for binary words")
        return self._bits

    def __len__(self):
        return self.length

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


def _check_compatible(a: Word, b: Word):
    if a.alphabet != b.alphabet:
        raise ValueError("words are over different alphabets")
    if a.length != b.length:
        raise ValueError(f"word lengths differ: {a.length} vs {b.length}")


def hamming(a: Word, b: Word) -> int:
    """Number of mismatched positions between two equal-length words."""
    _check_compatible(a, b)
    if a.alphabet.is_binary:
        return (a.bits ^ b.bits).bit_count()
    return sum(x != y for x, y in zip(a.symbols, b.symbols))


def complement(s: Word) -> Word:
    """Flip every bit of a binary word (an involution)."""
    if not s.alphabet.is_binary:
        raise ValueError("complement is defined only over the binary alphabet")
    mask = (1 << s.length) - 1
    return Word.from_bits(s.bits ^ mask, s.length)


@dataclass(frozen=True)
class StringSet:
    """An ordered collection of equal-length words over one alphabet.

    Duplicates are allowed and counted with multiplicity.
    """

    alphabet: Alphabet
    length: int
    words: tuple

    def __init__(self, words: Iterable[Word], alphabet: Alphabet | None = None):
        words = tuple(words)
        if not words:
            raise ValueError("a StringSet needs at least one word")
        if alphabet is None:
            alphabet = words[0].alphabet
        length = words[0].length
        for i, w in enumerate(words):
            if w.alphabet != alphabet:
                raise ValueError(f"string {i + 1} is over a different alphabet")
            if w.length != length:
                raise ValueError(f"string {i + 1} has length {w.length}, expected {length}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "words", words)

    @classmethod
    def from_texts(cls, texts: Iterable[str], alphabet: Alphabet = BINARY) -> "StringSet":
        return cls([Word.from_text(t, alphabet) for t in texts])

    @property
    def size(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)


def bad_columns(words: Iterable[Word]) -> frozenset:
    """Columns (0-based) whose entries are not all equal across ``words``."""
    words = list(words)
    if not words:
        raise ValueError("bad_columns needs a non-empty collection of words")
    first = words[0]
    if first.alphabet.is_binary:
        mask = (1 << first.length) - 1
        ones = mask
        zeros = mask
        for w in words:
            _check_compatible(first, w)
            ones &= w.bits
            zeros &= w.bits ^ mask
        bad = mask & ~(ones | zeros)
        n = first.length
        return frozenset(j for j in range(n) if (bad >> (n - 1 - j)) & 1)
    bad = set()
    for w in words[1:]:
        _check_compatible(first, w)
        for j in range(first.length):
            if w[j] != first[j]:
                bad.add(j)
    return frozenset(bad)


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
