"""Line-oriented text formats: string-set instances, DIMACS-style 2-CNF,
DIMACS edge-format graphs, and reduction-certificate sidecars.

Parsers report 1-based line numbers; ``parse(serialize(x)) == x`` for every
valid object.
"""

from __future__ import annotations

from dataclasses import fields
from typing import NamedTuple

from .reductions import Graph, Literal, Max2SatInstance, ReductionCertificate
from .words import (
    Alphabet,
    CksInstance,
    CmsInstance,
    FfmsInstance,
    ItemError,
    MsfbcInstance,
    StringSet,
)


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(text: str):
    return [ln.strip() for ln in text.splitlines()]


def _int(token: str, lineno: int, what: str, least: int | None = None) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {token!r}") from None
    if least is not None and value < least:
        raise ParseError(lineno, f"{what} must be at least {least}, got {value}")
    return value


def _checked(build, item_lines: list):
    """``build()``, with the constructor's :class:`ItemError` about item i
    reported as a ParseError on line ``item_lines[i]``."""
    try:
        return build()
    except ItemError as e:
        raise ParseError(item_lines[e.index], str(e)) from None


def parse_strings_instance(text: str, kind: type | None = None):
    """Parse a string-set instance of type ``kind``.

    Grammar: ``strings <sigma> <l> <n>`` / ``param <d|k> <value>`` / n rows,
    blank lines skipped. When ``kind`` is omitted, a ``d`` parameter yields a
    CmsInstance and a ``k`` parameter a CksInstance.
    """
    lines = _lines(text)
    if not lines or not lines[0]:
        raise ParseError(1, "missing 'strings <sigma> <l> <n>' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "strings":
        raise ParseError(1, f"expected 'strings <sigma> <l> <n>', got {lines[0]!r}")
    sigma, length, n = _int(head[1], 1, "sigma"), _int(head[2], 1, "l", 1), _int(head[3], 1, "n", 1)
    try:
        alphabet = Alphabet(sigma)
    except ValueError as e:
        raise ParseError(1, str(e)) from None
    if len(lines) < 2 or not lines[1].startswith("param"):
        raise ParseError(2, "missing 'param <d|k> <value>' line")
    parts = lines[1].split()
    if len(parts) != 3 or parts[0] != "param" or parts[1] not in ("d", "k"):
        raise ParseError(2, f"expected 'param <d|k> <value>', got {lines[1]!r}")
    letter = parts[1]
    value = _int(parts[2], 2, "parameter value")

    row_lines = [no for no, ln in enumerate(lines[2:], start=3) if ln]
    if len(row_lines) != n:
        raise ParseError(len(lines), f"expected {n} strings, found {len(row_lines)}")
    rows = [lines[no - 1] for no in row_lines]
    sset = _checked(lambda: StringSet.from_texts(rows, alphabet, length), row_lines)

    if kind is None:
        kind = CmsInstance if letter == "d" else CksInstance
    expected = fields(kind)[1].name  # the parameter's field follows ``set``
    if letter != expected:
        raise ParseError(2, f"{kind.__name__} needs parameter '{expected}', file has '{letter}'")
    try:
        return kind(sset, value)
    except ValueError as e:
        raise ParseError(2, str(e)) from None


def serialize_strings_instance(inst) -> str:
    if not isinstance(inst, (CmsInstance, FfmsInstance, CksInstance, MsfbcInstance)):
        raise ValueError(f"not a string-set instance: {inst!r}")
    sset, letter = inst.set, fields(inst)[1].name
    rows = "\n".join(sset.texts())
    return f"strings {sset.alphabet.size} {sset.length} {sset.size}\nparam {letter} {getattr(inst, letter)}\n{rows}\n"


class _Dimacs(NamedTuple):
    """A DIMACS challenge format (Johnson and Trick, 1996): a ``header`` ``p <kind> <a> <b>`` with ``counts`` the (name,
    least value) of a and b, then ``noun`` lines of ``shape``: a marker at ``marker_at`` (0 or 2) and two ``value``s."""

    header: str
    counts: tuple
    noun: str
    shape: str
    marker_at: int
    value: str


def _read_dimacs(text: str, fmt: _Dimacs, item, build):
    """``build(the header's first count, (item(a, b) per item line))``, skipping blank lines and ``c`` comments.
    An item's :class:`ItemError` names its line ahead of a wrong item count; with no items, only the count is wrong."""
    lines = _lines(text)
    kind, at, marker = fmt.header.split()[1], fmt.marker_at, fmt.shape.split()[fmt.marker_at]
    promised, items, item_lines = None, [], []
    for lineno, ln in enumerate(lines, start=1):
        if not ln or ln.startswith("c"):
            continue
        parts = ln.split()
        if ln.startswith("p"):
            if promised is not None:
                raise ParseError(lineno, f"a second 'p {kind}' header")
            if len(parts) != 4 or parts[1] != kind:
                raise ParseError(lineno, f"expected {fmt.header!r}, got {ln!r}")
            first, promised = (_int(tok, lineno, name, least) for tok, (name, least) in zip(parts[2:], fmt.counts))
        elif promised is None:
            raise ParseError(lineno, f"{fmt.noun} line before 'p {kind}' header")
        elif len(parts) != 3 or parts[at] != marker:
            raise ParseError(lineno, f"expected {fmt.shape!r}, got {ln!r}")
        else:
            items.append(item(_int(parts[at - 2], lineno, fmt.value), _int(parts[at - 1], lineno, fmt.value)))
            item_lines.append(lineno)
    if promised is None:
        raise ParseError(len(lines) or 1, f"missing 'p {kind}' header")
    built = _checked(lambda: build(first, tuple(items)), item_lines) if items or not promised else None
    if len(items) != promised:
        raise ParseError(len(lines), f"header promises {promised} {fmt.noun}s, found {len(items)}")
    return built


_CNF = _Dimacs("p cnf <n> <m>", (("variable count", 1), ("clause count", 1)), "clause", "<lit> <lit> 0", 2, "literal")
_EDGES = _Dimacs("p edge <V> <E>", (("vertex count", 0), ("edge count", 0)), "edge", "e <u> <v>", 0, "endpoint")


def parse_cnf(text: str) -> Max2SatInstance:
    """DIMACS-style 2-CNF: header ``p cnf <n> <m>`` then clause lines
    ``<lit> <lit> 0``. Tautological clauses are rejected."""
    return _read_dimacs(text, _CNF, lambda a, b: (Literal(abs(a), a > 0), Literal(abs(b), b > 0)), Max2SatInstance)


def serialize_cnf(phi: Max2SatInstance) -> str:
    out = [f"p cnf {phi.variable_count} {phi.clause_count}"]
    for (a, b) in phi.clauses:
        ta = a.variable if a.positive else -a.variable
        tb = b.variable if b.positive else -b.variable
        out.append(f"{ta} {tb} 0")
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> Graph:
    """DIMACS edge format: ``p edge <V> <E>`` then lines ``e <u> <v>``."""
    return _read_dimacs(text, _EDGES, lambda a, b: (min(a, b), max(a, b)), Graph)


def serialize_graph(g: Graph) -> str:
    out = [f"p edge {g.vertex_count} {g.edge_count}"]
    out.extend(f"e {u} {v}" for (u, v) in g.edges)
    return "\n".join(out) + "\n"


def serialize_certificate(cert: ReductionCertificate, source_path: str = "-") -> str:
    out = []
    if cert.seed is not None:
        out.append(f"seed={cert.seed}")
    for key, value in sorted(cert.parameters.items()):
        out.append(f"{key}={value}")
    out.append(f"source={source_path}")
    index = 0
    for kind, refs in cert.layout:
        for ref in refs:
            out.append(f"map={index} {kind} {ref}")
            index += 1
    return "\n".join(out) + "\n"
