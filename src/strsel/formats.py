"""Line-oriented text formats: string-set instances, DIMACS-style 2-CNF,
DIMACS edge-format graphs, and reduction-certificate sidecars.

Parsers report 1-based line numbers; ``parse(serialize(x)) == x`` for every
valid object.
"""

from __future__ import annotations

from .reductions import Graph, Literal, Max2SatInstance, ReductionCertificate
from .words import (
    Alphabet,
    CksInstance,
    CmsInstance,
    FfmsInstance,
    MsfbcInstance,
    StringSet,
    Word,
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


# problem name -> (instance type, parameter letter)
PROBLEMS = {
    "cms": (CmsInstance, "d"),
    "ffms": (FfmsInstance, "d"),
    "cks": (CksInstance, "k"),
    "msfbc": (MsfbcInstance, "k"),
}


def parse_strings_instance(text: str, problem: str | None = None):
    """Parse a string-set instance.

    Grammar: ``strings <sigma> <l> <n>`` / ``param <d|k> <value>`` / n rows.
    When ``problem`` is omitted, a ``d`` parameter yields a CmsInstance and a
    ``k`` parameter a CksInstance.
    """
    lines = _lines(text)
    if not lines or not lines[0]:
        raise ParseError(1, "missing 'strings <sigma> <l> <n>' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "strings":
        raise ParseError(1, f"expected 'strings <sigma> <l> <n>', got {lines[0]!r}")
    sigma, length, n = (_int(x, 1, name) for x, name in zip(head[1:], ("sigma", "l", "n")))
    if len(lines) < 2 or not lines[1].startswith("param"):
        raise ParseError(2, "missing 'param <d|k> <value>' line")
    parts = lines[1].split()
    if len(parts) != 3 or parts[1] not in ("d", "k"):
        raise ParseError(2, f"expected 'param <d|k> <value>', got {lines[1]!r}")
    letter = parts[1]
    value = _int(parts[2], 2, "parameter value")

    alphabet = Alphabet(sigma)
    words = []
    body = [ln for ln in lines[2:] if ln]
    if len(body) != n:
        raise ParseError(len(lines), f"expected {n} strings, found {len(body)}")
    for i, row in enumerate(body):
        if len(row) != length:
            raise ParseError(3 + i, f"string {i + 1} has length {len(row)}, expected {length}")
        try:
            words.append(Word.from_text(row, alphabet))
        except ValueError as e:
            raise ParseError(3 + i, str(e)) from None
    sset = StringSet(words, alphabet)

    if problem is None:
        problem = "cms" if letter == "d" else "cks"
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    cls, expected_letter = PROBLEMS[problem]
    if letter != expected_letter:
        raise ParseError(2, f"problem {problem} needs parameter '{expected_letter}', file has '{letter}'")
    try:
        return cls(sset, value)
    except ValueError as e:
        raise ParseError(2, str(e)) from None


def serialize_strings_instance(inst) -> str:
    for name, (cls, letter) in PROBLEMS.items():
        if type(inst) is cls:
            break
    else:
        raise ValueError(f"not a string-set instance: {inst!r}")
    sset = inst.set
    value = getattr(inst, letter)
    rows = "\n".join(str(w) for w in sset.words)
    return f"strings {sset.alphabet.size} {sset.length} {sset.size}\nparam {letter} {value}\n{rows}\n"


def parse_cnf(text: str) -> Max2SatInstance:
    """DIMACS-style 2-CNF: header ``p cnf <n> <m>`` then clause lines
    ``<lit> <lit> 0``. Tautological clauses are rejected."""
    lines = _lines(text)
    n = m = None
    clauses = []
    for lineno, ln in enumerate(lines, start=1):
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            parts = ln.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(lineno, f"expected 'p cnf <n> <m>', got {ln!r}")
            n, m = _int(parts[2], lineno, "variable count", 1), _int(parts[3], lineno, "clause count", 1)
            continue
        if n is None:
            raise ParseError(lineno, "clause line before 'p cnf' header")
        parts = ln.split()
        if len(parts) != 3 or parts[2] != "0":
            raise ParseError(lineno, f"expected '<lit> <lit> 0', got {ln!r}")
        lits = []
        for tok in parts[:2]:
            v = _int(tok, lineno, "literal")
            if v == 0 or abs(v) > n:
                raise ParseError(lineno, f"literal {tok} outside variable range 1..{n}")
            lits.append(Literal(abs(v), v > 0))
        a, b = lits
        if a.variable == b.variable and a.positive != b.positive:
            raise ParseError(lineno, f"clause {len(clauses) + 1} is a tautology")
        clauses.append((a, b))
    if n is None:
        raise ParseError(len(lines) or 1, "missing 'p cnf' header")
    if len(clauses) != m:
        raise ParseError(len(lines), f"header promises {m} clauses, found {len(clauses)}")
    return Max2SatInstance(variable_count=n, clauses=tuple(clauses))


def serialize_cnf(phi: Max2SatInstance) -> str:
    out = [f"p cnf {phi.variable_count} {phi.clause_count}"]
    for (a, b) in phi.clauses:
        ta = a.variable if a.positive else -a.variable
        tb = b.variable if b.positive else -b.variable
        out.append(f"{ta} {tb} 0")
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> Graph:
    """DIMACS edge format: ``p edge <V> <E>`` then lines ``e <u> <v>``."""
    lines = _lines(text)
    v = e = None
    edges = []
    seen = set()
    for lineno, ln in enumerate(lines, start=1):
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            parts = ln.split()
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(lineno, f"expected 'p edge <V> <E>', got {ln!r}")
            v, e = _int(parts[2], lineno, "vertex count", 0), _int(parts[3], lineno, "edge count", 0)
            continue
        if not ln.startswith("e "):
            raise ParseError(lineno, f"expected 'e <u> <v>', got {ln!r}")
        if v is None:
            raise ParseError(lineno, "edge line before 'p edge' header")
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 'e <u> <v>', got {ln!r}")
        a, b = _int(parts[1], lineno, "endpoint"), _int(parts[2], lineno, "endpoint")
        if a == b:
            raise ParseError(lineno, f"loop edge ({a},{b})")
        if not (1 <= a <= v and 1 <= b <= v):
            raise ParseError(lineno, f"edge ({a},{b}) outside vertex range 1..{v}")
        pair = (min(a, b), max(a, b))
        if pair in seen:
            raise ParseError(lineno, f"duplicate edge ({a},{b})")
        seen.add(pair)
        edges.append(pair)
    if v is None:
        raise ParseError(len(lines) or 1, "missing 'p edge' header")
    if len(edges) != e:
        raise ParseError(len(lines), f"header promises {e} edges, found {len(edges)}")
    return Graph(vertex_count=v, edges=tuple(edges))


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
    for (index, kind, ref) in cert.index_map:
        out.append(f"map={index} {kind} {ref}")
    return "\n".join(out) + "\n"
