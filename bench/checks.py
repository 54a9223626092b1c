"""Independent checkers for the benchmark's CLI outputs.

Nothing here imports ``strsel``: every expected answer is recomputed from the
input files with numpy or plain enumeration, or is a property the method must
have. Each ``check_*`` function returns ``None`` when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import itertools

import numpy as np

SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


def parse_output(text: str) -> dict:
    """``key=value`` lines into a dict (a repeated key keeps its last value)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def read_strings(text: str):
    """(sigma, param letter, param value, n x l symbol matrix) of a string file."""
    lines = text.split("\n")
    _, sigma, length, count = lines[0].split()
    _, letter, value = lines[1].split()
    rows = [r for r in lines[2:] if r]
    words = np.array([[SYMBOLS.index(ch) for ch in r] for r in rows], dtype=np.int64)
    if words.shape != (int(count), int(length)):
        raise ValueError(f"instance shape {words.shape} does not match its header")
    return int(sigma), letter, int(value), words


def read_cnf(text: str):
    """(variable count, clauses as ((var, positive), (var, positive)))."""
    n = None
    clauses = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
            continue
        a, b = int(parts[0]), int(parts[1])
        clauses.append(((abs(a), a > 0), (abs(b), b > 0)))
    return n, clauses


def read_graph(text: str):
    """(vertex count, edges as (u, v) pairs)."""
    v = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            v = int(parts[2])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    return v, edges


def word_symbols(text: str) -> np.ndarray:
    return np.array([SYMBOLS.index(ch) for ch in text], dtype=np.int64)


def all_centers(sigma: int, length: int) -> np.ndarray:
    """Every word of the given length, one per row, in lexicographic order."""
    index = np.arange(sigma**length, dtype=np.int64)
    powers = sigma ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return (index[:, None] // powers[None, :]) % sigma


def center_rank(symbols: np.ndarray, sigma: int) -> int:
    """Position of a word in lexicographic order."""
    rank = 0
    for c in symbols:
        rank = rank * sigma + int(c)
    return rank


def distances(centers: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Hamming distance of every center (rows) to every word (columns)."""
    return (centers[:, None, :] != words[None, :, :]).sum(axis=2)


class CenterTable:
    """Every center's CMS, FFMS and CkS score on one string set."""

    def __init__(self, sigma: int, words: np.ndarray):
        self.sigma = sigma
        self.words = words
        self.dist = distances(all_centers(sigma, words.shape[1]), words)

    def cms_scores(self, d: int) -> np.ndarray:
        return (self.dist <= d).sum(axis=1)

    def ffms_scores(self, d: int) -> np.ndarray:
        return (self.dist >= d).sum(axis=1)

    def cks_scores(self, k: int) -> np.ndarray:
        return np.partition(self.dist, k - 1, axis=1)[:, k - 1]


def check_best_center(out: dict, table: CenterTable, scores: np.ndarray, maximize: bool, rescore):
    """The reported center is the lexicographically first optimum of
    ``scores``, and re-scored from the input strings alone it gives the
    reported value."""
    best = int(np.argmax(scores) if maximize else np.argmin(scores))
    optimum = int(scores[best])
    if out.get("recheck") != "ok":
        return f"recheck={out.get('recheck')}"
    if int(out.get("value", -1)) != optimum:
        return f"value={out.get('value')} but the optimum is {optimum}"
    text = out.get("center", "")
    if len(text) != table.words.shape[1] or any(ch not in SYMBOLS[: table.sigma] for ch in text):
        return f"center {text!r} is not a word of this instance"
    symbols = word_symbols(text)
    score = rescore(symbols)
    if score != optimum:
        return f"center {text} re-scores to {score}, not the optimum {optimum}"
    if center_rank(symbols, table.sigma) != best:
        return f"center {text} is an optimum but not the lexicographically first"
    return None


def check_cms(out: dict, table: CenterTable, d: int):
    rescore = lambda s: int(((table.words != s).sum(axis=1) <= d).sum())
    return check_best_center(out, table, table.cms_scores(d), True, rescore)


def check_ffms(out: dict, table: CenterTable, d: int):
    rescore = lambda s: int(((table.words != s).sum(axis=1) >= d).sum())
    return check_best_center(out, table, table.ffms_scores(d), True, rescore)


def check_cks(out: dict, table: CenterTable, k: int):
    """Optimal radius and first center, plus the chosen subset: k strings,
    within the radius, nearest first with ties to the lowest index."""
    rescore = lambda s: int(np.sort((table.words != s).sum(axis=1))[k - 1])
    problem = check_best_center(out, table, table.cks_scores(k), False, rescore)
    if problem:
        return problem
    chosen = [int(t) - 1 for t in out.get("subset", "").split()]
    if len(chosen) != k or len(set(chosen)) != k:
        return f"subset has {len(chosen)} indices, expected {k} distinct"
    dist = (table.words != word_symbols(out["center"])).sum(axis=1)
    if any(not 0 <= i < len(dist) for i in chosen):
        return "subset index out of range"
    if int(dist[chosen].max()) != int(out["value"]):
        return f"subset radius {int(dist[chosen].max())} differs from value {out['value']}"
    nearest = sorted(np.argsort(dist, kind="stable")[:k].tolist())
    if sorted(chosen) != nearest:
        return "subset is not the k nearest strings with ties to the lowest index"
    return None


def check_decide_cks(out: dict, optimum: int, d: int):
    want = "yes" if optimum <= d else "no"
    if out.get("answer") != want or out.get("d") != str(d):
        return f"answer={out.get('answer')} for d={d}, but the optimum radius is {optimum}"
    return None


# ---- Max-2-SAT -> CMS ----------------------------------------------------


def clause_row(clause, n: int) -> str:
    """Block encoding of one clause: 11 positive, 00 negative, 01 absent."""
    polarity = {var: positive for var, positive in clause}
    return "".join(
        ("11" if polarity[i] else "00") if i in polarity else "01" for i in range(1, n + 1)
    )


def check_sat2cms_instance(text: str, n: int, clauses, c: int):
    """c*m fixing strings from {01,10}^n, then one clause string per clause."""
    sigma, letter, d, words = read_strings(text)
    m = len(clauses)
    if (sigma, letter, d) != (2, "d", n):
        return f"header sigma={sigma} param {letter}={d}, expected sigma=2 d={n}"
    if words.shape != (c * m + m, 2 * n):
        return f"instance is {words.shape}, expected {(c * m + m, 2 * n)}"
    blocks = words.reshape(len(words), n, 2)
    fixing = blocks[: c * m]
    if not (fixing[:, :, 0] != fixing[:, :, 1]).all():
        return "a fixing string has a block outside {01,10}"
    for j, clause in enumerate(clauses):
        row = "".join(str(int(x)) for x in words[c * m + j])
        if row != clause_row(clause, n):
            return f"clause string {j + 1} is {row}, expected {clause_row(clause, n)}"
    return None


def coverage(words: np.ndarray, center: np.ndarray, d: int) -> int:
    return int(((words != center).sum(axis=1) <= d).sum())


def check_local_search(out: dict, words: np.ndarray, d: int, restarts: int):
    """The value is the center's coverage and no start word covers more."""
    if out.get("recheck") != "ok":
        return f"recheck={out.get('recheck')}"
    center = out.get("center", "")
    if len(center) != words.shape[1] or set(center) - {"0", "1"}:
        return f"center {center!r} is not a binary word of length {words.shape[1]}"
    value = int(out.get("value", -1))
    actual = coverage(words, word_symbols(center), d)
    if value != actual:
        return f"value={value} but the center covers {actual}"
    for r in range(restarts):
        start = coverage(words, words[r % len(words)], d)
        if start > value:
            return f"start word {r % len(words) + 1} covers {start} > value {value}"
    return None


def max2sat_optimum(n: int, clauses) -> int:
    best = 0
    for bits in itertools.product((False, True), repeat=n):
        best = max(best, sum(bits[a - 1] == pa or bits[b - 1] == pb for (a, pa), (b, pb) in clauses))
    return best


def check_las_vegas(out: dict, n: int, clauses):
    optimum = max2sat_optimum(n, clauses)
    if out.get("satisfied") != str(optimum) or out.get("optimum") != str(optimum):
        return f"satisfied={out.get('satisfied')} optimum={out.get('optimum')}, brute force gives {optimum}"
    if int(out.get("trials", 0)) < 1:
        return f"trials={out.get('trials')}"
    return None


def check_fixing_lemma(out: dict, trials: int):
    if out.get("within_bound") != "true":
        return f"within_bound={out.get('within_bound')}"
    if out.get("trials") != str(trials) or not 0 <= int(out.get("failures", -1)) <= trials:
        return f"trials={out.get('trials')} failures={out.get('failures')}"
    return None


# ---- Densest-k-Subgraph -> MSFBC -----------------------------------------


def check_dks2msfbc_instance(words: np.ndarray, letter: str, value: int, v: int, edges, k: int):
    """One incidence string per edge, then the all-zero string, with param k."""
    if (letter, value) != ("k", k):
        return f"param {letter} {value}, expected k {k}"
    expected = np.zeros((len(edges) + 1, v), dtype=np.int64)
    for i, (a, b) in enumerate(edges):
        expected[i, [a - 1, b - 1]] = 1
    if words.shape != expected.shape or (words != expected).any():
        return "strings are not the edge incidence vectors followed by the zero string"
    return None


def dks_optimum(v: int, edges, k: int) -> int:
    """Most edges induced by k of the v vertices, over every k-subset."""
    combos = np.array(list(itertools.combinations(range(v), k)))
    member = np.zeros((len(combos), v), dtype=bool)
    member[np.arange(len(combos))[:, None], combos] = True
    ends = np.array(edges) - 1
    return int((member[:, ends[:, 0]] & member[:, ends[:, 1]]).sum(axis=1).max())


def check_dks(out: dict, v: int, edges, k: int, alpha: int):
    vertices = [int(t) for t in out.get("vertices", "").split()]
    if out.get("value") != str(alpha):
        return f"value={out.get('value')} but the densest {k}-subgraph has {alpha} edges"
    if len(set(vertices)) != k or not all(1 <= x <= v for x in vertices):
        return f"vertices {vertices} are not {k} distinct vertices"
    induced = sum(a in vertices and b in vertices for a, b in edges)
    if induced != alpha:
        return f"vertices {vertices} induce {induced} edges, not {alpha}"
    return None


def check_claim_optval(out: dict, alpha: int):
    if (out.get("alpha"), out.get("beta"), out.get("pass")) != (str(alpha), str(alpha + 1), "true"):
        return f"alpha={out.get('alpha')} beta={out.get('beta')} pass={out.get('pass')}, expected {alpha}, {alpha + 1}, true"
    return None


def bad_column_count(words: np.ndarray) -> int:
    return int((words != words[0]).any(axis=0).sum())


def check_msfbc(out: dict, words: np.ndarray, k: int, alpha: int, same_as=None):
    """alpha+1 distinct strings with at most k bad columns, recounted here;
    when ``same_as`` is given, the same indices as that other solver."""
    if out.get("recheck") != "ok":
        return f"recheck={out.get('recheck')}"
    indices = [int(t) - 1 for t in out.get("indices", "").split()]
    if len(set(indices)) != alpha + 1 or out.get("value") != str(alpha + 1):
        return f"value={out.get('value')} with {len(set(indices))} indices, expected {alpha + 1}"
    if not all(0 <= i < len(words) for i in indices):
        return "index out of range"
    bad = bad_column_count(words[indices])
    if bad > k or out.get("bad_columns") != str(bad):
        return f"subset has {bad} bad columns (reported {out.get('bad_columns')}), allowed {k}"
    if same_as is not None and out.get("indices") != same_as:
        return f"indices {out.get('indices')} differ from the other solver's {same_as}"
    return None
