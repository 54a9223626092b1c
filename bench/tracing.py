"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of every ``strsel`` module and
installs each wrapper on every module attribute bound to the function,
because modules import names directly (``exact`` calls its own
``coverage``, ``cli`` its own ``parse_strings_instance``). A wrapper records
a span (id, name, start, end, parent span, job) and adds its duration to the
function's inclusive time and to its parent's child time, so a span's self
time is its duration minus its children. Functions called hundreds of
thousands of times per job are only counted (``hamming``) or only summed
(``coverage``, ``anticoverage``, ``bad_columns``), so that the traced run
stays within a small factor of the untraced one.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from math import comb

MODULES = ("words", "exact", "fpt", "heuristics", "reductions", "experiments", "formats", "gen", "rng")
COUNT_ONLY = {"words.hamming"}
SUM_ONLY = {"words.coverage", "words.anticoverage", "words.bad_columns"}

# per-layer metric -> the wrapped functions it is read from
SOURCES = {
    "formats.parse_s": ("formats.parse_strings_instance", "formats.parse_cnf", "formats.parse_graph"),
    "formats.serialize_s": (
        "formats.serialize_strings_instance",
        "formats.serialize_cnf",
        "formats.serialize_graph",
        "formats.serialize_certificate",
    ),
    "words.coverage_s": ("words.coverage",),
    "words.hamming_calls": ("words.hamming",),
    "words.bad_columns_s": ("words.bad_columns",),
    "exact.cms_s": ("exact.solve_cms_exact", "exact.solve_ffms_exact"),
    "exact.cks_s": ("exact.solve_cks_exact",),
    "exact.msfbc_subsets_s": ("exact.solve_msfbc_subsets",),
    "exact.msfbc_columns_s": ("exact.solve_msfbc_columns",),
    "exact.dks_s": ("exact.solve_dks_exact",),
    "exact.max2sat_s": ("exact.solve_max2sat_exact",),
    "heuristics.local_search_s": ("heuristics.local_search_cms",),
    "reductions.sat2cms_s": ("reductions.reduce_max2sat_to_cms",),
    "reductions.dks2msfbc_s": ("reductions.reduce_dks_to_msfbc",),
    "reductions.claim_optval_self_s": ("reductions.verify_claim_optval",),
    "fpt.decide_cks_s": ("fpt.decide_cks",),
    "fpt.oracle_calls": ("fpt.synthetic_inflating_oracle", "fpt.exact_oracle"),
    "experiments.las_vegas_s": ("experiments.las_vegas_loop",),
    "experiments.fixing_campaign_s": ("experiments.lemma_fixing_campaign",),
}


def subsets_before(answer, n: int) -> int:
    """Subsets ``solve_msfbc_subsets`` examines before its answer A: every
    larger subset, then the size-|A| subsets before A in lexicographic order."""
    size = len(answer)
    rank = sum(comb(n, s) for s in range(size + 1, n + 1))
    prev = -1
    for i, c in enumerate(answer):
        rank += sum(comb(n - 1 - j, size - 1 - i) for j in range(prev + 1, c))
        prev = c
    return rank


def _centers(args, result):
    sset = args[0].set
    return "centers", sset.alphabet.size**sset.length


def _column_sets(args, result):
    ell = args[0].set.length
    return "column_sets", comb(ell, min(args[0].k, ell))


# wrapped function -> (work unit, amount) of one call, from its arguments and result
UNITS = {
    "exact.solve_cms_exact": _centers,
    "exact.solve_ffms_exact": _centers,
    "exact.solve_cks_exact": _centers,
    "exact.solve_msfbc_subsets": lambda a, r: ("subsets", subsets_before(r.indices, a[0].set.size)),
    "exact.solve_msfbc_columns": _column_sets,
    "reductions.reduce_max2sat_to_cms": lambda a, r: ("strings", r[0].set.size),
    "reductions.reduce_dks_to_msfbc": lambda a, r: ("strings", r[0].set.size),
    "experiments.las_vegas_loop": lambda a, r: ("las_vegas_trials", r[1]),
    "experiments.lemma_fixing_campaign": lambda a, r: ("fixing_trials", r.trials),
    **{f: (lambda a, r: ("rows", a[0].count("\n"))) for f in SOURCES["formats.parse_s"]},
    **{f: (lambda a, r: ("rows", r.count("\n"))) for f in SOURCES["formats.serialize_s"]},
}


class Tracer:
    """Wraps ``strsel``'s public functions while a traced job runs, and keeps
    its spans and totals in memory."""

    def __init__(self, package):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.units = Counter()
        self.spans = []
        self.jobs = 0
        self._ids = itertools.count()
        self._stack = []
        self._active = Counter()
        self._job = None
        wrappers = {}
        for mod in (getattr(package, m) for m in MODULES):
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[fn] = self._wrap(f"{mod.__name__.rsplit('.', 1)[1]}.{attr}", fn)
        self.names = {w.traced_name for w in wrappers.values()}
        self._patches = [
            (mod, attr, value, wrappers[value])
            for mod in [package, package.cli] + [getattr(package, m) for m in MODULES]
            for attr, value in vars(mod).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def missing_sources(self) -> list:
        """Functions named in :data:`SOURCES` that the package no longer has."""
        return sorted({f for fs in SOURCES.values() for f in fs} - self.names)

    def _wrap(self, name, fn):
        calls = self.calls
        if name in COUNT_ONLY:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        else:
            stack, active, units, ids = self._stack, self._active, self.units, self._ids
            incl, self_time, spans = self.incl, self.self_time, self.spans
            record = name not in SUM_ONLY
            objective = name == "words.coverage"
            measure = UNITS.get(name)

            def wrapper(*args, **kwargs):
                frame = [next(ids) if record else None, 0.0]
                stack.append(frame)
                active[name] += 1
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    active[name] -= 1
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += end - start
                    calls[name] += 1
                    incl[name] += end - start
                    self_time[name] += end - start - frame[1]
                    if record:
                        spans.append((frame[0], name, start, end, parent[0], self._job))
                if objective and active["heuristics.local_search_cms"]:
                    units["objective_evals"] += 1
                if measure is not None:
                    unit, amount = measure(args, result)
                    units[unit] += amount
                return result

        wrapper.traced_name = name
        return wrapper

    def run_job(self, job: int, body) -> float:
        """Run ``body()`` as traced job ``job`` and return its wall time."""
        self._job = job
        root = [next(self._ids), 0.0]
        self._stack.append(root)
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            start = time.perf_counter()
            body()
            end = time.perf_counter()
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)
            self._stack.pop()
        self.self_time["cli.job"] += end - start - root[1]
        self.spans.append((root[0], "job", start, end, None, job))
        self.jobs += 1
        return end - start

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer values: seconds and counts are means per traced job,
        rates are total work over total time."""
        jobs = max(self.jobs, 1)
        units = self.units

        def seconds(metric):
            return sum(self.incl[f] for f in SOURCES[metric])

        def rate(work, secs):
            return work / secs if secs > 0 else 0.0

        return {
            "cli.self_s": self.self_time["cli.job"] / jobs,
            "formats.parse_s": seconds("formats.parse_s") / jobs,
            "formats.serialize_s": seconds("formats.serialize_s") / jobs,
            "formats.rows_per_s": rate(units["rows"], seconds("formats.parse_s") + seconds("formats.serialize_s")),
            "words.coverage_calls": self.calls["words.coverage"] / jobs,
            "words.coverage_s": seconds("words.coverage_s") / jobs,
            "words.hamming_calls": self.calls["words.hamming"] / jobs,
            "words.bad_columns_calls": self.calls["words.bad_columns"] / jobs,
            "words.bad_columns_s": seconds("words.bad_columns_s") / jobs,
            "exact.cms_s": seconds("exact.cms_s") / jobs,
            "exact.cks_s": seconds("exact.cks_s") / jobs,
            "exact.centers": units["centers"] / jobs,
            "exact.centers_per_s": rate(units["centers"], seconds("exact.cms_s") + seconds("exact.cks_s")),
            "exact.msfbc_subsets_s": seconds("exact.msfbc_subsets_s") / jobs,
            "exact.subsets": units["subsets"] / jobs,
            "exact.subsets_per_s": rate(units["subsets"], seconds("exact.msfbc_subsets_s")),
            "exact.msfbc_columns_s": seconds("exact.msfbc_columns_s") / jobs,
            "exact.column_sets_per_s": rate(units["column_sets"], seconds("exact.msfbc_columns_s")),
            "exact.dks_s": seconds("exact.dks_s") / jobs,
            "exact.max2sat_s": seconds("exact.max2sat_s") / jobs,
            "heuristics.local_search_s": seconds("heuristics.local_search_s") / jobs,
            "heuristics.objective_evals": units["objective_evals"] / jobs,
            "heuristics.objective_evals_per_s": rate(units["objective_evals"], seconds("heuristics.local_search_s")),
            "reductions.sat2cms_s": seconds("reductions.sat2cms_s") / jobs,
            "reductions.dks2msfbc_s": seconds("reductions.dks2msfbc_s") / jobs,
            "reductions.strings_per_s": rate(
                units["strings"], seconds("reductions.sat2cms_s") + seconds("reductions.dks2msfbc_s")
            ),
            "reductions.claim_optval_self_s": self.self_time["reductions.verify_claim_optval"] / jobs,
            "fpt.decide_cks_s": seconds("fpt.decide_cks_s") / jobs,
            "fpt.oracle_calls": sum(self.calls[f] for f in SOURCES["fpt.oracle_calls"]) / jobs,
            "experiments.las_vegas_s": seconds("experiments.las_vegas_s") / jobs,
            "experiments.las_vegas_trials": units["las_vegas_trials"] / jobs,
            "experiments.fixing_campaign_s": seconds("experiments.fixing_campaign_s") / jobs,
            "experiments.fixing_trials_per_s": rate(units["fixing_trials"], seconds("experiments.fixing_campaign_s")),
        }
