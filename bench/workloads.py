"""The benchmark's workloads: how each job's inputs are generated, which CLI
commands a job runs, and how each command's output is checked.

A job is a fixed sequence of CLI commands on one generated input. Inputs are
made with ``strsel.gen`` and written with ``strsel.formats``; expected
answers come from :mod:`checks`, which does not import ``strsel``.
"""

from __future__ import annotations

import random
from pathlib import Path

import checks
from strsel import formats, gen
from strsel.words import CksInstance, CmsInstance, FfmsInstance


class Centers:
    """Exact CMS, FFMS and CkS, then the CkS decision through the inflating
    oracle, on one random string set per job."""

    def __init__(self, name: str, sigma: int, length: int, n: int):
        self.name, self.sigma, self.length, self.n = name, sigma, length, n
        self.d_cms = length // 3
        self.d_ffms = length - length // 3
        self.k = n // 2

    def write_inputs(self, job_dir: Path, seed: int):
        sset = gen.random_string_set(self.sigma, self.length, self.n, seed)
        for name, inst in (
            ("cms.txt", CmsInstance(sset, self.d_cms)),
            ("ffms.txt", FfmsInstance(sset, self.d_ffms)),
            ("cks.txt", CksInstance(sset, self.k)),
        ):
            (job_dir / name).write_text(formats.serialize_strings_instance(inst))

    def prepare(self, job_dir: Path, seed: int, job: int) -> dict:
        """Independent answers; the decision threshold d alternates between
        the optimum radius (answer yes) and one below it (answer no)."""
        sigma, _, _, words = checks.read_strings((job_dir / "cks.txt").read_text())
        table = checks.CenterTable(sigma, words)
        optimum = int(table.cks_scores(self.k).min())
        d = optimum if job % 2 == 0 or optimum < 2 else optimum - 1
        return {"table": table, "optimum": optimum, "d": d}

    def ops(self, job_dir: Path, seed: int, expect: dict):
        exact = ["--algo", "exact", "--recheck"]
        return [
            ("solve-cms", ["solve", "cms", "-f", str(job_dir / "cms.txt"), *exact]),
            ("solve-ffms", ["solve", "ffms", "-f", str(job_dir / "ffms.txt"), *exact]),
            ("solve-cks", ["solve", "cks", "-f", str(job_dir / "cks.txt"), *exact]),
            (
                "decide-cks",
                ["decide-cks", "-f", str(job_dir / "cks.txt"), "--d", str(expect["d"]), "--oracle", f"inflate:{seed}"],
            ),
        ]

    def check(self, job_dir: Path, expect: dict, outputs: dict) -> dict:
        table = expect["table"]
        return {
            "solve-cms": checks.check_cms(outputs["solve-cms"], table, self.d_cms),
            "solve-ffms": checks.check_ffms(outputs["solve-ffms"], table, self.d_ffms),
            "solve-cks": checks.check_cks(outputs["solve-cks"], table, self.k),
            "decide-cks": checks.check_decide_cks(outputs["decide-cks"], expect["optimum"], expect["d"]),
        }


class Sat2Cms:
    """The randomized Max-2-SAT -> CMS reduction, hill climbing on its output,
    and the two experiments built on it."""

    name = "sat2cms"
    n, m, c, restarts = 10, 30, 20, 16
    lv_n, lv_m = 4, 6
    fix_n, fix_m, fix_trials = 6, 6, 40

    def write_inputs(self, job_dir: Path, seed: int):
        (job_dir / "phi.cnf").write_text(formats.serialize_cnf(gen.random_max2sat(self.n, self.m, seed)))

    def prepare(self, job_dir: Path, seed: int, job: int) -> dict:
        # las-vegas draws its own formula from the seed; this is that input
        phi = gen.random_max2sat(self.lv_n, self.lv_m, seed)
        lv_clauses = [((a.variable, a.positive), (b.variable, b.positive)) for a, b in phi.clauses]
        return {"lv_clauses": lv_clauses}

    def ops(self, job_dir: Path, seed: int, expect: dict):
        s = str(seed)
        instance = str(job_dir / "reduced" / "instance.txt")
        return [
            ("reduce", ["reduce", "sat2cms", "-f", str(job_dir / "phi.cnf"), "--c", str(self.c), "--seed", s,
                        "-o", str(job_dir / "reduced")]),
            ("solve-local", ["solve", "cms", "-f", instance, "--algo", "local", "--restarts", str(self.restarts),
                             "--start", "inputs", "--recheck", "--seed", s]),
            ("las-vegas", ["experiment", "las-vegas", "--n", str(self.lv_n), "--m", str(self.lv_m), "--seed", s]),
            ("fixing-lemma", ["experiment", "fixing-lemma", "--n", str(self.fix_n), "--m", str(self.fix_m),
                              "--c", str(self.c), "--trials", str(self.fix_trials), "--seed", s]),
        ]

    def check(self, job_dir: Path, expect: dict, outputs: dict) -> dict:
        n, clauses = checks.read_cnf((job_dir / "phi.cnf").read_text())
        text = (job_dir / "reduced" / "instance.txt").read_text()
        _, _, d, words = checks.read_strings(text)
        return {
            "reduce": checks.check_sat2cms_instance(text, n, clauses, self.c),
            "solve-local": checks.check_local_search(outputs["solve-local"], words, d, self.restarts),
            "las-vegas": checks.check_las_vegas(outputs["las-vegas"], self.lv_n, expect["lv_clauses"]),
            "fixing-lemma": checks.check_fixing_lemma(outputs["fixing-lemma"], self.fix_trials),
        }


class Msfbc:
    """The Densest-k-Subgraph -> MSFBC reduction, both exact MSFBC solvers,
    the DkS solver and the beta = alpha + 1 check."""

    name = "msfbc"
    vertices, edges, k = 12, 14, 4
    alpha = 4

    def write_inputs(self, job_dir: Path, seed: int):
        # Only graphs whose densest 4-subgraph has alpha edges: the subset
        # solver's work depends on alpha, and this keeps every job about the
        # same size (27,800 to 30,600 subsets examined).
        graph = gen.random_graph(self.vertices, self.edges, seed)
        while checks.dks_optimum(self.vertices, graph.edges, self.k) != self.alpha:
            seed = random.Random(seed).getrandbits(63)
            graph = gen.random_graph(self.vertices, self.edges, seed)
        (job_dir / "g.col").write_text(formats.serialize_graph(graph))

    def prepare(self, job_dir: Path, seed: int, job: int) -> dict:
        v, edges = checks.read_graph((job_dir / "g.col").read_text())
        return {"v": v, "graph_edges": edges, "alpha": checks.dks_optimum(v, edges, self.k)}

    def ops(self, job_dir: Path, seed: int, expect: dict):
        graph = str(job_dir / "g.col")
        instance = str(job_dir / "reduced" / "instance.txt")
        k = str(self.k)
        return [
            ("reduce", ["reduce", "dks2msfbc", "-f", graph, "--k", k, "-o", str(job_dir / "reduced")]),
            ("solve-subsets", ["solve", "msfbc", "-f", instance, "--algo", "exact", "--recheck"]),
            ("solve-columns", ["solve", "msfbc", "-f", instance, "--algo", "columns", "--recheck"]),
            ("solve-dks", ["solve", "dks", "-f", graph, "--k", k]),
            ("claim-optval", ["verify", "claim-optval", "-f", graph, "--k", k]),
        ]

    def check(self, job_dir: Path, expect: dict, outputs: dict) -> dict:
        _, letter, k, words = checks.read_strings((job_dir / "reduced" / "instance.txt").read_text())
        alpha, v, edges = expect["alpha"], expect["v"], expect["graph_edges"]
        return {
            "reduce": checks.check_dks2msfbc_instance(words, letter, k, v, edges, self.k),
            "solve-subsets": checks.check_msfbc(outputs["solve-subsets"], words, self.k, alpha),
            "solve-columns": checks.check_msfbc(
                outputs["solve-columns"], words, self.k, alpha, same_as=outputs["solve-subsets"].get("indices")
            ),
            "solve-dks": checks.check_dks(outputs["solve-dks"], v, edges, self.k, alpha),
            "claim-optval": checks.check_claim_optval(outputs["claim-optval"], alpha),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Centers("centers", sigma=2, length=10, n=48),
        Centers("sigma4", sigma=4, length=5, n=32),
        Sat2Cms(),
        Msfbc(),
    )
}
