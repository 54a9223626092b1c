"""Tests of the benchmark itself: the independent checkers reject corrupted
CLI output, every traced function is reached by the workload meant to
exercise it, and the metric names match BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import worker

strsel = worker.import_strsel()

from workloads import WORKLOADS  # noqa: E402  (needs strsel on the path)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert strsel.cli.main(list(argv)) == 0
    return checks.parse_output(out.getvalue())


def write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strings_file(tmp_path, name, rows, letter, value, sigma=2) -> str:
    body = "\n".join(rows)
    return write(tmp_path, name, f"strings {sigma} {len(rows[0])} {len(rows)}\nparam {letter} {value}\n{body}\n")


def table_of(path) -> checks.CenterTable:
    sigma, _, _, words = checks.read_strings(Path(path).read_text())
    return checks.CenterTable(sigma, words)


ROWS = ["0011", "1100", "0110", "1001", "0000", "0111"]


def test_cms_checker_rejects_wrong_value_center_and_tie_break(tmp_path):
    path = strings_file(tmp_path, "cms.txt", ROWS, "d", 1)
    table = table_of(path)
    out = cli("solve", "cms", "-f", path, "--algo", "exact", "--recheck")
    assert checks.check_cms(out, table, 1) is None
    assert checks.check_cms({**out, "value": str(int(out["value"]) + 1)}, table, 1)
    scores = table.cms_scores(1)
    worse = format(int(scores.argmin()), "04b")
    assert checks.check_cms({**out, "center": worse}, table, 1)
    later_optimum = format(int(np.flatnonzero(scores == scores.max())[-1]), "04b")
    assert later_optimum != out["center"]
    assert "lexicographically first" in checks.check_cms({**out, "center": later_optimum}, table, 1)
    assert checks.check_cms({**out, "recheck": "fail"}, table, 1)


def test_ffms_checker_rejects_wrong_value(tmp_path):
    path = strings_file(tmp_path, "ffms.txt", ROWS, "d", 3)
    table = table_of(path)
    out = cli("solve", "ffms", "-f", path, "--algo", "exact", "--recheck")
    assert checks.check_ffms(out, table, 3) is None
    assert checks.check_ffms({**out, "value": str(int(out["value"]) - 1)}, table, 3)


def test_cks_checker_rejects_wrong_subset_and_radius(tmp_path):
    path = strings_file(tmp_path, "cks.txt", ROWS, "k", 3)
    table = table_of(path)
    out = cli("solve", "cks", "-f", path, "--algo", "exact", "--recheck")
    assert checks.check_cks(out, table, 3) is None
    assert checks.check_cks({**out, "value": str(int(out["value"]) + 1)}, table, 3)
    chosen = out["subset"].split()
    outside = next(str(i) for i in range(1, len(ROWS) + 1) if str(i) not in chosen)
    assert checks.check_cks({**out, "subset": " ".join(chosen[:-1] + [outside])}, table, 3)
    assert checks.check_cks({**out, "subset": " ".join(chosen[:-1])}, table, 3)


def test_decide_checker_rejects_flipped_answer(tmp_path):
    path = strings_file(tmp_path, "cks.txt", ROWS, "k", 3)
    optimum = int(table_of(path).cks_scores(3).min())
    out = cli("decide-cks", "-f", path, "--d", str(optimum), "--oracle", "inflate:5")
    assert checks.check_decide_cks(out, optimum, optimum) is None
    assert checks.check_decide_cks({**out, "answer": "no"}, optimum, optimum)


def test_sat2cms_checkers_reject_corrupted_output(tmp_path):
    phi = write(tmp_path, "phi.cnf", "p cnf 3 4\n1 2 0\n-1 3 0\n2 -3 0\n-2 -1 0\n")
    n, clauses = checks.read_cnf(Path(phi).read_text())
    cli("reduce", "sat2cms", "-f", phi, "--c", "5", "--seed", "3", "-o", str(tmp_path / "red"))
    text = (tmp_path / "red" / "instance.txt").read_text()
    assert checks.check_sat2cms_instance(text, n, clauses, 5) is None
    lines = text.split("\n")
    lines[2] = "00" + lines[2][2:]
    assert "fixing" in checks.check_sat2cms_instance("\n".join(lines), n, clauses, 5)
    lines = text.split("\n")
    lines[2 + 20] = "01" * n
    assert "clause string" in checks.check_sat2cms_instance("\n".join(lines), n, clauses, 5)
    assert checks.check_sat2cms_instance(text, n, clauses, 4)

    _, _, d, words = checks.read_strings(text)
    instance = str(tmp_path / "red" / "instance.txt")
    out = cli("solve", "cms", "-f", instance, "--algo", "local", "--restarts", "4", "--seed", "1", "--recheck")
    assert checks.check_local_search(out, words, d, 4) is None
    assert checks.check_local_search({**out, "value": str(int(out["value"]) + 1)}, words, d, 4)
    poor = next(w for w in words if checks.coverage(words, w, d) != int(out["value"]))
    assert checks.check_local_search({**out, "center": "".join(map(str, poor))}, words, d, 4)


def test_experiment_checkers_reject_corrupted_output():
    lv = cli("experiment", "las-vegas", "--n", "3", "--m", "4", "--seed", "9")
    phi = strsel.gen.random_max2sat(3, 4, 9)
    clauses = [((a.variable, a.positive), (b.variable, b.positive)) for a, b in phi.clauses]
    assert checks.check_las_vegas(lv, 3, clauses) is None
    assert checks.check_las_vegas({**lv, "satisfied": str(int(lv["satisfied"]) - 1)}, 3, clauses)
    fix = cli("experiment", "fixing-lemma", "--n", "3", "--m", "3", "--c", "20", "--trials", "10", "--seed", "1")
    assert checks.check_fixing_lemma(fix, 10) is None
    assert checks.check_fixing_lemma({**fix, "within_bound": "false"}, 10)


def test_msfbc_checkers_reject_infeasible_subset_and_wrong_optimum(tmp_path):
    graph = write(tmp_path, "g.col", "p edge 6 7\ne 1 2\ne 1 3\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\n")
    v, edges = checks.read_graph(Path(graph).read_text())
    alpha = checks.dks_optimum(v, edges, 3)
    assert alpha == 3
    cli("reduce", "dks2msfbc", "-f", graph, "--k", "3", "-o", str(tmp_path / "red"))
    _, letter, k, words = checks.read_strings((tmp_path / "red" / "instance.txt").read_text())
    assert checks.check_dks2msfbc_instance(words, letter, k, v, edges, 3) is None
    assert checks.check_dks2msfbc_instance(words[::-1], letter, k, v, edges, 3)

    instance = str(tmp_path / "red" / "instance.txt")
    subsets = cli("solve", "msfbc", "-f", instance, "--algo", "exact", "--recheck")
    columns = cli("solve", "msfbc", "-f", instance, "--algo", "columns", "--recheck")
    assert checks.check_msfbc(subsets, words, 3, alpha) is None
    assert checks.check_msfbc(columns, words, 3, alpha, same_as=subsets["indices"]) is None
    # edges 1-2, 3-4 and 5-6 plus the zero string: 6 bad columns > k
    infeasible = {**subsets, "indices": "1 4 6 8"}
    assert "bad columns" in checks.check_msfbc(infeasible, words, 3, alpha)
    assert checks.check_msfbc({**columns, "indices": "1 2 8"}, words, 3, alpha)
    assert checks.check_msfbc(columns, words, 3, alpha, same_as="1 2 3 4")

    dks = cli("solve", "dks", "-f", graph, "--k", "3")
    assert checks.check_dks(dks, v, edges, 3, alpha) is None
    assert checks.check_dks({**dks, "vertices": "4 5 6"}, v, edges, 3, alpha)
    assert checks.check_dks({**dks, "value": str(alpha - 1)}, v, edges, 3, alpha)
    claim = cli("verify", "claim-optval", "-f", graph, "--k", "3")
    assert checks.check_claim_optval(claim, alpha) is None
    assert checks.check_claim_optval({**claim, "beta": str(alpha)}, alpha)


@pytest.mark.parametrize("n", [5, 7])
def test_subsets_before_counts_the_enumeration_order(n):
    order = [c for size in range(n, 0, -1) for c in itertools.combinations(range(n), size)]
    for position, combo in enumerate(order):
        assert tracing.subsets_before(combo, n) == position


# Functions each workload is meant to exercise, and the per-layer metrics
# read from them; a renamed function fails here instead of reading 0.
CENTERS = (
    ["formats.parse_strings_instance", "words.coverage", "words.anticoverage", "words.hamming",
     "exact.solve_cms_exact", "exact.solve_ffms_exact", "exact.solve_cks_exact", "fpt.decide_cks",
     "fpt.synthetic_inflating_oracle"],
    ["formats.parse_s", "words.coverage_calls", "words.coverage_s", "words.hamming_calls", "exact.cms_s",
     "exact.cks_s", "exact.centers", "exact.centers_per_s", "fpt.decide_cks_s", "fpt.oracle_calls",
     "formats.rows_per_s", "cli.self_s"],
)
EXERCISED = {
    "centers": CENTERS,
    "sigma4": CENTERS,
    "sat2cms": (
        ["formats.parse_cnf", "formats.parse_strings_instance", "formats.serialize_strings_instance",
         "formats.serialize_certificate", "reductions.reduce_max2sat_to_cms", "reductions.fixing_strings",
         "reductions.clause_string", "reductions.decode_center", "heuristics.local_search_cms",
         "words.coverage", "words.hamming", "exact.solve_cms_exact", "exact.solve_max2sat_exact",
         "experiments.las_vegas_loop", "experiments.lemma_fixing_campaign", "experiments.lemma_fixing_trial",
         "experiments.structural_property_holds", "gen.random_max2sat"],
        ["formats.parse_s", "formats.serialize_s", "formats.rows_per_s", "words.coverage_s",
         "words.hamming_calls", "exact.max2sat_s", "heuristics.local_search_s", "heuristics.objective_evals",
         "heuristics.objective_evals_per_s", "reductions.sat2cms_s", "reductions.strings_per_s",
         "experiments.las_vegas_s", "experiments.las_vegas_trials", "experiments.fixing_campaign_s",
         "experiments.fixing_trials_per_s", "cli.self_s"],
    ),
    "msfbc": (
        ["formats.parse_graph", "formats.parse_strings_instance", "formats.serialize_strings_instance",
         "reductions.reduce_dks_to_msfbc", "reductions.incidence_vector", "reductions.verify_claim_optval",
         "exact.solve_msfbc_subsets", "exact.solve_msfbc_columns", "exact.solve_dks_exact", "words.bad_columns"],
        ["formats.parse_s", "formats.serialize_s", "words.bad_columns_calls", "words.bad_columns_s",
         "exact.msfbc_subsets_s", "exact.subsets", "exact.subsets_per_s", "exact.msfbc_columns_s",
         "exact.column_sets_per_s", "exact.dks_s", "reductions.dks2msfbc_s", "reductions.strings_per_s",
         "reductions.claim_optval_self_s", "cli.self_s"],
    ),
}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_traced_functions_are_reached_by_their_workload(name, tmp_path):
    workload = WORKLOADS[name]
    tracer = tracing.Tracer(strsel)
    assert tracer.missing_sources() == []
    result = worker.run_jobs(strsel, workload, worker.Jobs(workload, 1, tmp_path), 0, tracer, min_jobs=2)
    assert result["failed"] == 0 and result["correct"], result["failures"]
    assert tracer.jobs == 1
    functions, metrics = EXERCISED[name]
    assert set(functions) <= tracer.names
    for fn in functions:
        assert tracer.calls[fn] > 0, f"{fn} was not called on {name}"
    values = tracer.layer_metrics()
    for metric in metrics:
        assert values[metric] > 0, f"{metric} reads 0 on {name}"
    assert values["words.hamming_calls"] == 0 or name != "msfbc"


def test_metric_names_and_units_match_benchmark_json():
    tracer = tracing.Tracer(strsel)
    layer = set(tracer.layer_metrics()) | {
        "fpt.rss_growth_mb", "host.ref_loop_s", "trace.overhead_s", "setup.import_s", "setup.inputs_s",
    }
    assert layer == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = set(worker.job_metrics([0.1] * 40, 1.0)) | {"setup_s"}
    assert end_to_end == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


def test_normalised_time_cancels_host_speed():
    ref = worker.REF_S
    fast = worker.normalised([0.1, 0.2], [ref, ref, ref])
    # a slow phase doubles the commands and the reference loops around them
    slow = worker.normalised([0.2, 0.4], [2 * ref, 2 * ref, 2 * ref])
    # the phase changes during the second command
    mixed = worker.normalised([0.1, 0.3], [ref, ref, 2 * ref])
    assert fast == pytest.approx(0.3)
    assert slow == pytest.approx(0.3)
    assert mixed == pytest.approx(0.1 + 0.3 / 2)


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    times = [float(i) for i in range(40)]
    assert worker.tail(times) == (75.0, 29.0)
    assert sum(t > worker.tail(times)[1] for t in times) == 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "centers", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
