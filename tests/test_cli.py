"""End-to-end CLI: exit-code contract, record re-scoring, reproducibility, and the table parser
against argparse."""

import contextlib
import io
import itertools
import os
import re
import secrets
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden_cli import _commands as golden_commands

from strsel import cli, exact, experiments, heuristics
from strsel.cli import COMMANDS, build_parser, main

K3 = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
CMS = "strings 2 2 3\nparam d 1\n00\n01\n11\n"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def as_dict(out):
    pairs = [ln.split("=", 1) for ln in out.strip().splitlines() if "=" in ln]
    return dict(pairs)


@pytest.fixture
def cms_file(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text(CMS)
    return str(p)


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text(K3)
    return str(p)


def test_solve_cms_exact(capsys, cms_file):
    status, out = run(capsys, "solve", "cms", "--algo", "exact", "-f", cms_file, "--recheck")
    assert status == 0
    rec = as_dict(out)
    assert rec["value"] == "3" and rec["center"] == "01" and rec["recheck"] == "ok"


def test_solve_local_deterministic(capsys, cms_file):
    _, out1 = run(capsys, "solve", "cms", "--algo", "local", "-f", cms_file, "--seed", "5")
    _, out2 = run(capsys, "solve", "cms", "--algo", "local", "-f", cms_file, "--seed", "5")
    assert out1 == out2


@pytest.mark.parametrize("algo", [[], ["--algo", "exact"]])
@pytest.mark.parametrize("option", [["--seed", "3"], ["--restarts", "2"], ["--start", "random"]])
def test_solve_refuses_a_local_search_option_without_algo_local(capsys, cms_file, algo, option):
    status = main(["solve", "cms", "-f", cms_file, *algo, *option])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {option[0]} applies to --algo local only\n"


def test_local_search_defaults_to_eight_restarts_from_the_inputs(capsys, cms_file, monkeypatch):
    configs = []
    monkeypatch.setattr(heuristics, "local_search_cms",
                        lambda inst, cfg: configs.append(cfg) or exact.solve_cms_exact(inst))
    run(capsys, "solve", "cms", "-f", cms_file, "--algo", "local", "--seed", "5")
    assert configs == [heuristics.SearchConfig(seed=5, restarts=8, start="inputs")]


def test_solve_msfbc_both_algos(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("strings 2 3 4\nparam k 2\n110\n101\n011\n000\n")
    s1, out1 = run(capsys, "solve", "msfbc", "--algo", "exact", "-f", str(p))
    s2, out2 = run(capsys, "solve", "msfbc", "--algo", "columns", "-f", str(p))
    assert s1 == s2 == 0
    assert as_dict(out1)["value"] == as_dict(out2)["value"] == "2"


def test_verify_claim(capsys, graph_file):
    status, out = run(capsys, "verify", "claim-optval", "-f", graph_file, "--k", "2")
    rec = as_dict(out)
    assert status == 0
    assert rec["alpha"] == "1" and rec["beta"] == "2" and rec["pass"] == "true"


def test_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("strings 2 2 1\n00\n")
    status, _ = run(capsys, "solve", "cms", "-f", str(p))
    assert status == 2


def test_unreadable_file_exit_2(capsys, tmp_path):
    status = main(["solve", "cms", "-f", str(tmp_path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def test_usage_error_exit_2(capsys):
    status = main(["solve", "nosuchproblem", "-f", "x"])
    capsys.readouterr()
    assert status == 2


def test_reduce_sat2cms_writes_sidecar(capsys, tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    outdir = tmp_path / "out"
    status, _ = run(
        capsys, "reduce", "sat2cms", "-f", str(cnf), "--c", "2", "--seed", "7", "-o", str(outdir)
    )
    assert status == 0
    inst_text = (outdir / "instance.txt").read_text()
    assert inst_text.startswith("strings 2 4 6\nparam d 2\n")
    cert = (outdir / "instance.cert").read_text()
    assert "seed=7" in cert and "c=2" in cert


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "sat2cms", "--seed", "7"],
        ["experiment", "las-vegas", "--n", "2", "--m", "2", "--seed", "9"],
    ],
)
def test_sat2cms_over_row_budget_exits_before_drawing(capsys, tmp_path, monkeypatch, argv):
    from strsel import reductions

    monkeypatch.setattr(reductions, "fixing_strings", lambda *a: pytest.fail("drew fixing strings"))
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    files = ["-f", str(cnf), "-o", str(tmp_path / "out")] if argv[0] == "reduce" else []
    # (c+1)*m = 2^20 + 2 with m = 2, the smallest row count that is refused
    status = main(argv + files + ["--c", str(2**19)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("resource error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, option",
    [("dks2msfbc", ["--seed", "5"]), ("dks2msfbc", ["--c", "3"]), ("sat2cms", ["--k", "3"])],
)
def test_reduce_refuses_an_option_the_reduction_does_not_read(capsys, tmp_path, graph_file, kind, option):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    source = graph_file if kind == "dks2msfbc" else str(cnf)
    k = ["--k", "2"] if kind == "dks2msfbc" else ["--seed", "7"]
    status = main(["reduce", kind, "-f", source, *k, *option, "-o", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {option[0]} does not apply to reduce {kind}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, command", [(["solve", "dks"], "dks"), (["reduce", "dks2msfbc", "-o", "out"], "dks2msfbc")]
)
def test_dks_without_k_exits_2(capsys, monkeypatch, tmp_path, graph_file, argv, command):
    monkeypatch.chdir(tmp_path)
    status = main([*argv, "-f", graph_file])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {command} requires --k\n"
    assert not (tmp_path / "out").exists()


def test_reduce_dks2msfbc(capsys, tmp_path, graph_file):
    outdir = tmp_path / "out"
    status, _ = run(capsys, "reduce", "dks2msfbc", "-f", graph_file, "--k", "2", "-o", str(outdir))
    assert status == 0
    assert "param k 2" in (outdir / "instance.txt").read_text()


def test_gen_commands_reproducible(capsys):
    _, out1 = run(capsys, "gen-max2sat", "--n", "3", "--m", "4", "--seed", "9")
    _, out2 = run(capsys, "gen-max2sat", "--n", "3", "--m", "4", "--seed", "9")
    assert out1 == out2 and out1.startswith("p cnf 3 4")
    _, g1 = run(capsys, "gen-graph", "--vertices", "5", "--edges", "4", "--seed", "3")
    _, g2 = run(capsys, "gen-graph", "--vertices", "5", "--edges", "4", "--seed", "3")
    assert g1 == g2 and g1.startswith("p edge 5 4")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--vertices", "3", "--edges", "-2"], "edge count must be in [0, 3] on 3 vertices, got -2"),
        (["--vertices", "3", "--edges", "4"], "edge count must be in [0, 3] on 3 vertices, got 4"),
        (["--vertices", "-1", "--edges", "0"], "vertex count must be at least 0, got -1"),
    ],
)
def test_gen_graph_rejects_a_count_out_of_range(capsys, flags, message):
    status = main(["gen-graph", *flags, "--seed", "1"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize(
    "argv",
    [["gen-max2sat", "--n", "5", "--m", "6"], ["solve", "cms", "--algo", "local"],
     ["reduce", "sat2cms", "-o", "out"], ["experiment", "las-vegas"], ["experiment", "fixing-lemma"]],
)
def test_seed_outside_64_bits_exits_2(capsys, monkeypatch, tmp_path, cms_file, argv, seed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    files = {"solve": ["-f", cms_file], "reduce": ["-f", "phi.cnf"]}.get(argv[0], [])
    status = main([*argv, *files, "--seed", seed])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: --seed must be in [0, 2^64), got {seed}\n"
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_accepted(capsys, cms_file):
    largest = str((1 << 64) - 1)
    status, out = run(capsys, "gen-max2sat", "--n", "5", "--m", "6", "--seed", largest)
    assert status == 0 and out.startswith("p cnf 5 6")
    status, out = run(capsys, "solve", "cms", "-f", cms_file, "--algo", "local", "--seed", largest)
    assert status == 0 and as_dict(out)["seed"] == largest


def test_auto_seed_emitted(capsys):
    _, out = run(capsys, "gen-max2sat", "--n", "3", "--m", "4")
    assert out.startswith("seed=")


def test_decide_cks(capsys, tmp_path):
    p = tmp_path / "cks.txt"
    p.write_text("strings 2 3 3\nparam k 2\n000\n011\n111\n")
    status, out = run(capsys, "decide-cks", "-f", str(p), "--d", "1", "--oracle", "inflate:3")
    assert status == 0 and as_dict(out)["answer"] == "yes"
    status, out = run(capsys, "decide-cks", "-f", str(p), "--d", "1", "--oracle", f"inflate:{2**64 - 1}")
    assert status == 0 and as_dict(out)["answer"] == "yes"
    status, out = run(capsys, "decide-cks", "-f", str(p), "--d", "0")
    assert status == 0 and as_dict(out)["answer"] == "no"


@pytest.mark.parametrize("oracle", ["inflate:abc", "inflate:", "inflate", "sort"])
def test_decide_cks_rejects_an_unknown_oracle(capsys, tmp_path, oracle):
    p = tmp_path / "cks.txt"
    p.write_text("strings 2 3 3\nparam k 2\n000\n011\n111\n")
    status = main(["decide-cks", "-f", str(p), "--d", "1", "--oracle", oracle])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: unknown oracle {oracle!r}; use 'exact' or 'inflate:<seed>'\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_decide_cks_refuses_an_oracle_seed_outside_64_bits(capsys, tmp_path, seed):
    p = tmp_path / "cks.txt"
    p.write_text("strings 2 3 3\nparam k 2\n000\n011\n111\n")
    status = main(["decide-cks", "-f", str(p), "--d", "1", "--oracle", f"inflate:{seed}"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: --oracle seed must be in [0, 2^64), got {seed}\n"


@pytest.mark.parametrize(
    "problem, text",
    [("cks", "strings 2 3 3\nparam k 2\n000\n011\n111\n"), ("msfbc", "strings 2 2 2\nparam k 1\n00\n11\n"),
     ("cms", CMS), ("max2sat", "p cnf 2 1\n1 2 0\n")],
)
def test_solve_refuses_k_for_a_problem_that_reads_no_k(capsys, tmp_path, problem, text):
    p = tmp_path / "input.txt"
    p.write_text(text)
    status = main(["solve", problem, "-f", str(p), "--k", "5"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == (
        f"error: --k applies to dks only; {problem} takes its parameters from the instance file\n"
    )


def test_experiment_inequalities(capsys):
    status, out = run(capsys, "experiment", "inequalities", "--c", "20", "--m", "50")
    assert status == 0
    assert as_dict(out)["pass"] == "true"


def test_experiment_inequalities_decides_any_m(capsys):
    status, out = run(capsys, "experiment", "inequalities", "--m", "1000000000")
    assert status == 0 and as_dict(out)["pass"] == "true"
    status, out = run(capsys, "experiment", "inequalities", "--c", "19")
    assert status == 1 and as_dict(out)["union_bound"] == "false"


def test_experiment_fixing_lemma(capsys):
    status, out = run(
        capsys, "experiment", "fixing-lemma", "--n", "3", "--m", "3", "--c", "20",
        "--trials", "5", "--seed", "1",
    )
    assert status == 0
    rec = as_dict(out)
    assert rec["trials"] == "5"
    assert "within_bound" in rec


def test_experiment_quarter_half(capsys):
    status, out = run(capsys, "experiment", "quarter-bound", "--n", "3")
    assert status == 0 and float(as_dict(out)["min_fraction"]) >= 0.25
    status, out = run(capsys, "experiment", "half-bound", "--n", "3")
    assert status == 0 and float(as_dict(out)["min_fraction"]) >= 0.5


@pytest.mark.parametrize("name, fraction", [("quarter-bound", "0.250000"), ("half-bound", "0.500000")])
def test_experiment_bounds_answer_any_n_at_once_without_the_far_table(capsys, name, fraction):
    tables = experiments._far_table.cache_info()
    started = time.perf_counter()
    status, out = run(capsys, "experiment", name, "--n", "1000000")
    assert time.perf_counter() - started < 1.0
    assert status == 0 and out.split() == [f"experiment={name}", "n=1000000", f"min_fraction={fraction}"]
    assert experiments._far_table.cache_info() == tables


def test_experiment_las_vegas(capsys):
    status, out = run(
        capsys, "experiment", "las-vegas", "--n", "3", "--m", "3", "--seed", "4"
    )
    assert status == 0
    rec = as_dict(out)
    assert rec["satisfied"] == rec["optimum"]


def test_byte_identical_solve(capsys, cms_file):
    _, a = run(capsys, "solve", "cms", "--algo", "exact", "-f", cms_file)
    _, b = run(capsys, "solve", "cms", "--algo", "exact", "-f", cms_file)
    assert a == b


def test_decide_cks_over_budget_exits_before_enumerating(capsys, tmp_path, monkeypatch):
    from strsel import exact

    def enumeration_started(*args, **kwargs):
        raise AssertionError("center enumeration started")

    monkeypatch.setattr(exact, "packed", enumeration_started)
    monkeypatch.setattr(exact, "center_block", enumeration_started)
    monkeypatch.setattr(exact, "distances", enumeration_started)
    p = tmp_path / "long.txt"
    p.write_text("strings 2 30 3\nparam k 2\n" + "0" * 30 + "\n" + "01" * 15 + "\n" + "1" * 30 + "\n")
    status = main(["decide-cks", "-f", str(p), "--d", "1", "--oracle", "inflate:1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("resource error:")


@pytest.mark.parametrize("recheck_fails", [False, True])
def test_timing_appends_one_wall_time_line(capsys, cms_file, monkeypatch, recheck_fails):
    if recheck_fails:
        monkeypatch.setattr(cli, "coverage", lambda center, inst: -1)
    argv = ["solve", "cms", "--algo", "local", "--seed", "5", "-f", cms_file, "--recheck"]
    status, out = run(capsys, *argv)
    timed_status, timed_out = run(capsys, *argv, "--timing")
    assert timed_status == status == (1 if recheck_fails else 0)
    assert timed_out.startswith(out)
    assert re.fullmatch(r"wall_time_s=\d+\.\d{3}\n", timed_out[len(out) :])


def _one_too_many(solve):
    """``solve`` with the count it reports raised by one."""

    def wrong(*args):
        answer, count = solve(*args)
        return answer, count + 1

    return wrong


def test_solve_dks_recheck_status(capsys, graph_file, monkeypatch):
    from strsel.reductions import Graph

    status, out = run(capsys, "solve", "dks", "-f", graph_file, "--k", "2", "--recheck")
    assert status == 0 and as_dict(out)["recheck"] == "ok"
    # the solver reports one edge too many; a recheck through
    # Graph.induced_edge_count would agree with it
    monkeypatch.setattr(exact, "solve_dks_exact", _one_too_many(exact.solve_dks_exact))
    induced_edge_count = Graph.induced_edge_count
    monkeypatch.setattr(Graph, "induced_edge_count", lambda self, vertices: induced_edge_count(self, vertices) + 1)
    status, out = run(capsys, "solve", "dks", "-f", graph_file, "--k", "2", "--recheck")
    assert status == 1 and as_dict(out)["recheck"] == "fail"


def test_header_count_out_of_range_exit_2(capsys, tmp_path):
    for name, argv, text in [
        ("g.txt", ["solve", "dks", "--k", "1"], "p edge -1 0\n"),
        ("phi.cnf", ["solve", "max2sat"], "p cnf 0 0\n"),
        ("sigma1.txt", ["solve", "cms"], "strings 1 2 1\nparam d 1\n00\n"),
        ("sigma40.txt", ["solve", "cms"], "strings 40 2 1\nparam d 1\n00\n"),
        ("n0.txt", ["solve", "cms"], "strings 2 2 0\nparam d 1\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        status = main(argv + ["-f", str(p)])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "-1"], "error: --trials must be at least 0, got -1"),
        (["--c", "0"], "error: --c must be at least 1, got 0"),
        (["--n", "0"], "error: --n must be at least 1, got 0"),
    ],
)
def test_experiment_fixing_lemma_rejects_bad_flags(capsys, flags, message):
    assert main(["experiment", "fixing-lemma", "--seed", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == message


@pytest.mark.parametrize(
    "flags, message",
    [(["--c", "4"], "error: --c must be at least 5, got 4"), (["--m", "1"], "error: --m must be at least 2, got 1")],
)
def test_experiment_inequalities_rejects_bad_flags(capsys, flags, message):
    assert main(["experiment", "inequalities", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


# each experiment with every option it reads, at values other than its default: its full output
EXPERIMENT_READS = {
    "fixing-lemma": (["--n", "3", "--m", "5", "--c", "10", "--trials", "7", "--seed", "2"],
                     "n=3 m=5 c=10 trials=7 seed=2 failures=0 failure_fraction=0.000000 bound=0.729000 "
                     "slack=0.276354 within_bound=true"),
    "quarter-bound": (["--n", "2"], "n=2 min_fraction=0.250000"),
    "half-bound": (["--n", "2"], "n=2 min_fraction=0.500000"),
    "inequalities": (["--c", "30", "--m", "50"], "c=30 m_max=50 epsilon_threshold=0.00074571 gap=true "
                     "structural=true union_bound=true pass=true"),
    "las-vegas": (["--n", "3", "--m", "5", "--c", "10", "--seed", "4"],
                  "n=3 m=5 c=10 seed=4 trials=1 satisfied=5 optimum=5"),
}
# each experiment with its table defaults (and a seed where it reads one): its full output
EXPERIMENT_DEFAULTS = {
    "fixing-lemma": (["--seed", "2"], "n=4 m=4 c=20 trials=100 seed=2 failures=0 failure_fraction=0.000000 "
                     "bound=0.656100 slack=0.078139 within_bound=true"),
    "quarter-bound": ([], "n=4 min_fraction=0.250000"),
    "half-bound": ([], "n=4 min_fraction=0.500000"),
    "inequalities": ([], "c=20 m_max=4 epsilon_threshold=0.00110988 gap=true structural=true union_bound=true "
                     "pass=true"),
    "las-vegas": (["--seed", "4"], "n=4 m=4 c=20 seed=4 trials=1 satisfied=4 optimum=4"),
}
EXPERIMENT_OPTIONS = ["--n", "--m", "--c", "--trials", "--seed"]


@pytest.mark.parametrize("table", [EXPERIMENT_READS, EXPERIMENT_DEFAULTS], ids=["given", "defaults"])
@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
def test_experiment_output_with_the_options_it_reads(capsys, table, name):
    argv, expected = table[name]
    status, out = run(capsys, "experiment", name, *argv)
    assert status == 0 and out.split() == [f"experiment={name}", *expected.split()]


@pytest.mark.parametrize(
    "name, option",
    [(name, option) for name, (argv, _) in EXPERIMENT_READS.items() for option in EXPERIMENT_OPTIONS
     if option not in argv],
)
def test_experiment_refuses_an_option_it_does_not_read(capsys, monkeypatch, name, option):
    monkeypatch.setitem(cli.EXPERIMENTS, name, lambda args: pytest.fail("ran the experiment"))
    status = main(["experiment", name, *EXPERIMENT_READS[name][0], option, "3"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: {option} does not apply to experiment {name}\n"


LONG_ROWS = "\n".join(symbol * 15000 for symbol in "01" * 2) + "\n"


# inputs whose work is an exponent far past any budget: l = 15,000 centers, a
# 4^(10^9) far table, 2^(10^9) assignments and C(10^9, 5*10^8) vertex subsets
@pytest.mark.parametrize(
    "argv, text, work",
    [
        pytest.param(["solve", "cms"], "strings 2 15000 4\nparam d 1\n" + LONG_ROWS, "2^15000 words", id="cms"),
        pytest.param(["solve", "cks"], "strings 2 15000 4\nparam k 2\n" + LONG_ROWS, "2^15000 words", id="cks"),
        pytest.param(["decide-cks", "--d", "1", "--oracle", "inflate:1"], "strings 2 15000 4\nparam k 2\n" + LONG_ROWS,
                     "2^15000 words", id="decide-cks"),
        pytest.param(["experiment", "fixing-lemma", "--n", "1000000000", "--m", "1000000000", "--trials", "1"], None,
                     "4^1000000000 words", id="fixing-lemma"),
        pytest.param(["solve", "max2sat"], "p cnf 1000000000 1\n1 2 0\n", "2^1000000000 assignments", id="max2sat"),
        pytest.param(["solve", "dks", "--k", "500000000"], "p edge 1000000000 0\n", "C(1000000000,500000000) subsets",
                     id="dks"),
    ],
)
def test_exponential_work_is_refused_at_once(capsys, tmp_path, argv, text, work):
    files = []
    if text is not None:
        (tmp_path / "input.txt").write_text(text)
        files = ["-f", str(tmp_path / "input.txt")]
    started = time.perf_counter()
    status = main(argv + files)
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("resource error: ") and f"needs {work}, above the budget of " in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, text, refusal",
    [
        pytest.param(["reduce", "dks2msfbc", "--k", "1", "-o", "out"], "p edge 1000000000 1\ne 1 2\n",
                     "the reduction needs V*(E+1) = 2000000000 symbols, above the budget of 16777216", id="dks2msfbc"),
        # C(10^6, 999999) = 10^6 subsets pass the subset budget; their 10^12 vertex entries do not
        pytest.param(["solve", "dks", "--k", "999999"], "p edge 1000000 1\ne 1 2\n",
                     "subset enumeration needs C(1000000,999999)*999999 vertex entries, above the budget of 16777216",
                     id="dks entries"),
        pytest.param(["gen-max2sat", "--n", "10", "--m", "1000000000", "--seed", "1", "-o", "out"], None,
                     "Max-2-SAT generation needs 1000000000 clauses, above the budget of 1048576", id="gen-max2sat"),
        pytest.param(["solve", "cms", "--algo", "local", "--restarts", "1000000000000", "--seed", "1"],
                     "strings 2 4 3\nparam d 1\n0000\n0110\n1111\n",
                     "hill climbing needs 1000000000000*4*3 mismatch cells, above the budget of 4294967296",
                     id="local restarts"),
        pytest.param(["experiment", "fixing-lemma", "--n", "8", "--m", "8", "--c", "20", "--trials", "1000000000000",
                      "--seed", "1"], None,
                     "fixing campaign needs 1000000000000*20*8*8 fixing draws, above the budget of 4294967296",
                     id="fixing-lemma trials"),
    ],
)
def test_work_linear_in_a_huge_count_is_refused_at_once(capsys, monkeypatch, tmp_path, argv, text, refusal):
    monkeypatch.chdir(tmp_path)
    files = []
    if text is not None:
        (tmp_path / "input.txt").write_text(text)
        files = ["-f", str(tmp_path / "input.txt")]
    started = time.perf_counter()
    status = main(argv + files)
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert status == 2 and captured.out == "" and captured.err == f"resource error: {refusal}\n"
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


def test_max2sat_work_does_not_grow_with_the_clauses(capsys, tmp_path):
    p = tmp_path / "phi.cnf"
    p.write_text("p cnf 24 512\n" + "1 -2 0\n" * 512)
    status, out = run(capsys, "solve", "max2sat", "-f", str(p), "--recheck")
    assert status == 0 and as_dict(out)["value"] == "512" and as_dict(out)["recheck"] == "ok"


def test_max2sat_over_2_to_the_32_assignments_is_refused(capsys, tmp_path):
    p = tmp_path / "phi.cnf"
    p.write_text("p cnf 33 1\n1 2 0\n")
    status = main(["solve", "max2sat", "-f", str(p)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == (
        "resource error: assignment enumeration needs 2^33 assignments, above the budget of 4294967296\n"
    )


def test_module_entry_point_exits_2_on_a_refusal(tmp_path):
    (tmp_path / "phi.cnf").write_text("p cnf 1000000000 1\n1 2 0\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "strsel.cli", "solve", "max2sat", "-f", str(tmp_path / "phi.cnf")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("resource error: assignment enumeration needs 2^1000000000 assignments")


def test_gen_graph_refuses_a_pair_list_over_budget(capsys, monkeypatch):
    from strsel.rng import SplitMix64

    monkeypatch.setattr(SplitMix64, "shuffle", lambda self, items: pytest.fail("shuffled the vertex pairs"))
    status = main(["gen-graph", "--vertices", "20000", "--edges", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "resource error: graph generation needs C(20000,2) vertex pairs, above the budget of 1048576\n"


@pytest.mark.parametrize("k", ["0", "4"])
@pytest.mark.parametrize(
    "argv", [["solve", "dks"], ["reduce", "dks2msfbc", "-o", "out"], ["verify", "claim-optval"]]
)
def test_dks_k_outside_one_to_vertex_count_exits_2(capsys, graph_file, monkeypatch, tmp_path, argv, k):
    monkeypatch.chdir(tmp_path)
    status = main(argv + ["-f", graph_file, "--k", k])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: k must be in [1, 3], got {k}\n"
    assert not (tmp_path / "out").exists()


def test_experiment_fixing_lemma_over_float32_count_exits_before_drawing(capsys, monkeypatch):
    from strsel import experiments

    monkeypatch.setattr(experiments, "fixing_strings", lambda *a: pytest.fail("drew fixing strings"))
    # c * m = 2^24, the smallest count that is refused
    status = main(["experiment", "fixing-lemma", "--n", "4", "--m", "4", "--c", str(1 << 22), "--seed", "1"])
    assert status == 2
    assert capsys.readouterr().err.startswith("resource error: ")


def test_oracle_contract_error_exits_1(capsys, tmp_path, monkeypatch):
    from strsel import fpt
    from strsel.exact import CenterResult
    from strsel.words import Word

    p = tmp_path / "cks.txt"
    p.write_text("strings 2 3 3\nparam k 2\n000\n011\n111\n")
    monkeypatch.setattr(
        fpt, "synthetic_inflating_oracle", lambda inst, eps, seed: CenterResult(Word.from_text("000"), 0, (0,))
    )
    status = main(["decide-cks", "-f", str(p), "--d", "1", "--oracle", "inflate:3"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == "" and captured.err == "error: oracle must return a subset of exactly k strings\n"


@pytest.mark.parametrize("text, sigma", [("00", 2), ("000", 3)])
def test_oracle_center_of_another_shape_exits_1(capsys, tmp_path, monkeypatch, text, sigma):
    from strsel import fpt
    from strsel.exact import CenterResult
    from strsel.words import Alphabet, Word

    p = tmp_path / "cks.txt"
    p.write_text("strings 2 3 3\nparam k 2\n000\n011\n111\n")
    center = Word.from_text(text, Alphabet(sigma))
    monkeypatch.setattr(fpt, "synthetic_inflating_oracle", lambda inst, eps, seed: CenterResult(center, 1, (0, 1)))
    status = main(["decide-cks", "-f", str(p), "--d", "1", "--oracle", "inflate:3"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == f"error: oracle returned a center of {len(text)} symbols over {sigma}, not 3 over 2\n"


@pytest.mark.parametrize(
    "problem, algo", [("max2sat", "local"), ("max2sat", "columns"), ("dks", "local"), ("dks", "columns"),
                      ("cks", "local"), ("cms", "columns")]
)
def test_solve_rejects_an_algorithm_the_problem_lacks(capsys, tmp_path, problem, algo):
    texts = {"max2sat": "p cnf 2 1\n1 2 0\n", "dks": K3, "cks": "strings 2 2 3\nparam k 2\n00\n01\n11\n", "cms": CMS}
    p = tmp_path / "input.txt"
    p.write_text(texts[problem])
    status = main(["solve", problem, "-f", str(p), "--algo", algo, "--k", "2"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == "" and captured.err.startswith(f"error: --algo {algo} does not apply to {problem}")


def test_solve_max2sat_recheck_is_independent_of_the_solver(capsys, tmp_path, monkeypatch):
    from strsel.reductions import Max2SatInstance

    p = tmp_path / "phi.cnf"
    p.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    status, out = run(capsys, "solve", "max2sat", "-f", str(p), "--recheck")
    assert status == 0 and as_dict(out)["recheck"] == "ok"
    # the solver reports one clause too many; a recheck through
    # Max2SatInstance.satisfied_count would agree with it
    monkeypatch.setattr(exact, "solve_max2sat_exact", _one_too_many(exact.solve_max2sat_exact))
    satisfied_count = Max2SatInstance.satisfied_count
    monkeypatch.setattr(Max2SatInstance, "satisfied_count", lambda self, a: satisfied_count(self, a) + 1)
    status, out = run(capsys, "solve", "max2sat", "-f", str(p), "--recheck")
    assert status == 1 and as_dict(out)["recheck"] == "fail"


@pytest.mark.parametrize(
    "problem, text, module, counter",
    [
        ("cms", CMS, exact, "coverage_counts"),
        ("ffms", "strings 2 2 3\nparam d 1\n00\n01\n11\n", exact, "anticoverage_counts"),
        ("cks", "strings 2 2 3\nparam k 2\n00\n01\n11\n", exact, "distances"),
        ("msfbc", "strings 2 4 3\nparam k 2\n0000\n0001\n0000\n", np, "bitwise_count"),
    ],
)
def test_solve_exact_recheck_is_independent_of_the_solver(capsys, tmp_path, monkeypatch, problem, text, module,
                                                          counter):
    p = tmp_path / "input.txt"
    p.write_text(text)
    argv = ["solve", problem, "--algo", "exact", "-f", str(p), "--recheck"]
    status, out = run(capsys, *argv)
    assert status == 0 and as_dict(out)["recheck"] == "ok"
    # the solver's own count is one too many, so it reports a wrong value;
    # a recheck that counted the same way would agree with it
    count = getattr(module, counter)
    monkeypatch.setattr(module, counter, lambda *args: count(*args) + 1)
    status, wrong = run(capsys, *argv)
    assert status == 1 and as_dict(wrong)["recheck"] == "fail"
    assert {**as_dict(wrong), "recheck": "ok"} != as_dict(out)


def test_solve_msfbc_columns_recheck_is_independent_of_the_solver(capsys, tmp_path, monkeypatch):
    from strsel import words

    p = tmp_path / "msfbc.txt"
    # all three words differ in one column only, so one more still fits k = 2
    p.write_text("strings 2 4 3\nparam k 2\n0000\n0001\n0000\n")
    argv = ["solve", "msfbc", "--algo", "columns", "-f", str(p), "--recheck"]
    status, out = run(capsys, *argv)
    assert status == 0 and as_dict(out)["recheck"] == "ok"
    # bad_columns reports one column too many; a solver that counted through it
    # would agree with the recheck
    bad_columns = words.bad_columns
    for module in (cli, exact):
        monkeypatch.setattr(module, "bad_columns", lambda group: bad_columns(group) | {-1}, raising=False)
    status, out = run(capsys, *argv)
    assert status == 1 and as_dict(out)["recheck"] == "fail"


# prints which of the modules that secrets loads are imported: after the
# import of the CLI, and after a run with and without --seed
NO_SECRETS_AT_IMPORT = """
import sys
from strsel import cli
def loaded():
    return [name for name in ("secrets", "_hashlib") if name in sys.modules]
print(loaded())
cli.main(["experiment", "las-vegas", "--n", "3", "--m", "3", "--seed", "1"])
print(loaded())
cli.main(["experiment", "las-vegas", "--n", "3", "--m", "3"])
print(loaded())
"""


def test_only_a_drawn_seed_imports_secrets_and_openssl():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SECRETS_AT_IMPORT], capture_output=True, text=True, env=env,
                          timeout=60)
    lines = [line for line in done.stdout.splitlines() if line.startswith("[")]
    assert done.returncode == 0 and lines[:2] == ["[]", "[]"]
    # the check sees the module once a seed is drawn
    assert lines[2].startswith("['secrets'")


def _transcript(capsys, commands):
    transcript = []
    for argv in commands:
        status = main(argv)
        captured = capsys.readouterr()
        transcript.append((status, captured.out, captured.err))
    return transcript


def test_reused_parser_answers_as_a_fresh_one(capsys, cms_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(secrets, "randbits", lambda bits: 12345)
    local = ["solve", "cms", "--algo", "local", "-f", cms_file]
    commands = [["solve", "cms", "--no-such-flag"], ["--help"], local + ["--seed", "3"], local]
    parser = build_parser()
    reused = _transcript(capsys, commands)
    assert build_parser() is parser  # built once, by the first call
    assert [status for status, _, _ in reused] == [2, 0, 0, 0]
    # the auto-drawn seed, not the one the previous command set on its namespace
    assert as_dict(reused[2][1])["seed"] == "3" and as_dict(reused[3][1])["seed"] == "12345"
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert _transcript(capsys, commands) == reused


# prints whether argparse is imported and whether its parser is built: after a canonical command,
# then after one that argparse must parse
NO_ARGPARSE_FOR_A_CANONICAL_COMMAND = """
import sys
from strsel import cli
cli.main(["experiment", "quarter-bound", "--n", "3"])
print("argparse" in sys.modules, cli.build_parser.cache_info().currsize)
cli.main(["experiment", "quarter-bound", "--n=3"])
print("argparse" in sys.modules, cli.build_parser.cache_info().currsize)
"""


def test_only_a_non_canonical_command_imports_argparse():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_ARGPARSE_FOR_A_CANONICAL_COMMAND], capture_output=True,
                          text=True, env=env, timeout=60)
    lines = [line for line in done.stdout.splitlines() if line.startswith(("True", "False"))]
    assert done.returncode == 0 and lines == ["False 0", "True 1"]


def _argparse_vars(argv):
    """argparse's namespace for ``argv`` as a dict, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _assert_table_agrees(argv):
    """The table parser gives argparse's namespace or None, and None wherever argparse exits; a second
    parse, after the first namespace is rewritten as a handler may rewrite it, gives the same."""
    expected = _argparse_vars(argv)
    first = cli._parse_table(argv)
    if first is None:
        assert cli._parse_table(argv) is None
        return None
    assert expected is not None and vars(first) == expected
    for key in vars(first):
        setattr(first, key, None)
    assert vars(cli._parse_table(argv)) == expected
    return first


_TABLE_TOKENS = sorted(
    {*COMMANDS}
    | {flag for cmd in COMMANDS.values() for opt in cmd.options for flag in opt.flags.split() if flag[0] == "-"}
    | {choice for cmd in COMMANDS.values() for opt in cmd.options for choice in opt.choices or ()}
)
# what takes a canonical argv off the table path: help, --opt=value, abbreviations, negative or
# non-integer values, "--", unknown options and stray tokens
_PERTURBATIONS = ["-h", "--help", "--rest", "--see", "--seed=3", "-fa.txt", "--", "-", "-1", "-x", "--nosuch",
                  "x", "", " 5", "1.5", "nosuch"]
_VALUES = {int: st.integers(0, 99).map(str), str: st.sampled_from(["a.txt", "out/", "inflate:3", "exact", "12"])}


@st.composite
def _argvs(draw):
    """A canonical argv drawn from :data:`COMMANDS` (the arguments required everywhere, some others, any
    order), then up to three edits: a token inserted, replaced or deleted, a token joined to the
    next by "=" (``--seed=3``), or a token's last character dropped (``--restart``). An option
    required only where its ``read_by`` says is drawn like any other, as both parsers treat it."""
    name = draw(st.sampled_from(list(COMMANDS)))
    groups = []
    for opt in COMMANDS[name].options:
        if (opt.required and not opt.read_by) or draw(st.booleans()):
            flags = opt.flags.split()
            values = st.sampled_from(opt.choices) if opt.choices else _VALUES.get(opt.type)
            value = [] if opt.type is bool else [draw(values)]
            groups.append([draw(st.sampled_from(flags)), *value] if flags[0][0] == "-" else value)
    argv = [name, *itertools.chain.from_iterable(draw(st.permutations(groups)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(_PERTURBATIONS + _TABLE_TOKENS))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "join", "shorten"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, token)
        elif edit in ("replace", "delete"):
            argv[at:at + 1] = [token] if edit == "replace" else []
        else:
            argv[at:at + 2] = ["=".join(argv[at:at + 2])] if edit == "join" else [argv[at][:-1]]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["solve", "cms", "cms", "-f", "a.txt"])
@example(["solve", "cms", "-f", "a.txt", "--algo", "local", "--rest", "1", "--seed=3"])
def test_table_parser_agrees_with_argparse(argv):
    _assert_table_agrees(argv)


def test_every_read_by_names_values_of_one_choice_argument():
    for name, cmd in COMMANDS.items():
        for opt in cmd.options:
            if opt.read_by:
                keys = [o.dest for o in cmd.options if o.choices and set(opt.read_by) <= set(o.choices)]
                assert len(keys) == 1 and (opt.dest, opt, keys[0]) in cli._grammar(name)[3], opt


def test_options_are_applied_after_the_argparse_path_too(capsys):
    # "--n=3" takes the argv off the table path
    assert main(["experiment", "half-bound", "--n=3", "--trials", "7"]) == 2
    assert capsys.readouterr().err == "error: --trials does not apply to experiment half-bound\n"
    status, out = run(capsys, "experiment", "fixing-lemma", "--n=3", "--m", "3", "--trials", "2", "--seed", "1")
    assert status == 0 and as_dict(out)["c"] == "20"


def test_every_golden_command_takes_the_table_path():
    for argv, _ in golden_commands():
        assert _assert_table_agrees(argv) is not None, argv


def test_every_readme_example_takes_the_table_path():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    examples = [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("strsel ")]
    assert {argv[0] for argv in examples} == set(COMMANDS)
    for argv in examples:
        assert _assert_table_agrees(argv) is not None, argv


@pytest.mark.parametrize(
    "argv",
    [[], ["nosuch"], ["solve", "cms", "-f", "x", "--nosuch"], ["solve", "cms", "-f", "x", "--algo", "nosuch"],
     ["solve", "cms"], ["decide-cks", "-f", "x", "--d", "x"], ["--help"], ["solve", "--help"]],
)
def test_usage_errors_and_help_are_argparse_s(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    status = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert (status, got.out, got.err) == (exited.value.code, expected.out, expected.err)
    assert status == (0 if "--help" in argv else 2) and (got.out if status == 0 else got.err)
