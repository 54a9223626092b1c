"""End-to-end CLI: exit-code contract, record re-scoring, reproducibility."""

import os
import re
import secrets
import subprocess
import sys
import time
from pathlib import Path

import pytest

from strsel import cli
from strsel.cli import build_parser, main

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


def test_auto_seed_emitted(capsys):
    _, out = run(capsys, "gen-max2sat", "--n", "3", "--m", "4")
    assert out.startswith("seed=")


def test_decide_cks(capsys, tmp_path):
    p = tmp_path / "cks.txt"
    p.write_text("strings 2 3 3\nparam k 2\n000\n011\n111\n")
    status, out = run(capsys, "decide-cks", "-f", str(p), "--d", "1", "--oracle", "inflate:3")
    assert status == 0 and as_dict(out)["answer"] == "yes"
    status, out = run(capsys, "decide-cks", "-f", str(p), "--d", "0")
    assert status == 0 and as_dict(out)["answer"] == "no"


def test_experiment_inequalities(capsys):
    status, out = run(capsys, "experiment", "inequalities", "--c", "20", "--m", "50")
    assert status == 0
    assert as_dict(out)["pass"] == "true"


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


def test_experiment_las_vegas(capsys):
    status, out = run(
        capsys, "experiment", "las-vegas", "--n", "3", "--m", "3", "--seed", "4", "--trials", "1"
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


def test_solve_dks_recheck_status(capsys, graph_file, monkeypatch):
    from strsel.reductions import Graph

    status, out = run(capsys, "solve", "dks", "-f", graph_file, "--k", "2", "--recheck")
    assert status == 0 and as_dict(out)["recheck"] == "ok"
    monkeypatch.setattr(Graph, "induced_edge_count", lambda self, vertices: -1)
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
        pytest.param(["experiment", "inequalities", "--m", "1000000000"], None,
                     "the gap sweep needs 1000000000 values of m, above the budget of 16777216", id="inequalities"),
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
    satisfied_count = Max2SatInstance.satisfied_count
    monkeypatch.setattr(Max2SatInstance, "satisfied_count", lambda self, a: satisfied_count(self, a) + 1)
    status, out = run(capsys, "solve", "max2sat", "-f", str(p), "--recheck")
    assert status == 1 and as_dict(out)["recheck"] == "fail"


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
