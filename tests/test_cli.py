"""End-to-end CLI: exit-code contract, record re-scoring, reproducibility."""

import pytest

from strsel.cli import main

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


def test_solve_dks_recheck_status(capsys, graph_file, monkeypatch):
    from strsel.reductions import Graph

    status, out = run(capsys, "solve", "dks", "-f", graph_file, "--k", "2", "--recheck")
    assert status == 0 and as_dict(out)["recheck"] == "ok"
    monkeypatch.setattr(Graph, "induced_edge_count", lambda self, vertices: -1)
    status, out = run(capsys, "solve", "dks", "-f", graph_file, "--k", "2", "--recheck")
    assert status == 1 and as_dict(out)["recheck"] == "fail"
