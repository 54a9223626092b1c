"""Golden CLI transcript: every ``solve`` problem with each algorithm it
supports, both reductions with the files they write, ``decide-cks`` with both
oracles, ``verify claim-optval`` and the five experiments, compared byte for
byte with ``golden_cli.txt``.

Regenerate the expected text only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.txt
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from strsel.cli import main
from strsel.formats import serialize_strings_instance
from strsel.gen import random_string_set
from strsel.words import CksInstance, CmsInstance, FfmsInstance, MsfbcInstance

GOLDEN = Path(__file__).with_name("golden_cli.txt")

# (sigma, l, n) of the random string sets every string-set problem is solved on
STRING_SETS = [(2, 10, 12), (4, 5, 10)]


def _string_inputs():
    for sigma, length, n in STRING_SETS:
        sset = random_string_set(sigma, length, n, seed=sigma)
        yield f"cms{sigma}.txt", CmsInstance(sset, length // 3)
        yield f"ffms{sigma}.txt", FfmsInstance(sset, length - length // 3)
        yield f"cks{sigma}.txt", CksInstance(sset, n // 2)
        yield f"msfbc{sigma}.txt", MsfbcInstance(sset, length // 3)


def _commands():
    """(argv, files to show after it) in transcript order."""
    yield ["gen-max2sat", "--n", "5", "--m", "8", "--seed", "3", "-o", "phi.cnf"], ["phi.cnf"]
    yield ["gen-graph", "--vertices", "7", "--edges", "10", "--seed", "4", "-o", "g.col"], ["g.col"]
    for sigma, _, _ in STRING_SETS:
        for problem in ("cms", "ffms"):
            path = f"{problem}{sigma}.txt"
            yield ["solve", problem, "-f", path, "--algo", "exact", "--recheck"], []
            starts = ["inputs", "random"] + (["canonical"] if sigma == 2 else [])
            for seed, start in enumerate(starts, start=7):
                yield ["solve", problem, "-f", path, "--algo", "local", "--recheck", "--seed", str(seed),
                       "--restarts", "3", "--start", start], []
        yield ["solve", "cks", "-f", f"cks{sigma}.txt", "--algo", "exact", "--recheck"], []
        for algo in ("exact", "columns"):
            yield ["solve", "msfbc", "-f", f"msfbc{sigma}.txt", "--algo", algo, "--recheck"], []
        for d in range(4):
            for oracle in ("exact", f"inflate:{d + 5}"):
                yield ["decide-cks", "-f", f"cks{sigma}.txt", "--d", str(d), "--oracle", oracle], []
    yield ["solve", "max2sat", "-f", "phi.cnf", "--recheck"], []
    yield ["solve", "dks", "-f", "g.col", "--k", "3", "--recheck"], []
    yield ["reduce", "sat2cms", "-f", "phi.cnf", "--c", "2", "--seed", "11", "-o", "sat"], [
        "sat/instance.txt", "sat/instance.cert"]
    yield ["solve", "cms", "-f", "sat/instance.txt", "--algo", "exact", "--recheck"], []
    yield ["solve", "cms", "-f", "sat/instance.txt", "--algo", "local", "--recheck", "--seed", "2",
           "--start", "canonical"], []
    yield ["reduce", "dks2msfbc", "-f", "g.col", "--k", "3", "-o", "dks"], ["dks/instance.txt", "dks/instance.cert"]
    for algo in ("exact", "columns"):
        yield ["solve", "msfbc", "-f", "dks/instance.txt", "--algo", algo, "--recheck"], []
    yield ["verify", "claim-optval", "-f", "g.col", "--k", "3"], []
    yield ["experiment", "fixing-lemma", "--n", "4", "--m", "4", "--c", "10", "--trials", "20", "--seed", "1"], []
    yield ["experiment", "quarter-bound", "--n", "3"], []
    yield ["experiment", "half-bound", "--n", "3"], []
    yield ["experiment", "inequalities", "--c", "20", "--m", "50"], []
    yield ["experiment", "las-vegas", "--n", "4", "--m", "6", "--seed", "5"], []


def transcript() -> str:
    """Write the inputs into the current directory, run every command there
    and return what each printed, its exit status and the files it wrote."""
    out = []
    for name, inst in _string_inputs():
        text = serialize_strings_instance(inst)
        Path(name).write_text(text)
        out.append(f"--- {name}\n{text}")
    for argv, files in _commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(argv)
        out.append(f"$ strsel {' '.join(argv)}\n{stdout.getvalue()}exit={status}\n")
        out.extend(f"--- {name}\n{Path(name).read_text()}" for name in files)
    return "".join(out)


def test_cli_output_matches_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sys.stdout.write(transcript())
