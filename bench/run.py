"""Benchmark of the strsel CLI, end to end and layer by layer.

    python3 bench/run.py --workload <centers|sigma4|sat2cms|msfbc> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The command starts ``worker.py`` SETUP_SAMPLES times in
a row. Each start is timed from process launch to its ``ready`` line
(interpreter start, ``import strsel``, writing the inputs), right after a
reference start that only imports numpy (REF_START); ``setup_s`` is the
median of the worker's time scaled by SETUP_REF_S over the reference start's
time. All but the last worker stop at ``ready``; the last one runs the jobs.
With ``--trace 0`` the last line printed holds the end-to-end metrics, with
``--trace 1`` the per-layer ones. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("centers", "sigma4", "sat2cms", "msfbc")
SETUP_SAMPLES = 5
DEADLINE_S = 170
# Process start and imports slow down with the shared host by a factor of
# their own, which the worker's reference loop does not track, so each
# worker start is paired with a start of this program. SETUP_REF_S is its
# nominal time: setup_s is in seconds on a host where it takes SETUP_REF_S.
REF_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
SETUP_REF_S = 0.12


def unit_of(name: str) -> str:
    if "job_s." in name or (name.endswith("_s") and not name.endswith("_per_s")):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class RunFailed(Exception):
    pass


def start(cmd: list, deadline: float, n_fields: int):
    """Run ``cmd`` to its end; returns (seconds from launch to its ``ready``
    line, the numbers on that line, the lines printed after it)."""
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise RunFailed(f"{cmd[1]} did not set up within {DEADLINE_S} s")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - begin
        fields = ready.split()
        if len(fields) != n_fields + 1 or fields[0] != "ready":
            raise RunFailed(f"{cmd[1]} did not set up (first line {ready!r})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RunFailed(f"{cmd[1]} exited with code {proc.returncode}")
        return setup_s, [float(x) for x in fields[1:]], rest.strip().splitlines()
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{cmd[1]} ran past {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def start_worker(argv: list, workdir: Path, deadline: float, setup_only: bool):
    """Launch one worker; returns (setup seconds, ready fields, result line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        setup_s, fields, lines = start(cmd, deadline, 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not setup_only and not lines:
        raise RunFailed("worker printed no result")
    return setup_s, fields, (None if setup_only else lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]

    samples, ref_samples, ready = [], [], []
    try:
        for k in range(SETUP_SAMPLES):
            workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-{k}"
            shutil.rmtree(workdir, ignore_errors=True)
            ref_samples.append(start(REF_START, deadline, 0)[0])
            setup_s, fields, line = start_worker(worker_argv, workdir, deadline, k < SETUP_SAMPLES - 1)
            samples.append(setup_s)
            ready.append(fields)
        result = json.loads(line)
    except (RunFailed, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    metrics = result.pop("metrics")
    if args.trace:
        metrics["setup.import_s"] = statistics.median(f[0] for f in ready)
        metrics["setup.inputs_s"] = statistics.median(f[1] for f in ready)
    else:
        metrics["setup_s"] = statistics.median(s * SETUP_REF_S / r for s, r in zip(samples, ref_samples))
    for note in result.pop("notes"):
        print(note)
    print(f"set-up samples, not normalised: {' '.join(f'{s:.4f}' for s in samples)}")
    print(f"reference starts: {' '.join(f'{s:.4f}' for s in ref_samples)}")
    print(f"operations attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {unit_of(name)}")
    result["metrics"] = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
