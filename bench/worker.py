"""One benchmark run in one Python process.

Sets up (imports ``strsel``, generates and writes the inputs of the first
MIN_JOBS jobs), prints ``ready <import_s> <inputs_s>``, then runs the
workload's jobs in a closed loop with one client for ``--seconds``: each
job's CLI commands go through ``strsel.cli.main(argv)`` in this process, and
the next job starts when the previous one is checked. The last line printed
is a JSON object with the run's job metrics. ``run.py`` starts this
script; run it alone only to debug.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every run does at least this many jobs, so that norm_job_s.tail has ten beyond it
MIN_JOBS = 40
# The reference loop compares every pair of 64 fixed words of length 16
# symbol by symbol, in pure Python, as the program's own distance code does.
# On a shared host this kind of code slows by about the same factor as a job
# does when a neighbour competes for the core, so a command's time divided by
# the loop's time around it reads nearly the same in fast and slow phases.
# REF_S is the loop's nominal time: a normalised time is in seconds on a host
# where the loop takes REF_S.
_ref_rng = random.Random(0)
REF_WORDS = [tuple(_ref_rng.randrange(4) for _ in range(16)) for _ in range(64)]
REF_S = 0.005


def import_strsel():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import strsel
    import strsel.cli

    if Path(strsel.__file__).resolve().parent != src / "strsel":
        raise ImportError(f"strsel was imported from {strsel.__file__}, not from {src}")
    return strsel


class Jobs:
    """The workload's job list. Job i's input is generated from the run seed
    and written under ``workdir/job<i>`` the first time it is asked for, so
    every run of a seed works through the same list, however far it gets."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.seeds = []
        self._rng = random.Random(f"{workload.name}:{seed}")

    def __getitem__(self, job: int):
        while len(self.seeds) <= job:
            seed = self._rng.getrandbits(63)
            job_dir = self.workdir / f"job{len(self.seeds):04d}"
            job_dir.mkdir(parents=True)
            self.workload.write_inputs(job_dir, seed)
            self.seeds.append(seed)
        return self.workdir / f"job{job:04d}", self.seeds[job]


def tail(times: list):
    """(percentile, value): the highest percentile of ``times`` that has at
    least ten samples beyond it."""
    ordered = sorted(times)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def ref_loop() -> float:
    """Wall time of the fixed reference loop (see REF_WORDS), which measures
    the host's current speed and not the program's."""
    start = time.perf_counter()
    total = 0
    for a in REF_WORDS:
        for b in REF_WORDS:
            total += sum(x != y for x, y in zip(a, b))
    return time.perf_counter() - start


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(main, argv: list):
    """(exit code or None on an exception, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc(file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def run_jobs(strsel, workload, jobs: Jobs, seconds: float, tracer=None, min_jobs: int = MIN_JOBS):
    """Run jobs in order until ``seconds`` have passed and at least
    ``min_jobs`` are done. With a tracer, odd-numbered jobs are traced and
    even-numbered ones are not, so that the two interleave under the same
    host conditions. In untraced jobs the reference loop runs before and
    after every command, and each command's time is normalised by the slower
    of the two loops around it. Returns a dict of raw measurements: job wall
    times, normalised untraced job times and every reference loop time.
    Memory figures are taken over the first ``min_jobs`` jobs, which every
    run does."""
    import checks  # after strsel, as in main()

    times = {"plain": [], "traced": []}
    norm_times, refs = [], []
    failures = []
    attempted = failed = 0
    correct = True
    rss_growth = 0.0
    peak_rss = None
    start = time.perf_counter()
    job = 0
    while job < min_jobs or time.perf_counter() - start < seconds:
        job_dir, seed = jobs[job]
        expect = workload.prepare(job_dir, seed, job)
        ops = workload.ops(job_dir, seed, expect)
        raw, growth, command_s = {}, {}, []
        gc.collect()
        job_refs = [ref_loop()]

        def body(between=None):
            for label, argv in ops:
                before = max_rss_mb()
                t0 = time.perf_counter()
                raw[label] = run_cli(strsel.cli.main, argv)
                command_s.append(time.perf_counter() - t0)
                growth[label] = max_rss_mb() - before
                if between is not None:
                    between.append(ref_loop())

        if tracer is not None and job % 2 == 1:
            times["traced"].append(tracer.run_job(job, body))
        else:
            body(job_refs)
            times["plain"].append(sum(command_s))
            norm_times.append(normalised(command_s, job_refs))
        refs.extend(job_refs)
        if job < min_jobs:
            rss_growth += growth.get("decide-cks", 0.0)
            peak_rss = max_rss_mb()

        outputs = {label: checks.parse_output(out) for label, (_, out, _) in raw.items()}
        try:
            reasons = workload.check(job_dir, expect, outputs)
        except (OSError, ValueError, KeyError, IndexError) as e:
            reasons = {label: f"check could not run: {e!r}" for label in raw}
        for label, (code, _, err) in raw.items():
            attempted += 1
            if code != 0:
                last = err.strip().splitlines()[-1:]
                reason = f"exit code {code}: {last[0] if last else ''}"
            else:
                reason = reasons.get(label)
                correct = correct and reason is None
            if reason is not None:
                failed += 1
                failures.append(f"job {job} {label}: {reason}")
        job += 1
    return {
        "times": times,
        "norm_times": norm_times,
        "refs": refs,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": failures,
        "peak_rss_mb": peak_rss,
        "rss_growth_mb": rss_growth,
    }


def normalised(command_s: list, refs: list) -> float:
    """A job's time on a host where the reference loop takes REF_S: the sum
    of its commands' wall times, each scaled by REF_S over the slower of the
    reference loops run just before and just after it. A command during
    which the host switched to a slow phase is thus read at the slow speed,
    and does not read as a slower program."""
    return sum(t * REF_S / max(r0, r1) for t, r0, r1 in zip(command_s, refs, refs[1:]))


def job_metrics(norm: list, peak_rss_mb: float) -> dict:
    return {
        "norm_job_s.p50": statistics.median(norm),
        "norm_job_s.tail": tail(norm)[1],
        "norm_jobs_per_s": len(norm) / sum(norm),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    start = time.perf_counter()
    strsel = import_strsel()
    import_s = time.perf_counter() - start

    # imported after strsel so that import_s times strsel's own import of numpy
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    start = time.perf_counter()
    jobs = Jobs(workload, args.seed, workdir)
    jobs[MIN_JOBS - 1]
    inputs_s = time.perf_counter() - start
    print(f"ready {import_s!r} {inputs_s!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer(strsel) if args.trace else None
    run = run_jobs(strsel, workload, jobs, args.seconds, tracer)
    notes = run["failures"][:5]
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["fpt.rss_growth_mb"] = run["rss_growth_mb"]
        metrics["host.ref_loop_s"] = statistics.median(run["refs"])
        metrics["trace.overhead_s"] = statistics.median(run["times"]["traced"]) - statistics.median(
            run["times"]["plain"]
        )
        trace_dir = ROOT / ".bench_run" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = trace_dir / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        notes.append(f"{tracer.jobs} traced jobs; spans in {spans.relative_to(ROOT)}")
        missing = tracer.missing_sources()
        if missing:
            notes.append(f"functions no longer in strsel, their metrics read 0: {', '.join(missing)}")
    else:
        times = run["times"]["plain"]
        metrics = job_metrics(run["norm_times"], run["peak_rss_mb"])
        notes.append(f"norm_job_s.tail is p{tail(times)[0]:g} of {len(times)} jobs")
        notes.append(
            f"not normalised: job wall time p50 {statistics.median(times):.4f} s, "
            f"{len(times) / sum(times):.4f} jobs/s; reference loop p50 {statistics.median(run['refs']):.5f} s"
        )
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "notes": notes,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
