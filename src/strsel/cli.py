"""Command-line interface.

Exit codes: 0 success, 1 verification/assertion failure, 2 usage or parse
error. Output is ordered key=value lines; identical inputs and seeds give
byte-identical output (wall-clock timing is opt-in via --timing for that
reason).
"""

from __future__ import annotations

import argparse
import itertools
import secrets
import sys
import time
from pathlib import Path

from . import exact, experiments, fpt, gen, heuristics, reductions
from .formats import (
    ParseError,
    parse_cnf,
    parse_graph,
    parse_strings_instance,
    serialize_certificate,
    serialize_cnf,
    serialize_graph,
    serialize_strings_instance,
)
from .words import CksInstance, CmsInstance, FfmsInstance, MsfbcInstance, anticoverage, bad_columns, coverage, hamming


def _resolve_seed(args) -> tuple[int, bool]:
    """(seed, was_auto_drawn)."""
    if getattr(args, "seed", None) is not None:
        return args.seed, False
    return secrets.randbits(63), True


def _emit(pairs):
    for key, value in pairs:
        print(f"{key}={value}")


def _write_or_print(text: str, path):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_max2sat(args) -> int:
    seed, auto = _resolve_seed(args)
    phi = gen.random_max2sat(args.n, args.m, seed)
    if auto:
        _emit([("seed", seed)])
    _write_or_print(serialize_cnf(phi), args.output)
    return 0


def _cmd_gen_graph(args) -> int:
    seed, auto = _resolve_seed(args)
    g = gen.random_graph(args.vertices, args.edges, seed)
    if auto:
        _emit([("seed", seed)])
    _write_or_print(serialize_graph(g), args.output)
    return 0


def _cmd_reduce(args) -> int:
    text = Path(args.file).read_text()
    if args.kind == "sat2cms":
        phi = parse_cnf(text)
        seed, auto = _resolve_seed(args)
        inst, cert = reductions.reduce_max2sat_to_cms(phi, c=args.c, seed=seed)
        if auto:
            _emit([("seed", seed)])
    else:
        g = parse_graph(text)
        if args.k is None:
            raise ValueError("dks2msfbc requires --k")
        inst, cert = reductions.reduce_dks_to_msfbc(g, args.k)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    inst_path = outdir / "instance.txt"
    inst_path.write_text(serialize_strings_instance(inst))
    (outdir / "instance.cert").write_text(serialize_certificate(cert, source_path=args.file))
    _emit([("instance", inst_path), ("certificate", outdir / "instance.cert")])
    return 0


def _solve_strings(args, text: str):
    inst = parse_strings_instance(text, problem=args.problem)
    record = [("problem", args.problem), ("algorithm", args.algo)]
    if args.algo == "exact":
        if isinstance(inst, CmsInstance):
            res = exact.solve_cms_exact(inst)
        elif isinstance(inst, FfmsInstance):
            res = exact.solve_ffms_exact(inst)
        elif isinstance(inst, CksInstance):
            res = exact.solve_cks_exact(inst)
        else:
            res = exact.solve_msfbc_subsets(inst)
    elif args.algo == "columns":
        if not isinstance(inst, MsfbcInstance):
            raise ValueError("--algo columns applies only to msfbc")
        res = exact.solve_msfbc_columns(inst)
    elif args.algo == "local":
        seed, auto = _resolve_seed(args)
        cfg = heuristics.SearchConfig(seed=seed, restarts=args.restarts, start=args.start)
        if isinstance(inst, CmsInstance):
            res = heuristics.local_search_cms(inst, cfg)
        elif isinstance(inst, FfmsInstance):
            res = heuristics.local_search_ffms(inst, cfg)
        else:
            raise ValueError("--algo local applies to cms and ffms")
        record.append(("seed", seed))
    else:
        raise ValueError(f"unknown algorithm {args.algo!r}")

    if hasattr(res, "center"):
        record.append(("value", res.value))
        record.append(("center", res.center))
        if res.chosen_subset is not None:
            record.append(("subset", " ".join(str(i + 1) for i in res.chosen_subset)))
    else:
        record.append(("value", len(res.indices)))
        record.append(("indices", " ".join(str(i + 1) for i in res.indices)))
        record.append(("bad_columns", res.bad_column_count))

    if args.recheck and not _recheck_strings(inst, res):
        _emit(record)
        _emit([("recheck", "fail")])
        return 1
    if args.recheck:
        record.append(("recheck", "ok"))
    _emit(record)
    return 0


def _recheck_strings(inst, res) -> bool:
    if isinstance(inst, CmsInstance):
        return coverage(res.center, inst) == res.value
    if isinstance(inst, FfmsInstance):
        return anticoverage(res.center, inst) == res.value
    if isinstance(inst, CksInstance):
        radius = max(hamming(res.center, inst.set.words[i]) for i in res.chosen_subset)
        return radius == res.value
    chosen = [inst.set.words[i] for i in res.indices]
    return len(bad_columns(chosen)) == res.bad_column_count and res.bad_column_count <= inst.k


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    text = Path(args.file).read_text()
    if args.problem in ("cms", "ffms", "cks", "msfbc"):
        status = _solve_strings(args, text)
    elif args.problem == "max2sat":
        phi = parse_cnf(text)
        assignment, count = exact.solve_max2sat_exact(phi)
        record = [
            ("problem", "max2sat"),
            ("algorithm", "exact"),
            ("value", count),
            ("assignment", "".join("1" if v else "0" for v in assignment)),
        ]
        if args.recheck:
            record.append(("recheck", "ok" if phi.satisfied_count(assignment) == count else "fail"))
        _emit(record)
        status = 0 if not args.recheck or phi.satisfied_count(assignment) == count else 1
    elif args.problem == "dks":
        g = parse_graph(text)
        if args.k is None:
            raise ValueError("dks requires --k")
        vertices, count = exact.solve_dks_exact(g, args.k)
        record = [
            ("problem", "dks"),
            ("algorithm", "exact"),
            ("value", count),
            ("vertices", " ".join(map(str, vertices))),
        ]
        status = 0
        if args.recheck:
            # counted over vertex pairs, independently of the solver's Graph.induced_edge_count
            edges = set(g.edges)
            ok = sum(pair in edges for pair in itertools.combinations(vertices, 2)) == count
            record.append(("recheck", "ok" if ok else "fail"))
            status = 0 if ok else 1
        _emit(record)
    else:
        raise ValueError(f"unknown problem {args.problem!r}")
    if args.timing:
        _emit([("wall_time_s", f"{time.perf_counter() - started:.3f}")])
    return status


def _cmd_verify(args) -> int:
    g = parse_graph(Path(args.file).read_text())
    report = reductions.verify_claim_optval(g, args.k)
    _emit([("alpha", report.alpha), ("beta", report.beta), ("pass", str(report.passed).lower())])
    return 0 if report.passed else 1


def _cmd_decide_cks(args) -> int:
    inst = parse_strings_instance(Path(args.file).read_text(), problem="cks")
    spec = args.oracle
    if spec == "exact":
        oracle = fpt.exact_oracle
    elif spec.startswith("inflate:"):
        oracle = fpt.make_inflating_oracle(int(spec.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown oracle {spec!r}; use 'exact' or 'inflate:<seed>'")
    answer = fpt.decide_cks(inst, args.d, oracle)
    _emit([("problem", "cks-decision"), ("d", args.d), ("answer", "yes" if answer else "no")])
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    if name == "fixing-lemma":
        seed, auto = _resolve_seed(args)
        report = experiments.lemma_fixing_campaign(args.n, args.m, args.c, args.trials, seed)
        pairs = [
            ("experiment", name),
            ("n", args.n),
            ("m", args.m),
            ("c", args.c),
            ("trials", report.trials),
            ("seed", seed),
            ("failures", report.failures),
            ("failure_fraction", f"{report.failure_fraction:.6f}"),
        ]
        if report.bound is not None:
            pairs += [
                ("bound", f"{report.bound:.6f}"),
                ("slack", f"{report.slack:.6f}"),
                ("within_bound", str(report.within_bound).lower()),
            ]
        _emit(pairs)
        for (trial, witness, far) in report.worst_witnesses:
            _emit([("witness", f"{trial} {witness} {far}")])
        return 0
    if name == "quarter-bound":
        value = experiments.per_pair_quarter_bound(args.n)
        _emit([("experiment", name), ("n", args.n), ("min_fraction", f"{value:.6f}")])
        return 0 if value >= 0.25 else 1
    if name == "half-bound":
        value = experiments.conditional_half_bound(args.n)
        _emit([("experiment", name), ("n", args.n), ("min_fraction", f"{value:.6f}")])
        return 0 if value >= 0.5 else 1
    if name == "inequalities":
        report = experiments.inequality_checks(args.c, args.m)
        _emit(
            [
                ("experiment", name),
                ("c", args.c),
                ("m_max", args.m),
                ("epsilon_threshold", f"{report.epsilon_threshold:.8f}"),
                ("gap", str(report.gap_holds).lower()),
                ("structural", str(report.structural_threshold_holds).lower()),
                ("union_bound", str(report.union_bound_holds).lower()),
                ("pass", str(report.passed).lower()),
            ]
        )
        return 0 if report.passed else 1
    if name == "las-vegas":
        seed, auto = _resolve_seed(args)
        phi = gen.random_max2sat(args.n, args.m, seed)
        assignment, trials = experiments.las_vegas_loop(phi, c=args.c, seed=seed)
        _, optimum = exact.solve_max2sat_exact(phi)
        sat = phi.satisfied_count(assignment)
        _emit(
            [
                ("experiment", name),
                ("n", args.n),
                ("m", args.m),
                ("c", args.c),
                ("seed", seed),
                ("trials", trials),
                ("satisfied", sat),
                ("optimum", optimum),
            ]
        )
        return 0 if sat == optimum else 1
    raise ValueError(f"unknown experiment {name!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="strsel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-max2sat", help="generate a random 2-CNF instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen_max2sat)

    g = sub.add_parser("gen-graph", help="generate a random simple graph")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edges", type=int, required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen_graph)

    g = sub.add_parser("reduce", help="run a hardness reduction as an instance generator")
    g.add_argument("kind", choices=["sat2cms", "dks2msfbc"])
    g.add_argument("-f", "--file", required=True)
    g.add_argument("--c", type=int, default=20)
    g.add_argument("--k", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_reduce)

    g = sub.add_parser("solve", help="solve an instance")
    g.add_argument("problem", choices=["cms", "ffms", "cks", "msfbc", "max2sat", "dks"])
    g.add_argument("--algo", default="exact", choices=["exact", "columns", "local"])
    g.add_argument("-f", "--file", required=True)
    g.add_argument("--k", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--restarts", type=int, default=8)
    g.add_argument("--start", default="inputs", choices=["inputs", "random", "canonical"])
    g.add_argument("--recheck", action="store_true")
    g.add_argument("--timing", action="store_true")
    g.set_defaults(func=_cmd_solve)

    g = sub.add_parser("verify", help="verify a reduction claim")
    g.add_argument("check", choices=["claim-optval"])
    g.add_argument("-f", "--file", required=True)
    g.add_argument("--k", type=int, required=True)
    g.set_defaults(func=_cmd_verify)

    g = sub.add_parser("decide-cks", help="FPT decision for Closest to k Strings")
    g.add_argument("-f", "--file", required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--oracle", default="exact")
    g.set_defaults(func=_cmd_decide_cks)

    g = sub.add_parser("experiment", help="run a verification experiment")
    g.add_argument(
        "name",
        choices=["fixing-lemma", "quarter-bound", "half-bound", "inequalities", "las-vegas"],
    )
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--m", type=int, default=4)
    g.add_argument("--c", type=int, default=20)
    g.add_argument("--trials", type=int, default=100)
    g.add_argument("--seed", type=int)
    g.set_defaults(func=_cmd_experiment)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except exact.BudgetExceededError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
