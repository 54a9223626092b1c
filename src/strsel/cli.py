"""Command-line interface.

Exit codes: 0 success, 1 verification/assertion failure, 2 usage or parse
error. Output is ordered key=value lines; identical inputs and seeds give
byte-identical output (wall-clock timing is opt-in via --timing for that
reason).
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


def _seed_in_range(seed: int, what: str) -> int:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{what} must be in [0, 2^64), got {seed}")
    return seed


def _resolve_seed(args) -> tuple[int, bool]:
    """(seed, was_auto_drawn)."""
    if getattr(args, "seed", None) is not None:
        return _seed_in_range(args.seed, "--seed"), False
    # imported here, not at the top: secrets loads hashlib and OpenSSL's
    # libcrypto, a few MB of resident memory that a run with --seed never uses
    import secrets

    return secrets.randbits(63), True


def _emit(pairs):
    for key, value in pairs:
        print(f"{key}={value}")


def _cmd_gen(args) -> int:
    seed, auto = _resolve_seed(args)
    text = args.generate(args, seed)
    if auto:
        _emit([("seed", seed)])
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_reduce(args) -> int:
    text = Path(args.file).read_text()
    if args.kind == "sat2cms":
        seed, auto = _resolve_seed(args)
        inst, cert = reductions.reduce_max2sat_to_cms(parse_cnf(text), c=args.c, seed=seed)
        if auto:
            _emit([("seed", seed)])
    else:
        inst, cert = reductions.reduce_dks_to_msfbc(parse_graph(text), args.k)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    inst_path = outdir / "instance.txt"
    inst_path.write_text(serialize_strings_instance(inst))
    (outdir / "instance.cert").write_text(serialize_certificate(cert, source_path=args.file))
    _emit([("instance", inst_path), ("certificate", outdir / "instance.cert")])
    return 0


def _center_fields(res) -> list:
    pairs = [("value", res.value), ("center", res.center)]
    if res.chosen_subset is not None:
        pairs.append(("subset", " ".join(str(i + 1) for i in res.chosen_subset)))
    return pairs


def _subset_fields(res) -> list:
    indices = " ".join(str(i + 1) for i in res.indices)
    return [("value", len(res.indices)), ("indices", indices), ("bad_columns", res.bad_column_count)]


def _satisfied_clauses(phi, assignment) -> int:
    """Counted from the clause literals, not by Max2SatInstance.satisfied_count: the recheck shares no
    code with the instance's own scoring, so a fault there cannot confirm a wrong value."""
    return sum(any(assignment[lit.variable - 1] == lit.positive for lit in clause) for clause in phi.clauses)


def _induced_edges(graph, vertices) -> int:
    """Counted over vertex pairs, not by Graph.induced_edge_count: the recheck shares no code with the
    graph's own scoring, so a fault there cannot confirm a wrong value."""
    edges = set(graph.edges)
    return sum(pair in edges for pair in itertools.combinations(vertices, 2))


# problem -> (parse: file text -> instance, solvers: --algo -> solver(instance, args),
#             recheck: (instance, result) -> bool on a path independent of the solvers,
#             fields: result -> output (key, value) pairs).
# Every callable looks up the functions it calls when it runs, so that the
# benchmark's tracer, which rebinds module attributes, sees each call.
PROBLEMS = {
    "cms": (
        lambda text: parse_strings_instance(text, CmsInstance),
        {
            "exact": lambda inst, args: exact.solve_cms_exact(inst),
            "local": lambda inst, args: heuristics.local_search_cms(inst, args.config),
        },
        lambda inst, res: coverage(res.center, inst) == res.value,
        _center_fields,
    ),
    "ffms": (
        lambda text: parse_strings_instance(text, FfmsInstance),
        {
            "exact": lambda inst, args: exact.solve_ffms_exact(inst),
            "local": lambda inst, args: heuristics.local_search_ffms(inst, args.config),
        },
        lambda inst, res: anticoverage(res.center, inst) == res.value,
        _center_fields,
    ),
    "cks": (
        lambda text: parse_strings_instance(text, CksInstance),
        {"exact": lambda inst, args: exact.solve_cks_exact(inst)},
        lambda inst, res: inst.is_subset(res.chosen_subset)
        and max(hamming(res.center, inst.set.words[i]) for i in res.chosen_subset) == res.value,
        _center_fields,
    ),
    "msfbc": (
        lambda text: parse_strings_instance(text, MsfbcInstance),
        {
            "exact": lambda inst, args: exact.solve_msfbc_subsets(inst),
            "columns": lambda inst, args: exact.solve_msfbc_columns(inst),
        },
        lambda inst, res: len(bad_columns([inst.set.words[i] for i in res.indices])) == res.bad_column_count
        and res.bad_column_count <= inst.k,
        _subset_fields,
    ),
    "max2sat": (
        lambda text: parse_cnf(text),
        {"exact": lambda phi, args: exact.solve_max2sat_exact(phi)},
        lambda phi, res: _satisfied_clauses(phi, res[0]) == res[1],
        lambda res: [("value", res[1]), ("assignment", "".join("1" if v else "0" for v in res[0]))],
    ),
    "dks": (
        lambda text: parse_graph(text),
        {"exact": lambda graph, args: exact.solve_dks_exact(graph, args.k)},
        lambda graph, res: _induced_edges(graph, res[0]) == res[1],
        lambda res: [("value", res[1]), ("vertices", " ".join(map(str, res[0])))],
    ),
}


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    parse, solvers, recheck, fields = PROBLEMS[args.problem]
    record = [("problem", args.problem), ("algorithm", args.algo)]
    if args.algo == "local":
        seed, _ = _resolve_seed(args)
        args.config = heuristics.SearchConfig(seed=seed, restarts=args.restarts, start=args.start)
        record.append(("seed", seed))
    inst = parse(Path(args.file).read_text())
    res = solvers[args.algo](inst, args)
    record += fields(res)
    ok = not args.recheck or recheck(inst, res)
    if args.recheck:
        record.append(("recheck", "ok" if ok else "fail"))
    _emit(record)
    if args.timing:
        _emit([("wall_time_s", f"{time.perf_counter() - started:.3f}")])
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    g = parse_graph(Path(args.file).read_text())
    report = reductions.verify_claim_optval(g, args.k)
    _emit([("alpha", report.alpha), ("beta", report.beta), ("pass", str(report.passed).lower())])
    return 0 if report.passed else 1


def _oracle(spec: str):
    """The decision oracle that ``--oracle`` names: ``exact`` or ``inflate:<seed>``."""
    if spec == "exact":
        return fpt.exact_oracle
    kind, _, seed = spec.partition(":")
    if kind == "inflate":
        try:
            seed = int(seed)
        except ValueError:
            pass
        else:
            return fpt.make_inflating_oracle(_seed_in_range(seed, "--oracle seed"))
    raise ValueError(f"unknown oracle {spec!r}; use 'exact' or 'inflate:<seed>'")


def _cmd_decide_cks(args) -> int:
    inst = parse_strings_instance(Path(args.file).read_text(), CksInstance)
    answer = fpt.decide_cks(inst, args.d, _oracle(args.oracle))
    _emit([("problem", "cks-decision"), ("d", args.d), ("answer", "yes" if answer else "no")])
    return 0


def _fixing_lemma(args):
    seed, _ = _resolve_seed(args)
    report = experiments.lemma_fixing_campaign(args.n, args.m, args.c, args.trials, seed)
    pairs = [
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
    pairs += [("witness", f"{trial} {witness} {far}") for (trial, witness, far) in report.worst_witnesses]
    return pairs, 0


def _fraction_bound(min_fraction, floor: float):
    def run(args):
        value = min_fraction(args.n)
        return [("n", args.n), ("min_fraction", f"{value:.6f}")], 0 if value >= floor else 1

    return run


def _inequalities(args):
    report = experiments.inequality_checks(args.c, args.m)
    pairs = [
        ("c", args.c),
        ("m_max", args.m),
        ("epsilon_threshold", f"{report.epsilon_threshold:.8f}"),
        ("gap", str(report.gap_holds).lower()),
        ("structural", str(report.structural_threshold_holds).lower()),
        ("union_bound", str(report.union_bound_holds).lower()),
        ("pass", str(report.passed).lower()),
    ]
    return pairs, 0 if report.passed else 1


def _las_vegas(args):
    seed, _ = _resolve_seed(args)
    phi = gen.random_max2sat(args.n, args.m, seed)
    assignment, trials = experiments.las_vegas_loop(phi, c=args.c, seed=seed)
    _, optimum = exact.solve_max2sat_exact(phi)
    sat = phi.satisfied_count(assignment)
    pairs = [
        ("n", args.n),
        ("m", args.m),
        ("c", args.c),
        ("seed", seed),
        ("trials", trials),
        ("satisfied", sat),
        ("optimum", optimum),
    ]
    return pairs, 0 if sat == optimum else 1


# experiment -> run: args -> (output pairs after the experiment= line, exit status).
# Like PROBLEMS, every entry looks up what it calls when it runs.
EXPERIMENTS = {
    "fixing-lemma": _fixing_lemma,
    "quarter-bound": _fraction_bound(lambda n: experiments.per_pair_quarter_bound(n), 0.25),
    "half-bound": _fraction_bound(lambda n: experiments.conditional_half_bound(n), 0.5),
    "inequalities": _inequalities,
    "las-vegas": _las_vegas,
}


def _cmd_experiment(args) -> int:
    pairs, status = EXPERIMENTS[args.name](args)
    _emit([("experiment", args.name)] + pairs)
    return status


class Option(NamedTuple):
    """One argument of a command: ``flags`` are its option strings, or a positional's name. ``type``
    converts its value, except ``bool``, which marks a switch that takes none (argparse's store_true).
    ``read_by`` names the values of a choice argument that read the option, or is () if all do."""

    flags: str
    type: Callable = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None
    read_by: tuple = ()

    @property
    def dest(self) -> str:
        return self.flags.split()[-1].lstrip("-")


class Command(NamedTuple):
    help: str
    func: Callable
    options: tuple
    generate: Callable | None = None


_FILE = Option("-f --file", required=True)
_SEED = Option("--seed", int)

# The CLI grammar: each command's handler and arguments, in help order. main parses a canonical argv
# from it, and build_parser builds argparse from it for every other argv.
COMMANDS = {
    "gen-max2sat": Command(
        "generate a random 2-CNF instance", _cmd_gen,
        (Option("--n", int, required=True), Option("--m", int, required=True), _SEED, Option("-o --output")),
        lambda args, seed: serialize_cnf(gen.random_max2sat(args.n, args.m, seed)),
    ),
    "gen-graph": Command(
        "generate a random simple graph", _cmd_gen,
        (Option("--vertices", int, required=True), Option("--edges", int, required=True), _SEED, Option("-o --output")),
        lambda args, seed: serialize_graph(gen.random_graph(args.vertices, args.edges, seed)),
    ),
    "reduce": Command("run a hardness reduction as an instance generator", _cmd_reduce, (
        Option("kind", choices=("sat2cms", "dks2msfbc"), required=True), _FILE,
        Option("--c", int, 20, help="sat2cms only (default 20)", read_by=("sat2cms",)),
        Option("--k", int, required=True, read_by=("dks2msfbc",)), _SEED._replace(read_by=("sat2cms",)),
        Option("-o --output", required=True),
    )),
    "solve": Command("solve an instance", _cmd_solve, (
        Option("problem", choices=tuple(PROBLEMS), required=True),
        Option("--algo", default="exact", choices=("exact", "columns", "local")), _FILE,
        Option("--k", int, required=True, read_by=("dks",)), _SEED._replace(read_by=("local",)),
        Option("--restarts", int, 8, read_by=("local",)),
        Option("--start", default="inputs", choices=("inputs", "random", "canonical"), read_by=("local",)),
        Option("--recheck", bool, False), Option("--timing", bool, False),
    )),
    "verify": Command("verify a reduction claim", _cmd_verify, (
        Option("check", choices=("claim-optval",), required=True), _FILE, Option("--k", int, required=True),
    )),
    "decide-cks": Command("FPT decision for Closest to k Strings", _cmd_decide_cks, (
        _FILE, Option("--d", int, required=True), Option("--oracle", default="exact"),
    )),
    "experiment": Command("run a verification experiment", _cmd_experiment, (
        Option("name", choices=tuple(EXPERIMENTS), required=True),
        Option("--n", int, 4, read_by=("fixing-lemma", "quarter-bound", "half-bound", "las-vegas")),
        Option("--m", int, 4, read_by=("fixing-lemma", "inequalities", "las-vegas")),
        Option("--c", int, 20, read_by=("fixing-lemma", "inequalities", "las-vegas")),
        Option("--trials", int, 100, read_by=("fixing-lemma",)), _SEED._replace(read_by=("fixing-lemma", "las-vegas")),
    )),
}


@functools.cache
def _grammar(command: str):
    """A command's arguments for the table parser: each flag, and None for its positional, mapped to
    (dest, option); the parsed defaults by dest; the dests required everywhere; and, in table order, each
    option with ``read_by`` as (dest, option, dest of the choice argument whose value it is checked against)."""
    options = COMMANDS[command].options
    lookup = {flag if flag.startswith("-") else None: (opt.dest, opt) for opt in options for flag in opt.flags.split()}
    restricted = [(opt.dest, opt, next(o.dest for o in options if opt.read_by[0] in (o.choices or ())))
                  for opt in options if opt.read_by]
    defaults = {opt.dest: None if opt.read_by else opt.default for opt in options}
    return lookup, defaults, [opt.dest for opt in options if opt.required and not opt.read_by], restricted


# an option given where it is not read: its refusal, by (command, the argument that decides where it is read)
_NOT_READ = {
    ("solve", "problem"): "--{dest} applies to {read_by} only; {value} takes its parameters from the instance file",
    ("solve", "algo"): "--{dest} applies to --algo {read_by} only",
}


def _apply_options(args):
    """Refuse an --algo that the problem lacks; then, in table order, refuse each option given where it is
    not read, or missing where it is read and required, and fill in the default of one read but not given."""
    if args.command == "solve" and args.algo not in PROBLEMS[args.problem][1]:
        algos = " or ".join(PROBLEMS[args.problem][1])
        raise ValueError(f"--algo {args.algo} does not apply to {args.problem}; use {algos}")
    for dest, opt, key in _grammar(args.command)[3]:
        value = getattr(args, key)
        if getattr(args, dest) is None:
            if value in opt.read_by and opt.required:
                raise ValueError(f"{value} requires --{dest}")
            setattr(args, dest, opt.default if value in opt.read_by else None)
        elif value not in opt.read_by:
            refusal = _NOT_READ.get((args.command, key), "--{dest} does not apply to {command} {value}")
            read_by = " or ".join(opt.read_by)
            raise ValueError(refusal.format(dest=dest, read_by=read_by, command=args.command, value=value))


def _parse_table(argv):
    """The namespace argparse gives a canonical ``argv``, read from :data:`COMMANDS`, or None for any
    other argv. Canonical: a known command, exact option strings each given once, no value that starts
    with ``-``, and every required argument present, its value converting to its type and in its choices."""
    if not argv or argv[0] not in COMMANDS:
        return None
    lookup, defaults, required, _ = _grammar(argv[0])
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        # a token without a leading "-" can only be the positional's value
        dest, opt = lookup.get(token if token.startswith("-") else None, (None, None))
        if opt is None or dest in values:
            return None
        if opt.type is bool:
            values[dest] = True
            continue
        raw = next(tokens, "-") if token.startswith("-") else token
        try:
            values[dest] = opt.type(raw)
        except ValueError:
            return None
        if raw.startswith("-") or opt.choices is not None and values[dest] not in opt.choices:
            return None
    if any(dest not in values for dest in required):
        return None
    cmd = COMMANDS[argv[0]]
    return SimpleNamespace(command=argv[0], **{**defaults, **values}, func=cmd.func, generate=cmd.generate)


@functools.cache
def build_parser():
    """The argparse parser of :data:`COMMANDS`, for help and usage errors. It is built on the first argv
    that the table parser leaves to it, and reused: each parse leaves it unchanged."""
    import argparse

    p = argparse.ArgumentParser(prog="strsel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        g = sub.add_parser(name, help=cmd.help)
        for opt in cmd.options:
            flags = opt.flags.split()
            kwargs = {"action": "store_true"} if opt.type is bool else {"type": opt.type, "choices": opt.choices}
            if flags[0].startswith("-"):  # argparse takes no required= for a positional
                kwargs["required"] = opt.required and not opt.read_by
            g.add_argument(*flags, default=None if opt.read_by else opt.default, help=opt.help, **kwargs)
        g.set_defaults(func=cmd.func, generate=cmd.generate)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_table(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0
    try:
        _apply_options(args)
        return args.func(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except exact.BudgetExceededError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 2
    except fpt.OracleContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
