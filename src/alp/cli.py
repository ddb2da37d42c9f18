"""Command line front door: solve, ground, check, and oracle runs.

Exit codes: 0 when the request succeeds (at least one solution, a Sat
check, a clean plan), 1 when the answer is negative (no solutions, a
violated constraint, a failed plan), 2 on any error, with diagnostics on
standard error.  A reader that closes standard output early is not an
error: the rest of the output is dropped.  All default output is
deterministic: two runs on the same input produce byte-identical text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .ground import GroundAtom, GroundTheory, apply_const_overrides, build_theory
from .oracles import Violation, queens_brute, simulate_plan
from .parser import load_program, read_source
from .solver import (
    NotTwoValued,
    Sat,
    SolveOptions,
    UnsatConstraint,
    check_delta,
    solve,
)
from .syntax import AlpError, SolveError


def _overrides(pairs: Sequence[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise SolveError(f"bad override {pair!r}: expected NAME=INT")
        try:
            out[name] = int(value)
        except ValueError:
            raise SolveError(f"bad override {pair!r}: value must be an integer") from None
    return out


def _load_theory(path: str, override_pairs: Sequence[str]) -> GroundTheory:
    program = load_program(path)
    program = apply_const_overrides(program, _overrides(override_pairs))
    return build_theory(program)


def _delta_json(theory: GroundTheory, delta: Sequence[int]) -> str:
    ranked = sorted(delta, key=theory.atoms.sort_keys.__getitem__)
    objs = [
        {"pred": theory.atoms.atom(i).pred, "args": list(theory.atoms.atom(i).args)}
        for i in ranked
    ]
    return json.dumps(objs, separators=(",", ":"))


def _read_delta_file(theory: GroundTheory, path: str) -> list[int]:
    data = json.loads(read_source(path))
    if not isinstance(data, list):
        raise SolveError(f"{path}: delta file must be a JSON array of atoms")
    ids: list[int] = []
    missing: list[str] = []
    for i, obj in enumerate(data):
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("pred"), str)
            or not isinstance(obj.get("args"), list)
        ):
            raise SolveError(
                f'{path}: entry {i} must look like {{"pred": name, "args": [...]}}'
            )
        args = []
        for a in obj["args"]:
            if isinstance(a, bool) or not isinstance(a, (int, str)):
                raise SolveError(
                    f"{path}: entry {i}: arguments must be integers or strings"
                )
            args.append(a)
        atom = GroundAtom(obj["pred"], tuple(args))
        aid = theory.atoms.get(atom)
        if aid is None:
            missing.append(str(atom))
        else:
            ids.append(aid)
    if missing:
        raise SolveError(
            "delta atoms outside the abducible universe: " + ", ".join(missing[:5])
        )
    return ids


def _trace_line(label: str, trace) -> str:
    ts = ",".join(str(n) for n in trace.true_sizes)
    ps = ",".join(str(n) for n in trace.possible_sizes)
    return f"% trace {label}: true={ts} possible={ps}"


def _cmd_solve(args) -> int:
    if args.max_models < 1:
        raise SolveError(f"--max-models must be at least 1, got {args.max_models}")
    theory = _load_theory(args.path, args.override)
    max_models = None if args.all else args.max_models
    report = solve(
        theory,
        SolveOptions(max_models=max_models, minimal_only=args.minimal),
    )
    args.status = 0 if report.solutions else 1
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.unsat_reason:
        print(report.unsat_reason, file=sys.stderr)
    footers: list[str] = []
    if args.stats:
        s = report.stats
        footers.append(
            f"% stats: nodes={s.nodes} propagations={s.propagations} "
            f"pruned={s.pruned} checks={s.checks} models={s.models} "
            f"time={s.wall_time:.3f}s"
        )
    if args.json:
        for delta in report.solutions:
            print(_delta_json(theory, delta))
        for line in footers:
            print(line, file=sys.stderr)
    else:
        for n, delta in enumerate(report.solutions, start=1):
            print(f"% solution {n}")
            for fact in theory.render_delta(delta):
                print(fact)
            if args.trace:
                result = check_delta(theory, delta)
                print(_trace_line(f"solution {n}", result.trace))
            print()
        if not report.solutions:
            print("no solutions")
        for line in footers:
            print(line)
    return args.status


def _cmd_ground(args) -> int:
    theory = _load_theory(args.path, args.override)
    args.status = 0
    sys.stdout.write(theory.dump())
    return args.status


def _cmd_check(args) -> int:
    theory = _load_theory(args.path, args.override)
    delta = _read_delta_file(theory, args.delta)
    result = check_delta(theory, delta)
    args.status = 0 if isinstance(result, Sat) else 1
    if args.trace and result.trace is not None:
        print(_trace_line("check", result.trace))
    if isinstance(result, Sat):
        print("Sat")
    elif isinstance(result, UnsatConstraint):
        print(f"violated: {result.rendered}")
    else:
        assert isinstance(result, NotTwoValued)
        shown = ", ".join(theory.atoms.render(a) for a in result.atoms[:10])
        more = "" if len(result.atoms) <= 10 else f" (and {len(result.atoms) - 10} more)"
        print(f"undefined: {shown}{more}")
    return args.status


def _cmd_oracle(args) -> int:
    if args.which == "queens":
        if args.n < 0:
            raise SolveError(f"N must be at least 0, got {args.n}")
        count, solutions = queens_brute(args.n)
        args.status = 0
        print(count)
        for cols in solutions:
            print(" ".join(str(c) for c in cols))
        return args.status

    data = json.loads(read_source(args.file))
    try:
        initial = _configuration(data["initial"], "initial")
        moves = [(_integer(b, "block"), _location(t), _integer(at, "time")) for b, t, at in data["moves"]]
        horizon = _integer(data["horizon"], "horizon")
        goal = data.get("goal")
        if goal is not None:
            goal = _configuration(goal, "goal")
    except (KeyError, TypeError, ValueError) as exc:
        raise SolveError(f"{args.file}: malformed plan file ({exc})") from None
    # simulate_plan ignores moves outside the horizon and takes any
    # block it is given: such a plan would pass unchecked.
    if horizon < 0:
        raise SolveError(f"{args.file}: horizon must be at least 0, got {horizon}")
    for b, target, at in moves:
        if not 0 <= at < horizon:
            raise SolveError(
                f"{args.file}: move of block {b} at time {at} is outside the horizon {horizon}"
            )
        for block in (b, target):
            if isinstance(block, int) and block not in initial:
                raise SolveError(
                    f"{args.file}: move of block {b} names block {block}, not in initial"
                )
    final = simulate_plan(initial, moves, horizon)
    failed = isinstance(final, Violation) or (goal is not None and final != goal)
    args.status = 1 if failed else 0
    if isinstance(final, Violation):
        print(final)
        return args.status
    for b in sorted(final):
        print(f"on({b},{final[b]})")
    if goal is not None:
        print("goal reached" if final == goal else "goal not reached")
    return args.status


def _integer(value, what: str) -> int:
    """A number of a plan file, which must be a JSON integer: not a
    float, a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {json.dumps(value)} is not an integer")
    return value


def _location(value):
    """What a block rests on or moves to: a block or "table"."""
    if isinstance(value, str) and value != "table":
        raise ValueError(f'location {json.dumps(value)} is neither a block nor "table"')
    return value if value == "table" else _integer(value, "location")


def _configuration(pairs, what: str) -> dict:
    """The [block, location] pairs of initial or goal, each block once."""
    out = {}
    for b, loc in pairs:
        b = _integer(b, "block")
        if b in out:
            raise ValueError(f"block {b} is listed twice in {what}")
        out[b] = _location(loc)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alp",
        description="Abductive reasoning over inductive definitions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_overrides(p):
        p.add_argument(
            "-c",
            dest="override",
            action="append",
            default=[],
            metavar="NAME=INT",
            help="override an integer constant before grounding",
        )

    p_solve = sub.add_parser("solve", help="enumerate abductive solutions")
    p_solve.add_argument("path", help="program file")
    how_many = p_solve.add_mutually_exclusive_group()
    how_many.add_argument("--all", action="store_true", help="enumerate every solution")
    how_many.add_argument(
        "--max-models", type=int, default=1, metavar="N", help="stop after N solutions"
    )
    p_solve.add_argument(
        "--minimal", action="store_true", help="keep only subset-minimal solutions"
    )
    output = p_solve.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="one JSON array per solution")
    output.add_argument(
        "--trace", action="store_true", help="print fixpoint traces for each solution"
    )
    p_solve.add_argument("--stats", action="store_true", help="print a search stats footer")
    add_overrides(p_solve)
    p_solve.set_defaults(fn=_cmd_solve)

    p_ground = sub.add_parser("ground", help="dump the ground theory")
    p_ground.add_argument("path", help="program file")
    add_overrides(p_ground)
    p_ground.set_defaults(fn=_cmd_ground)

    p_check = sub.add_parser("check", help="check one hypothesis set against a program")
    p_check.add_argument("path", help="program file")
    p_check.add_argument(
        "--delta", required=True, metavar="FILE", help="JSON array of ground facts"
    )
    p_check.add_argument(
        "--trace", action="store_true", help="print the fixpoint trace"
    )
    add_overrides(p_check)
    p_check.set_defaults(fn=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="run a brute-force reference oracle")
    oracle_sub = p_oracle.add_subparsers(dest="which", required=True)
    p_q = oracle_sub.add_parser("queens", help="exhaustive queens enumeration")
    p_q.add_argument("n", type=int)
    p_q.set_defaults(fn=_cmd_oracle)
    p_p = oracle_sub.add_parser("plan", help="simulate a move plan from a JSON file")
    p_p.add_argument("file")
    p_p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a reader that went away shows here at the latest
        return status
    except BrokenPipeError:
        # The reader of standard output closed it early, as `| head` does.
        # The rest of the output has no reader: send it, and the flush at
        # exit, to the null device, and end as the command would have.
        # Each command sets args.status before it writes its output.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return args.status
    except AlpError as exc:
        for diag in exc.diagnostics:
            print(str(diag), file=sys.stderr)
        return 2
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
