"""Benchmark of the alp pipeline, end to end and layer by layer.

    python3 bench/run.py --workload queens-all --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload for ``--seconds`` seconds.  A round
goes from the source text through parse_text, apply_const_overrides,
build_theory and solve to every solution rendered with
GroundTheory.render_delta, as the command line prints it, and then
checks the rendered solutions against an engine-independent computation
(see workloads.py).  One round is one operation; it fails when the
program raises or the check rejects its output.

``--trace 0`` reports the end-to-end metrics: medians over the rounds of
setup_s, solve_s and total_s, and the peak resident memory of the
process.  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced rounds, with the tracing
overhead as the difference of the two total_s medians; its spans go to
bench/traces/.  ``--workload all`` runs every workload, each in its own
process.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


@dataclass
class Round:
    setup_s: float
    solve_s: float
    total_s: float
    counts: dict[str, int]
    rendered: list[list[str]]


def _import_program():
    """Import alp from the checkout's own source tree, or exit with an error."""
    if not (SRC / "alp" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'alp'}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import alp

    if SRC not in Path(alp.__file__).resolve().parents:
        sys.exit(f"bench: imported alp from {alp.__file__}, not from {SRC}")


def run_round(inst, tracer=None) -> Round:
    """One operation: source text to rendered solutions.

    The program is called through its module attributes so that an
    active tracer sees every call.
    """
    parser = sys.modules["alp.parser"]
    ground = sys.modules["alp.ground"]
    solver = sys.modules["alp.solver"]
    t0 = time.perf_counter()
    program = parser.parse_text(inst.text, inst.filename)
    statements = (
        len(program.decls.abducibles)
        + len(program.decls.constants)
        + len(program.decls.domains)
        + len(program.definitions)
        + len(program.constraints)
    )
    program = ground.apply_const_overrides(program, inst.overrides)
    theory = ground.build_theory(program)
    t1 = time.perf_counter()
    report = solver.solve(theory, solver.SolveOptions())
    t2 = time.perf_counter()
    if tracer is None:
        rendered = [theory.render_delta(s) for s in report.solutions]
    else:
        with tracer.span("ground.render"):
            rendered = [theory.render_delta(s) for s in report.solutions]
    t3 = time.perf_counter()
    origins = Counter(c.origin for c in theory.constraints)
    stats = report.stats
    counts = {
        "parser.statements": statements,
        "ground.atoms": theory.n_atoms,
        "ground.clauses": len(theory.clauses),
        "ground.constraints": len(theory.constraints),
        "ground.universe_atoms": len(theory.universe),
        "ground.top_rule_constraints": max(origins.values(), default=0),
        "solver.leaf_checks": stats.checks,
        "solver.nodes": stats.nodes,
        "solver.propagations": stats.propagations,
        "solver.pruned": stats.pruned,
        "solver.models": stats.models,
    }
    if tracer is not None:
        counts["syntax.normalize_calls"] = tracer.count("syntax.normalize")
        counts["wfs.calls"] = tracer.count("wfs.well_founded")
        counts["wfs.rounds"] = tracer.wfs_rounds
    return Round(t1 - t0, t2 - t1, t3 - t0, counts, rendered)


class Runner:
    """Runs rounds of one instance, checks each, and keeps the tallies."""

    def __init__(self, inst):
        self.inst = inst
        self.attempted = 0
        self.failed = 0
        self.deterministic = True
        # first successful round's (rendered, counts), untraced and traced
        self.first: dict[bool, tuple[list[list[str]], dict[str, int]]] = {}

    def attempt(self, tracer=None) -> Round | None:
        self.attempted += 1
        try:
            rnd = run_round(self.inst, tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        reason = self.inst.check(rnd.rendered)
        if reason is not None:
            print(f"bench: check failed: {reason}", file=sys.stderr)
            self.failed += 1
            return None
        first = self.first.setdefault(tracer is not None, (rnd.rendered, rnd.counts))
        if (rnd.rendered, rnd.counts) != first:
            print("bench: a round's output or counts differ from the first round's", file=sys.stderr)
            self.deterministic = False
        rnd.rendered = []  # only the first round's output is kept, so peak_rss_mib stays one round's
        return rnd

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.deterministic


# per-layer time metric -> span name; each is the summed span time of a round
SPAN_TIMES = {
    "parser.parse_s": "parser.parse",
    "syntax.normalize_s": "syntax.normalize",
    "ground.declarations_s": "ground.declarations",
    "ground.base_model_s": "ground.base_model",
    "ground.universe_s": "ground.universe",
    "ground.ground_s": "ground.ground",
    "ground.render_s": "ground.render",
    "solver.solve_s": "solver.solve",
    "solver.leaf_check_s": "solver.check_delta",
    "wfs.well_founded_s": "wfs.well_founded",
}
# spans whose sum should account for setup_s + solve_s of a traced round
TOP_SPANS = ("parser.parse", "ground.overrides", "ground.build_theory", "solver.solve")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def end_to_end(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        untraced_round(runner, rounds)
        if time.perf_counter() >= deadline:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (_median([r.setup_s for r in rounds]), "s"),
        "solve_s": (_median([r.solve_s for r in rounds]), "s"),
        "total_s": (_median([r.total_s for r in rounds]), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def untraced_round(runner: Runner, rounds: list[Round]):
    rnd = runner.attempt()
    if rnd is not None:
        rounds.append(rnd)


def per_layer(runner: Runner, seconds: float, trace_file: Path) -> dict[str, tuple[float, str]]:
    from spans import Tracer

    plain: list[Round] = []
    traced: list[tuple[Round, Tracer]] = []
    deadline = time.perf_counter() + seconds
    pair = 0
    while True:
        # Alternate which of the pair goes first, so that drift over the
        # run does not favour one side of the overhead.
        if pair % 2 == 0:
            untraced_round(runner, plain)
        tracer = Tracer()
        with tracer:
            rnd = runner.attempt(tracer)
        if pair % 2 == 1:
            untraced_round(runner, plain)
        pair += 1
        if rnd is not None:
            traced.append((rnd, tracer))
        if time.perf_counter() >= deadline:
            break

    def med(fn) -> float:
        return _median([fn(r, t) for r, t in traced])

    metrics = {
        metric: (med(lambda r, t, span=span: t.total(span)), "s")
        for metric, span in SPAN_TIMES.items()
    }
    metrics["solver.search_s"] = (
        med(lambda r, t: t.total("solver.solve") - t.total("solver.check_delta")),
        "s",
    )
    metrics["trace.overhead_s"] = (
        med(lambda r, t: r.total_s) - _median([r.total_s for r in plain]),
        "s",
    )
    metrics["trace.span_coverage"] = (
        med(lambda r, t: _ratio(sum(t.total(n) for n in TOP_SPANS), r.setup_s + r.solve_s)),
        "ratio",
    )
    if traced:
        counts = traced[0][0].counts
        metrics.update({k: (v, "count") for k, v in counts.items()})
        metrics["solver.leaf_accept_ratio"] = (
            _ratio(counts["solver.models"], counts["solver.leaf_checks"]),
            "ratio",
        )
        metrics["solver.prune_ratio"] = (
            _ratio(counts["solver.pruned"], counts["solver.nodes"]),
            "ratio",
        )
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(
        json.dumps({"spans_per_round": [t.spans for _r, t in traced]}, separators=(",", ":"))
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    _import_program()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")
    inst = WORKLOADS[name](seed)
    runner = Runner(inst)
    if trace:
        trace_file = BENCH / "traces" / f"{name}-seed{seed}.json"
        metrics = per_layer(runner, seconds, trace_file)
    else:
        metrics = end_to_end(runner, seconds)
    print(f"{name} seed={seed} trace={trace} rounds={runner.attempted} failed={runner.failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6f} {unit}")
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; metric names get the workload
    as a prefix."""
    _import_program()
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
