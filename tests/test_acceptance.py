"""End-to-end acceptance gate.

Each test here freezes one externally checkable promise of the package:
solution counts against exhaustive oracles, plan validity under step
simulation, engine-versus-brute-force equivalence on seeded random
inputs, and byte-level determinism of the command line.  Run with -v to
get one pass/fail line per promise.
"""

import importlib.resources
import itertools
import random
import time

import pytest

from alp.cli import main
from alp.ground import (
    AtomTable,
    GroundAtom,
    GroundClause,
    GroundConstraint,
    apply_const_overrides,
    build_theory,
)
from alp.oracles import queens_brute, queens_check, simulate_plan, wfs_brute
from alp.parser import parse_text, pretty_print
from alp.solver import NotTwoValued, Sat, SolveOptions, check_delta, solve, translate_query
from alp.syntax import Atom, IntConst
from alp.wfs import well_founded
from test_solver import hand_built


def bundled(name: str) -> str:
    res = importlib.resources.files("alp") / "programs" / name
    return res.read_text(encoding="utf-8")


def solve_bundled(name: str, overrides=None):
    program = parse_text(bundled(name), name)
    if overrides:
        program = apply_const_overrides(program, overrides)
    theory = build_theory(program)
    return theory, solve(theory, SolveOptions())


def projection(theory, solution, pred):
    """args tuples of one predicate within a solution, in emitted order."""
    atoms = [theory.atoms.atom(i) for i in solution]
    return [a.args for a in atoms if a.pred == pred]


# ---------------------------------------------------------------------------
# 1. queens solution counts match the exhaustive oracle


QUEENS_COUNTS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92}


def test_queens_counts_match_exhaustive_oracle():
    for n, expected in QUEENS_COUNTS.items():
        oracle_count, _boards = queens_brute(n)
        assert oracle_count == expected
        started = time.perf_counter()
        theory, report = solve_bundled("queens.alp", {"size": n})
        elapsed = time.perf_counter() - started
        assert len(report.solutions) == expected, f"size={n}"
        for sol in report.solutions:
            facts = projection(theory, sol, "position")
            assert queens_check(n, facts), f"size={n} invalid board {facts}"
        if n == 8:
            assert elapsed < 60.0, f"8-queens took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. every blocks-world solution is an executable plan reaching the goal


INITIAL = {1: 2, 2: "table", 3: 4, 4: "table", 5: 6, 6: "table"}
GOAL = {1: "table", 2: 1, 3: 2, 4: "table", 5: 4, 6: 5}
SIX_MOVE_PLAN = {
    (1, "table", 0),
    (3, "table", 0),
    (2, 1, 1),
    (5, 4, 1),
    (3, 2, 2),
    (6, 5, 2),
}


def test_blocks_world_solutions_are_valid_plans():
    started = time.perf_counter()
    theory, report = solve_bundled("blocks.alp")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"blocks solve took {elapsed:.1f}s"
    assert len(report.solutions) >= 1
    move_sets = []
    for sol in report.solutions:
        moves = projection(theory, sol, "move")
        outcome = simulate_plan(INITIAL, moves, 3)
        assert outcome == GOAL, f"plan {sorted(moves)} ended in {outcome}"
        move_sets.append(frozenset(moves))
    assert frozenset(SIX_MOVE_PLAN) in move_sets
    # The move projection is the same six-step plan in every solution; the
    # solutions differ only in which redundant initially_on facts they
    # assume (3 optional "on table" atoms, then initially_on(1,5) or
    # initially_on(3,5) or neither), giving 8 * 3 = 24 hypothesis sets.
    assert set(move_sets) == {frozenset(SIX_MOVE_PLAN)}
    assert len(report.solutions) == 24


# ---------------------------------------------------------------------------
# 3. fixpoint engine agrees with the by-definition oracle on random programs


def random_ground_program(rng):
    n_atoms = rng.randint(1, 12)
    n_rules = rng.randint(0, 24)
    clauses = []
    for _ in range(n_rules):
        head = rng.randrange(n_atoms)
        pos = tuple(rng.randrange(n_atoms) for _ in range(rng.randint(0, 3)))
        neg = tuple(rng.randrange(n_atoms) for _ in range(rng.randint(0, 3)))
        clauses.append((head, pos, neg))
    return n_atoms, clauses


def test_well_founded_engine_matches_brute_force_on_random_programs():
    rng = random.Random(20240817)
    for i in range(1000):
        n_atoms, clauses = random_ground_program(rng)
        truth, _trace = well_founded(clauses, (), n_atoms)
        assert list(truth) == wfs_brute(clauses, n_atoms), f"program {i}: {clauses}"


# ---------------------------------------------------------------------------
# 4. candidates whose model has an odd negation loop are rejected


def test_odd_negation_loop_is_rejected_per_candidate():
    # Unconditional loop: no candidate has a two-valued model.
    program = parse_text("abducible a/0.\np :- not p.\n", "odd")
    theory = build_theory(program)
    for delta in ((), tuple(theory.universe)):
        verdict = check_delta(theory, delta)
        assert isinstance(verdict, NotTwoValued)
        assert [theory.atoms.atom(i).pred for i in verdict.atoms] == ["p"]
    report = solve(theory, SolveOptions())
    assert report.solutions == []
    assert report.warnings  # the negative loop is reported up front

    # Loop guarded by an abducible: only the candidate that wakes it dies.
    program = parse_text("abducible a/0.\np :- not p, a.\n", "guarded")
    theory = build_theory(program)
    (a_id,) = theory.universe
    assert isinstance(check_delta(theory, ()), Sat)
    assert isinstance(check_delta(theory, (a_id,)), NotTwoValued)
    report = solve(theory, SolveOptions())
    assert report.solutions == [()]


# ---------------------------------------------------------------------------
# 5. the search enumerates exactly what subset brute force accepts


def random_theory(rng, n_u):
    n_def = rng.randint(0, 6)
    table = AtomTable()
    universe = tuple(table.intern(GroundAtom("u", (i,))) for i in range(n_u))
    defined = tuple(table.intern(GroundAtom("d", (i,))) for i in range(n_def))
    all_atoms = universe + defined
    clauses = []
    constraints = []
    forced = []
    if defined and all_atoms:
        for _ in range(rng.randint(0, 2 * n_def)):
            head = rng.choice(defined)
            pos = tuple(rng.choice(all_atoms) for _ in range(rng.randint(0, 2)))
            neg = tuple(rng.choice(all_atoms) for _ in range(rng.randint(0, 2)))
            clauses.append(GroundClause(head, pos, neg))
    if universe and rng.random() < 0.3:
        forced = sorted(rng.sample(universe, rng.randint(1, max(1, n_u // 4))))
        for a in forced:
            constraints.append(GroundConstraint(((a, True),), (), ()))
    if all_atoms:
        for _ in range(rng.randint(0, 8)):
            heads = tuple(
                (rng.choice(all_atoms), rng.random() < 0.7)
                for _ in range(rng.randint(0, 2))
            )
            pos = tuple(rng.choice(all_atoms) for _ in range(rng.randint(0, 2)))
            neg = tuple(rng.choice(all_atoms) for _ in range(rng.randint(0, 2)))
            constraints.append(GroundConstraint(heads, pos, neg))
    return hand_built(table, clauses, constraints, universe, tuple(forced))


def brute_force_solutions(theory):
    candidates = sorted(set(theory.universe) | set(theory.forced))
    accepted = set()
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if isinstance(check_delta(theory, combo), Sat):
                accepted.add(frozenset(combo))
    return accepted


def test_solver_enumeration_matches_subset_brute_force():
    rng = random.Random(912408)
    sizes = [rng.randint(0, 9) for _ in range(190)]
    sizes += [rng.randint(10, 13) for _ in range(8)]
    sizes += [14, 16]
    for i, n_u in enumerate(sizes):
        theory = random_theory(rng, n_u)
        report = solve(theory, SolveOptions())
        got = {frozenset(s) for s in report.solutions}
        assert got == brute_force_solutions(theory), f"theory {i} (|U|={n_u})"


# ---------------------------------------------------------------------------
# 6. parse, pretty-print, parse is the identity


ROUND_TRIP_SNIPPETS = [
    "abducible a/0.\n",
    "abducible pick(color).\ndomain color == 1..3.\n",
    "constant size == 8.\ndomain row == 1..size.\n",
    "abducible edge/2.\nnode(X) <- edge(X, Y).\nnode(Y) <- edge(X, Y).\n",
    "p :- q, not r.\nq :- true.\nr :- (s ; t).\ns :- true.\n",
    "(p, q) ; r <- a.\n",
    "false <- p(X), q(X), X < 3.\n",
    "ok(X) :- X in 1..4, not bad(X).\nbad(2) :- true.\n",
    "val(X) :- X = abs(3 - 5 * 2).\n",
    "p(-3) :- true.\nq :- not 1 = 2, not 3 < 4.\n",
    "big(X) :- X in (2 + 2)..(3 * 3).\n",
]


def test_parse_pretty_parse_is_identity():
    sources = [bundled("queens.alp"), bundled("blocks.alp")] + ROUND_TRIP_SNIPPETS
    for src in sources:
        first = parse_text(src, "src")
        printed = pretty_print(first)
        second = parse_text(printed, "printed")
        assert second == first
        assert pretty_print(second) == printed


# ---------------------------------------------------------------------------
# 7. query translation keeps exactly the matching solutions


def test_query_translation_filters_solutions():
    program = parse_text(bundled("queens.alp"), "queens.alp")
    program = apply_const_overrides(program, {"size": 8})
    query = [Atom("position", (IntConst(1), IntConst(5)))]
    theory = build_theory(translate_query(query, program))
    report = solve(theory, SolveOptions())

    _count, boards = queens_brute(8)
    matching = [b for b in boards if b[0] == 5]
    assert len(report.solutions) == len(matching)
    got_boards = set()
    for sol in report.solutions:
        facts = projection(theory, sol, "position")
        assert (1, 5) in facts
        preds = {theory.atoms.atom(i).pred for i in sol}
        assert preds == {"position"}  # query_holds is defined, never assumed
        got_boards.add(tuple(c for _r, c in sorted(facts)))
    assert got_boards == set(matching)


# ---------------------------------------------------------------------------
# 8. repeated command-line runs are byte-identical


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    paths = {}
    for name in ("queens.alp", "blocks.alp"):
        p = tmp_path / name
        p.write_text(bundled(name), encoding="utf-8")
        paths[name] = str(p)
    commands = [
        ["solve", paths["queens.alp"], "-c", "size=6", "--all"],
        ["solve", paths["queens.alp"], "-c", "size=8", "--all", "--json"],
        ["solve", paths["blocks.alp"], "--all"],
        ["ground", paths["queens.alp"], "-c", "size=5"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], f"{argv} output differed between runs"
