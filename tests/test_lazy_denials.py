"""Positive denials over abducible and defined atoms, kept unground
(lazy rules).

ground keeps such a rule as its plan, and the search propagates it from
the atoms it makes true; check_delta, the root's unsat_reason and dump
run the same join.  Each is held here against the same program grounded
in full, with _is_lazy patched to refuse every rule, the way the plain
grounding of tests/test_ground.py patches _symmetric_groups.
"""

import gc
import importlib
import importlib.resources as res
import random
import weakref

import pytest

from alp import cli
from alp.ground import build_theory
from alp.parser import parse_text
from alp.solver import NotTwoValued, SolveOptions, SolveStats, UnsatConstraint, _Search, check_delta, solve
from alp.syntax import Builtin, GroundError, Pos, Var
from test_solver import reference_check

GROUND = importlib.import_module("alp.ground")


def bundled(name):
    return (res.files("alp") / "programs" / name).read_text(encoding="utf-8")


def theory_for(text, name="t"):
    return build_theory(parse_text(text, name))


def lazy_rules(theory):
    return [rule for rule in theory.rules if rule.lazy]


def eager_theory(monkeypatch, text, name="t"):
    """theory_for(text) with every constraint instantiated."""
    with monkeypatch.context() as m:
        m.setattr(GROUND, "_is_lazy", lambda *args: False)
        return theory_for(text, name)


BUILTIN_HEADS = (
    "X = Y <- a(X), a(Y).",
    "X < Y ; Y < X <- b(X,1), b(Y,2).",
    "Y1 = Y2 <- b(X,Y1), b(X,Y2).",
    "X \\= Y <- a(X), b(Y,1), a(Y).",
    "X =< 2 ; X > Y <- b(X,Y), a(X).",
    "X >= 3 <- b(X,1).",
)


def random_denial_program(rng):
    """Abducibles a/1 and b/2 over small domains, a definition layer with
    negation and a predicate c true in the base model, up to three
    constraints from a fixed list and forced atoms, one to three
    positive denials of three or four literals over a and b, then at
    most one of two literals, up to two constraints whose heads are all
    builtin tests and at most one denial over defined atoms
    (defined_denial): symmetric bodies, repeated and shared variables,
    constant arguments, and \\=, < and = tests.  Constraints with an
    abducible head make atoms true together with the atom that implies
    them, so that an instance can have its last two atoms made true at
    once."""
    lines = [
        "domain d == 1..3.",
        "domain e == 1..2.",
        "abducible a(d).",
        "abducible b(d, e).",
        "p(X) :- b(X,Y), not a(X).",
        "q(X) :- a(X), not p(X).",
        "c(X) :- X in 1..2.",
    ]
    eager = [
        "false <- a(X), b(X,2).",
        "p(X) ; a(X) <- b(X,1).",
        "false <- q(X), q(Y), X < Y.",
        "false <- b(X,1), b(X,2).",
        "a(X) <- b(X,2).",
        "b(X,1) <- a(X), X < 3.",
    ]
    lines += rng.sample(eager, rng.randint(0, 3))
    forced = ("a(2) <- true.", "a(3) <- true.", "b(1,1) <- true.", "b(3,2) <- true.")
    lines += rng.sample(forced, rng.choice((0, 0, 1, 2, 3)))
    longer = rng.randint(1, 3)
    for j in range(longer + 1):
        if j < longer:
            k = rng.choice((3, 3, 3, 4))
        elif rng.random() < 0.5:
            continue
        else:
            k = 2
        body = []
        names = []
        for i in range(k):
            if rng.random() < 0.5:
                x = rng.choice("XYZ") if rng.random() < 0.3 else f"X{i}"
                body.append(f"a({x})")
                names.append(x)
            else:
                x = rng.choice(("X", f"X{i}", f"X{i}", "1"))
                y = rng.choice(("Y", f"Y{i}", "1", "2"))
                body.append(f"b({x},{y})")
                names += [v for v in (x, y) if not v.isdigit()]
        if rng.random() < 0.3:  # a symmetric body: k copies of one shape
            shape = rng.choice(("a(X{i})", "b(X{i},Y)", "b(X{i},Y{i})", "b(X{i},1)"))
            body = [shape.format(i=i) for i in range(k)]
            names = [v for lit in body for v in lit[2:-1].split(",") if not v.isdigit()]
            if rng.random() < 0.7:
                body += [f"X{i} \\= X{j}" for i in range(k) for j in range(i + 1, k)]
        names = sorted(set(names))
        for _ in range(rng.randint(0, 2) if names else 0):
            x, y = rng.choice(names), rng.choice(names + ["2"])
            body.append(rng.choice((f"{x} \\= {y}", f"{x} < {y}", f"{x} = {y}")))
        rng.shuffle(body)
        lines.append(f"false <- {', '.join(body)}.")
    lines += rng.sample(BUILTIN_HEADS, rng.choice((0, 0, 0, 1, 1, 2)))
    for _ in range(rng.randint(0, 1)):
        lines.append(defined_denial(rng, rng.choice(tuple(DEFINED_POOLS))))
    return "\n".join(lines) + "\n"


# The literals a denial over defined atoms draws from: p and q depend on
# the abducibles, c is true in the base model at 1 and 2 (see
# random_denial_program), and a mixed denial also reads a or b.
DEFINED_POOLS = {
    "defined": ("p({x})", "q({x})"),
    "mixed": ("p({x})", "q({x})", "a({x})", "b({x},{y})"),
    "base": ("c({x})", "p({x})", "q({x})", "a({x})", "b({x},{y})"),
}


def defined_denial(rng, kind):
    """A positive denial of two or three literals drawn from
    DEFINED_POOLS[kind]: a mixed one holds a defined and an abducible
    literal, and one of kind base holds c, with shared variables,
    constants and up to one test."""
    pool = DEFINED_POOLS[kind]
    k = rng.choice((2, 2, 3))
    shapes = [rng.choice(pool) for _ in range(k)]
    if kind == "mixed":
        shapes[:2] = [rng.choice(pool[:2]), rng.choice(pool[2:])]
    elif kind == "base":
        shapes[0] = pool[0]
    body = []
    names = set()
    for i, shape in enumerate(shapes):
        x = rng.choice(("X", "X", f"X{i}", "1"))
        y = rng.choice(("Y", f"Y{i}", "2"))
        body.append(shape.format(x=x, y=y))
        used = (x, y) if "{y}" in shape else (x,)
        names.update(v for v in used if not v.isdigit())
    if names and rng.random() < 0.5:
        x, y = rng.choice(sorted(names)), rng.choice(sorted(names) + ["2"])
        body.append(rng.choice((f"{x} \\= {y}", f"{x} < {y}")))
    rng.shuffle(body)
    return f"false <- {', '.join(body)}."


def perturbed(rng, theory, delta):
    """delta with a few candidates added or removed."""
    cands = sorted(set(theory.universe) | set(theory.forced))
    out = set(delta)
    for _ in range(rng.randint(1, 3)):
        out ^= {rng.choice(cands)}
    return tuple(sorted(out))


def verdict(theory, delta):
    result = check_delta(theory, delta)
    if isinstance(result, UnsatConstraint):
        return type(result), result.instance, result.rendered
    if isinstance(result, NotTwoValued):
        return type(result), result.atoms
    return (type(result),)


def test_lazy_denials_behave_as_their_ground_instances(monkeypatch):
    # dump, the solutions in order, the search counts but propagations,
    # the presence of a root conflict, and check_delta on every solution
    # and on perturbed deltas, of each random program kept lazy and
    # grounded in full.  The floors sit at about half of what this seed
    # gave before the programs drew denials of two literals and builtin
    # heads: 314 lazy denials, 139 with a symmetric group, 231 with a
    # test, 31 with a unit instance, 178 with a constant argument; 127
    # programs whose lazy denials have instances with a repeated atom;
    # 36 root conflicts, and 11 decisions that make every atom of a lazy
    # denial's instance true; 462 deltas violating a lazy denial first
    # and 1,082 an instantiated constraint; 7,929 solutions.  With those
    # it gave 513, 156, 262, 72, 296; 123; 57 and 8; 547 and 858; 5,476
    # solutions; and 211 lazy denials of two atoms and 84 lazy rules
    # with builtin heads, whose floors sit at about half of that.  Since
    # the programs also draw denials over defined atoms it gives 667, 178,
    # 340, 78, 363; 133; 52 and 21; 702 and 720; 4,331 solutions; 322 and
    # 92; and 59 lazy denials over p and q alone, 41 that mix them with a
    # or b, and 26 that read c, true in the base model, whose floors sit
    # at about half of that.
    met = dict.fromkeys(
        ("lazy", "groups", "tests", "units", "repeated atoms", "constants", "root conflict",
         "lazy conflict", "violated lazy", "violated eager", "solutions", "pairs", "builtin heads",
         "defined only", "mixed", "base-true"), 0
    )
    propagate = _Search.propagate

    def spy(search, lit):
        conflict = propagate(search, lit)
        met["lazy conflict"] += conflict is not None and conflict >= len(search.clauses)
        return conflict

    monkeypatch.setattr(_Search, "propagate", spy)
    rng = random.Random(16)
    for i in range(150):
        text = random_denial_program(rng)
        label = f"program {i}:\n{text}"
        lazy = theory_for(text)
        eager = eager_theory(monkeypatch, text)
        assert not lazy_rules(eager), label
        assert lazy.dump() == eager.dump(), label
        assert lazy.expand_constraints() == eager.expand_constraints(), label
        met["lazy"] += len(lazy_rules(lazy))
        for rule in lazy_rules(lazy):
            preds = {lit.atom.pred for lit in rule.denial.body if isinstance(lit, Pos)}
            met["defined only"] += preds <= {"p", "q"}
            met["mixed"] += bool(preds & {"p", "q"}) and bool(preds & {"a", "b"})
            met["base-true"] += "c" in preds
            met["pairs"] += sum(isinstance(lit, Pos) for lit in rule.con.body) == 2
            met["builtin heads"] += bool(rule.con.heads)
            met["groups"] += bool(rule.groups)
            met["units"] += bool(rule.unit_atoms())
            met["tests"] += any(isinstance(lit, Builtin) for lit in rule.con.body)
            met["constants"] += any(
                not isinstance(arg, Var) for lit in rule.con.body if isinstance(lit, Pos) for arg in lit.atom.args
            )
        origins = {rule.origin for rule in lazy_rules(lazy)}
        met["repeated atoms"] += any(
            gc.origin in origins and len(set(gc.pos)) < len(gc.pos) for gc in eager.expand_constraints()
        )
        lazy_report, eager_report = solve(lazy), solve(eager)
        assert lazy_report.solutions == eager_report.solutions, label
        counts = [(r.stats.nodes, r.stats.pruned, r.stats.checks, r.stats.models) for r in (lazy_report, eager_report)]
        assert counts[0] == counts[1], label
        assert (lazy_report.unsat_reason is None) == (eager_report.unsat_reason is None), label
        met["root conflict"] += lazy_report.unsat_reason is not None
        met["solutions"] += len(lazy_report.solutions)
        deltas = list(lazy_report.solutions) + [perturbed(rng, lazy, s) for s in lazy_report.solutions[:20]]
        deltas += [perturbed(rng, lazy, ()) for _ in range(5)]
        for delta in deltas:
            got = verdict(lazy, delta)
            assert got == verdict(eager, delta), label
            if got[0] is UnsatConstraint:
                # the instance check_delta names is the first violated one
                # of every ground constraint, in order
                assert reference_check(eager, delta) == (UnsatConstraint, got[1]), label
                met["violated lazy" if got[1].origin in origins else "violated eager"] += 1
    floors = {
        "lazy": 150, "groups": 70, "tests": 110, "units": 15, "repeated atoms": 60, "constants": 85,
        "root conflict": 18, "lazy conflict": 5, "violated lazy": 230, "violated eager": 540,
        "solutions": 3900, "pairs": 100, "builtin heads": 40, "defined only": 30, "mixed": 20, "base-true": 13,
    }
    assert all(met[case] >= floor for case, floor in floors.items()), met


def test_each_atom_pairs_once_and_never_when_false_at_the_root(monkeypatch):
    # An atom's partners in the denials of two atoms are joined the first
    # time the atom is true (_Search._pair), so at most once per search,
    # and never for a candidate that root propagation made false, which
    # no node makes true.  Every queen becomes true in the search for all
    # boards of size 8, so it ends with every queen paired, and its rules,
    # all of two atoms, leave it no trigger.
    pair, root = _Search._pair, _Search.propagate_pending
    searches = []

    def spy_pair(search, lit):
        search.__dict__.setdefault("paired", []).append(lit >> 1)
        return pair(search, lit)

    def spy_root(search):
        conflict = root(search)
        waiting = [lit >> 1 for lit, runs in enumerate(search.unpaired) if runs is not None]
        search.root_false = {a for a in waiting if search.value[2 * a] == 0}
        searches.append(search)
        return conflict

    monkeypatch.setattr(_Search, "_pair", spy_pair)
    monkeypatch.setattr(_Search, "propagate_pending", spy_root)
    rng = random.Random(25)
    texts = [random_denial_program(rng) for _ in range(60)]
    texts.append(bundled("blocks.alp"))
    for text in texts:
        solve(theory_for(text))
    queens = build_theory(parse_text(bundled("queens.alp"), "q"))
    assert len(solve(queens).solutions) == 92
    assert len(searches[-1].paired) == 64 and not any(searches[-1].unpaired)
    assert not searches[-1].triggers
    paired = root_false = 0
    for search in searches:
        atoms = search.__dict__.get("paired", [])
        assert len(atoms) == len(set(atoms))
        assert search.root_false.isdisjoint(atoms)
        paired += len(atoms)
        root_false += len(search.root_false)
    # this seed pairs 310 atoms, and leaves 110 false at the root unpaired
    assert paired >= 140 and root_false >= 50, (paired, root_false)


def test_each_pair_is_met_once(monkeypatch):
    # _pair's joins skip the partners paired already, so the search for
    # all boards of size 10 meets each of its 1,470 pairs of queens
    # once; meeting each from both of its queens gave 2,940 partners.
    # The clauses, and so the propagations, are those of meeting them
    # twice.
    class Partners(list):
        met = 0

        def append(self, partner):
            Partners.met += 1
            super().append(partner)

    searches = []
    add = _Search._add_lazy_denials

    def spy(search, theory):
        search.found = Partners()  # the list that the joins append to
        searches.append(search)
        add(search, theory)

    monkeypatch.setattr(_Search, "_add_lazy_denials", spy)
    text = bundled("queens.alp").replace("size(8)", "size(10)")
    report = solve(theory_for(text))
    assert len(report.solutions) == 724 and report.stats.propagations == 96_055
    (search,) = searches
    pairs = [key for key, origin in search.binary.items() if origin >= len(search.clauses)]
    assert len(pairs) == 1_470 and Partners.met == 1_470


def test_blocks_compiles_few_constraint_clauses():
    # the three-move rule's 20,580 instances stay unground, and so do
    # those of the two denials of two moves, of the two denials over
    # the defined on/3 and of the five typing rules, which the universe
    # satisfies: the search's clauses from constraints are the other
    # rules' 12
    theory = theory_for(bundled("blocks.alp"))
    assert len(theory.constraints) == 12 and len(lazy_rules(theory)) == 5
    assert sum(rule.satisfied for rule in theory.rules) == 5
    assert len(theory.expand_constraints()) == 23_421
    assert _Search(theory, SolveOptions(), SolveStats()).n_constraint_clauses < 3_000


LONG = "domain d == 1..4.\nabducible a(d).\nfalse <- a(X), a(Y), a(Z), X < Y, Y < Z.\n"


def test_a_lazy_denial_past_the_cap_solves_but_does_not_dump(monkeypatch, tmp_path, capsys):
    # The plain join of the rule meets 4 instances.  build_theory leaves
    # them unground, so solve answers whatever the cap; dump expands
    # them and stops at the cap with the grounder's positioned message.
    monkeypatch.setattr(GROUND, "_CONSTRAINT_CAP", 4)
    assert len(theory_for(LONG).expand_constraints()) == 4
    monkeypatch.setattr(GROUND, "_CONSTRAINT_CAP", 3)
    theory = theory_for(LONG)
    assert len(solve(theory).solutions) == 11  # the sets of at most two atoms
    with pytest.raises(GroundError, match="exceeded 3 constraint instances"):
        theory.dump()
    path = tmp_path / "long.alp"
    path.write_text(LONG, encoding="utf-8")
    assert cli.main(["solve", str(path), "--all"]) == 0
    capsys.readouterr()
    assert cli.main(["ground", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:3:1: grounding exceeded 3 constraint instances in constraint false <- a(X)")


@pytest.mark.parametrize(
    "text, instance",
    [
        ("abducible a/0.\nabducible b/0.\nabducible c/0.\na <- true.\nb <- true.\nc <- true.\n"
         "false <- a, b, c.\n", "false <- a, b, c."),
        ("domain d == 1..3.\nabducible a(d).\na(1) <- true.\na(2) <- true.\na(3) <- true.\n"
         "false <- a(X), a(Y), a(Z), X < Y, Y < Z.\n", "false <- a(1), a(2), a(3)."),
        # a unit instance: a(2) at every literal
        ("domain d == 1..3.\nabducible a(d).\na(2) <- true.\nfalse <- a(X), a(Y), a(Z), X = 2.\n",
         "false <- a(2), a(2), a(2)."),
        # over defined atoms, facts whose units are true at the root
        ("abducible a/0.\np.\nq.\nfalse <- q, p.\n", "false <- q, p."),
        # c(1) and c(2) are true in the base model
        ("domain d == 1..3.\nabducible a(d).\nc(X) :- X in 1..2.\na(2) <- true.\nfalse <- a(X), c(X).\n",
         "false <- a(2), c(2)."),
        ("domain d == 1..3.\nabducible a(d).\nc(X) :- X in 1..2.\np(X) :- a(X).\na(1) <- true.\na(3) <- true.\n"
         "false <- p(X), p(Y), c(X), X < Y.\n", "false <- p(1), p(3), c(1)."),
    ],
    ids=["propositional", "ordered", "unit", "defined", "base-true", "base-true and defined"],
)
def test_a_root_conflict_in_a_lazy_denial_names_it(monkeypatch, tmp_path, capsys, text, instance):
    theory = theory_for(text)
    assert lazy_rules(theory)
    report = solve(theory)
    reason = "constraints are contradictory before any hypothesis: " + instance
    assert report.solutions == [] and report.unsat_reason == reason
    assert solve(eager_theory(monkeypatch, text)).unsat_reason == reason
    path = tmp_path / "root.alp"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "no solutions\n" and err == reason + "\n"


def test_a_grounded_denial_keeps_the_support_clause_it_repeats(monkeypatch):
    # (not h, not a, not b) is both the clause of the denial and the
    # support clause of h.  Grounded, the denial's clause is no support
    # clause, and the completion repeats it as one, so the search
    # branches on it as it does when the denial is lazy.
    text = (
        "abducible a/0. abducible b/0. abducible c/0. abducible d/0.\n"
        "h :- not a. h :- not b. g :- c, d. g :- a, c. g :- b, d.\nfalse <- h, a, b.\n"
    )
    lazy, eager = theory_for(text), eager_theory(monkeypatch, text)
    assert lazy_rules(lazy) and not lazy_rules(eager) and len(eager.constraints) == 1
    searches = [_Search(theory, SolveOptions(), SolveStats()) for theory in (lazy, eager)]
    assert len(searches[0].support) == len(searches[1].support) == 4
    lazy_report, eager_report = solve(lazy), solve(eager)
    assert len(lazy_report.solutions) == 16
    assert lazy_report.solutions == eager_report.solutions
    assert lazy_report.stats.nodes == eager_report.stats.nodes == 30


NEGATIVE_LOOP = (
    "domain d == 1..4.\n"
    "abducible a(d).\n"
    "p :- not q, a(4).\n"
    "q :- not p.\n"
    "false <- a(X), a(Y), a(Z), X \\= Y, X \\= Z, Y \\= Z.\n"
)


def test_under_a_negative_loop_check_delta_rejects_leaves_that_break_a_lazy_denial(monkeypatch):
    # With the lazy denial left out of propagation, the search reaches
    # leaves where three a atoms are true.  Under the negative loop each
    # leaf goes to check_delta, whose join over the leaf's model names
    # the violated instance, so the solutions are still the right ones:
    # the sets of at most two atoms without a(4), which wakes the loop.
    theory = theory_for(NEGATIVE_LOOP)
    expected = solve(theory)
    assert len(expected.solutions) == 7 and expected.warnings
    rejected = []
    real = importlib.import_module("alp.solver").check_delta

    def spy(theory, delta):
        result = real(theory, delta)
        if isinstance(result, UnsatConstraint):
            rejected.append(result.rendered)
        return result

    monkeypatch.setattr("alp.solver.check_delta", spy)
    monkeypatch.setattr(_Search, "_add_lazy_denials", lambda self, theory: None)
    report = solve(theory)
    assert report.solutions == expected.solutions
    assert rejected == ["false <- a(1), a(2), a(3)."]
    assert report.stats.checks > expected.stats.checks


def test_a_search_over_lazy_denials_is_freed_without_the_cycle_collector(monkeypatch):
    # the joins that the search compiles hold its assignment, not the
    # search itself, so no reference cycle keeps it alive
    searches = []

    class Search(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(weakref.ref(self))

    monkeypatch.setattr("alp.solver._Search", Search)
    theory = theory_for(bundled("blocks.alp"))
    gc.disable()
    try:
        assert solve(theory, SolveOptions(max_models=1)).solutions
        assert len(searches) == 1 and searches[0]() is None
    finally:
        gc.enable()
