"""Typing constraints that the abducible universe satisfies, kept unground.

A typing constraint ``d(X) <- p(...,X,...)`` bounds the universe of an
abducible p declared without domains, so every universe atom has a head
true in every model.  ground leaves such a rule unground when no forced
atom of p lies outside the universe (_satisfied_typing); dump, the root's
unsat_reason and check_delta still name its instances.  Each is held here
against the same program with the marking switched off, which grounds
every typing rule, as the parent of the marking did.
"""

import dataclasses
import importlib
import random

import pytest

from alp import cli
from alp.ground import _clause, build_theory
from alp.parser import parse_text
from alp.solver import UnsatConstraint, solve
from alp.syntax import GroundError
from test_lazy_denials import perturbed, verdict
from test_solver import reference_check

GROUND = importlib.import_module("alp.ground")


def theory_for(text, name="t"):
    return build_theory(parse_text(text, name))


def grounded_theory(monkeypatch, text, name="t"):
    """theory_for(text) with every typing rule instantiated."""
    return grounded_build(monkeypatch, parse_text(text, name))


def grounded_build(monkeypatch, program):
    """build_theory(program) with every typing rule instantiated."""
    with monkeypatch.context() as m:
        m.setattr(GROUND, "_satisfied_typing", lambda *args: set())
        return build_theory(program)


def satisfied(theory):
    return [rule for rule in theory.rules if rule.satisfied]


# p's first slot is typed by t1, t2 or both (which intersect to 2..3),
# its second by t3; q by t2.
SLOT_ONE = (("t1",), ("t2",), ("t1", "t2"))
FORCED = (
    "p(2,1) <- true.",  # inside: 2 is in every choice of slot one
    "p(4,3) <- true.",  # inside only when slot one is t2 alone
    "q(3) <- true.",  # inside
    "q(1) <- true.",  # outside
)
OTHERS = (
    "false <- p(X,Y), p(X,Z), Y \\= Z.",
    "false <- q(X), s(X).",
    "s(X) ; w(X) <- q(X).",
    "false <- p(X,Y), not w(Y).",
    "q(Y) ; s(Y) <- p(X,Y).",
    "t1(X) <- s(X).",  # over a defined predicate: no typing form
    "t3(Y) <- p(2,Y).",  # a constant argument: no typing form, but the clauses of one
    "false <- reach(X), q(X).",
)


def typed_program(rng):
    """Abducibles p/2 and q/1 typed by typing constraints over the base
    predicates t1, t2 and t3, sometimes two on one slot, with forced
    atoms inside and outside the universe, sometimes an abducible r
    with a declared domain and a typing-form rule of its own, a
    typing-form rule with a repeated variable, a definition layer with
    negation and positive recursion, and constraints drawn from
    OTHERS."""
    lines = ["t1(X) :- X in 1..3.", "t2(X) :- X in 2..4.", "t3(1).", "t3(3).", "abducible p/2.", "abducible q/1."]
    typing = [f"{d}(A) <- p(A,B)." for d in rng.choice(SLOT_ONE)]
    typing += ["t3(B) <- p(A,B).", "t2(X) <- q(X)."]
    if rng.random() < 0.4:
        typing.append(rng.choice(("t1(X) <- p(X,X).", "t2(X) <- p(X,X).")))
    if rng.random() < 0.4:
        lines += ["domain d == 1..3.", "abducible r(d)."]
        typing.append("t2(X) <- r(X).")
        lines += rng.sample(("false <- r(X), q(X).", "r(2) <- true.", "w(X) :- r(X)."), rng.randint(1, 2))
    lines += [
        "s(X) :- p(X,Y), not q(Y).",
        "w(Y) :- q(Y), not s(Y).",
        "reach(Y) :- p(1,Y).",
        "reach(Y) :- reach(X), p(X,Y).",
    ]
    lines += rng.sample(FORCED, rng.choice((0, 0, 1, 1, 2)))
    rest = typing + rng.sample(OTHERS, rng.randint(1, 4))
    rng.shuffle(rest)
    return "\n".join(lines + rest) + "\n"


def forced_outside(theory):
    """Whether a forced atom of p or q lies outside the universe."""
    universe = set(theory.universe)
    return any(i not in universe and theory.atoms.atom(i).pred in "pq" for i in theory.forced)


def test_typing_rules_the_universe_satisfies_behave_as_their_ground_instances(monkeypatch):
    # dump's bytes, the solutions in order, nodes, propagations and the
    # other search counts, the root's unsat_reason, and check_delta on
    # the first 30 solutions and on perturbed deltas, of each random
    # program with the satisfied typing rules left unground and
    # grounded.  The floors sit at about half of what this seed gives:
    # 426 satisfied rules, 75 stored clauses whose first instance is a
    # satisfied rule's, 47 programs with two typing rules on one slot,
    # 63 with a forced atom inside the universe and 46 with one outside,
    # 50 with a declared-domain abducible beside the typed ones, 63 with
    # a repeated variable, 52 root conflicts, 18,973 solutions, and
    # 1,470 deltas violating a constraint.
    met = dict.fromkeys(
        ("satisfied", "named by a satisfied rule", "two on a slot", "forced inside", "forced outside",
         "declared beside", "repeated variable", "root conflict", "solutions", "violated"), 0
    )
    rng = random.Random(27)
    for i in range(150):
        text = typed_program(rng)
        label = f"program {i}:\n{text}"
        kept = theory_for(text)
        grounded = grounded_theory(monkeypatch, text)
        assert not satisfied(grounded), label
        assert kept.dump() == grounded.dump(), label
        assert kept.expand_constraints() == grounded.expand_constraints(), label
        # the typing rules of p and of q, but those of an abducible with
        # a forced atom outside the universe
        p_outside = "p(4,3) <- true." in text and "t1(A) <- p(A,B)." in text
        q_outside = "q(1) <- true." in text
        expected = [
            str(rule.con) for rule in kept.rules
            if str(rule.con).endswith(" <- p(A,B).") and not p_outside
            or str(rule.con) == "t2(X) <- q(X)." and not q_outside
        ]
        assert [str(rule.con) for rule in satisfied(kept)] == expected, label
        outside = forced_outside(kept)
        assert outside == (p_outside or q_outside), label
        met["satisfied"] += len(expected)
        # first_instance names a stored clause by the first instance that
        # gives it, which may be a satisfied rule's
        first = {}
        for gc in kept.expand_constraints():
            first.setdefault(_clause(gc.heads, gc.pos, gc.neg), gc)
        origins = {rule.origin for rule in satisfied(kept)}
        for ci, record in enumerate(kept.constraints):
            assert kept.first_instance(ci) == first[record.clause], label
            met["named by a satisfied rule"] += first[record.clause].origin in origins
        met["two on a slot"] += "t1(A) <- p(A,B)" in text and "t2(A) <- p(A,B)" in text
        universe = set(kept.universe)
        met["forced inside"] += any(i in universe for i in kept.forced)
        met["forced outside"] += outside
        met["declared beside"] += "abducible r(d)." in text
        met["repeated variable"] += "p(X,X)" in text
        kept_report, grounded_report = solve(kept), solve(grounded)
        assert kept_report.solutions == grounded_report.solutions, label
        assert kept_report.stats.nodes == grounded_report.stats.nodes, label
        assert kept_report.stats.propagations == grounded_report.stats.propagations, label
        counts = [(r.stats.pruned, r.stats.checks, r.stats.models) for r in (kept_report, grounded_report)]
        assert counts[0] == counts[1], label
        assert kept_report.unsat_reason == grounded_report.unsat_reason, label
        met["root conflict"] += kept_report.unsat_reason is not None
        met["solutions"] += len(kept_report.solutions)
        deltas = kept_report.solutions[:30] + [perturbed(rng, kept, s) for s in kept_report.solutions[:20]]
        deltas += [perturbed(rng, kept, ()) for _ in range(5)]
        for delta in deltas:
            got = verdict(kept, delta)
            assert got == verdict(grounded, delta), label
            if got[0] is UnsatConstraint:
                assert reference_check(grounded, delta) == (UnsatConstraint, got[1]), label
                met["violated"] += 1
    floors = {
        "satisfied": 210, "named by a satisfied rule": 37, "two on a slot": 23, "forced inside": 31,
        "forced outside": 23, "declared beside": 25, "repeated variable": 31, "root conflict": 26,
        "solutions": 9400, "violated": 730,
    }
    assert all(met[case] >= floor for case, floor in floors.items()), met


FORCED_OUTSIDE = "abducible p/1. d(1). d(2). d(X) <- p(X). p(3) <- true.\n"


def test_a_forced_atom_outside_the_universe_keeps_its_typing_rules(tmp_path, capsys):
    # p(3) is forced, d(3) is false: the typing rule's instance refutes
    # every delta, so it is grounded and names the root conflict.
    theory = theory_for(FORCED_OUTSIDE)
    assert not satisfied(theory) and len(theory.constraints) == 4
    reason = "constraints are contradictory before any hypothesis: d(3) <- p(3)."
    assert solve(theory).unsat_reason == reason
    path = tmp_path / "forced.alp"
    path.write_text(FORCED_OUTSIDE, encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "no solutions\n" and err == reason + "\n"
    # forced inside the universe, the rule is satisfied again
    inside = theory_for(FORCED_OUTSIDE.replace("p(3)", "p(2)"))
    assert len(satisfied(inside)) == 1 and [len(s) for s in solve(inside).solutions] == [1, 2]


# d(6) is true in the base model, which is grounded over the hull 1..5,
# where k(6) is not fed back; the universe atom p(6) widens the hull to
# 1..6, over which h(6) holds and d(6) does not.
WIDENING = (
    "abducible p/1.\ne(5).\nd(Y) :- e(X), Y = X+1, not h(Y).\nh(Y) :- k(Y).\nk(Y) :- e(X), Y = X+1.\n"
    "d(X) <- p(X).\n"
)


def test_a_universe_past_the_base_hull_keeps_its_typing_rules():
    theory = theory_for(WIDENING)
    assert [theory.atoms.render(i) for i in theory.universe] == ["p(6)"]
    assert not satisfied(theory) and len(theory.constraints) == 1
    assert solve(theory).solutions == [()]


def with_definitions(text, extra):
    """The program of text with the definitions of extra added.  The
    parser refuses a name used at two arities, but build_theory takes
    any Program, so the base model keys its extensions by name and
    arity."""
    program, more = parse_text(text, "t"), parse_text(extra, "t")
    return dataclasses.replace(program, definitions=program.definitions + more.definitions)


def test_a_typing_predicate_is_read_at_arity_one(monkeypatch):
    # d/2 is true at (1,1) and (2,2), and d/1 depends on a: the universe
    # takes nothing from d/2, so d/1 is refused as a typing predicate,
    # with the typing rule satisfied or grounded.
    dependent = with_definitions(
        "abducible p/1. abducible a/0. e(1). e(2). d(X) :- e(X), a. d(X) <- p(X).\n", "d(1,1). d(2,2).\n"
    )
    for build in (build_theory, lambda program: grounded_build(monkeypatch, program)):
        with pytest.raises(GroundError, match="typing predicate d for p/1 depends on abducibles"):
            build(dependent)
    # d(5) is false, and the universe holds p(1) only, not p(5) from d(5,5)
    mixed = with_definitions("abducible p/1. d(1). d(X) <- p(X).\n", "d(5,5).\n")
    theory, grounded = build_theory(mixed), grounded_build(monkeypatch, mixed)
    assert len(satisfied(theory)) == 1
    assert [theory.atoms.render(i) for i in theory.universe] == ["p(1)"]
    assert solve(theory).solutions == solve(grounded).solutions == [(), (theory.universe[0],)]


def test_a_negative_or_constant_head_is_no_typing_rule():
    # not e(X) <- p(X) and e(3) <- p(X) are not of the typing form
    # d(X) <- p(X): neither bounds p's slot, which d bounds to 1..2, nor
    # is satisfied.  Both stay ground and prune: e(1) rules out p(1),
    # and e(3) is false.
    for rule, solutions in (("not e(X) <- p(X).", [[], ["p(2)"]]), ("e(3) <- p(X).", [[]])):
        theory = theory_for(f"abducible p/1. d(1). d(2). e(1). d(X) <- p(X). {rule}\n")
        assert [theory.atoms.render(i) for i in theory.universe] == ["p(1)", "p(2)"], rule
        assert [str(r.con) for r in satisfied(theory)] == ["d(X) <- p(X)."], rule
        assert {record.origin for record in theory.constraints} == {1}, rule
        assert [[theory.atoms.render(a) for a in s] for s in solve(theory).solutions] == solutions, rule


TYPED = "t(X) :- X in 1..4.\nabducible p/1.\nt(X) <- p(X).\n"


def test_a_typing_rule_past_the_cap_solves_but_does_not_dump(monkeypatch, tmp_path, capsys):
    # The rule's join meets 4 instances.  build_theory leaves them
    # unground and counts none, so solve answers whatever the cap;
    # dump expands them and stops at the cap with the grounder's
    # positioned message.
    monkeypatch.setattr(GROUND, "_CONSTRAINT_CAP", 4)
    assert len(theory_for(TYPED).expand_constraints()) == 4
    monkeypatch.setattr(GROUND, "_CONSTRAINT_CAP", 3)
    theory = theory_for(TYPED)
    assert len(satisfied(theory)) == 1 and not theory.constraints
    assert len(solve(theory).solutions) == 16
    with pytest.raises(GroundError, match="exceeded 3 constraint instances"):
        theory.dump()
    path = tmp_path / "typed.alp"
    path.write_text(TYPED, encoding="utf-8")
    assert cli.main(["solve", str(path), "--all"]) == 0
    capsys.readouterr()
    assert cli.main(["ground", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:3:1: grounding exceeded 3 constraint instances in constraint t(X) <- p(X)")

