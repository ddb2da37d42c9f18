"""Grounder: declarations, builtins, universe extraction, instantiation."""

import dataclasses
import gc
import hashlib
import importlib
import importlib.resources as res
import importlib.util
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import pytest

from alp import cli, solver
from alp.ground import (
    GroundAtom,
    GroundClause,
    GroundConstraint,
    _int_hull,
    _plan_rule,
    _symmetric_groups,
    abducible_universe,
    apply_const_overrides,
    base_model,
    build_theory,
    eval_declarations,
)
from alp.parser import parse_text
from alp.solver import SolveOptions, solve
from alp.syntax import (
    INT_MAX,
    INT_MIN,
    Builtin,
    GroundError,
    IntConst,
    Range,
    SymConst,
    Var,
    literal_variables,
    normalize,
)
from reference_builtins import eval_builtin


def bundled(name):
    return (res.files("alp") / "programs" / name).read_text(encoding="utf-8")


def theory_for(text, name="t"):
    return build_theory(parse_text(text, name))


# -- declarations -----------------------------------------------------------


def test_constants_evaluate_recursively():
    prog = parse_text("constant n == 3.\nconstant m == n*n-1.\ndomain d == 1..m.\n", "t")
    table = eval_declarations(prog.decls)
    assert table.constants == {"n": 3, "m": 8}
    assert table.domains["d"] == tuple(range(1, 9))


def test_constant_cycle_is_an_error():
    prog = parse_text("constant a == b+1.\nconstant b == a+1.\n", "t")
    with pytest.raises(GroundError, match="cycl"):
        eval_declarations(prog.decls)


def test_unknown_constant_is_an_error():
    prog = parse_text("constant a == b+1.\n", "t")
    with pytest.raises(GroundError, match="b"):
        eval_declarations(prog.decls)


def test_empty_domain_is_an_error():
    prog = parse_text("domain d == 5..2.\n", "t")
    with pytest.raises(GroundError, match="empty"):
        eval_declarations(prog.decls)


# -- builtin evaluation -----------------------------------------------------


def test_builtin_comparisons():
    assert eval_builtin(Builtin("<", IntConst(1), IntConst(2)), {}) is True
    assert eval_builtin(Builtin(">=", IntConst(1), IntConst(2)), {}) is False
    assert eval_builtin(Builtin("=", Var("X"), IntConst(7)), {"X": 7}) is True
    assert eval_builtin(Builtin("\\=", IntConst(1), SymConst("table")), {}) is True


def test_builtin_abs_difference():
    # abs(2-5) = 3 is how the diagonal test grounds
    from alp.syntax import ArithExpr

    lit = Builtin("=", ArithExpr("abs", (ArithExpr("-", (IntConst(2), IntConst(5))),)), IntConst(3))
    assert eval_builtin(lit, {}) is True


def test_builtin_in_generates():
    lit = Builtin("in", Var("X"), Range(IntConst(2), IntConst(4)))
    out = eval_builtin(lit, {})
    assert [b["X"] for b in out] == [2, 3, 4]


def test_builtin_in_tests_when_bound():
    lit = Builtin("in", Var("X"), Range(IntConst(2), IntConst(4)))
    assert eval_builtin(lit, {"X": 3}) is True
    assert eval_builtin(lit, {"X": 9}) is False
    assert eval_builtin(lit, {"X": "table"}) is False


def test_builtin_eq_binds_left_variable():
    from alp.syntax import ArithExpr

    lit = Builtin("=", Var("X"), ArithExpr("+", (IntConst(2), IntConst(3))))
    out = eval_builtin(lit, {})
    assert out == [{"X": 5}]


def test_builtin_unbound_is_an_error():
    with pytest.raises(GroundError, match="instantiated"):
        eval_builtin(Builtin("<", Var("X"), IntConst(2)), {})


def test_builtin_ordering_on_symbols_is_an_error():
    with pytest.raises(GroundError, match="type error"):
        eval_builtin(Builtin("<", SymConst("a"), IntConst(2)), {})


def test_symbolic_constant_resolves_inside_arithmetic():
    from alp.syntax import ArithExpr

    lit = Builtin("=", Var("X"), ArithExpr("+", (SymConst("n"), IntConst(1))))
    assert eval_builtin(lit, {}, {"n": 4}) == [{"X": 5}]


# -- universe extraction ----------------------------------------------------


def test_universe_from_typing_constraints():
    theory = theory_for(bundled("queens.alp"), "queens.alp")
    assert len(theory.universe) == 64
    first = theory.atoms.atom(theory.universe[0])
    assert (first.pred, first.args) == ("position", (1, 1))


def test_universe_from_declared_domains():
    theory = theory_for(
        "domain d == 1..4.\nabducible c(d, d).\nfalse <- c(1,1).\n"
    )
    assert len(theory.universe) == 16


def test_universe_arity_zero():
    theory = theory_for("abducible a/0.\nfalse <- not a.\n")
    assert len(theory.universe) == 1


def test_universe_blocks():
    theory = theory_for(bundled("blocks.alp"), "blocks.alp")
    assert len(theory.universe) == 168
    assert len(theory.forced) == 6
    forced = {str(theory.atoms.atom(i)) for i in theory.forced}
    assert "initially_on(1,2)" in forced


def test_untyped_abducible_argument_is_an_error():
    with pytest.raises(GroundError, match="pick"):
        theory_for("abducible pick/1.\nfalse <- pick(X).\n")


def test_typing_predicate_must_not_depend_on_abducibles():
    text = (
        "abducible pick/1.\n"
        "num(N) :- pick(N).\n"
        "num(N) <- pick(N).\n"
        "false <- pick(0).\n"
    )
    with pytest.raises(GroundError):
        theory_for(text)


def test_base_model_must_be_two_valued():
    text = (
        "abducible pick/1.\n"
        "num(1) :- not gap.\n"
        "gap :- not num(1).\n"
        "num(N) <- pick(N).\n"
    )
    with pytest.raises(GroundError, match="two-valued|undefined"):
        theory_for(text)


# -- instantiation ----------------------------------------------------------


def test_queens_ground_counts_scale():
    # ground constraints as dump lists them, and the clauses the theory
    # stores: those of row_has_queen(R) <- row(R), since the three
    # two-queen rules are lazy and the universe satisfies the two
    # typing rules
    t4 = theory_for(bundled("queens.alp"), "q4")
    # size defaults to 8 in the bundled file
    assert (t4.n_atoms, len(t4.clauses), len(t4.expand_constraints())) == (89, 81, 864)
    assert len(t4.constraints) == 8

    prog = apply_const_overrides(parse_text(bundled("queens.alp"), "q"), {"size": 4})
    t = build_theory(prog)
    assert (t.n_atoms, len(t.clauses), len(t.expand_constraints())) == (29, 25, 112)
    assert len(t.constraints) == 4
    assert len(t.universe) == 16 and not t.forced


def test_queens_diagonal_test_runs_on_few_candidates(monkeypatch):
    # abs(R2-R1) = abs(C2-C1) is answered by probing the two columns on
    # each row that it allows, not by trying every second queen: about
    # n**3 runs of the test instead of n**4 / 2.  The bound is a count,
    # so it holds on any machine; the test runs 1,012 times here.  The
    # rule is lazy, so its join runs when dump expands it.
    ground_mod = importlib.import_module("alp.ground")
    compile_test = ground_mod._compile_test
    calls = Counter()

    def counting(lit, constants, bounds):
        test = compile_test(lit, constants, bounds)
        if "abs" not in str(lit) or test.fn is None:
            return test
        fn = test.fn

        def counted(binding):
            calls[str(lit)] += 1
            return fn(binding)

        return test._replace(fn=counted)

    monkeypatch.setattr(ground_mod, "_compile_test", counting)
    n = 12
    theory = build_theory(apply_const_overrides(parse_text(bundled("queens.alp"), "q"), {"size": n}))
    assert not calls
    assert len(theory.expand_constraints()) == 2896
    assert list(calls) == ["abs(R2-R1) = abs(C2-C1)"]
    assert 0 < calls.total() <= n**3


def test_head_builtin_folding():
    # the one-queen-per-row rule grounds to pure denials: equal-column
    # instances are discharged at ground time, unequal ones keep nothing
    # in the head
    prog = apply_const_overrides(parse_text(bundled("queens.alp"), "q"), {"size": 2})
    theory = build_theory(prog)
    (eq_origin,) = [
        o
        for o, con in enumerate(normalize(prog).constraints)
        if len(con.heads) == 1 and isinstance(con.heads[0], Builtin)
    ]
    # 2 rows x 2 ordered unequal column pairs, one denial per row once the
    # mirrored pair is dropped as a duplicate
    constraints = theory.expand_constraints()
    rows = [
        sorted(str(theory.atoms.atom(a)) for a in c.pos)
        for c in constraints
        if c.origin == eq_origin
    ]
    assert all(not c.heads for c in constraints if c.origin == eq_origin)
    assert all(c.denial for c in theory.constraints if c.origin == eq_origin)
    assert rows == [["position(1,1)", "position(1,2)"], ["position(2,1)", "position(2,2)"]]


def canonical_key(c):
    return (tuple(sorted(set(c.heads))), tuple(sorted(set(c.pos))), tuple(sorted(set(c.neg))))


def random_program(rng):
    """Safe random constraints over two abducibles and a defined predicate;
    bodies that repeat a predicate ground to permuted duplicates."""
    lines = [
        "domain d == 1..3.",
        "abducible a(d).",
        "abducible b(d, d).",
        "p(X) :- b(X,Y), not a(Y).",
    ]
    for _ in range(rng.randint(1, 4)):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(("a(%s)", "b(%s,%s)", "p(%s)"))
            body.append(pred % tuple(rng.choice("XYZ1") for _ in range(pred.count("%s"))))
            if rng.random() < 0.5:
                body.append(body[-1].translate(str.maketrans("XYZ", "YZX")))
        bound = sorted({c for lit in body for c in lit if c in "XYZ"}) or ["1"]
        for _ in range(rng.randint(0, 2)):
            x, y = rng.choice(bound), rng.choice(bound + ["2"])
            body.append(rng.choice((f"not a({x})", f"{x} \\= {y}", f"{x} < {y}")))
        heads = [rng.choice(("a(%s)", "p(%s)", "%s = 1")) % rng.choice(bound) for _ in range(rng.randint(0, 2))]
        lines.append(f"{' ; '.join(heads) or 'false'} <- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


def test_ground_constraints_are_distinct():
    # no two ground constraints share a set of head disjuncts, positive
    # and negative body atoms
    theories = [theory_for(bundled("queens.alp")), theory_for(bundled("blocks.alp"))]
    rng = random.Random(6610)
    theories += [theory_for(random_program(rng)) for _ in range(150)]
    for theory in theories:
        keys = [canonical_key(c) for c in theory.expand_constraints()]
        assert len(set(keys)) == len(keys), theory.dump()


def test_ground_theory_is_freed_without_the_cycle_collector(monkeypatch):
    # a reference cycle through the theory, the solver's search or the
    # grounder's closures would keep them alive until gc runs
    prog = parse_text(bundled("queens.alp"), "q")
    searches = []

    class Search(solver._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(weakref.ref(self))

    monkeypatch.setattr(solver, "_Search", Search)
    gc.disable()
    try:
        theory = build_theory(prog)
        refs = [weakref.ref(theory), weakref.ref(theory.atoms)]
        del theory
        assert [r() for r in refs] == [None, None]
        theory = build_theory(prog)
        solve(theory, SolveOptions(max_models=3))
        assert len(searches) == 1 and searches[0]() is None
        # the theory holds its fields only: solve left nothing on it
        assert set(vars(theory)) == {f.name for f in dataclasses.fields(theory)}
        refs = [weakref.ref(theory), weakref.ref(theory.atoms)]
        del theory
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_ground_dump_deterministic():
    a = theory_for(bundled("queens.alp"), "queens.alp").dump()
    b = theory_for(bundled("queens.alp"), "queens.alp").dump()
    assert a == b


def test_unguarded_recursion_is_truncated_at_the_integer_hull():
    # values spiral upward without a domain guard; growth stops at the
    # largest integer mentioned anywhere in the program
    text = (
        "abducible go/0.\n"
        "p(1).\n"
        "p(X) :- p(Y), Y < 9, X = Y+1.\n"
        "false <- go, not p(9).\n"
    )
    theory = theory_for(text)
    preds = {str(theory.atoms.atom(i)) for i in range(theory.n_atoms)}
    assert "p(9)" in preds
    assert "p(10)" not in preds


def test_derived_out_of_hull_heads_are_kept_but_not_expanded():
    text = (
        "abducible go/0.\n"
        "p(1).\n"
        "p(X) :- p(Y), X = Y+1.\n"
        "false <- go, p(1).\n"
    )
    theory = theory_for(text)
    rendered = {str(theory.atoms.atom(i)) for i in range(theory.n_atoms)}
    # hull is [0,1] at most, so p(2) may appear as a derived head once
    # but p(3) requires feeding p(2) back in, which the hull forbids
    assert "p(3)" not in rendered


# One integer in each place the hull reads, each at most 8 here.  The
# universe atom a(8) is 2 * 2 * 2, a value the program text never holds.
HULL_PLACES = {
    "constant": "constant k == {}.",
    "domain": "domain d == 0..{}.",
    "head arithmetic": "h(X + {}) :- s(X).",
    "negative literal": "g :- s(X), not h({}).",
    "builtin side": "g :- s(X), X < {}.",
    "range bound": "g :- s(X), X in 0..{}.",
    "constraint head": "h({}) <- p.",
}
HULL_BASE = dict(zip(HULL_PLACES, range(1, 8)))


def hull_of(values, seed=2):
    text = "abducible p/0.\nabducible a/1.\nt(X) <- a(X).\n"
    text += "".join(line.format(values[place]) + "\n" for place, line in HULL_PLACES.items())
    text += f"s({seed}).\nt(Y) :- s(X), Y = X * X * X.\n"
    program = normalize(parse_text(text, "t"))
    domains = eval_declarations(program.decls)
    universe = abducible_universe(program, domains, base_model(program, domains))
    return _int_hull(program, domains, universe)


def test_integer_hull_spans_the_integers_of_a_program():
    assert hull_of(HULL_BASE) == (0, 8)
    symbols = parse_text("abducible p(c).\nc(x).\nq(y) :- p(X), c(X).\nfalse <- not q(y).\n", "t")
    assert _int_hull(normalize(symbols), eval_declarations(symbols.decls)) is None


@pytest.mark.parametrize("place", [*HULL_PLACES, "universe atom"])
def test_integer_hull_reads_every_place(place):
    # 1000 in one place only; the universe atom a(1000) comes from s(10)
    values = {**HULL_BASE, place: 1000} if place in HULL_PLACES else HULL_BASE
    assert hull_of(values, seed=10 if place == "universe atom" else 2) == (0, 1000)


def test_identical_ground_clauses_of_two_rules_are_kept_once():
    theory = theory_for("abducible a/1.\nt(1).\nt(X) <- a(X).\nq(X) :- a(X).\nq(1) :- a(1).\nfalse <- not q(1).\n")
    assert [theory.render_clause(c) for c in theory.clauses] == ["t(1).", "q(1) :- a(1)."]


def test_negation_never_binds():
    with pytest.raises(GroundError, match="unbound|unsafe"):
        theory_for("domain d == 1..2.\nabducible a(d).\np :- not a(X).\nfalse <- p.\n")


def test_unbound_head_variable_is_an_error():
    with pytest.raises(GroundError, match="head|unbound"):
        theory_for("p(X) :- q.\nq.\nfalse <- p(1).\n")


@pytest.mark.parametrize(
    "builtin, var", [("Y < X", "Y"), ("X < Z + Y", "Y"), ("X in 1..Z", "Z"), ("W in 1..Z", "W")]
)
def test_unbound_builtin_variable_is_named(builtin, var):
    # the first unbound variable in name order, from either side of the
    # builtin and from both ends of a range
    with pytest.raises(GroundError, match=f"cannot be evaluated: variable {var} is never bound"):
        theory_for(f"n(1).\np(X) :- n(X), {builtin}.\nfalse <- p(1).\n")


def test_arithmetic_inside_body_atoms_is_an_error():
    with pytest.raises(GroundError, match="arith"):
        theory_for("p(1).\nq(X) :- p(X+1).\nfalse <- q(2).\n")


def test_forced_facts_are_collected():
    theory = theory_for(
        "domain d == 1..3.\nabducible a(d).\na(2) <- true.\nfalse <- a(1).\n"
    )
    assert [str(theory.atoms.atom(i)) for i in theory.forced] == ["a(2)"]


def test_defined_unit_constraint_is_not_forced():
    theory = theory_for("abducible x/0.\np :- x.\np <- true.\n")
    assert not theory.forced


CAPPED = (
    "domain d == 1..3.\n"
    "abducible a(d).\n"
    "p(X) :- X in 1..40.\n"
    "false <- a(X), a(Y), X \\= Y.\n"
)


@pytest.mark.parametrize(
    "cap,value,line,column,what",
    [
        ("_ATOM_CAP", 20, 3, 1, "grounding exceeded 20 atoms in clause p"),
        ("_CONSTRAINT_CAP", 2, 4, 1, "grounding exceeded 2 constraint instances"),
        # the interval's builtin, at its operator
        ("_DOMAIN_CAP", 20, 3, 11, "interval 1..40 exceeds 20 values"),
    ],
    ids=[
        "_ATOM_CAP-20-3-atoms in clause p",
        "_CONSTRAINT_CAP-2-4-constraint instances",
        "_DOMAIN_CAP-20-3-interval",
    ],
)
def test_grounding_caps_report_the_rule(monkeypatch, tmp_path, capsys, cap, value, line, column, what):
    # the denial is lazy: its instances are counted where dump expands it
    monkeypatch.setattr(importlib.import_module("alp.ground"), cap, value)
    with pytest.raises(GroundError, match=re.escape(what)) as info:
        theory_for(CAPPED, "capped.alp").dump()
    (diag,) = info.value.diagnostics
    assert (diag.span.line, diag.span.column) == (line, column)

    path = tmp_path / "capped.alp"
    path.write_text(CAPPED, encoding="utf-8")
    assert cli.main(["ground", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:{line}:{column}: {what}")


@pytest.mark.parametrize(
    "text, line",
    [
        ("c(0).\nc(X+1) :- c(X).\nfalse <- c(40).\n", 2),
        # c depends on an abducible: ground's closure, not the base model's
        ("abducible a/0.\nc(0) :- a.\nc(X+1) :- c(X).\nfalse <- c(40).\n", 3),
    ],
    ids=["base-model", "ground"],
)
def test_atom_cap_crossed_in_a_later_round_reports_the_rule(monkeypatch, tmp_path, capsys, text, line):
    # The first round makes c(0) possible and each later round one more
    # c atom, up to the hull's top, 40: the cap of 20 atoms is crossed
    # rounds later, at the recursive rule.
    monkeypatch.setattr(importlib.import_module("alp.ground"), "_ATOM_CAP", 20)
    with pytest.raises(GroundError, match="exceeded 20 atoms in clause c") as info:
        theory_for(text, "chain.alp")
    (diag,) = info.value.diagnostics
    assert (diag.span.line, diag.span.column) == (line, 1)

    path = tmp_path / "chain.alp"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["ground", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:{line}:1: grounding exceeded 20 atoms in clause c(X+1) :- c(X).")


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize(
    "text, grouped, plain, kept",
    [(CAPPED, 3, 6, 3), (CAPPED.replace(", X \\= Y", ""), 6, 9, 6)],
    ids=["distinct-atoms", "repeated-atoms"],
)
def test_constraint_cap_counts_the_instances_the_join_enumerates(monkeypatch, symmetric, text, grouped, plain, kept):
    # The cap counts the instances the join meets.  The plain join meets
    # every pair of a atoms; the symmetric one only the pairs in rank
    # order, each set of candidates once.  The denial is lazy, so dump
    # meets them; instantiated, build_theory does.
    ground_mod = importlib.import_module("alp.ground")
    count = grouped if symmetric else plain
    if not symmetric:
        monkeypatch.setattr(ground_mod, "_symmetric_groups", lambda con, plan: [])
    monkeypatch.setattr(ground_mod, "_CONSTRAINT_CAP", count)
    assert len(theory_for(text, "capped.alp").expand_constraints()) == kept
    monkeypatch.setattr(ground_mod, "_CONSTRAINT_CAP", count - 1)
    theory = theory_for(text, "capped.alp")
    with pytest.raises(GroundError, match=f"exceeded {count - 1} constraint instances"):
        theory.expand_constraints()
    with monkeypatch.context() as m:
        m.setattr(ground_mod, "_is_lazy", lambda *args: False)
        m.setattr(ground_mod, "_CONSTRAINT_CAP", count)
        assert len(theory_for(text, "capped.alp").constraints) == kept
        m.setattr(ground_mod, "_CONSTRAINT_CAP", count - 1)
        with pytest.raises(GroundError, match=f"exceeded {count - 1} constraint instances"):
            theory_for(text, "capped.alp")


# -- symmetric constraint bodies --------------------------------------------


def groups_of(text):
    """_symmetric_groups of every constraint of a program, by its text."""
    out = {}
    for con in normalize(parse_text(text, "t")).constraints:
        head_vars = set().union(*(literal_variables(h) for h in con.heads))
        out[str(con)] = _symmetric_groups(con, _plan_rule(con.body, head_vars, con.span, "c"))
    return out


HAMCYCLE = """\
node(X) :- X in 1..4.
edge(1,2). edge(2,1). edge(2,3). edge(3,4). edge(4,3). edge(4,1). edge(1,3).
abducible hc/2.
node(X) <- hc(X,Y).
node(Y) <- hc(X,Y).
false <- hc(X,Y), not edge(X,Y).
has_out(X) :- hc(X,Y).
has_in(Y) :- hc(X,Y).
has_out(X) <- node(X).
has_in(X) <- node(X).
Y1 = Y2 <- hc(X,Y1), hc(X,Y2).
X1 = X2 <- hc(X1,Y), hc(X2,Y).
reached(Y) :- hc(1,Y).
reached(Y) :- reached(X), hc(X,Y).
reached(X) <- node(X).
"""


def test_symmetric_groups_of_the_bundled_programs():
    found = {k: v for k, v in groups_of(bundled("blocks.alp")).items() if v}
    assert found == {
        "false <- move(B1,L1,T), move(B2,L2,T), move(B3,L3,T), B1 \\= B2, B1 \\= B3, B2 \\= B3.": [(0, 1, 2)],
        "false <- move(B,L1,T), move(B,L2,T), L1 \\= L2.": [(0, 1)],
        "false <- on(B1,B,T), on(B2,B,T), B1 \\= B2, block(B).": [(0, 1)],
    }
    # the attack denial orders its rows with R1 < R2
    found = {k: v for k, v in groups_of(bundled("queens.alp")).items() if v}
    assert found == {"C1 = C2 <- position(R,C1), position(R,C2).": [(0, 1)]}
    found = {k: v for k, v in groups_of(HAMCYCLE).items() if v}
    assert found == {"Y1 = Y2 <- hc(X,Y1), hc(X,Y2).": [(0, 1)], "X1 = X2 <- hc(X1,Y), hc(X2,Y).": [(0, 1)]}


@pytest.mark.parametrize(
    "body, groups",
    [
        ("a(X), a(Y), a(Z)", [(0, 1, 2)]),
        ("a(X), a(Y), X < Y", []),
        ("a(X), a(Y), b(X), b(Y)", []),
        ("b(X,Y), b(Y,X)", [(0, 1)]),
        ("b(X,Y), b(Y,Z)", []),
        ("b(X,1), b(Y,1), b(Z,2)", [(0, 1)]),
        ("a(X), b(X,Y), a(Z), b(Z,W), X \\= Z", []),
        ("a(X), a(Y), X \\= 2", []),
        ("a(X), a(Y), X \\= 2, 2 \\= Y", [(0, 1)]),
        # a generator on a moved variable, and one on a fixed variable
        ("X = 1, a(X), Y = 1, a(Y)", []),
        ("Z = 1, a(X), a(Y), b(Z,Z)", [(0, 1)]),
        # a negative literal must map to another negative literal
        ("a(X), a(Y), not b(X,X)", []),
        ("a(X), a(Y), not b(X,X), not b(Y,Y)", [(0, 1)]),
        ("a(X), a(Y), not b(X,X), b(Y,Y)", []),
    ],
)
def test_symmetric_groups_of_denials(body, groups):
    assert list(groups_of(f"false <- {body}.\n").values()) == [groups]


@pytest.mark.parametrize(
    "heads, groups",
    [
        ("a(X) ; a(Y)", [(0, 1)]),
        ("a(X)", []),
        ("not a(X) ; not a(Y)", [(0, 1)]),
        ("X = Y", [(0, 1)]),
        ("X = 1 ; Y = 1", [(0, 1)]),
        # arithmetic or an ordering comparison could raise a type error
        ("X < 5 ; Y < 5", []),
        ("a(X+0) ; a(Y+0)", []),
        # a true head builtin would stop a member before the head atoms
        ("X = 1 ; a(Y) ; Y = 1 ; a(X)", []),
    ],
)
def test_symmetric_groups_look_at_the_heads(heads, groups):
    assert list(groups_of(f"{heads} <- a(X), a(Y).\n").values()) == [groups]


def grounding(text):
    """Everything grounding text makes, every ground constraint expanded,
    or the error it raises."""
    try:
        theory = theory_for(text)
        constraints = theory.expand_constraints()
    except GroundError as exc:
        return str(exc)
    atoms = [theory.atoms.atom(i) for i in range(theory.n_atoms)]
    return atoms, theory.clauses, constraints, theory.universe, theory.forced


def plain_grounding(monkeypatch, text):
    """grounding(text) with every constraint body enumerated in full."""
    with monkeypatch.context() as m:
        m.setattr(importlib.import_module("alp.ground"), "_symmetric_groups", lambda con, plan: [])
        return grounding(text)


def symmetric_program(rng):
    """Constraints that repeat one predicate k times over per-copy
    variables, with families of extras that repeat a pattern for every
    copy or pair of copies, or break it by covering copy 0 only: shared
    and repeated variables, constants, a generator, \\=, <, negative
    literals, head atoms and head builtins."""
    lines = [
        "domain d == 1..3.",
        "abducible a(d).",
        "abducible b(d, d).",
        "p(X) :- b(X,Y), not a(Y).",
    ]
    families = (
        "not a(%s)", "%s \\= 2", "%s \\= %s", "%s < %s", "a(%s)", "b(%s,S)", "%s \\= Z",
        "head a(%s)", "head not p(%s)", "head %s = %s", "head %s = 1",
    )
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(2, 3)
        pred, arity = rng.choice((("a", 1), ("b", 2), ("b", 2), ("p", 1)))
        shape = [rng.choice("XYYS2") for _ in range(arity)]
        copies = [[t if t in "S2" else f"{t}{i}" for t in shape] for i in range(k)]
        body = [f"{pred}({','.join(c)})" for c in copies]
        heads = []
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        for _ in range(rng.randint(0, 3)):
            family = rng.choice(families)
            var = [c[rng.randrange(arity)] for c in copies]
            target = body
            if family.startswith("head "):
                target, family = heads, family[5:]
            elif "Z" in family and "Z = 2" not in body:
                body.append("Z = 2")
            if family.count("%s") == 2:
                chosen = pairs if rng.random() < 0.8 else pairs[:1]
                target.extend(family % (var[i], var[j]) for i, j in chosen)
            else:
                chosen = range(k) if rng.random() < 0.8 else range(1)
                target.extend(family % var[i] for i in chosen)
        if "S" not in shape:
            body = [lit.replace("S", "2") for lit in body]
        if rng.random() < 0.5:
            rng.shuffle(body)
        lines.append(f"{' ; '.join(heads) or 'false'} <- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


def test_symmetric_bodies_ground_as_the_plain_join(monkeypatch):
    # Enumerating each orbit once keeps the constraints, their order and
    # their literal order, and the atom table: the whole grounding is
    # that of the plain join.  The floors sit below the counts the seed
    # gives (268 groups of two literals, 188 of three), so that the
    # family keeps reaching groups of both sizes.
    found = []
    real = _symmetric_groups

    def spy(con, plan):
        groups = real(con, plan)
        found.extend(len(g) for g in groups)
        return groups

    monkeypatch.setattr(importlib.import_module("alp.ground"), "_symmetric_groups", spy)
    texts = [
        bundled("blocks.alp"),
        bundled("queens.alp"),
        bundled("queens.alp").replace("size(8)", "size(5)"),
        HAMCYCLE,
    ]
    rng = random.Random(8)
    texts += [symmetric_program(rng) for _ in range(300)]
    for i, text in enumerate(texts):
        assert grounding(text) == plain_grounding(monkeypatch, text), f"program {i}:\n{text}"
    assert found.count(2) >= 100 and found.count(3) >= 50, (found.count(2), found.count(3))


def test_three_move_rule_enumerates_each_set_of_moves_once(monkeypatch):
    # The three-move rule is a lazy denial: build_theory enumerates none
    # of its instances, and expanding it, as dump does, enumerates each
    # set of moves once.
    ground_mod = importlib.import_module("alp.ground")
    emitted = Counter()
    real = ground_mod._compile_join

    def spy(plan, candidates, constants, emit, groups=(), make_selector=None):
        def counted(binding, pos_ids):
            emitted[plan.label] += 1
            emit(binding, pos_ids)

        return real(plan, candidates, constants, counted, groups, make_selector)

    monkeypatch.setattr(ground_mod, "_compile_join", spy)
    text = bundled("blocks.alp")
    theory = theory_for(text)
    rules = [str(con) for con in normalize(parse_text(text, "b")).constraints]
    three_move = next(o for o, rule in enumerate(rules) if rule.count("move(") == 3)
    label = f"constraint {rules[three_move]}"
    assert three_move in [rule.origin for rule in theory.rules if rule.lazy]
    assert emitted[label] == 0
    assert not any(c.origin == three_move for c in theory.constraints)
    kept = sum(c.origin == three_move for c in theory.expand_constraints())
    assert emitted[label] == kept == 20_580
    # expanding runs every rule's join again: count that run alone
    with monkeypatch.context() as m:
        m.setattr(ground_mod, "_symmetric_groups", lambda con, plan: [])
        plain = theory_for(text)
        emitted.clear()
        plain.expand_constraints()
    assert emitted[label] == 123_480  # 6 orderings of each set of moves
    # The cap counts the instances the grouped join enumerates, across
    # the constraints build_theory instantiates and those dump expands:
    # at one below the total, build_theory and solve go through, and dump
    # stops at the constraint where a full grounding stops, the last
    # goal, which comes after the three-move rule.
    emitted.clear()
    theory.expand_constraints()
    total = sum(n for lbl, n in emitted.items() if lbl.startswith("constraint "))
    monkeypatch.setattr(ground_mod, "_CONSTRAINT_CAP", total)
    theory_for(text).dump()
    monkeypatch.setattr(ground_mod, "_CONSTRAINT_CAP", total - 1)
    theory = theory_for(text)
    assert solve(theory, SolveOptions(max_models=1)).solutions
    with pytest.raises(GroundError, match=f"constraint instances in constraint {re.escape(rules[-1])}"):
        theory.dump()
    # past the three-move rule's own instances, dump stops at that rule
    monkeypatch.setattr(ground_mod, "_CONSTRAINT_CAP", total - len(rules) + three_move)
    with pytest.raises(GroundError, match=f"constraint instances in {re.escape(label)}"):
        theory_for(text).dump()


@pytest.mark.parametrize(
    "text",
    [
        # a(1), a(c): only the unsorted instance X=c, Y=1 reaches c < 5
        "abducible a/1.\nt(1). t(c).\nt(X) <- a(X).\nX < 5 ; Y < 5 <- a(X), a(Y), X \\= Y.\n",
        # the sorted instance X=1, Y=2 stops at X = 1; the unsorted one
        # interns q(1) before it stops at Y = 1
        "domain d == 1..2.\nabducible a(d).\nq(X) :- a(X), X > 5.\n"
        "X = 1 ; q(Y) ; Y = 1 ; q(X) <- a(X), a(Y).\n",
    ],
    ids=["type-error", "head-builtin-before-atom"],
)
def test_bodies_left_unpruned_ground_as_the_plain_join(monkeypatch, text):
    assert grounding(text) == plain_grounding(monkeypatch, text)


GROUND_SHA256 = [
    ("blocks.alp", [], "13421e8575f317b3417918e26fef5ae8574ebbbf285161c7ea5535bb2308a20d"),
    ("queens.alp", ["-c", "size=6"], "36f4fe1253d2081ae5d979db4290ce73e0611189a0ccf49210eca2790970e6b7"),
    ("queens.alp", ["-c", "size=8"], "98f82ea340db9afbd4731b2a70dd3929d32a4f6ffc134e6172e13a2d2cee8bad"),
    # the benchmark's queens instance, before builtins were compiled
    ("queens.alp", ["-c", "size=10"], "f51b68653a14afbf9d21d853f6a18a40be7e32cd3386e4eac1115f0160a12b2e"),
]


@pytest.mark.parametrize("name, extra, digest", GROUND_SHA256)
def test_ground_output_is_pinned(capsys, name, extra, digest):
    # digests of the output before constraint bodies were pruned
    assert cli.main(["ground", str(res.files("alp") / "programs" / name), *extra]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def bench_hamcycle_text(seed):
    """The benchmark's hamcycle program for one seed, from bench/hamcycle.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "hamcycle.py"
    spec = importlib.util.spec_from_file_location("bench_hamcycle", path)
    hamcycle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hamcycle)
    return hamcycle.program_text(hamcycle.generate_graph(seed))


def test_ground_output_of_the_bench_hamcycle_is_pinned(capsys, tmp_path):
    # its two functional hc rules, Y1 = Y2 <- hc(X,Y1), hc(X,Y2) and its
    # mirror, have builtin heads: dump prints every instance of them
    path = tmp_path / "hamcycle.alp"
    path.write_text(bench_hamcycle_text(1), encoding="utf-8")
    assert cli.main(["ground", str(path)]) == 0
    digest = "263718280618873adb09c678a793acdeb96c1ea105836a616d150e95771e9c52"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, count",
    [
        (lambda: apply_const_overrides(parse_text(bundled("queens.alp"), "queens.alp"), {"size": 10}), 1_680),
        (lambda: parse_text(bench_hamcycle_text(1), "hamcycle.alp"), 2_040),
    ],
    ids=["queens-10", "hamcycle-1"],
)
def test_expanded_constraints_are_pinned(text, count):
    # every ground constraint, whether the theory stores its clause or
    # leaves its rule to the search
    assert len(build_theory(text()).expand_constraints()) == count


# -- overrides --------------------------------------------------------------


def test_override_rewrites_fact():
    prog = apply_const_overrides(parse_text("size(8).\np :- size(4).\n", "t"), {"size": 4})
    facts = [cl for cl in prog.definitions if not cl.body]
    assert str(facts[0]) == "size(4)."


def test_override_replaces_constant_declaration():
    prog = apply_const_overrides(parse_text("constant n == 8.\ndomain d == 1..n.\n", "t"), {"n": 3})
    table = eval_declarations(prog.decls)
    assert table.domains["d"] == (1, 2, 3)


def test_override_adds_missing_constant():
    prog = apply_const_overrides(parse_text("p(1).\n", "t"), {"k": 5})
    table = eval_declarations(prog.decls)
    assert table.constants["k"] == 5


@pytest.mark.parametrize("value", [INT_MAX + 1, INT_MIN - 1, 10**20])
def test_override_outside_the_integer_range_is_refused(value):
    # no integer literal can state such a fact, so no override can either
    prog = parse_text("k(5).\n", "t")
    with pytest.raises(GroundError, match=re.escape(f"override k={value} is outside the range {INT_MIN}..{INT_MAX}")):
        apply_const_overrides(prog, {"k": value})
    for value in (INT_MIN, INT_MAX):
        assert str(apply_const_overrides(prog, {"k": value}).definitions[0]) == f"k({value})."


def test_alp_ground_is_the_module():
    import alp.ground as g

    assert g is importlib.import_module("alp.ground")
    assert g.build_theory is build_theory


def test_atom_table_interns_once():
    theory = theory_for("abducible a/0.\nfalse <- not a.\n")
    i = theory.atoms.get(GroundAtom("a", ()))
    assert i is not None
    assert theory.atoms.intern(GroundAtom("a", ())) == i


def test_ground_records_are_slotted_values():
    # no per-instance dict; equal fields mean equal, hashable values, and
    # dataclasses.replace still builds a new one
    atom = GroundAtom("a", (1,))
    clause = GroundClause(0, (1,), (2,))
    con = GroundConstraint(((0, True),), (1,), (2,), origin=3)
    for record in (atom, clause, con):
        assert not hasattr(record, "__dict__")
        assert dataclasses.replace(record) == record and hash(dataclasses.replace(record)) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.__setattr__(dataclasses.fields(record)[0].name, None)
    assert dataclasses.replace(con, origin=4) == GroundConstraint(((0, True),), (1,), (2,), 4)
