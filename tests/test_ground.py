"""Grounder: declarations, builtins, universe extraction, instantiation."""

import gc
import importlib
import importlib.resources as res
import random
import weakref

import pytest

from alp import cli
from alp.ground import (
    GroundAtom,
    apply_const_overrides,
    build_theory,
    eval_builtin,
    eval_declarations,
)
from alp.parser import parse_text
from alp.solver import SolveOptions, solve
from alp.syntax import Builtin, GroundError, IntConst, Range, SymConst, Var, normalize


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
    t4 = theory_for(bundled("queens.alp"), "q4")
    # size defaults to 8 in the bundled file
    assert (t4.n_atoms, len(t4.clauses), len(t4.constraints)) == (89, 81, 864)

    prog = apply_const_overrides(parse_text(bundled("queens.alp"), "q"), {"size": 4})
    t = build_theory(prog)
    assert (t.n_atoms, len(t.clauses), len(t.constraints)) == (29, 25, 112)
    assert len(t.universe) == 16 and not t.forced


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
    rows = [
        sorted(str(theory.atoms.atom(a)) for a in c.pos)
        for c in theory.constraints
        if c.origin == eq_origin
    ]
    assert all(not c.heads for c in theory.constraints if c.origin == eq_origin)
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
        keys = [canonical_key(c) for c in theory.constraints]
        assert len(set(keys)) == len(keys), theory.dump()


def test_ground_theory_is_freed_without_the_cycle_collector():
    # a reference cycle through the theory, its clause database or the
    # grounder's closures would keep them alive until gc runs
    prog = parse_text(bundled("queens.alp"), "q")
    gc.disable()
    try:
        theory = build_theory(prog)
        refs = [weakref.ref(theory), weakref.ref(theory.atoms)]
        del theory
        assert [r() for r in refs] == [None, None]
        theory = build_theory(prog)
        solve(theory, SolveOptions(max_models=3))
        refs = [weakref.ref(theory), weakref.ref(theory.atoms), weakref.ref(theory._clause_db)]
        del theory
        assert [r() for r in refs] == [None, None, None]
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
    "cap,value,line,what",
    [("_ATOM_CAP", 20, 3, "atoms in clause p"), ("_CONSTRAINT_CAP", 5, 4, "constraint instances")],
)
def test_grounding_caps_report_the_rule(monkeypatch, tmp_path, capsys, cap, value, line, what):
    monkeypatch.setattr(importlib.import_module("alp.ground"), cap, value)
    with pytest.raises(GroundError, match=what) as info:
        theory_for(CAPPED, "capped.alp")
    (diag,) = info.value.diagnostics
    assert (diag.span.line, diag.span.column) == (line, 1)

    path = tmp_path / "capped.alp"
    path.write_text(CAPPED, encoding="utf-8")
    assert cli.main(["ground", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}:{line}:1: grounding exceeded {value} ")


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


def test_atom_table_interns_once():
    theory = theory_for("abducible a/0.\nfalse <- not a.\n")
    i = theory.atoms.get(GroundAtom("a", ()))
    assert i is not None
    assert theory.atoms.intern(GroundAtom("a", ())) == i
