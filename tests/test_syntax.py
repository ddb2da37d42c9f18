"""Core model: printing, normalization, predicate classification."""

import time

import pytest

from alp import cli
from alp.ground import build_theory
from alp.parser import parse_text
from alp.solver import solve
from alp.syntax import (
    MAX_ALTERNATIVES,
    AndGroup,
    ArithExpr,
    Atom,
    Clause,
    Constraint,
    IntConst,
    Neg,
    OrGroup,
    Pos,
    PredKind,
    ProgramError,
    SourceSpan,
    SymConst,
    Var,
    classify_predicates,
    normalize,
    term_text,
)


def test_term_text_minimal_parens():
    # (1+2)*3 keeps its parens, 1+2*3 does not get extra ones
    one, two, three = IntConst(1), IntConst(2), IntConst(3)
    assert term_text(ArithExpr("*", (ArithExpr("+", (one, two)), three))) == "(1+2)*3"
    assert term_text(ArithExpr("+", (one, ArithExpr("*", (two, three))))) == "1+2*3"
    # left association: a-b-c means (a-b)-c and prints without parens,
    # while a-(b-c) must keep them
    a, b, c = Var("A"), Var("B"), Var("C")
    assert term_text(ArithExpr("-", (ArithExpr("-", (a, b)), c))) == "A-B-C"
    assert term_text(ArithExpr("-", (a, ArithExpr("-", (b, c))))) == "A-(B-C)"
    assert term_text(ArithExpr("abs", (ArithExpr("-", (a, b)),))) == "abs(A-B)"


def test_atom_str_and_key():
    atom = Atom("on", (IntConst(1), SymConst("table"), Var("T")))
    assert str(atom) == "on(1,table,T)"
    assert atom.key == ("on", 3)
    assert str(Atom("p", ())) == "p"


def test_spans_do_not_affect_equality():
    plain = Atom("p", (IntConst(1),))
    spanned = Atom("p", (IntConst(1),), span=SourceSpan("f", 3, 7, 42))
    assert plain == spanned
    assert hash(plain) == hash(spanned)


def test_normalize_splits_body_disjunction():
    prog = parse_text("p :- q, (r ; s), t.\nq.\nr.\ns.\nt.\n", "t")
    norm = normalize(prog)
    bodies = [cl.body for cl in norm.definitions if cl.head.pred == "p"]
    assert len(bodies) == 2
    assert bodies[0] == (Pos(Atom("q", ())), Pos(Atom("r", ())), Pos(Atom("t", ())))
    assert bodies[1] == (Pos(Atom("q", ())), Pos(Atom("s", ())), Pos(Atom("t", ())))


def test_normalize_nested_disjunctions_multiply():
    prog = parse_text("p :- (a ; b), (c ; d).\na.\nb.\nc.\nd.\n", "t")
    norm = normalize(prog)
    bodies = {cl.body for cl in norm.definitions if cl.head.pred == "p"}
    assert len(bodies) == 4


def test_normalize_distributes_constraint_head_groups():
    # (h1, h2) ; h3 means (h1 and h2) or h3, which distributes to the
    # two plain constraints h1;h3 and h2;h3
    prog = parse_text("abducible a/0.\n(p, q) ; r <- a.\np :- a.\nq :- a.\nr :- a.\n", "t")
    norm = normalize(prog)
    heads = [tuple(lit.atom.pred for lit in con.heads) for con in norm.constraints]
    assert len(norm.constraints) == 2
    assert {frozenset(h) for h in heads} == {frozenset({"p", "r"}), frozenset({"q", "r"})}


def test_normalize_is_identity_on_plain_programs():
    text = "abducible a/0.\np :- not a.\nfalse <- a, p.\n"
    prog = parse_text(text, "t")
    assert normalize(prog) == prog


def test_normalize_idempotent():
    prog = parse_text("p :- (a ; b).\na.\nb.\nq ; r <- p.\nq :- a.\nr :- b.\n", "t")
    once = normalize(prog)
    assert normalize(once) == once


def groups(n, items, op):
    """n groups of the items, joined by op, as a head or body."""
    return ", ".join(["(" + f" {op} ".join(items) + ")"] * n)


def grouped(statement):
    """statement, on line 2, in a program whose one solution is {p}."""
    return f"abducible p/0.\n{statement}\nq :- p.\nq <- true.\n"


P, Q = ["p"] * 10, ["q"] * 10
R = [f"r({i})" for i in range(10)]
P_R = [f"p, r({i})" for i in range(10)]

# At the bound: 10 ** 4 body alternatives, and 100 head times 100 body
# alternatives, all distinct over the facts r(0..9).  Past it: 2 ** 20
# body alternatives, and 110 head times 100 body alternatives, each
# factor far under the bound.
AT_THE_BOUND = [
    f"q :- {groups(4, P_R, ';')}.",
    f"{groups(1, R, ',')} ; {groups(1, R, ',')} <- {groups(2, P_R, ';')}.",
]
PAST_THE_BOUND = [
    f"q :- {groups(20, ['p'] * 2, ';')}.",
    f"{groups(1, Q, ',')} ; {groups(1, Q + ['q'], ',')} <- {groups(2, P, ';')}.",
]


@pytest.mark.parametrize("statement", PAST_THE_BOUND, ids=["20-body-groups", "heads-times-body"])
def test_too_many_alternatives_are_a_positioned_error(tmp_path, capsys, statement):
    text = grouped(statement)
    what = f"groups multiply out to more than {MAX_ALTERNATIVES} alternatives"
    start = time.perf_counter()
    with pytest.raises(ProgramError, match=what) as err:
        normalize(parse_text(text, "groups"))
    (diag,) = err.value.diagnostics
    assert (diag.span.line, diag.span.column) == (2, 1)
    path = tmp_path / "groups.alp"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{path}:2:1: {what}")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("statement", AT_THE_BOUND, ids=["body-groups", "heads-times-body"])
def test_a_statement_at_the_alternatives_bound_still_solves(statement):
    program = parse_text(grouped(statement) + "r(X) :- X in 0..9.\n", "groups")
    norm = normalize(program)
    assert len(norm.definitions) + len(norm.constraints) == MAX_ALTERNATIVES + 3
    theory = build_theory(program)
    assert [theory.render_delta(s) for s in solve(theory).solutions] == [["p."]]


@pytest.mark.parametrize(
    "statement",
    [f"q :- {groups(4, P, ';')}.", f"{groups(1, Q, ',')} ; {groups(1, Q, ',')} <- {groups(2, P, ';')}."],
    ids=["body-groups", "heads-times-body"],
)
def test_identical_alternatives_are_built_once(statement):
    program = normalize(parse_text(grouped(statement), "groups"))
    assert len(program.definitions) + len(program.constraints) == 3
    if statement.startswith("q :-"):
        assert str(program.definitions[0]) == "q :- p, p, p, p."
        assert build_theory(program).dump().startswith("% atoms=2 clauses=2 ")
    else:
        assert str(program.constraints[0]) == "q ; q <- p, p."


def test_classify_kinds():
    prog = parse_text(
        "abducible a/1.\ndomain v == 1..3.\np(X) :- a(X), X < 3.\nfalse <- p(2).\n", "t"
    )
    kinds = classify_predicates(normalize(prog))
    assert kinds[("a", 1)] is PredKind.ABDUCIBLE
    assert kinds[("p", 1)] is PredKind.DEFINED


def test_classify_rejects_defined_abducible():
    prog = parse_text("abducible a/0.\na :- b.\nb.\n", "t")
    with pytest.raises(ProgramError, match="abducible"):
        classify_predicates(normalize(prog))


def test_classify_rejects_unknown_predicate():
    prog = parse_text("p :- q.\n", "t")
    with pytest.raises(ProgramError, match="q"):
        classify_predicates(normalize(prog))


def test_classify_rejects_arity_mismatch_with_declaration():
    # the parser's lint catches this from source text, so build the
    # mismatch directly
    from alp.syntax import AbducibleDecl, Declarations, Program

    prog = Program(
        Declarations((AbducibleDecl("a", 2),), (), ()),
        (),
        (Constraint((), (Pos(Atom("a", (IntConst(1),))),)),),
    )
    with pytest.raises(ProgramError, match="arity"):
        classify_predicates(normalize(prog))


def test_statement_str_round_trips_through_parser():
    text = (
        "abducible position/2.\n"
        "size(8).\n"
        "row(R) :- size(N), R in 1..N.\n"
        "false <- position(R1,C1), position(R2,C2), R1 < R2, "
        "(C1 = C2 ; abs(R2-R1) = abs(C2-C1)).\n"
    )
    prog = parse_text(text, "t")
    for stmt in prog.definitions + prog.constraints:
        reparsed = parse_text("abducible position/2.\nsize(1).\nrow(1).\n" + str(stmt) + "\n", "t2")
        # the statement survives printing and reparsing structurally
        assert str(stmt) == str((reparsed.definitions + reparsed.constraints)[-1])


def test_constraint_str_forms():
    con = Constraint((), (Pos(Atom("a", ())),))
    assert str(con) == "false <- a."
    con = Constraint((Pos(Atom("p", ())),), ())
    assert str(con) == "p <- true."
    con = Constraint(
        (Pos(Atom("p", ())), Neg(Atom("q", ()))),
        (Pos(Atom("a", ())),),
    )
    assert str(con) == "p ; not q <- a."


def test_or_group_and_and_group_str():
    g = OrGroup(((Pos(Atom("a", ())),), (Pos(Atom("b", ())), Pos(Atom("c", ())))))
    assert str(g) == "(a ; b, c)"
    ag = AndGroup((Pos(Atom("p", ())), Pos(Atom("q", ()))))
    assert str(ag) == "(p, q)"


def test_clause_str():
    cl = Clause(Atom("p", (Var("X"),)), (Pos(Atom("q", (Var("X"),))),))
    assert str(cl) == "p(X) :- q(X)."
    assert str(Clause(Atom("p", ()), ())) == "p."
