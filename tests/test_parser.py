"""Parser and pretty printer: grammar coverage, diagnostics, round-trips."""

import importlib.resources as res
import re
from pathlib import Path

import pytest

from alp import cli
from alp.ground import build_theory
from alp.parser import MAX_TERM_DEPTH, load_program, parse_text, pretty_print, tokenize
from alp.solver import solve
from alp.syntax import (
    Atom,
    Builtin,
    IntConst,
    Neg,
    ParseError,
    Pos,
    Range,
    SymConst,
    Var,
)


def bundled(name):
    return (res.files("alp") / "programs" / name).read_text(encoding="utf-8")


def test_tokenize_tracks_positions():
    tokens, diags = tokenize("p :-\n  q.\n", "f")
    assert not diags
    kinds = [t.text for t in tokens if t.text]
    assert kinds[:4] == ["p", ":-", "q", "."]
    q = next(t for t in tokens if t.text == "q")
    assert (q.span.line, q.span.column) == (2, 3)


def test_comments_and_illegal_chars():
    tokens, diags = tokenize("p. % a comment\nq@r.\n", "f")
    assert len(diags) == 1
    assert "@" in diags[0].message or "character" in diags[0].message


def test_parse_facts_rules_constraints():
    prog = parse_text(
        "abducible a/1.\n"
        "p(1).\n"
        "q(X) :- a(X), not p(X).\n"
        "false <- q(2).\n"
        "p(X) <- a(X).\n",
        "t",
    )
    assert len(prog.decls.abducibles) == 1
    assert len(prog.definitions) == 2
    assert len(prog.constraints) == 2
    rule = prog.definitions[1]
    assert rule.body == (Pos(Atom("a", (Var("X"),))), Neg(Atom("p", (Var("X"),))))


def test_parse_abducible_declaration_forms():
    prog = parse_text(
        "abducible a/2.\nabducible(b/1).\ndomain d == 1..4.\nabducible c(d, d).\n", "t"
    )
    a, b, c = prog.decls.abducibles
    assert (a.pred, a.arity, a.arg_domains) == ("a", 2, None)
    assert (b.pred, b.arity) == ("b", 1)
    assert (c.pred, c.arity, c.arg_domains) == ("c", 2, ("d", "d"))


def test_parse_constant_and_domain_declarations():
    prog = parse_text("constant n == 4.\nconstant m == n*2.\ndomain v == 1..m.\n", "t")
    assert [c.name for c in prog.decls.constants] == ["n", "m"]
    assert prog.decls.domains[0].name == "v"


def test_parse_builtins_and_ranges():
    prog = parse_text("p(X) :- X in 1..5, X \\= 3, X =< 4, X >= 1.\n", "t")
    body = prog.definitions[0].body
    assert isinstance(body[0], Builtin) and body[0].op == "in"
    assert isinstance(body[0].rhs, Range)
    assert [b.op for b in body[1:]] == ["\\=", "=<", ">="]


def test_negative_integers_fold():
    prog = parse_text("p(-3).\nq(X) :- p(X), X < -1.\n", "t")
    assert prog.definitions[0].head.args == (IntConst(-3),)


def test_not_over_builtin_uses_complement():
    prog = parse_text("p :- not 1 = 2.\nq :- not 3 < 4.\n", "t")
    assert prog.definitions[0].body == (Builtin("\\=", IntConst(1), IntConst(2)),)
    assert prog.definitions[1].body == (Builtin(">=", IntConst(3), IntConst(4)),)


def test_body_disjunction_sugar():
    prog = parse_text("p :- (a ; b, c).\na.\nb.\nc.\n", "t")
    assert "(a ; b, c)" in str(prog.definitions[0])


def test_head_conjunction_sugar():
    prog = parse_text("abducible x/0.\n(p, q) ; r <- x.\np.\nq.\nr.\n", "t")
    assert "(p, q) ; r" in str(prog.constraints[0])


def test_symbolic_constants():
    prog = parse_text("on(1,table).\n", "t")
    assert prog.definitions[0].head.args == (IntConst(1), SymConst("table"))


INT_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "literal, value",
    [(f"{INT_MAX}", INT_MAX), (f"-{INT_MAX}", -INT_MAX), (f"-{INT_MAX + 1}", -INT_MAX - 1)],
)
def test_integer_literals_at_the_64_bit_bounds(literal, value):
    prog = parse_text(f"p({literal}).\n", "t")
    assert prog.definitions[0].head.args == (IntConst(value),)
    assert parse_text(pretty_print(prog), "t") == prog


@pytest.mark.parametrize(
    "text, column",
    [
        ("p(99999999999999999999).\n", 3),
        ("p(99999999999999999999).\nq(X) :- p(Y), X = Y + 0.\n", 3),
        (f"p({INT_MAX + 1}).\n", 3),
        (f"p(-{INT_MAX + 2}).\n", 3),
        (f"q(X) :- p(Y), X = Y - {INT_MAX + 1}.\n", 23),
        (f"constant n == {INT_MAX + 1}.\n", 15),
    ],
)
def test_integer_literals_outside_64_bits_are_rejected(text, column):
    with pytest.raises(ParseError) as err:
        parse_text(text, "big")
    (diag,) = err.value.diagnostics
    assert "outside the range" in diag.message
    assert (diag.span.line, diag.span.column) == (1, column)


def test_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_text("p :- q r.\n", "bad")
    assert "bad:1:8" in str(err.value)


def test_multiple_errors_collected():
    text = "p :- .\nq :- r s.\nvalid.\n"
    with pytest.raises(ParseError) as err:
        parse_text(text, "multi")
    assert len(err.value.diagnostics) >= 2


def test_recovery_continues_after_error():
    # the statement after a bad one still parses, so its own mistakes
    # are reported in the same run
    with pytest.raises(ParseError) as err:
        parse_text("p :- q r.\nx :- y z.\n", "rec")
    messages = "\n".join(d.message for d in err.value.diagnostics)
    assert messages.count("expected") >= 2


def test_function_symbols_rejected():
    with pytest.raises(ParseError, match="function symbols"):
        parse_text("p(f(1)).\n", "t")


def test_double_negation_rejected():
    with pytest.raises(ParseError, match="double negation"):
        parse_text("p :- not not q.\nq.\n", "t")


def test_negated_disjunction_rejected():
    with pytest.raises(ParseError, match="disjunction"):
        parse_text("p :- not (a ; b).\na.\nb.\n", "t")


def test_negated_range_rejected():
    with pytest.raises(ParseError, match="in"):
        parse_text("p :- not X in 1..3.\n", "t")


def test_is_keyword_rejected_with_hint():
    with pytest.raises(ParseError, match="is/2"):
        parse_text("p(X) :- X is 1+2.\n", "t")


def test_one_arity_per_predicate_name():
    with pytest.raises(ParseError, match="arity"):
        parse_text("p(1).\np(1,2).\n", "t")


def test_bundled_queens_shape():
    prog = parse_text(bundled("queens.alp"), "queens.alp")
    assert len(prog.decls.abducibles) == 1
    assert len(prog.definitions) == 4
    assert len(prog.constraints) == 5


def test_bundled_blocks_shape():
    prog = parse_text(bundled("blocks.alp"), "blocks.alp")
    assert len(prog.decls.abducibles) == 2
    assert len(prog.definitions) == 9
    assert len(prog.constraints) == 22


ROUND_TRIP_SOURCES = [
    "abducible a/0.\np :- not a.\nfalse <- a, p.\n",
    "abducible pick/1.\ndomain v == 1..3.\nconstant k == 2.\n"
    "good(X) :- pick(X), X \\= k.\ngood(1) ; good(3) <- true.\n",
    "p(X) :- q(X,Y), Y in 1..9, (r(Y) ; s(Y)), not t(X).\n"
    "q(1,2).\nr(2).\ns(2).\nt(9).\n",
    "false <- a(X), b(Y), abs(X-Y) = 1.\nabducible a/1.\nabducible b/1.\n"
    "num(N) <- a(N).\nnum(N) <- b(N).\nnum(X) :- X in 1..4.\n",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SOURCES)
def test_parse_pretty_parse_identity(text):
    first = parse_text(text, "rt")
    printed = pretty_print(first)
    second = parse_text(printed, "rt2")
    assert first == second
    # printing is a fixpoint after one round
    assert pretty_print(second) == printed


@pytest.mark.parametrize("name", ["queens.alp", "blocks.alp"])
def test_bundled_round_trip(name):
    first = parse_text(bundled(name), name)
    second = parse_text(pretty_print(first), name)
    assert first == second


def test_load_program_reads_files(tmp_path):
    path = tmp_path / "tiny.alp"
    path.write_text("abducible a/0.\nfalse <- not a.\n", encoding="utf-8")
    prog = load_program(str(path))
    assert prog.decls.abducibles[0].pred == "a"


def test_readme_program_blocks_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```alp\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) >= 4
    for i, text in enumerate(blocks, start=1):
        parse_text(text, f"README.md alp block {i}")


def test_documented_sugar_parses_to_the_plain_forms():
    # The README documents each of these forms; each parses to what the
    # plain syntax gives (test_negated_range_rejected covers the last).
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for form in ("abducible(pick/2).", "not(q)", "not X < Y", "not X in 1..3"):
        assert form in readme
    sugared = parse_text(
        "abducible(a/1).\nabducible(b(d)).\ndomain d == 1..3.\n"
        "p(X) :- a(X), not(b(X)), not X < 2, not(X = 3).\n",
        "t",
    )
    plain = parse_text(
        "abducible a/1.\nabducible b(d).\ndomain d == 1..3.\n"
        "p(X) :- a(X), not b(X), X >= 2, X \\= 3.\n",
        "t",
    )
    assert sugared == plain
    X = Var("X")
    assert sugared.definitions[0].body == (
        Pos(Atom("a", (X,))),
        Neg(Atom("b", (X,))),
        Builtin(">=", X, IntConst(2)),
        Builtin("\\=", X, IntConst(3)),
    )


def nested(depth):
    """q(X) :- X = t with t a term of the given depth in parentheses."""
    return "q(X) :- X = " + "(" * depth + "1" + ")" * depth + ".\n"


def summed(depth):
    """q(X) :- X = t with t a sum of depth + 1 ones, left nested."""
    return "q(X) :- X = " + " + ".join(["1"] * (depth + 1)) + ".\n"


def grouped(depth, item=""):
    """q(X) :- X = 1 inside depth nested body groups, each opening with
    item."""
    return "q(X) :- " + f"({item}" * depth + "X = 1" + ")" * depth + ".\n"


@pytest.mark.parametrize(
    "text, column, what",
    [
        # the first parenthesis past the bound
        (nested(MAX_TERM_DEPTH + 1), 13 + MAX_TERM_DEPTH, "term"),
        (nested(250), 13 + MAX_TERM_DEPTH, "term"),
        # the first operator past the bound
        (summed(MAX_TERM_DEPTH + 1), 15 + 4 * MAX_TERM_DEPTH, "term"),
        (summed(900), 15 + 4 * MAX_TERM_DEPTH, "term"),
        (summed(1500), 15 + 4 * MAX_TERM_DEPTH, "term"),
        # operators and abs add up: the outermost abs crosses the bound
        ("q(X) :- X = " + "abs(" * 60 + summed(MAX_TERM_DEPTH - 59)[12:-2] + ")" * 60 + ".\n", 13, "term"),
        # the first body group past the bound, whether or not its
        # parentheses could also open a term
        (grouped(MAX_TERM_DEPTH + 1), 9 + MAX_TERM_DEPTH, "body group"),
        (grouped(1000), 9 + MAX_TERM_DEPTH, "body group"),
        (grouped(1000, "p, "), 9 + 4 * MAX_TERM_DEPTH, "body group"),
        (grouped(1000, "p ; "), 9 + 5 * MAX_TERM_DEPTH, "body group"),
        # a term too deep inside a group, which no term can start either
        ("q(X) :- (p, X = " + nested(MAX_TERM_DEPTH + 1)[12:-2] + ").\n", 17 + MAX_TERM_DEPTH, "term"),
    ],
    ids=[
        "parentheses",
        "250-parentheses",
        "sum",
        "900-sum",
        "1500-sum",
        "abs-around-sum",
        "groups",
        "1000-groups",
        "1000-conjunctions",
        "1000-disjunctions",
        "term-in-group",
    ],
)
def test_a_term_nested_too_deep_is_a_positioned_error(tmp_path, capsys, text, column, what):
    with pytest.raises(ParseError, match=f"{what} nested deeper than {MAX_TERM_DEPTH} levels") as err:
        parse_text(text, "deep")
    (diag,) = err.value.diagnostics
    assert (diag.span.line, diag.span.column) == (1, column)
    path = tmp_path / "deep.alp"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{path}:1:{column}: {what} nested deeper than")


@pytest.mark.parametrize(
    "text",
    [nested(MAX_TERM_DEPTH), summed(MAX_TERM_DEPTH), grouped(MAX_TERM_DEPTH), grouped(MAX_TERM_DEPTH, "p, ")],
    ids=["parentheses", "sum", "groups", "conjunctions"],
)
def test_a_term_at_the_depth_bound_still_solves(text):
    value = MAX_TERM_DEPTH + 1 if "+" in text else 1
    text = f"abducible p/0.\n{text[:-2]}, p.\nq({value}) <- true.\n"
    theory = build_theory(parse_text(text, "deep"))
    assert [theory.render_delta(s) for s in solve(theory).solutions] == [["p."]]
