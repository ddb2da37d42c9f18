"""Core data model: terms, atoms, literals, clauses, constraints, programs.

The object language is function-free.  Arithmetic expressions may appear
only inside builtin literals and in clause or constraint heads, where the
grounder evaluates them away; the values flowing into ground atoms are
plain machine integers or symbolic constants.

Definitions are written with ``:-`` and give predicates their meaning
under the well-founded semantics.  Constraints are written with ``<-``
and restrict which candidate hypothesis sets are admissible; they never
derive anything.  Abducible predicates are declared, have no defining
clauses, and are the things a solver is allowed to assume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple

# Machine integer range; arithmetic outside it is an error rather than a
# silent wrap.
INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# source positions and errors


class SourceSpan(NamedTuple):
    """Position of a token or node in its source text."""

    file: str
    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    span: SourceSpan | None
    message: str

    def __str__(self) -> str:
        if self.span is None:
            return self.message
        return f"{self.span}: {self.message}"


class AlpError(Exception):
    """Base error carrying one or more positioned diagnostics."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics if diagnostics else [Diagnostic(None, message)]

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self.diagnostics)


class ParseError(AlpError):
    pass


class ProgramError(AlpError):
    """Structural error found while normalizing or classifying a program."""


class GroundError(AlpError):
    pass


class SolveError(AlpError):
    pass


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntConst:
    value: int
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SymConst:
    name: str
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArithExpr:
    """Integer expression: binary ``+ - *`` or unary ``abs``."""

    op: str
    args: tuple["Term", ...]
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return term_text(self)


Term = Var | IntConst | SymConst | ArithExpr

# Precedence for the term printer: higher binds tighter.
_PREC = {"+": 1, "-": 1, "*": 2}


def term_text(t: Term) -> str:
    """Render a term; emits the minimal parentheses needed to reparse."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, SymConst):
        return t.name
    if t.op == "abs":
        return f"abs({term_text(t.args[0])})"
    lhs, rhs = t.args
    prec = _PREC[t.op]
    ls = term_text(lhs)
    rs = term_text(rhs)
    if isinstance(lhs, ArithExpr) and lhs.op != "abs" and _PREC[lhs.op] < prec:
        ls = f"({ls})"
    # Binary operators associate to the left, so a right operand at the
    # same precedence level needs parentheses to survive a round trip.
    if isinstance(rhs, ArithExpr) and rhs.op != "abs" and _PREC[rhs.op] <= prec:
        rs = f"({rs})"
    return f"{ls}{t.op}{rs}"


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, ArithExpr):
        out: set[str] = set()
        for a in t.args:
            out |= term_variables(a)
        return out
    return set()


# ---------------------------------------------------------------------------
# atoms and literals


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()
    span: SourceSpan | None = _span_field()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def key(self) -> tuple[str, int]:
        """Predicate identity: name paired with arity."""
        return (self.pred, len(self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(term_text(a) for a in self.args)})"


@dataclass(frozen=True)
class Pos:
    atom: Atom
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class Neg:
    atom: Atom
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return f"not {self.atom}"


@dataclass(frozen=True)
class Range:
    """Inclusive integer interval ``lo..hi`` on the right of ``in``."""

    lo: Term
    hi: Term

    def __str__(self) -> str:
        return f"{term_text(self.lo)}..{term_text(self.hi)}"


@dataclass(frozen=True)
class Builtin:
    """Comparison or generator literal: ``= \\= < > =< >=`` or ``in``."""

    op: str
    lhs: Term
    rhs: Term | Range
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        rhs = self.rhs if isinstance(self.rhs, Range) else term_text(self.rhs)
        return f"{term_text(self.lhs)} {self.op} {rhs}"


Literal = Pos | Neg | Builtin


def literal_variables(lit: Literal) -> set[str]:
    if isinstance(lit, (Pos, Neg)):
        out: set[str] = set()
        for a in lit.atom.args:
            out |= term_variables(a)
        return out
    out = term_variables(lit.lhs)
    if isinstance(lit.rhs, Range):
        out |= term_variables(lit.rhs.lo) | term_variables(lit.rhs.hi)
    else:
        out |= term_variables(lit.rhs)
    return out


# ---------------------------------------------------------------------------
# body and head sugar

# Bodies may contain parenthesized disjunctions of conjunctions; constraint
# heads may contain parenthesized conjunctions inside the head disjunction.
# Both are syntactic sugar that normalize() multiplies out.


@dataclass(frozen=True)
class OrGroup:
    """Parenthesized disjunction in a body: ``(a, b ; c)``."""

    branches: tuple[tuple["BodyItem", ...], ...]

    def __str__(self) -> str:
        return "(" + " ; ".join(", ".join(str(i) for i in b) for b in self.branches) + ")"


BodyItem = Literal | OrGroup


@dataclass(frozen=True)
class AndGroup:
    """Parenthesized conjunction in a constraint head: ``(h1, h2)``."""

    items: tuple[Literal, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(i) for i in self.items) + ")"


HeadItem = Literal | AndGroup


# ---------------------------------------------------------------------------
# statements


@dataclass(frozen=True)
class Clause:
    """Definition ``head :- body.``; a fact when the body is empty."""

    head: Atom
    body: tuple[BodyItem, ...] = ()
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(b) for b in self.body)}."


@dataclass(frozen=True)
class Constraint:
    """Integrity constraint ``h1 ; ... ; hn <- body.``.

    An empty head tuple is the denial form ``false <- body.``  An empty
    body prints as ``<- true`` and states the head unconditionally.
    Negative head literals are admitted: ``not a`` as a head disjunct is
    satisfied when ``a`` is false in the model.
    """

    heads: tuple[HeadItem, ...]
    body: tuple[BodyItem, ...] = ()
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        head = " ; ".join(str(h) for h in self.heads) if self.heads else "false"
        body = ", ".join(str(b) for b in self.body) if self.body else "true"
        return f"{head} <- {body}."


@dataclass(frozen=True)
class AbducibleDecl:
    """``abducible p/n.`` or ``abducible p(d1,...,dn).``"""

    pred: str
    arity: int
    arg_domains: tuple[str, ...] | None = None
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        if self.arg_domains is not None:
            return f"abducible {self.pred}({','.join(self.arg_domains)})."
        return f"abducible {self.pred}/{self.arity}."


@dataclass(frozen=True)
class ConstantDecl:
    name: str
    expr: Term
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return f"constant {self.name} == {term_text(self.expr)}."


@dataclass(frozen=True)
class DomainDecl:
    name: str
    lo: Term
    hi: Term
    span: SourceSpan | None = _span_field()

    def __str__(self) -> str:
        return f"domain {self.name} == {term_text(self.lo)}..{term_text(self.hi)}."


@dataclass(frozen=True)
class Declarations:
    abducibles: tuple[AbducibleDecl, ...] = ()
    constants: tuple[ConstantDecl, ...] = ()
    domains: tuple[DomainDecl, ...] = ()


@dataclass(frozen=True)
class Program:
    decls: Declarations = Declarations()
    definitions: tuple[Clause, ...] = ()
    constraints: tuple[Constraint, ...] = ()


# ---------------------------------------------------------------------------
# normalization

# The most plain statements that one statement normalizes into.  Each
# body group multiplies the alternatives of the groups before it, and so
# does each conjunctive head group of a constraint, so a statement past
# this is refused before any alternative is built.
MAX_ALTERNATIVES = 10_000


def _body_count(body: tuple[BodyItem, ...]) -> int:
    """How many conjunctions _body_alternatives multiplies body out into."""
    n = 1
    for item in body:
        if isinstance(item, OrGroup):
            n *= sum(map(_body_count, item.branches))
    return n


def _check_alternatives(n: int, span: SourceSpan | None) -> None:
    if n > MAX_ALTERNATIVES:
        message = f"groups multiply out to more than {MAX_ALTERNATIVES} alternatives"
        raise ProgramError(message, [Diagnostic(span, message)])


def _body_alternatives(body: tuple[BodyItem, ...]) -> list[tuple[Literal, ...]]:
    """Multiply out nested body disjunctions into plain conjunctions."""
    alts: list[tuple[Literal, ...]] = [()]
    for item in body:
        if isinstance(item, OrGroup):
            branch_alts: list[tuple[Literal, ...]] = []
            for branch in item.branches:
                branch_alts.extend(_body_alternatives(branch))
            alts = [a + b for a in alts for b in branch_alts]
        else:
            alts = [a + (item,) for a in alts]
    return alts


def _head_alternatives(heads: tuple[HeadItem, ...]) -> list[tuple[Literal, ...]]:
    """Distribute conjunctive head groups over the head disjunction.

    ``(a, b) ; c`` means (a and b) or c, which is equivalent to the two
    constraints ``a ; c`` and ``b ; c``: pick one literal from each
    disjunct and take the cross product.
    """
    picks: list[tuple[Literal, ...]] = [()]
    for item in heads:
        choices = item.items if isinstance(item, AndGroup) else (item,)
        picks = [p + (c,) for p in picks for c in choices]
    return picks


def normalize(program: Program) -> Program:
    """Expand body disjunctions and conjunctive heads into plain statements.

    A clause whose body mentions disjunction becomes one clause per
    alternative; a constraint additionally splits on conjunctive head
    groups.  Of identical alternatives of one statement only the first
    is kept.  Sugar-free programs come back structurally identical, and
    the operation is idempotent.  A statement that would split into more
    than MAX_ALTERNATIVES is a ProgramError at its span.
    """
    definitions: list[Clause] = []
    for cl in program.definitions:
        _check_alternatives(_body_count(cl.body), cl.span)
        alts = list(dict.fromkeys(_body_alternatives(cl.body)))
        if len(alts) == 1 and alts[0] == cl.body:
            definitions.append(cl)
        else:
            for alt in alts:
                definitions.append(Clause(cl.head, alt, span=cl.span))
    constraints: list[Constraint] = []
    for con in program.constraints:
        n_heads = prod(len(item.items) for item in con.heads if isinstance(item, AndGroup))
        _check_alternatives(n_heads * _body_count(con.body), con.span)
        body_alts = list(dict.fromkeys(_body_alternatives(con.body)))
        head_alts = list(dict.fromkeys(_head_alternatives(con.heads)))
        if (
            len(body_alts) == 1
            and len(head_alts) == 1
            and body_alts[0] == con.body
            and head_alts[0] == con.heads
        ):
            constraints.append(con)
            continue
        for heads in head_alts:
            for body in body_alts:
                constraints.append(Constraint(heads, body, span=con.span))
    return Program(program.decls, tuple(definitions), tuple(constraints))


# ---------------------------------------------------------------------------
# predicate classification


class PredKind(enum.Enum):
    ABDUCIBLE = "abducible"
    DEFINED = "defined"


def walk_literals(program: Program):
    """Yield every literal of the program: each clause head as a Pos,
    then its body, and each constraint's heads, then its body."""

    def items(seq):
        for item in seq:
            if isinstance(item, OrGroup):
                for branch in item.branches:
                    yield from items(branch)
            elif isinstance(item, AndGroup):
                yield from item.items
            else:
                yield item

    for cl in program.definitions:
        yield Pos(cl.head)
        yield from items(cl.body)
    for con in program.constraints:
        yield from items(con.heads)
        yield from items(con.body)


def classify_predicates(program: Program) -> dict[tuple[str, int], PredKind]:
    """Partition predicates into abducible and defined.

    Errors: a predicate both declared abducible and given a defining
    clause, an abducible never declared but also never defined (a typo,
    from the engine's point of view), and inconsistent arities between a
    declaration and its uses.
    """
    diags: list[Diagnostic] = []
    kinds: dict[tuple[str, int], PredKind] = {}
    declared: dict[str, AbducibleDecl] = {}
    for decl in program.decls.abducibles:
        if decl.pred in declared:
            diags.append(
                Diagnostic(decl.span, f"duplicate abducible declaration for {decl.pred}")
            )
            continue
        declared[decl.pred] = decl
        kinds[(decl.pred, decl.arity)] = PredKind.ABDUCIBLE

    for cl in program.definitions:
        key = cl.head.key
        decl = declared.get(cl.head.pred)
        if decl is not None:
            if decl.arity == cl.head.arity:
                diags.append(
                    Diagnostic(
                        cl.span,
                        f"predicate {cl.head.pred}/{cl.head.arity} is declared abducible "
                        "but has a defining clause",
                    )
                )
            continue
        kinds.setdefault(key, PredKind.DEFINED)

    for lit in walk_literals(program):
        if isinstance(lit, Builtin):
            continue
        key = lit.atom.key
        if key in kinds:
            continue
        decl = declared.get(lit.atom.pred)
        if decl is not None and decl.arity != lit.atom.arity:
            diags.append(
                Diagnostic(
                    lit.atom.span,
                    f"arity mismatch: {lit.atom.pred} declared with arity {decl.arity} "
                    f"but used with arity {lit.atom.arity}",
                )
            )
        else:
            diags.append(
                Diagnostic(
                    lit.atom.span,
                    f"undefined predicate {lit.atom.pred}/{lit.atom.arity}: not declared "
                    "abducible and no defining clause",
                )
            )
        kinds[key] = PredKind.DEFINED  # keep classifying to surface more errors

    if diags:
        raise ProgramError(diags[0].message, diags)
    return kinds
