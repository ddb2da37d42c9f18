"""Tokenizer, recursive-descent parser, and canonical printer.

The concrete syntax is small and Prolog-flavoured:

    statement  := declaration | clause | constraint
    declaration:= "abducible" spec "." | "abducible" "(" spec ")" "."
                | "constant" NAME "==" expr "."
                | "domain" NAME "==" expr ".." expr "."
    spec       := NAME "/" INT | NAME "(" NAME ("," NAME)* ")"
    clause     := atom "." | atom ":-" body "."
    constraint := heads "<-" body "." | "false" "<-" body "."
    heads      := headitem (";" headitem)*
    headitem   := literal | "(" literal ("," literal)* ")"
    body       := "true" | bodyitem ("," bodyitem)*
    bodyitem   := literal | "(" body (";" body)* ")"
    literal    := atom | "not" literal | "not" "(" literal ")"
                | term cmp term | term "in" expr ".." expr

Comments run from ``%`` to end of line.  Parse errors are collected as
positioned diagnostics; the parser resynchronizes at the next ``.`` so a
single run reports every error it can find.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .syntax import (
    INT_MAX,
    INT_MIN,
    NEGATED,
    AbducibleDecl,
    AndGroup,
    ArithExpr,
    Atom,
    Builtin,
    Clause,
    ConstantDecl,
    Constraint,
    Declarations,
    Diagnostic,
    DomainDecl,
    IntConst,
    Literal,
    Neg,
    OrGroup,
    ParseError,
    Pos,
    Program,
    Range,
    SourceSpan,
    SymConst,
    Term,
    Var,
    term_variables,
    walk_literals,
)

KEYWORDS = frozenset(
    ["abducible", "constant", "domain", "not", "true", "false", "in", "is", "abs"]
)

# Multi-character punctuation must be tried before its prefixes.
_PUNCT = [
    ":-",
    "<-",
    "==",
    "..",
    "=<",
    ">=",
    "\\=",
    ".",
    ",",
    ";",
    "(",
    ")",
    "/",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
]

_CMP_OPS = frozenset(["=", "\\=", "<", ">", "=<", ">="])

# The deepest term accepted, each parenthesis, abs and operator around a
# constant or variable counting one level, and the deepest nesting of
# parenthesised body groups.  The passes over terms and groups, here, in
# alp.syntax and in the grounder, recurse once per level or more, and a
# deeper term or group could overflow Python's stack.
MAX_TERM_DEPTH = 100


class Token(NamedTuple):
    kind: str  # "ident" | "var" | "int" | "punct" | "kw" | "eof"
    text: str
    span: SourceSpan
    value: int | None = None


def tokenize(text: str, filename: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Split source text into tokens, collecting diagnostics for bad input."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def span() -> SourceSpan:
        return SourceSpan(filename, line, col, i)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = span()
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            tokens.append(Token("int", word, start, int(word)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                kind = "kw"
            elif word[0].isupper() or word[0] == "_":
                kind = "var"
            else:
                kind = "ident"
            tokens.append(Token(kind, word, start))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, start))
                i += len(p)
                col += len(p)
                break
        else:
            diags.append(Diagnostic(start, f"illegal character {c!r}"))
            i += 1
            col += 1
    tokens.append(Token("eof", "", SourceSpan(filename, line, col, i)))
    return tokens, diags


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        # tokens ends in its eof, which next never passes; one more eof
        # after it lets peek(1) index the list without a bound check
        self.tokens = tokens + tokens[-1:]
        self.pos = 0
        self.diags = diags
        self.depth = 0  # of the last term parsed

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def eat_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            tok = self.peek()
            raise _Bail(Diagnostic(tok.span, f"expected {text!r}, found {tok.text or 'end of input'!r}"))
        return self.next()

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise _Bail(Diagnostic(tok.span, message))

    def sync_to_dot(self):
        """Panic-mode recovery: skip past the next statement terminator."""
        while not self.at_punct(".") and self.peek().kind != "eof":
            self.next()
        if self.at_punct("."):
            self.next()

    # -- terms --------------------------------------------------------------

    def parse_term(self, opened: int = 0) -> Term:
        """A term, whose depth (see MAX_TERM_DEPTH) is then self.depth;
        opened counts the parentheses and abs already open around it."""
        return self._operation(("+", "-"), opened)

    def _deeper(self, depth: int, tok: Token, what: str = "term") -> int:
        """depth + 1, for a level at tok around a term (or body group) of
        depth depth; past MAX_TERM_DEPTH, an error there."""
        if depth >= MAX_TERM_DEPTH:
            raise _TooDeep(Diagnostic(tok.span, f"{what} nested deeper than {MAX_TERM_DEPTH} levels"))
        return depth + 1

    def _operation(self, ops: tuple[str, ...], opened: int) -> Term:
        """Operands joined by the operators in ops, nested to the left:
        a sum of products for ("+", "-"), a product of primaries for
        ("*",)."""
        operand = partial(self._operation, ("*",)) if "*" not in ops else self._primary
        t = operand(opened)
        depth = self.depth
        while self.peek().kind == "punct" and self.peek().text in ops:
            op = self.next()
            rhs = operand(opened)
            depth = self._deeper(max(depth, self.depth), op)
            t = ArithExpr(op.text, (t, rhs), span=op.span)
        self.depth = depth
        return t

    def _int_const(self, value: int, tok: Token) -> IntConst:
        """An integer literal, which must lie in the 64-bit range that
        arithmetic keeps to."""
        if not INT_MIN <= value <= INT_MAX:
            self.fail(f"integer {value} is outside the range {INT_MIN}..{INT_MAX}", tok)
        return IntConst(value, span=tok.span)

    def _primary(self, opened: int) -> Term:
        tok = self.peek()
        self.depth = 0
        if tok.kind == "int":
            self.next()
            return self._int_const(tok.value, tok)
        if tok.kind == "punct" and tok.text == "-" and self.peek(1).kind == "int":
            self.next()
            num = self.next()
            return self._int_const(-num.value, tok)
        if tok.kind == "var":
            self.next()
            return Var(tok.text, span=tok.span)
        if tok.kind == "kw" and tok.text == "abs":
            self.next()
            self.eat_punct("(")
            inner = self.parse_term(self._deeper(opened, tok))
            self.eat_punct(")")
            self.depth = self._deeper(self.depth, tok)
            return ArithExpr("abs", (inner,), span=tok.span)
        if tok.kind == "ident":
            self.next()
            if self.at_punct("("):
                self.fail(f"function symbols are not supported: {tok.text}(...)", tok)
            return SymConst(tok.text, span=tok.span)
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            inner = self.parse_term(self._deeper(opened, tok))
            self.eat_punct(")")
            self.depth = self._deeper(self.depth, tok)
            return inner
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    # -- literals -----------------------------------------------------------

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected a predicate name, found {tok.text or 'end of input'!r}")
        self.next()
        args: list[Term] = []
        if self.at_punct("("):
            self.next()
            args.append(self.parse_term())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_term())
            self.eat_punct(")")
        return Atom(tok.text, tuple(args), span=tok.span)

    def parse_literal(self, under_not: bool = False) -> Literal:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "not":
            if under_not:
                self.fail("double negation is not supported", tok)
            self.next()
            if self.at_punct("("):
                self.next()
                inner = self.parse_literal(under_not=True)
                if self.at_punct(";"):
                    self.fail("disjunction is not allowed under negation")
                self.eat_punct(")")
            else:
                inner = self.parse_literal(under_not=True)
            if isinstance(inner, Pos):
                return Neg(inner.atom, span=tok.span)
            assert isinstance(inner, Builtin)
            comp = NEGATED.get(inner.op)
            if comp is None:
                self.fail(f"cannot negate {inner.op}/2", tok)
            return Builtin(comp, inner.lhs, inner.rhs, span=tok.span)
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.fail(f"{tok.text} is not a literal here", tok)

        # A lone lowercase name may be a 0-ary atom or the left side of a
        # comparison; an applied name is always an atom.
        if tok.kind == "ident":
            atom = self.parse_atom()
            nxt = self.peek()
            follows_cmp = nxt.kind == "punct" and nxt.text in _CMP_OPS
            follows_in = nxt.kind == "kw" and nxt.text in ("in", "is")
            if atom.args and (follows_cmp or follows_in):
                self.fail("a predicate atom cannot appear in a comparison", nxt)
            if not atom.args and (follows_cmp or follows_in):
                return self._builtin_tail(SymConst(atom.pred, span=atom.span))
            return Pos(atom, span=tok.span)
        lhs = self.parse_term()
        return self._builtin_tail(lhs)

    def _builtin_tail(self, lhs: Term) -> Builtin:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "is":
            self.fail("is/2 is not supported; write X = expr instead", tok)
        if tok.kind == "kw" and tok.text == "in":
            self.next()
            lo = self.parse_term()
            self.eat_punct("..")
            hi = self.parse_term()
            return Builtin("in", lhs, Range(lo, hi), span=tok.span)
        if tok.kind == "punct" and tok.text in _CMP_OPS:
            self.next()
            rhs = self.parse_term()
            return Builtin(tok.text, lhs, rhs, span=tok.span)
        self.fail(f"expected a comparison operator, found {tok.text or 'end of input'!r}")

    # -- bodies and heads ----------------------------------------------------

    def parse_body(self) -> tuple:
        if self.at_kw("true"):
            self.next()
            return ()
        items = [self.parse_body_item()]
        while self.at_punct(","):
            self.next()
            items.append(self.parse_body_item())
        return tuple(items)

    def parse_body_item(self, depth: int = 0):
        """A literal or a parenthesised group; depth counts the groups
        open around it."""
        if self.at_punct("("):
            # Could be a parenthesized disjunction or just a grouped
            # conjunction; both are an OrGroup, possibly with one branch.
            save = self.pos
            tok = self.next()
            try:
                inner = self._deeper(depth, tok, "body group")
                branches = [self._group_branch(inner)]
                while self.at_punct(";"):
                    self.next()
                    branches.append(self._group_branch(inner))
                self.eat_punct(")")
                return OrGroup(tuple(branches))
            except _Bail as failed:
                # Backtrack: the parenthesis may open a term such as
                # (N-1)*2 on the left of a comparison.  If that fails
                # too, a bound the group crossed is the error to report.
                self.pos = save
                try:
                    return self._builtin_tail(self.parse_term())
                except _Bail:
                    if isinstance(failed, _TooDeep):
                        raise failed from None
                    raise
        return self.parse_literal()

    def _group_branch(self, depth: int) -> tuple:
        items = [self.parse_body_item(depth)]
        while self.at_punct(","):
            self.next()
            items.append(self.parse_body_item(depth))
        return tuple(items)

    def parse_head_item(self):
        if self.at_punct("("):
            self.next()
            lits = [self.parse_literal()]
            while self.at_punct(","):
                self.next()
                lits.append(self.parse_literal())
            if self.at_punct(";"):
                self.fail("disjunction is not allowed inside a conjunctive head group")
            self.eat_punct(")")
            if len(lits) == 1:
                return lits[0]
            return AndGroup(tuple(lits))
        return self.parse_literal()

    # -- statements ----------------------------------------------------------

    def parse_abducible_decl(self) -> AbducibleDecl:
        kw = self.next()
        wrapped = self.at_punct("(")
        if wrapped:
            self.next()
        name = self.peek()
        if name.kind != "ident":
            self.fail("expected a predicate name after 'abducible'")
        self.next()
        if self.at_punct("/"):
            self.next()
            arity = self.peek()
            if arity.kind != "int":
                self.fail("expected an arity after '/'")
            self.next()
            decl = AbducibleDecl(name.text, arity.value, None, span=kw.span)
        elif self.at_punct("("):
            self.next()
            domains = []
            while True:
                d = self.peek()
                if d.kind != "ident":
                    self.fail("expected a domain name")
                self.next()
                domains.append(d.text)
                if self.at_punct(","):
                    self.next()
                    continue
                break
            self.eat_punct(")")
            decl = AbducibleDecl(name.text, len(domains), tuple(domains), span=kw.span)
        else:
            self.fail("expected '/arity' or '(domains)' in abducible declaration")
        if wrapped:
            self.eat_punct(")")
        self.eat_punct(".")
        return decl

    def parse_constant_decl(self) -> ConstantDecl:
        kw = self.next()
        name = self.peek()
        if name.kind != "ident":
            self.fail("expected a constant name after 'constant'")
        self.next()
        self.eat_punct("==")
        expr = self.parse_term()
        self.eat_punct(".")
        if term_variables(expr):
            raise _Bail(Diagnostic(kw.span, f"constant {name.text} must be a variable-free expression"))
        return ConstantDecl(name.text, expr, span=kw.span)

    def parse_domain_decl(self) -> DomainDecl:
        kw = self.next()
        name = self.peek()
        if name.kind != "ident":
            self.fail("expected a domain name after 'domain'")
        self.next()
        self.eat_punct("==")
        lo = self.parse_term()
        self.eat_punct("..")
        hi = self.parse_term()
        self.eat_punct(".")
        if term_variables(lo) or term_variables(hi):
            raise _Bail(Diagnostic(kw.span, f"domain {name.text} bounds must be variable-free"))
        return DomainDecl(name.text, lo, hi, span=kw.span)

    def parse_statement(self):
        if self.at_kw("abducible"):
            return self.parse_abducible_decl()
        if self.at_kw("constant"):
            return self.parse_constant_decl()
        if self.at_kw("domain"):
            return self.parse_domain_decl()
        if self.at_kw("false"):
            kw = self.next()
            self.eat_punct("<-")
            body = self.parse_body()
            self.eat_punct(".")
            return Constraint((), body, span=kw.span)
        if self.at_kw("true"):
            self.fail("true cannot head a statement")

        start = self.peek()
        first = self.parse_head_item()
        if self.at_punct("."):
            self.next()
            if not isinstance(first, Pos):
                raise _Bail(Diagnostic(start.span, "a fact must be a plain atom"))
            return Clause(first.atom, (), span=start.span)
        if self.at_punct(":-"):
            self.next()
            if not isinstance(first, Pos):
                raise _Bail(Diagnostic(start.span, "a clause head must be a plain atom"))
            body = self.parse_body()
            self.eat_punct(".")
            return Clause(first.atom, body, span=start.span)
        if self.at_punct(";") or self.at_punct("<-"):
            heads = [first]
            while self.at_punct(";"):
                self.next()
                heads.append(self.parse_head_item())
            self.eat_punct("<-")
            body = self.parse_body()
            self.eat_punct(".")
            return Constraint(tuple(heads), body, span=start.span)
        tok = self.peek()
        self.fail(f"expected '.', ':-', ';' or '<-', found {tok.text or 'end of input'!r}")


class _Bail(Exception):
    """Internal control flow: one diagnostic, recover at the next '.'."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class _TooDeep(_Bail):
    """A term or body group nested deeper than MAX_TERM_DEPTH."""


def parse_program(tokens: list[Token], diagnostics: list[Diagnostic] | None = None) -> Program:
    """Parse a token list into a program.

    Raises ParseError carrying every diagnostic found, not just the first;
    recovery skips to the next ``.`` after each error.
    """
    diags: list[Diagnostic] = list(diagnostics or [])
    p = _Parser(tokens, diags)
    abducibles: list[AbducibleDecl] = []
    constants: list[ConstantDecl] = []
    domains: list[DomainDecl] = []
    definitions: list[Clause] = []
    constraints: list[Constraint] = []
    while p.peek().kind != "eof":
        try:
            stmt = p.parse_statement()
        except _Bail as bail:
            diags.append(bail.diagnostic)
            p.sync_to_dot()
            continue
        if isinstance(stmt, AbducibleDecl):
            abducibles.append(stmt)
        elif isinstance(stmt, ConstantDecl):
            constants.append(stmt)
        elif isinstance(stmt, DomainDecl):
            domains.append(stmt)
        elif isinstance(stmt, Clause):
            definitions.append(stmt)
        else:
            constraints.append(stmt)
    program = Program(
        Declarations(tuple(abducibles), tuple(constants), tuple(domains)),
        tuple(definitions),
        tuple(constraints),
    )
    diags.extend(_lint_arities(program))
    if diags:
        raise ParseError(diags[0].message, diags)
    return program


def parse_text(text: str, filename: str = "<input>") -> Program:
    """Tokenize and parse in one step."""
    tokens, diags = tokenize(text, filename)
    return parse_program(tokens, diags)


def read_source(path) -> str:
    """The text of a UTF-8 file, its line ends read as "\\n" as in text
    mode; a ParseError at the first byte that does not decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        column = len(before) - before.rfind("\n")
        span = SourceSpan(str(path), before.count("\n") + 1, column, len(before))
        message = f"not valid UTF-8: byte 0x{data[exc.start]:02x}"
        raise ParseError(message, [Diagnostic(span, message)]) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_program(path) -> Program:
    return parse_text(read_source(path), str(path))


def _lint_arities(program: Program) -> list[Diagnostic]:
    """Each predicate name must be used with a single arity.

    Name/arity pairs would be distinct predicates in Prolog tradition, but
    in a language this small a second arity is almost always a typo, and
    the declaration checks depend on names being unambiguous.
    """
    seen: dict[str, int] = {}
    diags: list[Diagnostic] = []
    flagged: set[tuple[str, int]] = set()
    for decl in program.decls.abducibles:
        seen.setdefault(decl.pred, decl.arity)
        if seen[decl.pred] != decl.arity and (decl.pred, decl.arity) not in flagged:
            flagged.add((decl.pred, decl.arity))
            diags.append(
                Diagnostic(
                    decl.span,
                    f"arity mismatch: {decl.pred} used with arity {seen[decl.pred]} "
                    f"and declared with arity {decl.arity}",
                )
            )
    for lit in walk_literals(program):
        if not isinstance(lit, (Pos, Neg)):
            continue
        atom = lit.atom
        first = seen.setdefault(atom.pred, atom.arity)
        if first != atom.arity and (atom.pred, atom.arity) not in flagged:
            flagged.add((atom.pred, atom.arity))
            diags.append(
                Diagnostic(
                    atom.span,
                    f"arity mismatch: {atom.pred} used with both arity {first} "
                    f"and arity {atom.arity}",
                )
            )
    return diags


# ---------------------------------------------------------------------------
# canonical printing


def pretty_print(program: Program) -> str:
    """Render a program in canonical form.

    Declarations come first, then definitions, then constraints, each in
    source order.  The output reparses to a structurally identical
    program: parse(pretty_print(parse(text))) == parse(text).
    """
    sections: list[list[str]] = []
    decls = [str(d) for d in program.decls.abducibles]
    decls += [str(d) for d in program.decls.constants]
    decls += [str(d) for d in program.decls.domains]
    if decls:
        sections.append(decls)
    if program.definitions:
        sections.append([str(c) for c in program.definitions])
    if program.constraints:
        sections.append([str(c) for c in program.constraints])
    return "\n\n".join("\n".join(lines) for lines in sections) + ("\n" if sections else "")
