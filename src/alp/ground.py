"""Grounding: from programs with variables to finite propositional theories.

The grounder works against the possible-extension overestimate: starting
from the abducible candidate universe and the abducible-independent base
definitions, it closes the definition layer under rule application, so a
ground atom is instantiated exactly when some hypothesis set could make
it true.  The closure runs in rounds, semi-naively: after the first,
a round joins each rule only through the atoms that the round before it
made possible, and enumerates what the plain join enumerates, in the
same order, minus instances it has already met (see "definition
closure" below).  Builtins are evaluated away during instantiation;
negative literals never bind variables and are grounded after the
positive part.

Each rule body compiles once per use into a chain of steps, a
nested-loop join (see _compile_join): a step per positive literal,
which probes a hash index of its candidates on the arguments already
bound, and a step per generator builtin.  Every test builtin compiles
into a function of the binding, with its constants folded, and runs in
the step that binds the last of its variables (see "compiled builtins"
below for what it computes and which errors it raises).  A test that
allows a variable Y of the literal before it at most two integer
values, once the literal's other variables are known, is answered by
index lookups: ``Y = X + 1`` or ``abs(R2-R1) = abs(C2-C1)`` probes the
literal's index with the values it allows instead of trying every
candidate (see _solve).  That is done only where no test placed
between the literal and the solved one can raise, and the solved test
cannot raise either; it still runs on what the probe yields, except a
test ``Y = e``, which the probe answers exactly.

Head arithmetic such as ``on(B,L,T+1)`` can chain without bound, so the
closure clips derivation at the integer hull: the interval spanned by
every integer literal in the program, its declarations, and the
universe.  A derived head atom with an integer argument outside the hull
is interned together with its clause but is not fed back as a body
candidate.  Atoms beyond the hull can never reach a constraint, because
constraints are instantiated from in-hull candidates only, so the
truncation does not change which hypothesis sets are admissible.

The theory stores each ground constraint in one form, its clause: the
sorted literal set that the solver propagates, each distinct one once,
with the source constraint that first gives it (ConstraintClause).  A
constraint body that stays the same when some of its literals are
swapped, such as ``move(B1,L1,T), move(B2,L2,T), move(B3,L3,T)`` with
pairwise distinct blocks, is enumerated once per set of candidates for
those literals instead of once per ordering of them, and yields the
same clauses.

Each source constraint is kept as a ConstraintRule, its plan over the
grounder's candidate indexes, and every reader that needs an instance
re-runs that join over the atoms that matter to it: check_delta over
the true atoms of a model, the search's root unsat_reason over the
atoms of the conflicting clause, and GroundTheory.expand_constraints,
which dump and ``alp ground`` print, over all candidates.  One kind of
rule is not instantiated at all: a denial with no negative literal and
two or more positive ones, over abducible or defined predicates, whose
builtins are tests that cannot raise (_is_lazy).  A constraint whose
heads are all builtin tests counts as the denial with those tests
negated in its body (_as_denial), as queens'
``C1 = C2 <- position(R,C1), position(R,C2).`` does.  Such rules are
queens' two-queen rules, blocks' three-move rule and its two rules over
``on/3`` among them, whose instances grow with the square or the cube
of the candidates; the search runs their joins from the atoms it makes
true.  A constraint derives nothing, so the search needs its instances
only around the atoms that become true, defined ones included: a
defined literal takes the in-hull candidates that instantiating the
rule would take, and the search gives the joins every atom it makes
true, at the root as below it (see alp.solver._Search._fixpoint).

Nor are the typing constraints that built the universe, such as
queens' ``row(R) <- position(R,C).``, instantiated when the universe
satisfies them (_satisfied_typing): every candidate of the abducible
lies in the universe, whose atoms have each slot's value in the base
extension of every typing predicate on the slot, so every instance
has a head true in every model.  Such a rule is never violated and
never propagates, and its instances grow with the universe; only the
readers that name instances (expand_constraints, and first_instance
for a clause) run its join.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, combinations, product
from operator import itemgetter
from typing import NamedTuple

from . import wfs
from .syntax import (
    INT_MAX,
    INT_MIN,
    ArithExpr,
    Atom,
    Builtin,
    Clause,
    ConstantDecl,
    Constraint,
    Declarations,
    Diagnostic,
    GroundError,
    IntConst,
    Literal,
    Neg,
    Pos,
    PredKind,
    Program,
    Range,
    SourceSpan,
    SymConst,
    Term,
    Var,
    classify_predicates,
    literal_variables,
    normalize,
    term_variables,
    walk_literals,
)

Value = int | str

_DOMAIN_CAP = 1_000_000
_ATOM_CAP = 2_000_000
# ground constraint instances before deduplication, as the grounder
# enumerates them: a symmetric body once per set of candidates
_CONSTRAINT_CAP = 2_000_000


def _error(message: str, span) -> GroundError:
    """A GroundError whose one diagnostic gives message at span."""
    return GroundError(message, [Diagnostic(span, message)])


def value_key(v: Value):
    """Sort key for domain elements: integers first, then symbols."""
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, v)


# ---------------------------------------------------------------------------
# ground atoms and theories


@dataclass(frozen=True, slots=True)
class GroundAtom:
    pred: str
    args: tuple[Value, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(map(str, self.args))})"

    @property
    def sort_key(self):
        return (self.pred, len(self.args), tuple(value_key(a) for a in self.args))


class _Memo(dict):
    """A dict from atom ids to make(atom), each made on its first lookup."""

    __slots__ = ("_make", "_atoms")

    def __init__(self, make: Callable, atoms: list[GroundAtom]):
        super().__init__()
        self._make = make
        self._atoms = atoms

    def __missing__(self, i: int):
        value = self[i] = self._make(self._atoms[i])
        return value


class AtomTable:
    """Interning table mapping ground atoms to dense integer ids.

    It is keyed by predicate, then by argument tuple, so the grounder
    looks an atom up by its predicate and arguments (intern_args),
    without building a key, and builds a GroundAtom only for an atom it
    has not seen.  texts and sort_keys map ids to
    each atom's text and sort key, made on first use and kept: printing
    every solution renders and sorts the same few atoms again and again.
    """

    def __init__(self):
        self._ids: dict[str, dict[tuple[Value, ...], int]] = {}  # pred -> args -> id
        self._atoms: list[GroundAtom] = []
        self.texts = _Memo(str, self._atoms)
        self.sort_keys = _Memo(operator.attrgetter("sort_key"), self._atoms)

    def intern(self, atom: GroundAtom) -> int:
        return self.intern_args(atom.pred, atom.args)

    def intern_args(self, pred: str, args: tuple[Value, ...]) -> int:
        """The id of pred(args), interned first if it is new."""
        ids = self._ids.get(pred)
        if ids is None:
            ids = self._ids[pred] = {}
        i = ids.get(args)
        if i is None:
            i = ids[args] = len(self._atoms)
            self._atoms.append(GroundAtom(pred, args))
        return i

    def get(self, atom: GroundAtom) -> int | None:
        return self._ids.get(atom.pred, {}).get(atom.args)

    def atom(self, i: int) -> GroundAtom:
        return self._atoms[i]

    def render(self, i: int) -> str:
        return self.texts[i]

    def __len__(self) -> int:
        return len(self._atoms)


@dataclass(frozen=True, slots=True)
class GroundClause:
    head: int
    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class GroundConstraint:
    """Ground integrity constraint: an instance of a source constraint,
    as the readers that re-run its rule's join return it.

    heads holds (atom id, wanted) disjuncts: wanted True means the
    constraint is satisfied when the atom is true, False when it is
    false (a negative head literal).  Builtin heads were folded away
    during grounding.  origin indexes the source constraint.
    """

    heads: tuple[tuple[int, bool], ...]
    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()
    origin: int = -1


def _key(lits: Iterable[int]) -> tuple[int, ...] | None:
    """A clause's literal set sorted, or None when it is a tautology.

    Literal encoding, shared with the solver: 2*v is "v true", 2*v+1 is
    "v false"."""
    uniq = set(lits)
    for lit in uniq:
        if lit ^ 1 in uniq:
            return None
    return tuple(sorted(uniq))


def _clause(heads, pos, neg) -> tuple[int, ...] | None:
    """The clause of a constraint instance: the sorted literal set of its
    head verdicts and negated body literals, or None for a tautology."""
    lits = [2 * a + (not wanted) for a, wanted in heads]
    lits += [2 * a + 1 for a in pos]
    lits += [2 * a for a in neg]
    return _key(lits)


class ConstraintClause(NamedTuple):
    """A distinct clause of the instantiated constraints, the one form
    in which a theory stores them: the sorted literal set, the origin
    of the first source constraint whose instances give it, and whether
    any instance giving it is a denial, one without heads."""

    clause: tuple[int, ...]
    origin: int
    denial: bool


@dataclass
class GroundTheory:
    """A ground theory: definition clauses and integrity constraints over
    interned atoms, with the abducible universe and the forced atoms.

    rules[o] is the ConstraintRule of source constraint o, whose origin
    is o.  constraints, the one stored form of the ground constraints,
    holds the clauses of the rules that are neither lazy nor satisfied
    by the universe (see _constraint_clauses); a reader that needs an
    instance re-runs its rule's join.  The theory must not be changed
    once built: it caches definition_arrays, the one thing compiled
    from it that it keeps; each solve compiles its own search.
    """

    atoms: AtomTable
    clauses: list[GroundClause]
    constraints: list[ConstraintClause]
    universe: tuple[int, ...]
    forced: tuple[int, ...]
    rules: tuple[ConstraintRule, ...] = field(repr=False)

    @cached_property
    def definition_arrays(self) -> wfs.ClauseArrays:
        """The definition layer as wfs.well_founded takes it, built on
        first use: only check_delta reads it."""
        return wfs.clause_arrays([(c.head, c.pos, c.neg) for c in self.clauses])

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def render_clause(self, gc: GroundClause) -> str:
        head = self.atoms.render(gc.head)
        if not gc.pos and not gc.neg:
            return f"{head}."
        body = [self.atoms.render(a) for a in gc.pos]
        body += [f"not {self.atoms.render(a)}" for a in gc.neg]
        return f"{head} :- {', '.join(body)}."

    def render_constraint(self, gc: GroundConstraint) -> str:
        if gc.heads:
            heads = " ; ".join(
                self.atoms.render(a) if wanted else f"not {self.atoms.render(a)}"
                for a, wanted in gc.heads
            )
        else:
            heads = "false"
        body = [self.atoms.render(a) for a in gc.pos]
        body += [f"not {self.atoms.render(a)}" for a in gc.neg]
        return f"{heads} <- {', '.join(body) if body else 'true'}."

    def render_delta(self, delta) -> list[str]:
        texts = self.atoms.texts
        return [f"{texts[i]}." for i in sorted(delta, key=self.atoms.sort_keys.__getitem__)]

    def expand_constraints(self) -> list[GroundConstraint]:
        """Every ground constraint, as a grounding that instantiates each
        rule makes them: in origin order, each rule's in join order, and
        of those with one set of heads and body atoms only the first
        (ConstraintRule.expand).  One count of the instances the joins
        enumerate runs over every rule, so the GroundError of
        _CONSTRAINT_CAP comes where such a grounding's does."""
        out: list[GroundConstraint] = []
        seen: set[tuple] = set()
        count = [0]
        for rule in self.rules:
            rule.expand(seen, out.append, count)
        return out

    def first_instance(self, ci: int | None, value=None) -> GroundConstraint | None:
        """The first constraint of expand_constraints() whose clause is
        constraints[ci]'s; with value given (value[lit] == 1 for a true
        literal), the first that value violates, constraints[ci] being the
        first clause it falsifies (None: none).  No stored rule gives that
        clause before its origin, so only the rules before it that ground
        left unground are searched before it (first_with, first_true):
        the lazy denials, and for a clause the typing constraints that
        the universe satisfies, which no model violates."""
        clause, origin, _denial = (None, len(self.rules), None) if ci is None else self.constraints[ci]
        for rule in self.rules[:origin]:
            if rule.lazy or (rule.satisfied and value is None):
                gc = rule.first_with(clause) if value is None else rule.first_true(value)
                if gc is not None:
                    return gc
        return None if ci is None else self.rules[origin].first_with(clause)

    def dump(self) -> str:
        """Deterministic text form of the whole theory, with every ground
        constraint (see expand_constraints)."""
        constraints = self.expand_constraints()
        out = [
            f"% atoms={self.n_atoms} clauses={len(self.clauses)} "
            f"constraints={len(constraints)} universe={len(self.universe)} "
            f"forced={len(self.forced)}"
        ]
        out.append(f"% universe ({len(self.universe)})")
        out.extend(f"{self.atoms.render(i)}." for i in self.universe)
        out.append(f"% forced ({len(self.forced)})")
        out.extend(f"{self.atoms.render(i)}." for i in self.forced)
        out.append(f"% clauses ({len(self.clauses)})")
        out.extend(self.render_clause(c) for c in self.clauses)
        out.append(f"% constraints ({len(constraints)})")
        out.extend(self.render_constraint(c) for c in constraints)
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# declarations


@dataclass
class DomainTable:
    constants: dict[str, int] = field(default_factory=dict)
    domains: dict[str, tuple[int, ...]] = field(default_factory=dict)


def _eval_const_expr(t: Term, env: dict[str, Term], memo: dict[str, int], visiting: set[str], span) -> int:
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, SymConst):
        name = t.name
        if name in memo:
            return memo[name]
        if name not in env:
            raise _error(f"unknown constant {name}", t.span or span)
        if name in visiting:
            raise _error(f"cyclic constant definition involving {name}", t.span or span)
        visiting.add(name)
        val = _eval_const_expr(env[name], env, memo, visiting, span)
        visiting.discard(name)
        memo[name] = val
        return val
    if isinstance(t, ArithExpr):
        out = _ARITH[t.op](*(_eval_const_expr(a, env, memo, visiting, span) for a in t.args))
        if INT_MIN <= out <= INT_MAX:
            return out
        raise _error("integer overflow in arithmetic", t.span or span)
    raise _error("variables are not allowed in constant expressions", getattr(t, "span", None) or span)


def eval_declarations(decls: Declarations) -> DomainTable:
    """Evaluate constant and domain declarations to concrete values.

    Constants may reference each other in any order; cycles, unknown
    names, and empty domains (low above high) are errors.
    """
    env: dict[str, Term] = {}
    table = DomainTable()
    for c in decls.constants:
        if c.name in env:
            raise _error(f"duplicate constant {c.name}", c.span)
        env[c.name] = c.expr
    memo: dict[str, int] = {}
    for c in decls.constants:
        table.constants[c.name] = _eval_const_expr(SymConst(c.name), env, memo, set(), c.span)
    for d in decls.domains:
        if d.name in table.domains:
            raise _error(f"duplicate domain {d.name}", d.span)
        lo = _eval_const_expr(d.lo, env, memo, set(), d.span)
        hi = _eval_const_expr(d.hi, env, memo, set(), d.span)
        if lo > hi:
            raise _error(f"empty domain {d.name}: {lo}..{hi}", d.span)
        if hi - lo + 1 > _DOMAIN_CAP:
            raise _error(f"domain {d.name} exceeds {_DOMAIN_CAP} values", d.span)
        table.domains[d.name] = tuple(range(lo, hi + 1))
    return table


# ---------------------------------------------------------------------------
# compiled builtins
#
# Each builtin literal of a plan is compiled once, against the variables
# bound before it, into a function of the binding.  A term's value is a
# variable's value, an integer, or a bare symbol, which denotes itself;
# arithmetic evaluates its operands as integers, where a symbol must name
# a declared constant, and a symbol elsewhere in it is a type error, as
# is a result outside the integer range.  A test ``X in L..H`` holds when
# X is an integer in the interval, = and \= compare values, and an
# ordering comparison compares integers and is a type error on a symbol.
# A generator ``X in L..H`` gives X each integer of the interval in turn,
# and ``X = expr`` gives X the value of expr.  Errors are GroundErrors
# positioned at the offending term or literal, raised in left-to-right
# order of evaluation.  Constants, named ones included, fold at compile
# time; a constant that would raise compiles to a function that raises
# when it is reached.  (tests/reference_builtins.py evaluates builtins
# the plain way, term by term, for the tests to hold these against.)
#
# What the compiler knows about each bound variable is its bounds: the
# closed interval (lo, hi) of its values when they are all integers, or
# None when it may hold a symbol.  A positive literal's variable gets the
# range of its column in the candidate lists.  Known integers need no
# type checks, and arithmetic whose interval stays inside the integer
# range needs no overflow checks.  Bounds can be infinite, since integer
# literals and the values read from the binding are not range checked.

_INF = float("inf")
_ANY_INT = (-_INF, _INF)
_ARITH = {"abs": abs, "+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {
    "=": operator.eq,
    "\\=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "=<": operator.le,
    ">=": operator.ge,
}
# The commonest shapes, two variables with the operator between them,
# index the binding inline.
_VAR_ARITH = {
    "+": lambda x, y: lambda binding: binding[x] + binding[y],
    "-": lambda x, y: lambda binding: binding[x] - binding[y],
    "*": lambda x, y: lambda binding: binding[x] * binding[y],
}
_VAR_COMPARE = {
    "=": lambda x, y: lambda binding: binding[x] == binding[y],
    "\\=": lambda x, y: lambda binding: binding[x] != binding[y],
    "<": lambda x, y: lambda binding: binding[x] < binding[y],
    ">": lambda x, y: lambda binding: binding[x] > binding[y],
    "=<": lambda x, y: lambda binding: binding[x] <= binding[y],
    ">=": lambda x, y: lambda binding: binding[x] >= binding[y],
}


class _Term(NamedTuple):
    """A term or test compiled against the bounds of the bound variables.

    fn maps the binding to the value; it is None when the value folds to
    the constant value.  bounds is (lo, hi) when the value is an integer
    in that interval, else None.  safe is False when evaluating it may
    raise a GroundError.
    """

    fn: Callable | None
    value: Value | bool = 0
    bounds: tuple | None = None
    safe: bool = True


def _raiser(message: str, span) -> Callable:
    def fail(binding):
        raise _error(message, span)

    return fail


def _getter(t: _Term) -> Callable:
    if t.fn is not None:
        return t.fn
    value = t.value
    return lambda binding: value


def _interval(op: str, args: list[tuple]) -> tuple:
    if op == "abs":
        lo, hi = args[0]
        return (0 if lo <= 0 <= hi else min(abs(lo), abs(hi))), max(abs(lo), abs(hi))
    (a, b), (c, d) = args
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - d, b - c
    if _INF in map(abs, (a, b, c, d)):
        return _ANY_INT
    products = (a * c, a * d, b * c, b * d)
    return min(products), max(products)


def _compile_term(t: Term, constants: dict[str, int], bounds: dict, arith: bool = False) -> _Term:
    """Compile t as an integer (arith) or as a value; bounds maps each
    bound variable to its bounds."""
    if isinstance(t, Var):
        name = t.name
        var_bounds = bounds[name]
        if var_bounds is not None or not arith:
            return _Term(itemgetter(name), bounds=var_bounds)
        span = t.span

        def get_int(binding):
            v = binding[name]
            if isinstance(v, int):
                return v
            msg = f"type error: symbol {v} used in arithmetic"
            raise _error(msg, span)

        return _Term(get_int, bounds=_ANY_INT, safe=False)
    if isinstance(t, IntConst):
        return _Term(None, t.value, (t.value, t.value))
    if isinstance(t, SymConst):
        if not arith:
            return _Term(None, t.name)
        if t.name in constants:
            v = constants[t.name]
            return _Term(None, v, (v, v))
        return _Term(_raiser(f"type error: symbol {t.name} used in arithmetic", t.span), bounds=_ANY_INT, safe=False)
    args = [_compile_term(a, constants, bounds, True) for a in t.args]
    f = _ARITH[t.op]
    msg, span = "integer overflow in arithmetic", t.span
    if all(a.fn is None for a in args):
        v = f(*(a.value for a in args))
        if INT_MIN <= v <= INT_MAX:
            return _Term(None, v, (v, v))
        return _Term(_raiser(msg, span), bounds=_ANY_INT, safe=False)
    lo, hi = _interval(t.op, [a.bounds for a in args])
    if len(args) == 1:
        g = args[0].fn

        def fn(binding):
            return f(g(binding))

    else:
        left, right = args
        lf, rf = left.fn, right.fn
        if left.safe and right.safe and isinstance(t.args[0], Var) and isinstance(t.args[1], Var):
            fn = _VAR_ARITH[t.op](t.args[0].name, t.args[1].name)
        elif lf is None:
            fn = partial(_apply_const_left, f, left.value, rf)
        elif rf is None:
            fn = partial(_apply_const_right, f, lf, right.value)
        else:

            def fn(binding):
                return f(lf(binding), rf(binding))

    if INT_MIN <= lo and hi <= INT_MAX:
        return _Term(fn, bounds=(lo, hi), safe=all(a.safe for a in args))
    raw = fn

    def fn(binding):
        out = raw(binding)
        if INT_MIN <= out <= INT_MAX:
            return out
        raise _error(msg, span)

    return _Term(fn, bounds=(max(lo, INT_MIN), min(hi, INT_MAX)), safe=False)


def _apply_const_left(f, c, g, binding):
    return f(c, g(binding))


def _apply_const_right(f, g, c, binding):
    return f(g(binding), c)


def _compile_test(lit: Builtin, constants: dict[str, int], bounds: dict) -> _Term:
    """Compile a builtin in test mode, once every variable of lit is
    bound; bounds maps those to their bounds."""
    op = lit.op
    if op == "in":
        parts = (
            _compile_term(lit.lhs, constants, bounds),
            _compile_term(lit.rhs.lo, constants, bounds, True),
            _compile_term(lit.rhs.hi, constants, bounds, True),
        )
        safe = all(p.safe for p in parts)
        if all(p.fn is None for p in parts):
            v, lo, hi = (p.value for p in parts)
            return _Term(None, isinstance(v, int) and lo <= v <= hi)
        vf, lof, hif = map(_getter, parts)

        def test(binding):
            v = vf(binding)
            lo = lof(binding)
            hi = hif(binding)
            return isinstance(v, int) and lo <= v <= hi

        return _Term(test, safe=safe)
    compare = _COMPARE[op]
    lhs = _compile_term(lit.lhs, constants, bounds)
    rhs = _compile_term(lit.rhs, constants, bounds)
    lf, rf = lhs.fn, rhs.fn
    safe = lhs.safe and rhs.safe
    if op not in ("=", "\\=") and (lhs.bounds is None or rhs.bounds is None):
        # an ordering test on what may be a symbol
        lf, rf = _getter(lhs), _getter(rhs)
        msg = f"type error: ordering comparison {op} on symbols"
        span = lit.span

        def test(binding):
            lv = lf(binding)
            rv = rf(binding)
            if isinstance(lv, int) and isinstance(rv, int):
                return compare(lv, rv)
            raise _error(msg, span)

        return _Term(test, safe=False)
    if lf is None and rf is None:
        return _Term(None, compare(lhs.value, rhs.value))
    if lf is None:
        return _Term(partial(_apply_const_left, compare, lhs.value, rf), safe=safe)
    if rf is None:
        return _Term(partial(_apply_const_right, compare, lf, rhs.value), safe=safe)
    if isinstance(lit.lhs, Var) and isinstance(lit.rhs, Var):
        return _Term(_VAR_COMPARE[op](lit.lhs.name, lit.rhs.name))

    def test(binding):
        return compare(lf(binding), rf(binding))

    return _Term(test, safe=safe)


def _compile_generator(lit: Builtin, constants: dict[str, int], bounds: dict) -> tuple[Callable, tuple | None]:
    """Compile a builtin in generator mode: ``X in L..H`` or ``X = expr``
    with X unbound.  Returns a function from the binding to the values
    of X, in ascending order for an interval, and their bounds."""
    if lit.op == "=":
        rhs = _compile_term(lit.rhs, constants, bounds)
        if rhs.fn is None:
            values = (rhs.value,)
            return (lambda binding: values), rhs.bounds
        f = rhs.fn
        return (lambda binding: (f(binding),)), rhs.bounds
    lo = _compile_term(lit.rhs.lo, constants, bounds, True)
    hi = _compile_term(lit.rhs.hi, constants, bounds, True)
    value_bounds = (lo.bounds[0], hi.bounds[1])
    if lo.fn is None and hi.fn is None and hi.value - lo.value + 1 <= _DOMAIN_CAP:
        folded = range(lo.value, hi.value + 1)
        return (lambda binding: folded), value_bounds
    lof, hif = _getter(lo), _getter(hi)

    def values(binding):
        low = lof(binding)
        high = hif(binding)
        if high - low + 1 > _DOMAIN_CAP:
            raise _error(f"interval {low}..{high} exceeds {_DOMAIN_CAP} values", lit.span)
        return range(low, high + 1)

    return values, value_bounds


def _never(binding) -> bool:
    return False


def _runnable(tests: list[_Term]) -> tuple[Callable, ...]:
    """The functions of compiled tests that are left to run, in order: a
    test folded to True drops out, and one folded to False ends them."""
    fns = []
    for t in tests:
        if t.fn is None:
            if t.value:
                continue
            fns.append(_never)
            break
        fns.append(t.fn)
    return tuple(fns)


# ---------------------------------------------------------------------------
# per-rule instantiation plans


@dataclass
class _Plan:
    """Fixed evaluation order for one rule body.

    steps is a list of ("pos", literal) and ("builtin", literal, binds)
    entries; negative literals always run last since they never bind.
    """

    steps: list
    negs: list[Neg]
    span: SourceSpan | None
    label: str


def _builtin_placeable(lit: Builtin, bound: set[str]) -> tuple[bool, str | None]:
    """Whether the builtin can run once `bound` variables have values;
    returns the variable it binds in generator mode, if any."""
    if lit.op == "in":
        rng = lit.rhs
        rng_vars = term_variables(rng.lo) | term_variables(rng.hi)
        if isinstance(lit.lhs, Var) and lit.lhs.name not in bound:
            return rng_vars <= bound, lit.lhs.name
        return term_variables(lit.lhs) | rng_vars <= bound, None
    if lit.op == "=":
        if isinstance(lit.lhs, Var) and lit.lhs.name not in bound:
            return term_variables(lit.rhs) <= bound, lit.lhs.name
        return term_variables(lit.lhs) | term_variables(lit.rhs) <= bound, None
    vars_all = term_variables(lit.lhs) | term_variables(lit.rhs)
    return vars_all <= bound, None


def _plan_rule(body: tuple[Literal, ...], head_vars: set[str], span, label: str) -> _Plan:
    """Order one rule body for instantiation and check safety.

    Every variable must be bound by a positive relational literal or a
    generator builtin before anything needs its value; violations are
    reported against the rule.
    """
    steps: list = []
    negs: list[Neg] = []
    pending: list[Builtin] = []
    bound: set[str] = set()

    def place_ready():
        progress = True
        while progress:
            progress = False
            for lit in list(pending):
                ok, binds = _builtin_placeable(lit, bound)
                if ok:
                    pending.remove(lit)
                    steps.append(("builtin", lit, binds))
                    if binds is not None:
                        bound.add(binds)
                    progress = True

    for lit in body:
        if isinstance(lit, (Pos, Neg)) and any(isinstance(arg, ArithExpr) for arg in lit.atom.args):
            raise _error(f"arithmetic is not allowed in body atom arguments: {lit.atom} in {label}", span)
        if isinstance(lit, Pos):
            steps.append(("pos", lit))
            bound |= {a.name for a in lit.atom.args if isinstance(a, Var)}
            place_ready()
        elif isinstance(lit, Neg):
            negs.append(lit)
        else:
            pending.append(lit)
            place_ready()
    place_ready()
    if pending:
        lit = pending[0]
        missing = sorted(literal_variables(lit) - bound)
        raise _error(
            f"builtin {lit} in {label} cannot be evaluated: variable "
            f"{missing[0] if missing else '?'} is never bound",
            span,
        )
    for lit in negs:
        loose = sorted(v for v in literal_variables(lit) if v not in bound)
        if loose:
            raise _error(f"unbounded variable {loose[0]} in negative literal {lit} in {label}", span)
    loose = sorted(v for v in head_vars if v not in bound)
    if loose:
        raise _error(f"unbounded variable {loose[0]} in the head of {label}", span)
    return _Plan(steps, negs, span, label)


class _Candidates:
    """Candidate (args, atom id) lists per predicate key, with hash indexes
    built on first use.

    An index drops the candidates whose repeated-variable positions
    disagree, groups the rest by the values at some constant positions,
    and groups each group by the values at some variable positions.
    Every bucket keeps the order of the list, so probing a bucket yields
    the same candidates in the same order as filtering the whole list.
    A candidate's rank is its position in its list (see rank), so every
    bucket is in rank order, and the candidates ranked at least some
    value are a tail of it, which bisect finds (_rank_cut).  The lists
    must not change once an index or a rank on them exists.

    A list copied from a possible dict is the dict in insertion order,
    and the closure only adds to a dict at its end.  So the candidates
    that a round of the closure added since an earlier copy are a tail
    of the list and of every bucket, all ranked at least the earlier
    copy's length: the closure's Δ is a rank boundary (_delta_join).
    """

    def __init__(self, fixed: dict, possible: dict):
        """fixed maps predicate keys to (args, id) lists, possible to
        args -> id dicts, whose current items are copied."""
        self.lists: dict[tuple[str, int], list[tuple[tuple[Value, ...], int]]] = dict(fixed)
        for key, ext in possible.items():
            self.lists[key] = list(ext.items())
        self._indexes: dict[tuple, dict] = {}
        self._bounds: dict[tuple, tuple | None] = {}
        self._ranks: dict[tuple[str, int], dict[int, int]] = {}

    def bounds(self, key, i) -> tuple | None:
        """The (lo, hi) range of the values at position i of key's
        candidates when there are some and all are integers, else None."""
        if (key, i) not in self._bounds:
            column = [args[i] for args, _ in self.lists.get(key, ())]
            ints = column and all(isinstance(v, int) for v in column)
            self._bounds[key, i] = (min(column), max(column)) if ints else None
        return self._bounds[key, i]

    def rank(self, key) -> dict[int, int]:
        """The rank of each of key's candidates, by atom id: an atom is
        a candidate at most once per list, since the abducible lists
        hold distinct atoms and a possible dict maps args to ids."""
        ranks = self._ranks.get(key)
        if ranks is None:
            ranks = self._ranks[key] = {atom_id: n for n, (_, atom_id) in enumerate(self.lists.get(key, ()))}
        return ranks

    def table(self, key, repeats, const_pos, const_vals, var_pos):
        """The candidates whose repeated positions agree and whose const_pos
        hold const_vals: a list when var_pos is empty, else a dict from the
        values at var_pos (a single value for one position) to lists."""
        ikey = (key, repeats, const_pos, var_pos)
        index = self._indexes.get(ikey)
        if index is None:
            index = self._indexes[ikey] = self._index(key, repeats, const_pos, var_pos)
        return index.get(const_vals[0] if len(const_vals) == 1 else const_vals, {} if var_pos else ())

    def split(self, key, repeats, const_pos, const_vals, var_pos, open_pos, y_pos) -> dict:
        """Each bucket of table(key, repeats, const_pos, const_vals,
        var_pos), split on open_pos and y_pos: a dict from the bucket's
        key, () when var_pos is empty, to a dict from each value z at
        open_pos, keyed as table keys them (a single value for one
        position, () for none), to a dict from each value at y_pos to
        the bucket's candidates that hold both, in rank order."""
        ikey = (key, repeats, const_pos, const_vals, var_pos, open_pos, y_pos)
        index = self._indexes.get(ikey)
        if index is None:
            table = self.table(key, repeats, const_pos, const_vals, var_pos)
            index = self._indexes[ikey] = {}
            open_key = itemgetter(*open_pos) if open_pos else lambda args: ()
            for probed, bucket in table.items() if var_pos else [((), table)]:
                parts: dict = {}
                for cand in bucket:
                    args = cand[0]
                    parts.setdefault(open_key(args), {}).setdefault(args[y_pos], []).append(cand)
                index[probed] = parts
        return index

    def _index(self, key, repeats, const_pos, var_pos) -> dict:
        """An index for table: keyed by the value at const_pos (a single
        value for one position, () for none), then by the values at
        var_pos when there are some."""
        cands = self.lists.get(key, ())
        if repeats:
            cands = [cand for cand in cands if all(cand[0][i] == cand[0][j] for i, j in repeats)]
        const_key = itemgetter(*const_pos) if const_pos else None
        var_key = itemgetter(*var_pos) if var_pos else None
        if var_key is None:
            if const_key is None:
                return {(): cands}
            index: dict = {}
            for cand in cands:
                index.setdefault(const_key(cand[0]), []).append(cand)
            return index
        if const_key is None:
            buckets: dict = {}
            for cand in cands:
                buckets.setdefault(var_key(cand[0]), []).append(cand)
            return {(): buckets}
        index = {}
        for cand in cands:
            args = cand[0]
            index.setdefault(const_key(args), {}).setdefault(var_key(args), []).append(cand)
        return index


def _enumerate_plan(
    plan: _Plan, candidates: _Candidates, constants: dict[str, int], emit, groups=()
) -> None:
    """Call emit(binding, pos_ids) for every way to satisfy the body, in
    the order of a nested-loop join over the candidate lists: the join
    that _compile_join makes, run from the empty binding."""
    _compile_join(plan, candidates, constants, emit, groups)({}, ())


class _Solved(NamedTuple):
    """A test solved for a fresh variable y of a positive literal (_solve).

    values maps the binding, with the variables in opens bound as well,
    to the values that the test allows y: at most two, in ascending
    order.  exact is e for a test ``y = e``, which a probe answers
    exactly, and None for the other forms."""

    y: str
    opens: tuple[str, ...]
    values: Callable
    exact: Term | None


_ZERO = IntConst(0)


def _isolate(t: Term, y: str, v: Term) -> tuple[Term, Term | None] | None:
    """y isolated from ``t = v``, where t reaches its one occurrence of y
    through ``+``, ``-`` and at most one abs: (d, None) when that gives
    y = d, (d, u) when it gives y = d - u or y = d + u for the value u
    that the abs equals, and None for another t.  ``t + a = v`` gives
    t = v - a, ``t - a = v`` gives t = v + a and ``a - t = v`` gives
    t = a - v; under the abs the steps start from 0, since their signs
    only swap -u and u."""
    if isinstance(t, Var):
        return (v, None) if t.name == y else None
    if not isinstance(t, ArithExpr) or t.op == "*":
        return None
    if t.op == "abs":
        inner = _isolate(t.args[0], y, _ZERO)
        return None if inner is None or inner[1] is not None else (inner[0], v)
    left, right = t.args
    in_left = y in term_variables(left)
    if in_left == (y in term_variables(right)):
        return None
    if t.op == "+":
        v = ArithExpr("-", (v, right if in_left else left))
    elif in_left:
        v = right if v == _ZERO else ArithExpr("+", (v, right))
    else:
        v = left if v == _ZERO else ArithExpr("-", (left, v))
    return _isolate(left if in_left else right, y, v)


def _solve(lit: Builtin, known: set[str], opens: list[str], constants: dict[str, int], bounds: dict) -> _Solved | None:
    """lit solved for the first variable y in opens that it allows at
    most two values once the variables in known and the rest of opens
    are bound, or None.

    lit must be ``s = e`` or ``e = s``, where e does not read y and s is
    y or reaches y's one occurrence through ``+``, ``-`` and at most one
    abs (_isolate): ``y = x + 1``, ``k - y = x``, ``abs(y - x) = abs(z - w)``."""
    if lit.op != "=":
        return None
    for y in opens:
        for side, other in ((lit.lhs, lit.rhs), (lit.rhs, lit.lhs)):
            found = None if y in term_variables(other) else _isolate(side, y, other)
            if found is None:
                continue
            reads = term_variables(found[0]) | term_variables(found[1])
            if not reads <= known.union(opens):
                continue
            values = _values(*found, constants, bounds)
            if values is not None:
                exact = other if isinstance(side, Var) else None
                return _Solved(y, tuple(v for v in opens if v in reads), values, exact)
    return None


def _values(d: Term, u: Term | None, constants: dict[str, int], bounds: dict) -> Callable | None:
    """The function from the binding to the values of y that _isolate
    gave as (d, u), or None when computing them might raise: d alone,
    or d - u and d + u when u > 0, d when u = 0 and none when u < 0."""
    if u is None:
        term = _compile_term(d, constants, bounds)
        if not term.safe:
            return None
        get = _getter(term)
        return lambda binding: (get(binding),)
    d, u = _compile_term(d, constants, bounds, True), _compile_term(u, constants, bounds, True)
    if not (d.safe and u.safe):
        return None
    get_d, get_u = _getter(d), _getter(u)

    def values(binding):
        u = get_u(binding)
        if u < 0:
            return ()
        d = get_d(binding)
        return (d - u, d + u) if u else (d,)

    return values


def _compile_join(
    plan: _Plan, candidates: _Candidates, constants: dict[str, int], emit, groups=(), make_selector=None
) -> Callable:
    """The join of a plan, as a function start(binding, pos_ids) that
    calls emit(binding, pos_ids) for every way to satisfy the body.

    The plan compiles into one step function per positive literal and
    per generator builtin.  Each positive step knows which argument
    positions hold constants or variables bound by earlier steps and
    probes the candidate index on them; the other positions bind fresh
    variables.  A generator step binds its variable to each value in
    turn.  Every test builtin is compiled (_compile_test) and runs inside
    the step that binds the last of its variables, right after binding,
    in plan order, so a candidate that fails a test costs no call of the
    next step.  The binding dict is extended in place and restored when
    a step is exhausted, so emit must copy what it keeps.  The chain is
    folded from the last step back, so no step function refers to
    itself.

    A test placed at a positive literal's step that allows one of the
    literal's fresh variables, Y, at most two values (_solve) narrows
    the literal's probe, provided the test cannot raise (_Term.safe)
    and neither can any test that runs between the literal and it.  A
    test ``Y = X`` or ``Y = c``, with X bound before the literal and c a
    constant, works as though the literal had X or c at Y's position.
    Any other such test is the last to narrow the literal: each distinct
    value of the other fresh variables Z that Y's values read (none when
    they read only variables bound before) in the literal's bucket gives
    Y's values, and the candidates holding both are taken from the
    bucket split on Z and Y (_Candidates.split), in rank order, the order
    of the plain bucket.  The solved test still runs on every candidate
    the probe yields, except a test ``Y = e``, which the probe answers
    exactly.  See the argument below.

    groups lists symmetric groups of positive literals, by their index
    in pos_ids (see _symmetric_groups).  Each literal of a group after
    its first takes only the candidates ranked at least as high as the
    atom that the group's previous literal took, which pos_ids holds,
    so of every way to permute a group's candidates only the one with
    ranks in order is enumerated.

    make_selector(k, bucket, cut), when given, makes the selector of
    the k-th positive literal (see _selector) in place of
    _selector(bucket, cut), where bucket gives the literal's candidates
    and cut is its group cut or None; see ConstraintRule and _delta_join.
    """
    # Why narrowing changes nothing.  The values the narrowed probe takes
    # hold every value of Y for which the test holds, given the other
    # variables: each step of the solved side inverts exactly over the
    # integers, and the test's safety means that every term it reads
    # under arithmetic, Y and Z included, holds integers in range.  For a
    # test ``Y = e`` they are e's value alone, compared as the index
    # compares it, symbols included.  So the probe yields the candidates
    # of the plain bucket for which the test can hold, in the plain
    # bucket's order, and skips only candidates that fail it.  A skipped
    # candidate would have bound the literal's fresh variables, run the
    # tests placed before the solved test, and then failed it: no later
    # step runs for it, so it emits nothing and puts no atom in the
    # pos_ids that a later step reads.  The kept candidates bind the same
    # values from their own columns and run the same tests, and a
    # ``Y = e`` that is not run holds on each of them.  So emit sees the
    # same calls in the same order, and the enumeration ends with the
    # same GroundError unless a skipped candidate would have raised
    # first, in the solved test or a test before it.  That is ruled out
    # at compile time: those tests must all be safe, which they are, for
    # instance, when their arithmetic stays in range and reads integer
    # columns only, and their ordering comparisons read integer columns
    # only.  Computing the values cannot raise either (_values), and a
    # generator in between stops narrowing.
    # positive literal of a group -> the group's literal before it
    previous = {k: prev for group in groups for prev, k in zip(group, group[1:])}
    steps = plan.steps
    bounds: dict[str, tuple | None] = {}  # bound variable -> bounds of its values
    lead: list[_Term] = []  # tests that run before the first step
    makers = []  # (step maker, its tests)
    dropped: set[int] = set()  # plan steps of tests that a probe answers exactly
    n_pos = 0
    for s, step in enumerate(steps):
        if s in dropped:
            continue
        if step[0] == "builtin":
            _, lit, binds = step
            if binds is None:
                (makers[-1][1] if makers else lead).append(_compile_test(lit, constants, bounds))
            else:
                values, bounds[binds] = _compile_generator(lit, constants, bounds)
                makers.append((partial(_gen_step, binds, values), []))
            continue
        atom = step[1].atom
        const_pos, const_vals, probes, fresh, repeats = [], [], [], [], []
        first_at: dict[str, int] = {}
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Var):
                if arg.name in bounds:
                    probes.append((i, arg.name))
                elif arg.name in first_at:
                    repeats.append((first_at[arg.name], i))
                else:
                    first_at[arg.name] = i
                    fresh.append((arg.name, i))
            else:
                const_pos.append(i)
                const_vals.append(arg.value if isinstance(arg, IntConst) else arg.name)
        known = set(bounds)
        for name, i in fresh:
            bounds[name] = candidates.bounds(atom.key, i)
        opens = [name for name, _ in fresh]
        solved = None
        safe = True
        for t in range(s + 1, len(steps)):
            if steps[t][0] == "pos" or steps[t][2] is not None:
                break
            lit = steps[t][1]
            test = _compile_test(lit, constants, bounds)
            found = _solve(lit, known, opens, constants, bounds) if safe and test.safe else None
            if found is None:
                safe = safe and test.safe
                continue
            e = found.exact
            if e is not None:
                dropped.add(t)
            if found.opens or not isinstance(e, (Var, IntConst, SymConst)):
                solved = found
                break
            # Y = X or Y = c: Y's position is probed or fixed like X's or c's
            opens.remove(found.y)
            if isinstance(e, Var):
                probes.append((first_at[found.y], e.name))
            else:
                const_pos.append(first_at[found.y])
                const_vals.append(e.value if isinstance(e, IntConst) else e.name)
        probes.sort()
        probe = itemgetter(*(name for _, name in probes)) if probes else None
        key, repeats, const_pos, const_vals = atom.key, tuple(repeats), tuple(const_pos), tuple(const_vals)
        probe_pos = tuple(i for i, _ in probes)
        if solved is None:
            bucket = _bucket(candidates.table(key, repeats, const_pos, const_vals, probe_pos), probe)
        else:
            open_pos = tuple(first_at[name] for name in solved.opens)
            split = candidates.split(key, repeats, const_pos, const_vals, probe_pos, open_pos, first_at[solved.y])
            bucket = _solved_bucket(split, probe, solved, candidates.rank(key))
        cut = None
        if n_pos in previous:
            rank = candidates.rank(key)
            cut = _rank_cut(rank, lambda pos_ids, rank=rank, prev=previous[n_pos]: rank[pos_ids[prev]])
        if make_selector is None:
            select = _selector(bucket, cut)
        else:
            select = make_selector(n_pos, bucket, cut)
        makers.append((partial(_pos_step, select, tuple(fresh)), []))
        n_pos += 1

    step = emit
    for make, tests in reversed(makers):
        step = make(_runnable(tests), step)
    lead_tests = _runnable(lead)
    if not lead_tests:
        return step

    def start(binding, pos_ids):
        if all(test(binding) for test in lead_tests):
            step(binding, pos_ids)

    return start


def _bucket(table, probe):
    """The bucket function of a literal: from the binding and pos_ids
    to the candidates that probe selects from table (all of table when
    probe is None)."""
    if probe is None:
        return lambda binding, pos_ids: table
    get = table.get
    return lambda binding, pos_ids: get(probe(binding), ())


_NO_PARTS: dict = {}


def _solved_bucket(split, probe, solved: _Solved, rank) -> Callable:
    """The bucket function of a literal narrowed by a solved test: in
    the bucket of split that probe selects, each distinct value z of
    the test's other fresh variables, bound in turn, gives the values
    of its variable y, and the candidates holding z and one of those
    come together in rank order (see _Candidates.split and
    _compile_join)."""
    opens, values = solved.opens, solved.values

    def by_rank(cand):
        return rank[cand[1]]

    one = opens[0] if len(opens) == 1 else None

    def bucket(binding, pos_ids):
        found = []
        for z, parts in split.get(() if probe is None else probe(binding), _NO_PARTS).items():
            if one is None:
                binding.update(zip(opens, z))
            else:
                binding[one] = z
            for y in values(binding):
                cands = parts.get(y)
                if cands is not None:
                    found.append(cands)
        for name in opens:
            binding.pop(name, None)
        if len(found) == 1:
            return found[0]
        return sorted(chain.from_iterable(found), key=by_rank) if found else ()

    return bucket


def _selector(bucket, cut=None, cell=None, open_=False):
    """The selector of a positive literal: a function from the binding
    and pos_ids to the candidates the literal takes there, in order.

    Those are bucket(binding, pos_ids), cut(those, pos_ids) when cut is
    given, and then, when cell is given and holds an assignment value
    at the call (cell[0] is not None), only the atoms that value makes
    true (value[2 * id] == 1), or with open_ those it does not make
    false (value[2 * id] != 0).  A candidate filtered out costs one
    lookup, before it binds anything."""
    if cut is None and cell is None:
        return bucket

    def select(binding, pos_ids):
        cands = bucket(binding, pos_ids)
        if cut is not None:
            cands = cut(cands, pos_ids)
        value = None if cell is None else cell[0]
        if value is None:
            return cands
        if open_:
            return [cand for cand in cands if value[2 * cand[1]] != 0]
        return [cand for cand in cands if value[2 * cand[1]] == 1]

    return select


def _rank_cut(rank, low):
    """A cut for _selector to the candidates of a bucket ranked at least
    low(pos_ids), by the ranks of _Candidates.rank: the bucket's tail
    from there, since a bucket is in rank order."""

    def by_rank(cand):
        return rank[cand[1]]

    def cut(bucket, pos_ids):
        lo = low(pos_ids)
        return bucket[bisect_left(bucket, lo, key=by_rank):] if lo else bucket

    return cut


def _pos_step(select, fresh, tests, nxt):
    """Step over the candidates that select(binding, pos_ids) gives one
    positive literal; each candidate that passes all tests goes on to
    nxt."""

    def step(binding, pos_ids):
        for args, atom_id in select(binding, pos_ids):
            for name, i in fresh:
                binding[name] = args[i]
            for test in tests:
                if not test(binding):
                    break
            else:
                nxt(binding, pos_ids + (atom_id,))
        for name, _ in fresh:
            binding.pop(name, None)

    return step


def _gen_step(name, values, tests, nxt):
    """Step over the values a generator builtin gives its variable."""

    def step(binding, pos_ids):
        for v in values(binding):
            binding[name] = v
            for test in tests:
                if not test(binding):
                    break
            else:
                nxt(binding, pos_ids)
        binding.pop(name, None)

    return step


# ---------------------------------------------------------------------------
# symmetric constraint bodies
#
# A constraint such as blocks' three-move denial lists one predicate
# several times in a body that stays the same when those copies are
# swapped.  A plain join meets each ground body once per permutation of
# the copies' candidates, and ground keeps only the first of them.
# _symmetric_groups finds such copies, and _enumerate_plan gives them
# their candidates in rank order only.
#
# Why the kept constraints do not change.  Each swap that links two
# literals of a group fixes every other positive literal and every
# generated value, and maps the body and the heads onto themselves as
# multisets.  Applied to an instance's binding, it gives another
# instance of the join that passes the same ground tests and has the
# same head disjuncts and the same positive and negative body atoms,
# hence the same deduplication key.  The swaps generate every
# permutation of the group, so an orbit (the instances that differ only
# in how the group's candidates are permuted) is emitted whole or not
# at all, under one key.  The join enumerates in lexicographic order of
# candidate positions, and where two members of an orbit first differ
# they probe the same bucket, whose order is rank order; so the member
# whose group ranks are in order comes first.  The first instance of
# every key is therefore also enumerated when the groups are pruned,
# in the same relative order, with the same literal order and origin.
#
# The emitted members of an orbit intern the same negative and head
# atoms, and the sorted one does so first, so atom ids do not change
# either.
#
# Two things would break the argument, and a constraint where either
# could happen gets no group.  A type error (an ordering comparison or
# arithmetic on a symbol) could be met by a pruned member after its
# sorted twin stopped at a false test: so every builtin and head term
# must be unable to raise one.  A member that returns at a true head
# builtin has interned only the head atoms before it, which differ from
# member to member: so the heads must not mix builtins and atoms.


def _rename(t: Term, sigma: dict[str, str]) -> Term:
    """A plain term with its variable renamed by sigma."""
    return Var(sigma.get(t.name, t.name)) if isinstance(t, Var) else t


def _literal_form(lit: Literal, sigma: dict[str, str]):
    """Hashable form of a literal that _never_raises accepts, renamed by
    sigma; the two operands of = and \\= are unordered."""
    if isinstance(lit, Builtin):
        return lit.op, frozenset((_rename(lit.lhs, sigma), _rename(lit.rhs, sigma)))
    return type(lit), lit.atom.pred, tuple(_rename(a, sigma) for a in lit.atom.args)


def _never_raises(lit: Literal) -> bool:
    """Whether instantiating lit cannot raise a type error: = and \\=
    between plain terms, and atoms without arithmetic."""
    if isinstance(lit, Builtin):
        return lit.op in ("=", "\\=") and not (
            isinstance(lit.lhs, ArithExpr) or isinstance(lit.rhs, ArithExpr)
        )
    return not any(isinstance(a, ArithExpr) for a in lit.atom.args)


def _swap(a: Atom, b: Atom) -> dict[str, str] | None:
    """The involution on variables that pairs a's arguments with b's
    position by position, or None when a variable meets a constant,
    two constants differ, or a variable would be paired two ways."""
    sigma: dict[str, str] = {}
    for s, t in zip(a.args, b.args):
        if isinstance(s, Var) and isinstance(t, Var):
            if sigma.setdefault(s.name, t.name) != t.name or sigma.setdefault(t.name, s.name) != s.name:
                return None
        elif isinstance(s, Var) or isinstance(t, Var) or s != t:
            return None
    return sigma


def _symmetric_groups(con: Constraint, plan: _Plan) -> list[tuple[int, ...]]:
    """Groups of interchangeable positive body literals of a constraint,
    each a tuple of indexes among its positive literals.

    Two literals of one predicate are linked when the swap that pairs
    their arguments (_swap) moves no variable of another positive
    literal or of a generator builtin, and maps the body and the heads
    onto themselves as multisets.  A group is a set of literals connected
    by links; their transpositions generate every permutation of it.
    There are no groups when a builtin or head term could raise a type
    error or when the heads mix builtins and atoms (see above).
    """
    atoms = [lit.atom for lit in con.body if isinstance(lit, Pos)]
    atom_vars = [literal_variables(lit) for lit in con.body if isinstance(lit, Pos)]
    head_builtins = sum(isinstance(h, Builtin) for h in con.heads)
    if (
        len(atoms) < 2
        or not all(map(_never_raises, con.body + con.heads))
        or 0 < head_builtins < len(con.heads)
    ):
        return []
    generated: set[str] = set()
    for step in plan.steps:
        if step[0] == "builtin" and step[2] is not None:
            generated |= literal_variables(step[1])

    def forms(sigma):
        return tuple(Counter(_literal_form(lit, sigma) for lit in part) for part in (con.body, con.heads))

    unmoved = forms({})
    group_of = list(range(len(atoms)))
    for i, j in combinations(range(len(atoms)), 2):
        if atoms[i].key != atoms[j].key or group_of[i] == group_of[j]:
            continue
        sigma = _swap(atoms[i], atoms[j])
        if sigma is None:
            continue
        moved = {u for u, v in sigma.items() if u != v}
        if (
            moved & generated
            or any(moved & atom_vars[k] for k in range(len(atoms)) if k not in (i, j))
            or forms(sigma) != unmoved
        ):
            continue
        old, new = group_of[j], group_of[i]
        group_of = [new if g == old else g for g in group_of]
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(group_of):
        groups.setdefault(g, []).append(k)
    return [tuple(ks) for ks in groups.values() if len(ks) > 1]


# ---------------------------------------------------------------------------
# constraint rules
#
# The theory keeps each source constraint as a rule, its plan over the
# grounder's candidate indexes, and stores the clauses of its instances
# only.  A reader that needs an instance re-runs the rule's join over
# the atoms that matter to it (see ConstraintRule).  A denial over
# abducibles with two or more positive literals, such as queens'
# diagonal rule or blocks' three-move rule, is not instantiated at all:
# its instances grow with the square or the cube of the candidates,
# while the search only ever makes some of its atoms true, and the
# search runs the join from each atom it makes true.  A constraint
# whose heads are all builtin tests, such as queens'
# ``C1 = C2 <- position(R,C1), position(R,C2).``, is such a denial
# too, with the tests negated in its body (_as_denial).  This is how
# SLDNFA (Denecker & De Schreye, 1998) treats a denial, resolving it
# against each abduced atom, and how lazy grounding treats a constraint
# in ASP (Weinzierl, 2017).


class _StopJoin(Exception):
    """Raised from an emit to end a join; args[0] is what it found."""


# each test's negation, which holds exactly where the test is false
_NEGATED = {"=": "\\=", "\\=": "=", "<": ">=", ">=": "<", ">": "=<", "=<": ">"}


def _as_denial(con: Constraint) -> Constraint | None:
    """con as a denial: con itself when it has no heads, the denial
    with con's heads negated at the end of its body when they are all
    builtin tests, and None otherwise.

    An instance of con is violated when its body holds and every head
    is false, which is when the denial's body holds; so both have the
    same violated instances, and with them the same clauses."""
    if not con.heads:
        return con
    if not all(isinstance(h, Builtin) and h.op in _NEGATED for h in con.heads):
        return None
    tests = tuple(Builtin(_NEGATED[h.op], h.lhs, h.rhs, span=h.span) for h in con.heads)
    return Constraint((), con.body + tests, span=con.span)


def _is_lazy(denial: Constraint, candidates: _Candidates, constants: dict[str, int]) -> bool:
    """Whether ground leaves the rule of a constraint whose denial form
    (_as_denial) is denial lazy: a body with no negative literal and
    two or more positive ones, whose builtins are tests that cannot
    raise.  The positive literals may be over abducible or defined
    predicates, atoms true in the base model included: a literal's
    candidates are the same whether ground joins them once or the
    search does from the atoms it makes true.

    A builtin qualifies when its variables all occur in positive
    literals and it compiles safe (_Term.safe) against bounds that span
    every column its variables occur in.  Every plan that reorders the
    body then runs it as a test, on values from those columns, so no
    join order can meet a GroundError that instantiating the rule in
    body order would not; and there is none of those either.  A head
    test negated into the body reads the values that it reads as a head
    and raises where it does, so the rule is lazy only when its heads
    cannot raise either."""
    atoms = [lit.atom for lit in denial.body if isinstance(lit, Pos)]
    if len(atoms) < 2 or any(isinstance(lit, Neg) for lit in denial.body):
        return False
    bounds: dict[str, tuple | None] = {}
    for atom in atoms:
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Var):
                column = candidates.bounds(atom.key, i)
                if arg.name in bounds:
                    other = bounds[arg.name]
                    if other is None or column is None:
                        column = None
                    else:
                        column = (min(other[0], column[0]), max(other[1], column[1]))
                bounds[arg.name] = column
    return all(
        literal_variables(lit) <= bounds.keys() and _compile_test(lit, constants, bounds).safe
        for lit in denial.body
        if isinstance(lit, Builtin)
    )


@dataclass(eq=False)
class ConstraintRule:
    """A source constraint as the theory keeps it: its plan, its
    symmetric groups and the grounder's candidate indexes, constants and
    atom table.  denial is set when ground did not instantiate it (see
    _is_lazy), and lazy is then true: it is the denial form of con
    (_as_denial), ``false <- a1, ..., an, tests`` with n >= 2 atoms,
    which the search propagates.  satisfied is set for a typing
    constraint that every model satisfies (_satisfied_typing): ground
    does not instantiate it either, and nothing propagates it.

    Every reader runs the plan, the plan of con as written, with the
    emit of _emitter, meeting the instances in the order ground meets
    them; each of the two joins it runs is compiled once, on first use,
    and reads what it is given through cells.  each_instance and expand
    take every candidate.  first_with and first_true give the first
    instance of some kind, with every literal taking the atoms that can
    be part of it only.  The search propagates a lazy rule through
    propagators and unit_atoms, which join over the denial's body.
    """

    origin: int
    con: Constraint
    plan: _Plan
    groups: list[tuple[int, ...]]
    candidates: _Candidates
    constants: dict[str, int]
    atoms: AtomTable
    denial: Constraint | None
    satisfied: bool

    @property
    def lazy(self) -> bool:
        return self.denial is not None

    def _emitter(self, out: list):
        """The emit of the rule's join.  At each call out[0] is found and
        out[1] is count: found(clause, heads, pos_ids, neg_ids) for each
        instance that no true builtin head satisfies, heads holding the
        (atom id, wanted) disjuncts that are atoms and clause as _clause
        gives it; head and negative atoms are interned as met.  count[0],
        when count is not None, counts the instances the join
        enumerates, and the join ends past _CONSTRAINT_CAP."""
        plan = self.plan
        bounds = _unknown_bounds(self.con.body)
        negs = [(n.atom.pred, _compile_args(n.atom, self.constants, bounds)) for n in plan.negs]
        heads = [
            (None, _getter(_compile_test(h, self.constants, bounds)), None)
            if isinstance(h, Builtin)
            else (h.atom.pred, _compile_args(h.atom, self.constants, bounds), isinstance(h, Pos))
            for h in self.con.heads
        ]
        intern = self.atoms.intern_args

        def emit(binding, pos_ids):
            found, count = out
            if count is not None:
                count[0] += 1
                if count[0] > _CONSTRAINT_CAP:
                    raise _over_cap(plan)
            neg_ids = tuple([intern(pred, neg(binding)) for pred, neg in negs]) if negs else ()
            head_ids = []
            for pred, head, wanted in heads:
                if wanted is None:
                    if head(binding):
                        return  # a builtin head holds: so does the constraint
                    continue  # a false builtin head drops out
                head_ids.append((intern(pred, head(binding)), wanted))
            if head_ids or neg_ids:
                found(_clause(head_ids, pos_ids, neg_ids), tuple(head_ids), pos_ids, neg_ids)
            else:  # a denial over positive atoms: never a tautology
                found(tuple(sorted({2 * a + 1 for a in pos_ids})), (), pos_ids, ())

        return emit

    @cached_property
    def _join(self) -> tuple[list, Callable]:
        """(out, start): the join over every candidate, whose emit reads
        out as _emitter does."""
        out = [None, None]
        start = _compile_join(self.plan, self.candidates, self.constants, self._emitter(out), self.groups)
        return out, start

    @cached_property
    def _true_join(self) -> tuple[list, list, Callable]:
        """(out, cell, start): the join whose literals take only the atoms
        that the assignment in cell[0] makes true, its emit reading out
        as _emitter does."""
        out = [None, None]
        cell = [None]

        def make_selector(k, bucket, cut):
            return _selector(bucket, cut, cell)

        emit = self._emitter(out)
        start = _compile_join(self.plan, self.candidates, self.constants, emit, self.groups, make_selector)
        return out, cell, start

    def each_instance(self, found, count: list[int]) -> None:
        """Run the join over every candidate: found as _emitter calls it,
        for each instance, counted in count."""
        out, start = self._join
        out[:] = found, count
        try:
            start({}, ())
        finally:
            out[:] = None, None

    def expand(self, seen: set, keep, count: list[int]) -> None:
        """keep(gc) for each instance, in join order, whose set of head
        disjuncts, positive and negative body atoms is not in seen, which
        it joins: the rest admit exactly the same hypothesis sets.  An
        instance without heads and negative atoms is keyed by its clause,
        a flat tuple of ints that no (heads, pos, neg) key can equal."""
        origin = self.origin

        def found(clause, heads, pos_ids, neg_ids):
            key = (_sorted_set(heads), _sorted_set(pos_ids), _sorted_set(neg_ids)) if heads or neg_ids else clause
            if key not in seen:
                seen.add(key)
                keep(GroundConstraint(heads, pos_ids, neg_ids, origin))

        self.each_instance(found, count)

    def first_with(self, clause: tuple[int, ...]) -> GroundConstraint | None:
        """The first instance, in join order, whose clause is clause, or
        None.  Each of its positive atoms a has 2a+1 in clause, so every
        literal takes only those."""
        value = bytearray(2 * len(self.atoms))
        for lit in clause:
            if lit & 1:
                value[lit - 1] = 1
        return self.first_true(value, clause)

    def first_true(self, value, clause: tuple[int, ...] | None = None) -> GroundConstraint | None:
        """The first instance, in join order, whose positive atoms value
        makes all true (value[2 * a] == 1) and, given clause, whose clause
        it is; or None.  Of a lazy denial's instances with every atom
        true, that is the first expand keeps: one before it with the same
        atoms would be all true too, and the instance of an earlier rule
        kept in its stead would be all true and come first."""
        origin = self.origin

        def found(c, heads, pos_ids, neg_ids):
            if clause is None or c == clause:
                raise _StopJoin(GroundConstraint(heads, pos_ids, neg_ids, origin))

        out, cell, start = self._true_join
        out[:] = found, None
        cell[0] = value
        try:
            start({}, ())
        except _StopJoin as stop:
            return stop.args[0]
        finally:
            out[:] = None, None
            cell[0] = None
        return None

    def _denial_parts(self) -> tuple[list[Atom], list[Builtin]]:
        """The positive atoms and the tests of the denial's body."""
        body = self.denial.body
        return [lit.atom for lit in body if isinstance(lit, Pos)], [lit for lit in body if isinstance(lit, Builtin)]

    def unit_atoms(self) -> list[int]:
        """The atoms a such that putting a at every positive literal gives
        an instance, whose clause is then the unit "a is false": the
        join of the denial with all its literals merged into one
        (_merge)."""
        atoms, tests = self._denial_parts()
        merged = _merge(atoms, tests, range(len(atoms)))
        if merged is None:
            return []
        plan = _ordered_plan(*merged, [0], self.plan)
        units: list[int] = []
        _enumerate_plan(plan, self.candidates, self.constants, lambda binding, pos_ids: units.append(pos_ids[0]))
        return units

    def propagators(self, value, imply) -> dict[int, list]:
        """The runs that propagate the denial when an atom becomes true.

        Maps each candidate atom to (cell, candidate, start) triples:
        with cell[0] set to the candidate, start({}, ()) runs a join
        whose first literal takes just that atom, whose middle literals
        take only atoms that value makes true, and whose last literal
        takes any atom that value does not make false, and calls
        imply(binding, pos_ids) for every instance it completes, with
        the last literal's atom last in pos_ids.  That atom is either
        true, and the instance is violated, or unassigned, and the
        instance implies it false.  A denial of two atoms has no middle
        literal, so its run gives every instance holding the atom whose
        other atom value does not make false.

        There is a join for each first literal and each set of literals
        that the last one stands for (_seed_plans).  Take an instance
        with every atom but one true.  When the last of its true atoms
        to become true is given to the joins, the others are true
        already, and the one atom left open is not false: the join
        seeded at a literal of that atom, whose last literal stands for
        the literals of the open atom, meets the instance.  An instance
        with every atom true is met then too.  An instance of a single
        atom is a unit, which the search asserts at the root
        (unit_atoms).
        """
        triggers: dict[int, list] = {}
        value_cell = [value]
        for plan, groups in self._seed_plans():
            n_pos = sum(step[0] == "pos" for step in plan.steps)
            cell: list = [None]
            seeds: list = []

            # cell=cell: the seed's selector keeps this plan's cell, not the
            # last one the loop makes
            def make_selector(k, bucket, cut, cell=cell):
                if k == 0:
                    seeds.extend(bucket({}, ()))  # the candidates this literal admits
                    return lambda binding, pos_ids: cell
                return _selector(bucket, cut, value_cell, open_=k == n_pos - 1)

            start = _compile_join(plan, self.candidates, self.constants, imply, groups, make_selector)
            for cand in seeds:
                triggers.setdefault(cand[1], []).append((cell, cand, start))
        return triggers

    def _seed_plans(self) -> list[tuple[_Plan, list[tuple[int, ...]]]]:
        """A plan for each choice of a first (seed) positive literal and a
        set of others that one open atom takes, up to the symmetry of
        the body, with the symmetric groups among the middle literals.

        The open literals merge into one (_merge), which runs last; the
        seed runs first and the middle literals between, in body order.
        Literals of one symmetric group can be swapped without changing
        the rule, and a swap maps an instance onto one with the same
        clause (see _symmetric_groups): so the seed is only ever the
        first literal of its group, and of each group only the first
        literals, after the seed, are open.  Each group's middle
        literals are enumerated in rank order, as ground enumerates
        them.  A swap of con's body and heads is one of the denial's
        body, since negating a test commutes with renaming it."""
        atoms, tests = self._denial_parts()
        members: dict[int, list[int]] = {k: [k] for k in range(len(atoms))}
        for group in self.groups:
            for k in group:
                members.pop(k, None)
            members[group[0]] = list(group)
        plans = []
        for s in members:
            others = [[k for k in ks if k != s] for ks in members.values()]
            for counts in product(*(range(len(ks) + 1) for ks in others)):
                opened = sorted(k for ks, n in zip(others, counts) for k in ks[:n])
                merged = _merge(atoms, tests, opened) if opened else None
                if merged is None:
                    continue
                middle = [k for k in range(len(atoms)) if k != s and k not in opened]
                order = [s] + middle + [opened[0]]
                at = {k: n for n, k in enumerate(order)}
                groups = [tuple(at[k] for k in group if k in middle) for group in self.groups]
                plans.append((_ordered_plan(*merged, order, self.plan), [g for g in groups if len(g) > 1]))
        return plans


def _substitute(t, sigma: dict[str, Term]):
    """A term, or a range, with its variables replaced as sigma maps them."""
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if isinstance(t, ArithExpr):
        return ArithExpr(t.op, tuple(_substitute(a, sigma) for a in t.args), span=t.span)
    if isinstance(t, Range):
        return Range(_substitute(t.lo, sigma), _substitute(t.hi, sigma))
    return t


def _merge(atoms: list[Atom], tests: list[Builtin], block) -> tuple[list[Atom], list[Builtin]] | None:
    """The atoms and tests renamed by the most general unifier of the
    atoms at the positions in block, which then are one atom; None when
    they differ in predicate or clash on a constant, or when a renamed
    test compares a term with itself by \\=, < or >, and cannot hold."""
    parent: dict[str, str] = {}
    value: dict[str, Term] = {}  # class root -> the constant it is bound to

    def find(v: str) -> str:
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    def bind(root: str, c: Term) -> bool:
        return value.setdefault(root, c) == c

    first = atoms[block[0]]
    for k in block[1:]:
        if atoms[k].key != first.key:
            return None
        for s, t in zip(atoms[k].args, first.args):
            if isinstance(s, Var) and isinstance(t, Var):
                a, b = find(s.name), find(t.name)
                if a != b:
                    parent[a] = b
                    if a in value and not bind(b, value.pop(a)):
                        return None
            elif isinstance(s, Var) or isinstance(t, Var):
                var, c = (s, t) if isinstance(s, Var) else (t, s)
                if not bind(find(var.name), c):
                    return None
            elif s != t:
                return None
    sigma = {name: value.get(find(name), Var(find(name))) for name in set(parent) | set(value)}
    renamed_atoms = [Atom(a.pred, tuple(_substitute(t, sigma) for t in a.args)) for a in atoms]
    renamed = [Builtin(t.op, _substitute(t.lhs, sigma), _substitute(t.rhs, sigma), span=t.span) for t in tests]
    if any(t.op in ("\\=", "<", ">") and t.lhs == t.rhs for t in renamed):
        return None
    return renamed_atoms, renamed


def _ordered_plan(atoms: list[Atom], tests: list[Builtin], order: list[int], plan: _Plan) -> _Plan:
    """A plan of the atoms at the positions in order, in that order, with
    each test right after the atom that binds the last of its
    variables; span and label come from plan."""
    body: list[Literal] = [t for t in tests if not literal_variables(t)]
    pending = [t for t in tests if literal_variables(t)]
    bound: set[str] = set()
    for k in order:
        body.append(Pos(atoms[k]))
        bound |= literal_variables(body[-1])
        waiting = []
        for t in pending:
            (body if literal_variables(t) <= bound else waiting).append(t)
        pending = waiting
    return _plan_rule(tuple(body), set(), plan.span, plan.label)


# ---------------------------------------------------------------------------
# ground atom construction


def _compile_args(atom: Atom, constants: dict[str, int], bounds: dict) -> Callable[[dict], tuple[Value, ...]]:
    """A function from the binding to the arguments of atom's ground
    instance, which evaluate as values (see _compile_term), left to
    right; AtomTable.intern_args takes them with the predicate."""
    if atom.args and all(isinstance(a, Var) for a in atom.args):
        get = itemgetter(*(a.name for a in atom.args))
        if len(atom.args) == 1:
            return lambda binding: (get(binding),)
        return get
    getters = [_getter(_compile_term(a, constants, bounds)) for a in atom.args]
    return lambda binding: tuple([g(binding) for g in getters])


def _unknown_bounds(body: tuple[Literal, ...]) -> dict:
    """Bounds that say nothing, for every variable of a rule body."""
    return dict.fromkeys(set().union(*map(literal_variables, body)))


def _ints(t: Term | Range):
    """The integer literals in a term or a range, left to right."""
    if isinstance(t, IntConst):
        yield t.value
    elif isinstance(t, ArithExpr):
        for a in t.args:
            yield from _ints(a)
    elif isinstance(t, Range):
        yield from _ints(t.lo)
        yield from _ints(t.hi)


def _int_hull(program: Program, domains: DomainTable, universe=()) -> tuple[int, int] | None:
    """The least interval holding every integer literal of the program,
    every constant, every domain and every integer of a universe atom;
    None when there is none."""
    ints = list(domains.constants.values())
    ints += [v for vals in domains.domains.values() for v in (vals[0], vals[-1])]
    for lit in walk_literals(program):
        for t in lit.atom.args if isinstance(lit, (Pos, Neg)) else (lit.lhs, lit.rhs):
            ints += _ints(t)
    ints += [v for ga in universe for v in ga.args if isinstance(v, int)]
    return (min(ints), max(ints)) if ints else None


def _within_hull(args: tuple[Value, ...], hull: tuple[int, int] | None) -> bool:
    if hull is None:
        return not any(isinstance(v, int) for v in args)
    lo, hi = hull
    return all(lo <= v <= hi for v in args if isinstance(v, int))


# ---------------------------------------------------------------------------
# definition closure
#
# The closure runs in rounds.  Each round joins every rule over the
# candidate lists as they stood when it began (one _Candidates per
# round): the abducible candidates, which are fixed, and for each defined
# predicate its possible dict, in insertion order.  A round's emits add
# atoms to the possible dicts, so the next round sees them; the closure
# ends after a round that added none.
#
# From the second round on, the join is semi-naive (Bancilhon and
# Ramakrishnan, 1986): a *growing* literal is a positive literal over a
# defined predicate, whose candidates come from the possible dicts, and
# Δ is the atoms that the previous round added.  A rule with no growing
# literal, or whose growing predicates gained no atom, is skipped.  Any
# other rule runs its join as the first round would, except that its
# last growing literal takes only Δ candidates when no earlier growing
# literal took a Δ atom (_delta_join).
#
# Why this emits the same clauses, interns the same atoms and raises the
# same errors, in the same order.  A possible dict only grows at its
# end, so Δ is the tail of every candidate list and of every index
# bucket: the pruned join is the plain join in the same order, minus
# exactly the subtrees whose growing atoms all predate the previous
# round.  Every instance in those subtrees was enumerated in the
# previous round with the same binding, since its growing atoms were
# candidates then, its other literals take the fixed abducible lists,
# and its builtins compute the same values.  So its clause is already in
# seen, it interns no new atom (its head and negative atoms were interned
# then), and any GroundError it could raise was raised then.  Δ is
# therefore marked by position in the lists, as a rank boundary
# (_Candidates.rank), and never by atom id: emit interns a negative
# literal's atom before that atom becomes possible (blocks' frame rule
# interns terminates_on(B,T) first), so an old id can be a new
# candidate.
#
# Whether an earlier growing literal took a Δ atom is read from pos_ids,
# which holds the atom each earlier literal took: it did when that
# atom's rank is at least its key's start.  A literal's candidates come
# in rank order, so once it takes a Δ atom every later one it takes is
# Δ too; what is asked is only whether its current atom is Δ.


def _delta_join(
    plan: _Plan, candidates: _Candidates, constants: dict[str, int], emit, growing, start: dict
) -> Callable:
    """The join of a plan in a semi-naive round, as _compile_join makes
    it.  growing lists (k, key) for each growing literal: its index
    among the positive literals and its predicate key, whose candidates
    ranked start[key] or later are Δ.  The last growing literal takes
    only Δ unless the atom that an earlier one took, in pos_ids, is Δ."""
    *earlier, (last, key) = growing
    earlier = [(k, candidates.rank(k_key), start[k_key]) for k, k_key in earlier]
    delta = start[key]

    def low(pos_ids):
        for k, rank, first in earlier:
            if rank[pos_ids[k]] >= first:
                return 0
        return delta

    cut = _rank_cut(candidates.rank(key), low)

    def make_selector(k, bucket, _group_cut):
        return _selector(bucket, cut if k == last else None)

    return _compile_join(plan, candidates, constants, emit, make_selector=make_selector)


def _close_definitions(
    definitions: list[Clause],
    plans: list[_Plan],
    kinds: dict,
    table: AtomTable,
    abd_candidates: dict,
    constants: dict[str, int],
    hull: tuple[int, int] | None,
):
    """Least closure of the definition layer over possible extensions.

    Returns the ground clauses, each distinct one once, in order of
    first occurrence, and the last round's _Candidates.  That round
    added no atom, so its lists are the final possible sets, and the
    indexes it built stay valid.  The first round runs every rule; each
    later round joins only through the atoms that the round before it
    added (see above), until a round adds no atom.
    """
    possible: dict[tuple[str, int], dict[tuple, int]] = {
        key: {} for key, kind in kinds.items() if kind is PredKind.DEFINED
    }
    clauses: list[GroundClause] = []
    seen: set[tuple] = set()
    intern = table.intern_args

    def emit_clause(cl: Clause, plan: _Plan):
        bounds = _unknown_bounds(cl.body)
        negs = [(n.atom.pred, _compile_args(n.atom, constants, bounds)) for n in plan.negs]
        pred = cl.head.pred
        head = _compile_args(cl.head, constants, bounds)
        ext = possible[cl.head.key]

        def emit(binding, pos_ids):
            neg_ids = tuple([intern(neg_pred, neg(binding)) for neg_pred, neg in negs])
            args = head(binding)
            head_id = intern(pred, args)
            key = (head_id, pos_ids, neg_ids)
            if key in seen:
                return
            seen.add(key)
            clauses.append(GroundClause(head_id, pos_ids, neg_ids))
            if len(table) > _ATOM_CAP:
                msg = f"grounding exceeded {_ATOM_CAP} atoms in {plan.label}"
                raise _error(msg, plan.span)
            if args not in ext and _within_hull(args, hull):
                ext[args] = head_id

        return emit

    emits = [emit_clause(cl, plan) for cl, plan in zip(definitions, plans)]
    # per plan: each growing literal's index among the positive literals, and its key
    growing = [
        [(k, lit.atom.key) for k, lit in enumerate(step[1] for step in plan.steps if step[0] == "pos")
         if lit.atom.key in possible]
        for plan in plans
    ]
    start = None  # each list's length when the previous round began
    while True:
        candidates = _Candidates(abd_candidates, possible)
        sizes = {key: len(ext) for key, ext in possible.items()}
        for plan, emit, grow in zip(plans, emits, growing):
            if start is None:
                _enumerate_plan(plan, candidates, constants, emit)
            elif any(start[key] < sizes[key] for _, key in grow):
                _delta_join(plan, candidates, constants, emit, grow, start)({}, ())
        if all(len(ext) == sizes[key] for key, ext in possible.items()):
            return clauses, candidates
        start = sizes


# ---------------------------------------------------------------------------
# base model and universe


def _abducible_dependent(program: Program, kinds: dict) -> set[tuple[str, int]]:
    """Predicates whose definitions reach an abducible, directly or not."""
    dependent = {k for k, v in kinds.items() if v is PredKind.ABDUCIBLE}
    changed = True
    while changed:
        changed = False
        for cl in program.definitions:
            if cl.head.key in dependent:
                continue
            for lit in cl.body:
                if isinstance(lit, (Pos, Neg)) and lit.atom.key in dependent:
                    dependent.add(cl.head.key)
                    changed = True
                    break
    return dependent


@dataclass
class BaseModel:
    """Well-founded evaluation of the abducible-independent definitions.

    extensions holds the true instances per predicate, keyed by (name,
    arity), and holds no abducible dependent predicate; undefined_preds
    keys the predicates with at least one undefined instance, whose
    extensions cannot be trusted for typing.  Undefinedness here is not
    an error by itself: it resurfaces per candidate as NotTwoValued when
    those atoms matter.
    """

    extensions: dict[tuple[str, int], list[tuple[Value, ...]]]
    undefined_preds: set[tuple[str, int]]


def base_model(program: Program, domains: DomainTable) -> BaseModel:
    """Evaluate the part of a normalized program independent of any hypothesis."""
    kinds = classify_predicates(program)
    dependent = _abducible_dependent(program, kinds)
    fragment = [cl for cl in program.definitions if cl.head.key not in dependent]
    plans = [
        _plan_rule(cl.body, literal_variables(Pos(cl.head)), cl.span, f"clause {cl}") for cl in fragment
    ]
    domains_constants = domains.constants
    table = AtomTable()
    hull = _int_hull(program, domains)
    clauses, _candidates = _close_definitions(
        fragment, plans, kinds, table, {}, domains_constants, hull
    )
    truth, _trace = wfs.well_founded(
        [(c.head, c.pos, c.neg) for c in clauses], (), len(table)
    )
    out: dict[tuple[str, int], list[tuple[Value, ...]]] = {}
    undefined: set[tuple[str, int]] = set()
    for i in range(len(table)):
        atom = table.atom(i)
        if truth[i] == wfs.TRUE:
            out.setdefault((atom.pred, len(atom.args)), []).append(atom.args)
        elif truth[i] == wfs.UNDEF:
            undefined.add((atom.pred, len(atom.args)))
    for pred in out:
        out[pred].sort(key=lambda args: tuple(value_key(v) for v in args))
    return BaseModel(out, undefined)


def _typing_positions(program: Program, pred: str, arity: int) -> dict[int, list[tuple[int, str]]]:
    """The typing constraints ``d(Vi) <- p(V1,...,Vn)`` of pred/arity,
    keyed by argument slot: (origin, d) for each, origin indexing
    program.constraints.  The variables of the body are distinct, so a
    body such as ``p(X,X)`` types nothing.  This is the one reading of
    the typing form: abducible_universe bounds each slot by the base
    extensions of its typing predicates, and ground leaves the rules
    that the universe satisfies unground (_satisfied_typing)."""
    out: dict[int, list[tuple[int, str]]] = {}
    for origin, con in enumerate(program.constraints):
        if len(con.heads) != 1 or len(con.body) != 1:
            continue
        head = con.heads[0]
        body = con.body[0]
        if not isinstance(head, Pos) or not isinstance(body, Pos):
            continue
        if body.atom.pred != pred or body.atom.arity != arity or head.atom.arity != 1:
            continue
        args = body.atom.args
        if not all(isinstance(a, Var) for a in args):
            continue
        names = [a.name for a in args]
        if len(set(names)) != len(names):
            continue
        hv = head.atom.args[0]
        if not isinstance(hv, Var) or hv.name not in names:
            continue
        out.setdefault(names.index(hv.name), []).append((origin, head.atom.pred))
    return out


def abducible_universe(
    program: Program, domains: DomainTable, base: BaseModel
) -> list[GroundAtom]:
    """Candidate ground atoms for every declared abducible, sorted.

    Argument domains come from the declaration when it lists them, and
    otherwise from typing constraints ``d(Vi) <- p(...,Vi,...)``
    (_typing_positions): slot i takes the values v with d(v) true in the
    base model, and several typing constraints on one slot intersect.
    The base model is keyed by name and arity, and holds d/1 only when
    d/1 is abducible independent and two-valued; any other typing
    predicate is an error.  So every typing constraint's head is true in
    the base model at every universe atom of an abducible without a
    declared domain (see _satisfied_typing).  The program is normalized.
    """
    atoms: list[GroundAtom] = []
    for decl in program.decls.abducibles:
        if decl.arity == 0:
            atoms.append(GroundAtom(decl.pred, ()))
            continue
        per_arg: list[list[Value]] = []
        if decl.arg_domains is not None:
            for name in decl.arg_domains:
                if name not in domains.domains:
                    raise _error(f"unknown domain {name} in declaration of {decl.pred}", decl.span)
                per_arg.append(list(domains.domains[name]))
        else:
            typing = _typing_positions(program, decl.pred, decl.arity)
            for i in range(decl.arity):
                preds = typing.get(i)
                if not preds:
                    raise _error(
                        f"cannot bound argument {i + 1} of abducible {decl.pred}/{decl.arity}: "
                        "no declared domain and no typing constraint",
                        decl.span,
                    )
                values: set[Value] | None = None
                for _origin, d in preds:
                    if (d, 1) in base.undefined_preds:
                        raise _error(
                            f"typing predicate {d} for {decl.pred}/{decl.arity} is not "
                            "two-valued in the base definitions",
                            decl.span,
                        )
                    if (d, 1) not in base.extensions:
                        raise _error(
                            f"typing predicate {d} for {decl.pred}/{decl.arity} depends on "
                            "abducibles or is empty",
                            decl.span,
                        )
                    ext = {t[0] for t in base.extensions[d, 1]}
                    values = ext if values is None else values & ext
                per_arg.append(sorted(values, key=value_key))
        tuples = [()]
        for vals in per_arg:
            tuples = [t + (v,) for t in tuples for v in vals]
        atoms.extend(GroundAtom(decl.pred, t) for t in tuples)
    atoms.sort(key=lambda a: a.sort_key)
    return atoms


def _satisfied_typing(
    program: Program,
    domains: DomainTable,
    hull: tuple[int, int] | None,
    table: AtomTable,
    universe: set[int],
    forced: tuple[int, ...],
) -> set[int]:
    """The origins of the typing constraints that every model satisfies,
    which ground leaves unground, given the universe that
    abducible_universe built, the hull ground instantiates over and the
    forced atoms.  No origin when the hull is wider than the one the
    base model was grounded over; otherwise those (_typing_positions) of
    each abducible p without a declared domain none of whose forced
    atoms lies outside the universe.

    Take an instance ``d(ti) <- p(t)`` of such a rule.  The join gives
    p(t) the candidates of p, which are universe atoms here, so d(ti) is
    true in the base model: abducible_universe took slot i from the
    base extension of d/1, which it has only when d/1 is abducible
    independent.  So d(ti) depends on the definitions of the base model
    alone.  ground instantiates them again over the same hull, where
    they give the same model, so d(ti) is true in the well-founded
    model of the definitions plus any delta: the instance holds in
    every model.  A universe atom with an integer past the base model's
    hull widens ground's hull; a definition can then derive more, and
    d(ti) be false.  check_delta accepts only deltas inside universe and
    forced atoms, and the search branches on no other atom, so no reader
    can meet the instance violated.  A forced atom p(s) outside the universe is different: d(si) may be
    false, and the instance then refutes every delta
    (``d(1). d(2). d(X) <- p(X). p(3) <- true.``), so its rules are
    grounded."""
    if hull != _int_hull(program, domains):  # the hull the base model was grounded over
        return set()
    outside = {(table.atom(i).pred, len(table.atom(i).args)) for i in forced if i not in universe}
    out: set[int] = set()
    for decl in program.decls.abducibles:
        if decl.arg_domains is None and decl.arity and (decl.pred, decl.arity) not in outside:
            for typing in _typing_positions(program, decl.pred, decl.arity).values():
                out.update(origin for origin, _d in typing)
    return out


# ---------------------------------------------------------------------------
# forced facts


def collect_forced(program: Program, kinds: dict, constants: dict[str, int]) -> list[GroundAtom]:
    """Ground abducible facts stated unconditionally: ``a <- true.``"""
    forced: list[GroundAtom] = []
    seen: set[GroundAtom] = set()
    for con in program.constraints:
        if con.body or len(con.heads) != 1:
            continue
        head = con.heads[0]
        if not isinstance(head, Pos):
            continue
        if kinds.get(head.atom.key) is not PredKind.ABDUCIBLE:
            continue
        if literal_variables(head):
            raise _error(f"unbounded variable in unconditional constraint {con}", con.span)
        ga = GroundAtom(head.atom.pred, _compile_args(head.atom, constants, {})({}))
        if ga not in seen:
            seen.add(ga)
            forced.append(ga)
    forced.sort(key=lambda a: a.sort_key)
    return forced


# ---------------------------------------------------------------------------
# full grounding


def _sorted_set(items) -> tuple:
    return tuple(sorted(set(items))) if len(items) > 1 else tuple(items)


def _over_cap(plan: _Plan) -> GroundError:
    msg = f"grounding exceeded {_CONSTRAINT_CAP} constraint instances in {plan.label}"
    return _error(msg, plan.span)


def _constraint_clauses(rules: Iterable[ConstraintRule]) -> list[ConstraintClause]:
    """The clauses of the instances of the rules that are neither lazy
    nor satisfied by the universe, each distinct one once, in order of
    first occurrence, with the origin of the first rule giving it and
    the denial flag ORed over every instance giving it; tautologies are
    dropped.  One count of the instances the joins enumerate runs over
    those rules, against _CONSTRAINT_CAP; the rules left out are not
    enumerated, so they count only where a reader expands them."""
    kept: dict[tuple[int, ...], ConstraintClause] = {}
    count = [0]
    for rule in rules:
        if rule.lazy or rule.satisfied:
            continue

        def found(clause, heads, pos_ids, neg_ids, origin=rule.origin):
            if clause is None:
                return
            old = kept.get(clause)
            if old is None:
                kept[clause] = ConstraintClause(clause, origin, not heads)
            elif not heads and not old.denial:
                kept[clause] = old._replace(denial=True)

        rule.each_instance(found, count)
    return list(kept.values())


def ground(program: Program, domains: DomainTable, universe: list[GroundAtom]) -> GroundTheory:
    """Instantiate a normalized program over its abducible universe.

    Each source constraint becomes a ConstraintRule.  The join of each
    one that is neither lazy (_as_denial, _is_lazy) nor a typing
    constraint that the universe satisfies (_satisfied_typing) runs
    once, and the theory keeps the distinct clauses of its instances
    (_constraint_clauses).  A constraint body with interchangeable literals is enumerated once
    per permutation orbit, with the literals' candidates in rank order
    (see _symmetric_groups); the first instance of each clause is among
    those.
    """
    kinds = classify_predicates(program)
    constants = domains.constants
    table = AtomTable()
    universe_ids = tuple(table.intern(a) for a in universe)
    forced_atoms = collect_forced(program, kinds, constants)
    forced_ids = tuple(table.intern(a) for a in forced_atoms)

    abd_candidates: dict[tuple[str, int], list[tuple[tuple[Value, ...], int]]] = {
        (decl.pred, decl.arity): [] for decl in program.decls.abducibles
    }
    universe_set = set(universe_ids)
    for i in universe_ids + tuple(i for i in forced_ids if i not in universe_set):
        atom = table.atom(i)
        abd_candidates[atom.pred, len(atom.args)].append((atom.args, i))

    hull = _int_hull(program, domains, universe)
    satisfied = _satisfied_typing(program, domains, hull, table, universe_set, forced_ids)

    definitions = list(program.definitions)
    plans = [
        _plan_rule(cl.body, literal_variables(Pos(cl.head)), cl.span, f"clause {cl}") for cl in definitions
    ]
    clauses, candidates = _close_definitions(
        definitions, plans, kinds, table, abd_candidates, constants, hull
    )
    rules: list[ConstraintRule] = []

    def planned():
        """Each source constraint's rule, planned once the join of the
        rule before it has run, so that errors come in source order."""
        for origin, con in enumerate(program.constraints):
            head_vars = set().union(*map(literal_variables, con.heads))
            plan = _plan_rule(con.body, head_vars, con.span, f"constraint {con}")
            groups = _symmetric_groups(con, plan)
            denial = _as_denial(con)
            if denial is not None and not _is_lazy(denial, candidates, constants):
                denial = None
            rules.append(
                ConstraintRule(origin, con, plan, groups, candidates, constants, table, denial, origin in satisfied)
            )
            yield rules[-1]

    constraints = _constraint_clauses(planned())
    return GroundTheory(table, clauses, constraints, universe_ids, forced_ids, tuple(rules))


# ---------------------------------------------------------------------------
# pipeline


def build_theory(program: Program) -> GroundTheory:
    """Normalize, type, and ground a program in one step."""
    program = normalize(program)
    classify_predicates(program)  # surfaces classification errors early
    domains = eval_declarations(program.decls)
    base = base_model(program, domains)
    universe = abducible_universe(program, domains, base)
    return ground(program, domains, universe)


def apply_const_overrides(program: Program, overrides: dict[str, int]) -> Program:
    """Rewrite a program as if constants had been declared differently.

    For each NAME=VALUE pair: an existing constant declaration is
    replaced; otherwise unary integer facts ``NAME(k).`` are rewritten to
    ``NAME(VALUE).``; otherwise the constant is added.  This lets one
    source file drive differently sized instances.  A VALUE outside the
    64-bit range that integer literals keep to is a GroundError.
    """
    if not overrides:
        return program
    constants = list(program.decls.constants)
    definitions = list(program.definitions)
    for name, value in overrides.items():
        if not INT_MIN <= value <= INT_MAX:
            raise GroundError(f"override {name}={value} is outside the range {INT_MIN}..{INT_MAX}")
        replaced = False
        for i, c in enumerate(constants):
            if c.name == name:
                constants[i] = ConstantDecl(name, IntConst(value), span=c.span)
                replaced = True
                break
        if replaced:
            continue
        for i, cl in enumerate(definitions):
            if (
                cl.head.pred == name
                and cl.head.arity == 1
                and not cl.body
                and isinstance(cl.head.args[0], IntConst)
            ):
                definitions[i] = Clause(
                    Atom(name, (IntConst(value),), span=cl.head.span), (), span=cl.span
                )
                replaced = True
        if not replaced:
            constants.append(ConstantDecl(name, IntConst(value)))
    return Program(
        Declarations(program.decls.abducibles, tuple(constants), program.decls.domains),
        tuple(definitions),
        program.constraints,
    )

