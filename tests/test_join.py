"""The compiled join of ground.py against a plain nested-loop join.

Both enumerate the bindings of seeded random rule bodies over random
candidate lists and must agree on every (binding, pos_ids) pair and its
position in the sequence, and on whether the enumeration ends in a
GroundError (an ordering test or arithmetic on a symbol), with the same
message and diagnostic spans.  Every term and builtin carries a span of
its own, so an error reported at the wrong one shows.
"""

import itertools
import random

import pytest

from alp.ground import _Candidates, _enumerate_plan, _plan_rule
from alp.syntax import (
    ArithExpr,
    Atom,
    Builtin,
    GroundError,
    IntConst,
    Pos,
    Range,
    SourceSpan,
    SymConst,
    Var,
)
from reference_builtins import eval_builtin

VALUES = (1, 2, 3, "a", "b")
ORDERINGS = ("<", ">", "=<", ">=")
_COLUMNS = itertools.count(1)


def span():
    n = next(_COLUMNS)
    return SourceSpan("body", 1, n, n)


def var(name):
    return Var(name, span=span())


def builtin(op, lhs, rhs):
    return Builtin(op, lhs, rhs, span=span())
VARS = ("X", "Y", "Z", "W")
PREDS = (("p", 1), ("q", 2), ("r", 3), ("e", 2))


def match(pattern, values, binding):
    """Extend binding so that the argument pattern matches the values."""
    out = dict(binding)
    for pat, val in zip(pattern, values):
        if isinstance(pat, Var):
            if out.setdefault(pat.name, val) != val:
                return None
        elif val != (pat.value if isinstance(pat, IntConst) else pat.name):
            return None
    return out


def naive_join(plan, lists, constants):
    """Reference: every candidate of every literal in turn, filtered."""
    steps = plan.steps

    def rec(i, binding, pos_ids):
        if i == len(steps):
            yield binding, pos_ids
            return
        lit = steps[i][1]
        if steps[i][0] == "pos":
            for values, atom_id in lists.get(lit.atom.key, ()):
                extended = match(lit.atom.args, values, binding)
                if extended is not None:
                    yield from rec(i + 1, extended, pos_ids + (atom_id,))
            return
        res = eval_builtin(lit, binding, constants)
        if res is True:
            yield from rec(i + 1, binding, pos_ids)
        elif res is not False:
            for extended in res:
                yield from rec(i + 1, extended, pos_ids)

    yield from rec(0, {}, ())


def run(enumerate_all):
    """The pairs produced before the end, and the error that ended it:
    its message and its diagnostics' spans and messages."""
    out = []
    try:
        enumerate_all(out)
    except GroundError as exc:
        return out, (exc.args[0], [(d.span, d.message) for d in exc.diagnostics])
    return out, None


def random_term(rng, names=VARS):
    if rng.random() < 0.75:
        return var(rng.choice(names))
    v = rng.choice(VALUES)
    return IntConst(v, span=span()) if isinstance(v, int) else SymConst(v, span=span())


def random_builtin(rng):
    x, y = var(rng.choice(VARS)), var(rng.choice(VARS))
    kind = rng.randrange(6)
    if kind == 0:
        return builtin("\\=", x, y)
    if kind == 1:
        return builtin("=", x, y if rng.random() < 0.5 else random_term(rng))
    if kind == 2:
        return builtin("<", x, y if rng.random() < 0.5 else IntConst(rng.randint(1, 3)))
    if kind == 3:
        return builtin("in", x, Range(IntConst(rng.randint(0, 2)), IntConst(rng.randint(1, 4))))
    if kind == 4:
        return builtin("=", x, ArithExpr("+", (y, IntConst(1)), span=span()))
    return builtin("\\=", x, random_term(rng))


def random_lists(rng, values=VALUES):
    """Candidate lists: some empty, some missing, ids in list order."""
    lists = {}
    next_id = 0
    for key in PREDS:
        if rng.random() < 0.15:
            continue
        seen = set()
        entries = []
        for _ in range(rng.choice((0, 3, 8, 20))):
            args = tuple(rng.choice(values) for _ in range(key[1]))
            if args not in seen:
                seen.add(args)
                entries.append((args, next_id))
                next_id += 1
        lists[key] = entries
    return lists


def random_body(rng):
    body = []
    for _ in range(rng.randint(1, 4)):
        pred, arity = rng.choice(PREDS)
        body.append(Pos(Atom(pred, tuple(random_term(rng) for _ in range(arity)))))
    for _ in range(rng.randint(0, 3)):
        body.insert(rng.randint(0, len(body)), random_builtin(rng))
    return tuple(body)


def linked_body(rng):
    """A body where ``X = Y`` links X, bound by a first literal, to Y,
    which the next positive literal binds first, with ordering tests
    between the two literals' variables placed before ``X = Y``: the
    compiled join may probe the second literal on Y with X's value."""
    first = [var("X")] + [random_term(rng, ("A", "Z")) for _ in range(rng.randint(1, 2))]
    second = [var("Y")] + [rng.choice((var("B"), var("X"), random_term(rng, ("B",)))) for _ in range(rng.randint(1, 2))]
    rng.shuffle(first)
    rng.shuffle(second)
    preds = {2: ("q", "e"), 3: ("r",)}
    body = [Pos(Atom(rng.choice(preds[len(args)]), tuple(args))) for args in (first, second)]
    bound_first = sorted({a.name for a in first if isinstance(a, Var)})
    bound_next = sorted({a.name for a in second if isinstance(a, Var)} - set(bound_first))
    for _ in range(rng.randint(1, 2)):
        lhs, rhs = var(rng.choice(bound_first)), var(rng.choice(bound_next))
        if rng.random() < 0.3:
            rhs = ArithExpr("+", (rhs, IntConst(1)), span=span())
        body.append(builtin(rng.choice(ORDERINGS), *((lhs, rhs) if rng.random() < 0.5 else (rhs, lhs))))
    body.append(builtin("=", var("X"), var("Y")))
    if rng.random() < 0.5:
        body.append(random_builtin(rng))
    return tuple(body)


def compare_joins(rng, make_body, int_columns=0.0):
    """Compare the two joins on 150 safe bodies from make_body; a share
    int_columns of them get candidate lists of integers only."""
    checked = 0
    while checked < 150:
        body = make_body(rng)
        try:
            plan = _plan_rule(body, set(), None, "body")
        except GroundError:
            continue  # unsafe body: no plan to compare
        lists = random_lists(rng, VALUES[:3] if rng.random() < int_columns else VALUES)
        compiled = run(
            lambda out: _enumerate_plan(
                plan, _Candidates(lists, {}), {}, lambda b, ids: out.append((dict(b), ids))
            )
        )
        reference = run(lambda out: out.extend(naive_join(plan, lists, {})))
        assert compiled == reference, [str(lit) for lit in body]
        checked += 1


@pytest.mark.parametrize("seed", range(4))
def test_compiled_join_matches_nested_loops(seed):
    compare_joins(random.Random(7300 + seed), random_body)


@pytest.mark.parametrize("seed", range(4))
def test_compiled_join_matches_nested_loops_where_equality_links_literals(seed):
    # The ordering tests before X = Y can raise on mixed columns, so the
    # probe may be narrowed only where the columns they read are integers.
    compare_joins(random.Random(7400 + seed), linked_body, int_columns=0.35)
