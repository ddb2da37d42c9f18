"""The compiled join of ground.py against a plain nested-loop join.

Both enumerate the bindings of seeded random rule bodies over random
candidate lists and must agree on every (binding, pos_ids) pair and its
position in the sequence, and on whether the enumeration ends in a
GroundError (an ordering test or arithmetic on a symbol), with the same
message and diagnostic spans.  Every term and builtin carries a span of
its own, so an error reported at the wrong one shows.

The same comparison covers the joins that take only some candidates by
rank, a candidate's position in its list: with symmetric groups, and
with a semi-naive round's Δ (_delta_join).
"""

import importlib
import itertools
import random
from collections import Counter

import pytest

from alp.ground import _Candidates, _delta_join, _enumerate_plan, _plan_rule
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


def naive_join(plan, lists, constants, groups=(), delta=None):
    """Reference: every candidate of every literal in turn, filtered.

    With groups, a literal of a group after its first skips the
    candidates ranked below the atom that the group's previous literal
    took, so the instances are those whose group ranks do not decrease.
    With delta, a pair (growing, start) as _delta_join takes them, the
    last growing literal skips the candidates ranked below its key's
    start unless an earlier one took an atom ranked at least its own
    key's start, so the instances are those with a Δ atom."""
    steps = plan.steps
    rank = {atom_id: n for entries in lists.values() for n, (_, atom_id) in enumerate(entries)}
    previous = {k: group[n - 1] for group in groups for n, k in enumerate(group) if n}
    growing, start = delta or ((), {})

    def floor(k, pos_ids):
        """The lowest rank the k-th positive literal takes."""
        if k in previous:
            return rank[pos_ids[previous[k]]]
        if growing and k == growing[-1][0]:
            if not any(rank[pos_ids[j]] >= start[key] for j, key in growing[:-1]):
                return start[growing[-1][1]]
        return 0

    def rec(i, binding, pos_ids):
        if i == len(steps):
            yield binding, pos_ids
            return
        lit = steps[i][1]
        if steps[i][0] == "pos":
            low = floor(len(pos_ids), pos_ids)
            for values, atom_id in lists.get(lit.atom.key, ()):
                if rank[atom_id] < low:
                    continue
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


def random_lists(rng, values=VALUES, int_keys=0.0):
    """Candidate lists: some empty, some missing, ids in list order; a
    share int_keys of the keys hold integers only, whatever values is."""
    lists = {}
    next_id = 0
    for key in PREDS:
        if rng.random() < 0.15:
            continue
        pool = VALUES[:3] if int_keys and rng.random() < int_keys else values
        seen = set()
        entries = []
        for _ in range(rng.choice((0, 3, 8, 20))):
            args = tuple(rng.choice(pool) for _ in range(key[1]))
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


def arith(op, *args):
    return ArithExpr(op, args, span=span())


def solved_body(rng):
    """A body whose test fixes Y, which the second of two positive
    literals binds first, once the first literal's X and W are bound:
    ``Y = X + k``, ``k - Y = X``, ``abs(X - Y) = W``, or
    ``abs(Y - X) = abs(Z - W)`` with Z fresh in the second literal too,
    each with its sides either way round.  Ordering tests between the two
    literals' variables may come before it, and a random test after."""
    first = [var("X"), var("W")] + [random_term(rng, ("A",)) for _ in range(rng.randint(0, 1))]
    second = [var("Y"), var("Z")] + [rng.choice((var("B"), var("X"), random_term(rng, ("B",))))
                                     for _ in range(rng.randint(0, 1))]
    rng.shuffle(first)
    rng.shuffle(second)
    # two literals of arity 2 take different predicates, so different lists
    preds = {2: rng.sample(("q", "e"), 2), 3: ["r", "r"]}
    body = [Pos(Atom(preds[len(args)].pop(), tuple(args))) for args in (first, second)]
    if rng.random() < 0.3:
        lhs, rhs = var(rng.choice(("X", "W"))), var(rng.choice(("Y", "Z")))
        body.append(builtin(rng.choice(ORDERINGS), *((lhs, rhs) if rng.random() < 0.5 else (rhs, lhs))))
    k = IntConst(rng.randint(0, 2), span=span())
    if rng.random() < 0.4:
        lhs, rhs = arith("abs", arith("-", var("Y"), var("X"))), arith("abs", arith("-", var("Z"), var("W")))
    else:
        lhs, rhs = rng.choice((
            lambda: (var("Y"), arith("+", var("X"), k)),
            lambda: (arith("-", k, var("Y")), var("X")),
            lambda: (arith("abs", arith("-", var("X"), var("Y"))), var("W")),
        ))()
    n = next(_COLUMNS)
    body.append(Builtin("=", *((lhs, rhs) if rng.random() < 0.5 else (rhs, lhs)), span=SourceSpan("solved", 1, n, n)))
    if rng.random() < 0.3:
        body.append(random_builtin(rng))
    return tuple(body)


def count_solving(monkeypatch):
    """Record how the compiled joins meet the tests of solved_body.
    Returns solved_body, noting the tests it makes, and a function that
    gives the counts: tests solved with values that read only variables
    bound before the literal ("one-level") or other fresh ones too
    ("two-level"), runs of an abs test's values that gave one value
    ("coinciding"), and tests never solved ("refused")."""
    ground_mod = importlib.import_module("alp.ground")
    solve = ground_mod._solve
    met = Counter()
    made, solved = set(), set()

    def making(rng):
        body = solved_body(rng)
        made.update(lit.span for lit in body if isinstance(lit, Builtin) and lit.span.file == "solved")
        return body

    def recording(lit, known, opens, constants, bounds):
        found = solve(lit, known, opens, constants, bounds)
        if found is None or lit.span.file != "solved":
            return found
        solved.add(lit.span)
        met["two-level" if found.opens else "one-level"] += 1
        values = found.values

        def counted(binding):
            out = values(binding)
            met["coinciding"] += len(out) == 1 and "abs" in str(lit)
            return out

        return found._replace(values=counted)

    def counts():
        met["refused"] = len(made - solved)
        return met

    monkeypatch.setattr(ground_mod, "_solve", recording)
    return making, counts


def repeated_body(rng):
    """A body of two to four positive literals over one or two
    predicates, so that literals share a predicate, with a few tests."""
    preds = rng.sample(PREDS, rng.randint(1, 2))
    body = []
    for _ in range(rng.randint(2, 4)):
        pred, arity = rng.choice(preds)
        body.append(Pos(Atom(pred, tuple(random_term(rng) for _ in range(arity)))))
    for _ in range(rng.randint(0, 2)):
        body.insert(rng.randint(0, len(body)), random_builtin(rng))
    return tuple(body)


def positive_keys(plan):
    return [step[1].atom.key for step in plan.steps if step[0] == "pos"]


def random_groups(rng, plan, lists):
    """Disjoint groups of two or more positive literals of one predicate,
    each in pos_ids order, as _symmetric_groups gives them, and no Δ."""
    keys = positive_keys(plan)
    groups = []
    for key in dict.fromkeys(keys):
        ks = [k for k, other in enumerate(keys) if other == key]
        rng.shuffle(ks)
        while len(ks) >= 2 and rng.random() < 0.8:
            size = rng.randint(2, len(ks))
            groups.append(tuple(sorted(ks[:size])))
            ks = ks[size:]
    return groups, None


def random_delta(rng, plan, lists):
    """No groups, and a semi-naive round's Δ as (growing, start):
    growing lists (k, key) for the positive literals over some of the
    body's predicates, and start maps each of those keys to where its Δ
    begins in its list."""
    keys = positive_keys(plan)
    chosen = {key for key in keys if rng.random() < 0.7} or {rng.choice(keys)}
    start = {key: rng.randint(0, len(lists.get(key, ()))) for key in chosen}
    return (), ([(k, key) for k, key in enumerate(keys) if key in chosen], start)


def compare_joins(rng, make_body, int_columns=0.0, prune=None, int_keys=0.0):
    """Compare the two joins on 150 safe bodies from make_body; a share
    int_columns of them get candidate lists of integers only, and of the
    others' lists a share int_keys (see random_lists).  prune,
    when given, is random_groups or random_delta, which give the groups
    and the Δ the two joins take; with a Δ, the compiled join is
    _delta_join."""
    checked = 0
    while checked < 150:
        body = make_body(rng)
        try:
            plan = _plan_rule(body, set(), None, "body")
        except GroundError:
            continue  # unsafe body: no plan to compare
        lists = random_lists(rng, VALUES[:3] if rng.random() < int_columns else VALUES, int_keys)
        groups, delta = prune(rng, plan, lists) if prune else ((), None)

        def enumerate_compiled(out):
            def emit(binding, pos_ids):
                out.append((dict(binding), pos_ids))

            if delta is None:
                _enumerate_plan(plan, _Candidates(lists, {}), {}, emit, groups)
            else:
                _delta_join(plan, _Candidates(lists, {}), {}, emit, *delta)({}, ())

        compiled = run(enumerate_compiled)
        reference = run(lambda out: out.extend(naive_join(plan, lists, {}, groups, delta)))
        assert compiled == reference, ([str(lit) for lit in body], groups, delta)
        checked += 1


@pytest.mark.parametrize("seed", range(4))
def test_compiled_join_matches_nested_loops(seed):
    compare_joins(random.Random(7300 + seed), random_body)


@pytest.mark.parametrize("seed", range(4))
def test_compiled_join_matches_nested_loops_where_equality_links_literals(seed):
    # The ordering tests before X = Y can raise on mixed columns, so the
    # probe may be narrowed only where the columns they read are integers.
    compare_joins(random.Random(7400 + seed), linked_body, int_columns=0.35)


@pytest.mark.parametrize("seed", range(4))
def test_compiled_join_matches_nested_loops_over_symmetric_groups(seed):
    compare_joins(random.Random(7500 + seed), repeated_body, prune=random_groups)


@pytest.mark.parametrize("seed", range(4))
def test_delta_join_matches_nested_loops_with_a_delta_atom(seed):
    compare_joins(random.Random(7600 + seed), repeated_body, prune=random_delta)


# solved_body on integer columns only; on a share of symbol columns,
# some next to integer ones in the same body, where narrowing must
# refuse and the join raise the same GroundError at the same span; and with symmetric groups and with a Δ, which cut the
# narrowed bucket by rank.
SOLVING = [
    (7700, {}),
    (7800, {"int_columns": 0.35, "int_keys": 0.5}),
    (7900, {"int_columns": 0.8, "prune": random_groups}),
    (8000, {"int_columns": 0.8, "prune": random_delta}),
]


@pytest.mark.parametrize("seed, options", SOLVING, ids=["plain", "symbols", "groups", "delta"])
def test_compiled_join_matches_nested_loops_where_a_test_fixes_a_fresh_variable(monkeypatch, seed, options):
    make_body, counts = count_solving(monkeypatch)
    compare_joins(random.Random(seed), make_body, **{"int_columns": 1.0} | options)
    met = counts()
    assert all(met[case] >= 10 for case in ("one-level", "two-level", "coinciding", "refused")), met
