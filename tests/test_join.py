"""The compiled join of ground.py against a plain nested-loop join.

Both enumerate the bindings of seeded random rule bodies over random
candidate lists and must agree on every (binding, pos_ids) pair and its
position in the sequence, and on whether the enumeration ends in a
GroundError (an ordering test or arithmetic on a symbol).
"""

import random

import pytest

from alp.ground import _Candidates, _enumerate_plan, _plan_rule, eval_builtin
from alp.syntax import ArithExpr, Atom, Builtin, GroundError, IntConst, Pos, Range, SymConst, Var

VALUES = (1, 2, 3, "a", "b")
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
    """The pairs produced before the end, and the error that ended it."""
    out = []
    try:
        enumerate_all(out)
    except GroundError as exc:
        return out, type(exc)
    return out, None


def random_term(rng):
    if rng.random() < 0.75:
        return Var(rng.choice(VARS))
    v = rng.choice(VALUES)
    return IntConst(v) if isinstance(v, int) else SymConst(v)


def random_builtin(rng):
    x, y = Var(rng.choice(VARS)), Var(rng.choice(VARS))
    kind = rng.randrange(6)
    if kind == 0:
        return Builtin("\\=", x, y)
    if kind == 1:
        return Builtin("=", x, y if rng.random() < 0.5 else random_term(rng))
    if kind == 2:
        return Builtin("<", x, y if rng.random() < 0.5 else IntConst(rng.randint(1, 3)))
    if kind == 3:
        return Builtin("in", x, Range(IntConst(rng.randint(0, 2)), IntConst(rng.randint(1, 4))))
    if kind == 4:
        return Builtin("=", x, ArithExpr("+", (y, IntConst(1))))
    return Builtin("\\=", x, random_term(rng))


def random_lists(rng):
    """Candidate lists: some empty, some missing, ids in list order."""
    lists = {}
    next_id = 0
    for key in PREDS:
        if rng.random() < 0.15:
            continue
        seen = set()
        entries = []
        for _ in range(rng.choice((0, 3, 8, 20))):
            args = tuple(rng.choice(VALUES) for _ in range(key[1]))
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


@pytest.mark.parametrize("seed", range(4))
def test_compiled_join_matches_nested_loops(seed):
    rng = random.Random(7300 + seed)
    checked = 0
    while checked < 150:
        body = random_body(rng)
        try:
            plan = _plan_rule(body, set(), None, "body")
        except GroundError:
            continue  # unsafe body: no plan to compare
        lists = random_lists(rng)
        compiled = run(
            lambda out: _enumerate_plan(
                plan, _Candidates(lists, {}), {}, lambda b, ids: out.append((dict(b), ids))
            )
        )
        reference = run(lambda out: out.extend(naive_join(plan, lists, {})))
        assert compiled == reference, [str(lit) for lit in body]
        checked += 1

