"""Each compiled builtin of ground.py against eval_builtin.

Seeded random literals cover every operator, ``in`` and ``=`` in both
test and generator mode, nested abs, +, - and *, named constants, bare
symbols and values near the integer limits.  Each is compiled against
bounds that hold for a random binding, as the join would compile it
there, and run on that binding.  The compiled form must give what
eval_builtin gives, or raise a GroundError with the same message and the
same diagnostics.  A form the compiler marks safe must not raise, and a
generated value must lie within the bounds claimed for it.
"""

import itertools
import random

import pytest

from alp.ground import (
    _builtin_placeable,
    _compile_generator,
    _compile_test,
    _getter,
)
from alp.syntax import INT_MAX, INT_MIN, ArithExpr, Builtin, GroundError, IntConst, Range, SourceSpan, SymConst, Var
from reference_builtins import eval_builtin

OPS = ("=", "\\=", "<", ">", "=<", ">=", "in")
VARS = ("X", "Y", "Z")
CONSTANTS = {"n": 4, "big": 2**62}
SYMBOLS = ("a", "b", "n", "big")
INTS = (0, 1, 2, -3, 7, 2**62, INT_MAX, INT_MIN)
_COLUMNS = itertools.count(1)


def span():
    n = next(_COLUMNS)
    return SourceSpan("lit", 1, n, n)


def random_term(rng, depth=2):
    r = rng.random()
    if depth and r < 0.35:
        op = rng.choice(("abs", "+", "-", "*"))
        args = tuple(random_term(rng, depth - 1) for _ in range(1 if op == "abs" else 2))
        return ArithExpr(op, args, span=span())
    if r < 0.7:
        return Var(rng.choice(VARS), span=span())
    if r < 0.85:
        return IntConst(rng.choice(INTS), span=span())
    return SymConst(rng.choice(SYMBOLS), span=span())


def random_literal(rng):
    op = rng.choice(OPS)
    lhs = Var(rng.choice(VARS), span=span()) if rng.random() < 0.5 else random_term(rng)
    rhs = Range(random_term(rng, 1), random_term(rng, 1)) if op == "in" else random_term(rng)
    return Builtin(op, lhs, rhs, span=span())


def random_binding(rng):
    values = INTS[:5] * 3 + INTS + ("a", "b", "n")
    return {name: rng.choice(values) for name in VARS if rng.random() < 0.8}


def sound_bounds(rng, v):
    """Bounds the compiler may be given for a variable holding v."""
    if not isinstance(v, int) or rng.random() < 0.3:
        return None
    return rng.choice(((v, v), (v - rng.randint(0, 5), v + rng.randint(0, 5)), (-float("inf"), float("inf"))))


def outcome(evaluate):
    try:
        return evaluate(), None
    except GroundError as exc:
        return None, (exc.args[0], [(d.span, d.message) for d in exc.diagnostics])


@pytest.mark.parametrize("seed", range(6))
def test_compiled_builtins_match_eval_builtin(seed):
    rng = random.Random(9100 + seed)
    modes = {"test": 0, "generator": 0, "error": 0}
    checked = 0
    while checked < 800:
        lit = random_literal(rng)
        binding = random_binding(rng)
        if isinstance(lit.lhs, Var) and lit.op in ("=", "in") and rng.random() < 0.5:
            binding.pop(lit.lhs.name, None)  # generator mode, if the rest is bound
        placeable, binds = _builtin_placeable(lit, set(binding))
        if not placeable:
            continue  # the join never meets it with this binding
        bounds = {name: sound_bounds(rng, v) for name, v in binding.items()}
        reference = outcome(lambda: eval_builtin(lit, binding, CONSTANTS))
        if binds is None:
            compiled = _compile_test(lit, CONSTANTS, bounds)
            got = outcome(lambda: _getter(compiled)(binding))
            assert got[0] is None or type(got[0]) is bool
            safe = compiled.safe
        else:
            values, value_bounds = _compile_generator(lit, CONSTANTS, bounds)
            got = outcome(lambda: [dict(binding, **{binds: v}) for v in values(binding)])
            for extended in got[0] or ():
                v = extended[binds]
                assert value_bounds is None or (isinstance(v, int) and value_bounds[0] <= v <= value_bounds[1])
            safe = False
        assert got == reference, (str(lit), binding, bounds)
        assert not (safe and got[1]), (str(lit), binding, bounds)
        modes["generator" if binds else "test"] += 1
        modes["error"] += got[1] is not None
        checked += 1
    assert min(modes.values()) >= 50, modes
