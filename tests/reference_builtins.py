"""The reference evaluator of builtin literals, which the tests hold the
grounder's compiled builtins against.

eval_builtin reads a builtin's terms under a binding each time it is
called, as the language defines them; the grounder compiles each builtin
once per rule instead (alp.ground._compile_test and _compile_generator)
and must give what eval_builtin gives, or raise the GroundError it
raises, with the same message and diagnostic span.
"""

from __future__ import annotations

from alp.ground import _DOMAIN_CAP, Value, _error
from alp.syntax import INT_MAX, INT_MIN, Builtin, IntConst, Range, SymConst, Term, Var


class _Unbound(Exception):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def _eval_value(t: Term, binding: dict[str, Value], constants: dict[str, int]) -> Value:
    """Evaluate a term to a domain value.

    A bare symbol denotes itself; inside arithmetic, a symbol must name a
    declared constant.
    """
    if isinstance(t, Var):
        if t.name not in binding:
            raise _Unbound(t.name)
        return binding[t.name]
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, SymConst):
        return t.name
    return _eval_int(t, binding, constants)


def _eval_int(t: Term, binding: dict[str, Value], constants: dict[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in binding:
            raise _Unbound(t.name)
        v = binding[t.name]
        if not isinstance(v, int):
            raise _error(f"type error: symbol {v} used in arithmetic", t.span)
        return v
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, SymConst):
        if t.name in constants:
            return constants[t.name]
        raise _error(f"type error: symbol {t.name} used in arithmetic", t.span)
    vals = [_eval_int(a, binding, constants) for a in t.args]
    if t.op == "abs":
        out = abs(vals[0])
    elif t.op == "+":
        out = vals[0] + vals[1]
    elif t.op == "-":
        out = vals[0] - vals[1]
    else:
        out = vals[0] * vals[1]
    if not INT_MIN <= out <= INT_MAX:
        raise _error("integer overflow in arithmetic", t.span)
    return out


def eval_builtin(
    lit: Builtin, binding: dict[str, Value], constants: dict[str, int] | None = None
) -> bool | list[dict[str, Value]]:
    """Evaluate a builtin literal under a variable binding.

    Test mode returns True or False.  Generator mode returns the list of
    extended bindings: ``X in L..H`` with X unbound yields one binding
    per integer in the interval, and ``X = expr`` with X unbound and expr
    ground yields a single binding.  An unbound variable anywhere else is
    an insufficiently-instantiated error, as is an ordering comparison on
    symbols.
    """
    constants = constants or {}
    op = lit.op
    try:
        if op == "in":
            rng = lit.rhs
            assert isinstance(rng, Range)
            if isinstance(lit.lhs, Var) and lit.lhs.name not in binding:
                lo = _eval_int(rng.lo, binding, constants)
                hi = _eval_int(rng.hi, binding, constants)
                if hi - lo + 1 > _DOMAIN_CAP:
                    raise _error(f"interval {lo}..{hi} exceeds {_DOMAIN_CAP} values", lit.span)
                name = lit.lhs.name
                return [dict(binding, **{name: v}) for v in range(lo, hi + 1)]
            v = _eval_value(lit.lhs, binding, constants)
            lo = _eval_int(rng.lo, binding, constants)
            hi = _eval_int(rng.hi, binding, constants)
            return isinstance(v, int) and lo <= v <= hi
        assert not isinstance(lit.rhs, Range)
        if op == "=":
            if isinstance(lit.lhs, Var) and lit.lhs.name not in binding:
                rv = _eval_value(lit.rhs, binding, constants)
                return [dict(binding, **{lit.lhs.name: rv})]
            return _eval_value(lit.lhs, binding, constants) == _eval_value(
                lit.rhs, binding, constants
            )
        if op == "\\=":
            return _eval_value(lit.lhs, binding, constants) != _eval_value(
                lit.rhs, binding, constants
            )
        lv = _eval_value(lit.lhs, binding, constants)
        rv = _eval_value(lit.rhs, binding, constants)
        if not isinstance(lv, int) or not isinstance(rv, int):
            raise _error(f"type error: ordering comparison {op} on symbols", lit.span)
        if op == "<":
            return lv < rv
        if op == ">":
            return lv > rv
        if op == "=<":
            return lv <= rv
        return lv >= rv
    except _Unbound as ub:
        raise _error(
            f"insufficiently instantiated builtin {lit}: variable {ub.name} is unbound", lit.span
        ) from None
