"""The reference closure of the definition layer, which the tests hold
the grounder's semi-naive closure against.

close_definitions runs naive rounds over the grounder's own plans: every
round joins every rule over every candidate, with the plain join
(alp.ground._enumerate_plan), and lets the seen set drop the repeats.
It interns through GroundAtom records.  alp.ground._close_definitions
takes the same arguments and must give the same clauses, in the same
order, intern the same atoms in the same order, and raise the same
GroundError.
"""

from __future__ import annotations

import importlib

from alp.ground import (
    AtomTable,
    GroundAtom,
    GroundClause,
    _Candidates,
    _compile_args,
    _enumerate_plan,
    _error,
    _unknown_bounds,
    _within_hull,
)
from alp.syntax import PredKind

GROUND = importlib.import_module("alp.ground")


def close_definitions(
    definitions, plans, kinds, table: AtomTable, abd_candidates, constants, hull, rounds=None
):
    """Least closure of the definition layer, by naive rounds.

    Returns the ground clauses and the last round's _Candidates, as
    alp.ground._close_definitions does.  When rounds is a list, each
    round appends the table's size and every possible set's size as the
    round begins."""
    possible = {key: {} for key, kind in kinds.items() if kind is PredKind.DEFINED}
    clauses: list[GroundClause] = []
    seen: set[tuple] = set()
    grew = True

    def emit_clause(cl, plan):
        bounds = _unknown_bounds(cl.body)
        negs = [(n.atom.pred, _compile_args(n.atom, constants, bounds)) for n in plan.negs]
        head = _compile_args(cl.head, constants, bounds)

        def emit(binding, pos_ids):
            nonlocal grew
            neg_ids = tuple([table.intern(GroundAtom(pred, neg(binding))) for pred, neg in negs])
            head_atom = GroundAtom(cl.head.pred, head(binding))
            head_id = table.intern(head_atom)
            key = (head_id, pos_ids, neg_ids)
            if key in seen:
                return
            seen.add(key)
            clauses.append(GroundClause(head_id, pos_ids, neg_ids))
            if len(table) > GROUND._ATOM_CAP:
                raise _error(f"grounding exceeded {GROUND._ATOM_CAP} atoms in {plan.label}", plan.span)
            if _within_hull(head_atom.args, hull):
                ext = possible[cl.head.key]
                if head_atom.args not in ext:
                    ext[head_atom.args] = head_id
                    grew = True

        return emit

    emits = [emit_clause(cl, plan) for cl, plan in zip(definitions, plans)]
    while grew:
        grew = False
        if rounds is not None:
            rounds.append((len(table), {key: len(ext) for key, ext in possible.items()}))
        candidates = _Candidates(abd_candidates, possible)
        for plan, emit in zip(plans, emits):
            _enumerate_plan(plan, candidates, constants, emit)
    return clauses, candidates
