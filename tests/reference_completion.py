"""The reference completion, which the tests hold the search's compiled
clause database against.

ReferenceSearch is alp.solver._Search with the completion of the
definition layer compiled the plain way: every completion clause goes
through alp.ground._key and the dedup against the clauses known so far,
whatever it holds, but a support clause of three or more literals that
repeats a constraint's denial clause is kept again; each head's bodies
are collected in a list that is searched before each append; and the
loops are found in four passes over the ground clauses.
_Search must build the same clauses, origins, denial flags, variables,
implication and watch arrays, support clauses, units and loop tables.
"""

from __future__ import annotations

from alp.ground import GroundClause, _key
from alp.solver import _components, _Search


class ReferenceSearch(_Search):
    """_Search's _add_clauses passes what _find_loops returns on to
    _add_completion: here, the ground clauses themselves."""

    def _add_completion(self, clauses: list[GroundClause], known):
        def add(key, origin):
            if key is None or key in known:
                return
            known[key] = False
            append(key, origin)

        def append(key, origin):
            self.clauses.append(key)
            self.origins.append(origin)
            self.is_denial.append(False)

        bodies_by_head: dict[int, list] = {}
        order: list[int] = []
        for gc in clauses:
            if gc.head not in bodies_by_head:
                bodies_by_head[gc.head] = []
                order.append(gc.head)
            entry = (gc.pos, gc.neg)
            if entry not in bodies_by_head[gc.head]:
                bodies_by_head[gc.head].append(entry)
        for head in order:
            bodies = bodies_by_head[head]
            if any(not pos and not neg for pos, neg in bodies):
                add((2 * head,), head)
                continue
            support = [2 * head + 1]
            for pos, neg in bodies:
                lits = [2 * a for a in pos] + [2 * a + 1 for a in neg]
                if len(lits) == 1:
                    dj = lits[0]
                else:
                    dj = 2 * self.nvars
                    self.nvars += 1
                    for lit in lits:
                        add(_key((dj ^ 1, lit)), head)
                    add(_key([dj] + [lit ^ 1 for lit in lits]), head)
                add(_key((dj ^ 1, 2 * head)), head)
                support.append(dj)
                if head in self.loop_atoms:
                    self._add_loop_body(head, dj, pos)
            key = _key(support)
            if known.get(key) and len(key) > 2:  # a constraint's denial clause
                append(key, head)
            else:
                add(key, head)
        for a in range(self.n_atoms):
            if a not in bodies_by_head and a not in self.candidates:
                add((2 * a + 1,), a)

    def _find_loops(self, clauses: list[GroundClause]) -> list[GroundClause]:
        succ: dict[int, list[int]] = {}
        for gc in clauses:
            succ.setdefault(gc.head, []).extend(gc.pos + gc.neg)
        comp = _components(succ)
        self.negative_loop_atom = next(
            (gc.head for gc in clauses if any(comp.get(b) == comp[gc.head] for b in gc.neg)),
            None,
        )
        looped = {
            comp[gc.head] for gc in clauses if any(comp.get(b) == comp[gc.head] for b in gc.pos)
        }
        facts = {gc.head for gc in clauses if not gc.pos and not gc.neg}
        self.loop_atoms = {h: comp[h] for h in succ if comp[h] in looped and h not in facts}
        self.body_head = []
        self.body_lit = []
        self.body_internal = []
        self.bodies_of = {}
        self.dependents = {}
        self.body_watch = {}
        return clauses
