"""Abductive solver: enumerate hypothesis sets that satisfy a theory.

A solution is a set of universe atoms whose addition to the definition
layer yields a total well-founded model satisfying every constraint.
The search is a trail-based DPLL over the abducible candidates.  Unit
propagation runs on a clause database built from two sources:

  * the ground constraints' clauses, the one form the theory stores
    them in (GroundTheory.constraints), and
  * a supported-model (completion) encoding of the definition layer,
    with one auxiliary variable per multi-literal clause body,

and on the constraints the grounder left unground (lazy denials, see
alp.ground.ConstraintRule), which propagate through the grounder's
join, run from an atom that becomes true: a denial of two atoms once
per atom, the first time it is true, which gives the atom's binary
clauses, and a longer one every time.  check_delta and the root
unsat_reason re-run a rule's join to name a constraint instance.

Binary clauses propagate through per-literal implication lists, longer
ones through two watched literals each, listed in one watch array per
literal (Chaff, MiniSat), so assigning a literal visits only the
clauses that may have become unit, and undoing it only resets its
entry: backtracking pops the trail and touches no clause.  The search
branches first-fail on the open support clauses: the clauses of three
or more literals, none from a denial, that hold a candidate.  Each is a
constraint with heads, a completion clause by which a defined atom
needs one of its bodies, or the clause of a body's auxiliary variable,
which makes it true once all of the body's literals are (most support
clauses of blocks and hamcycle are of this kind).  Of those not yet
satisfied that still have an unassigned candidate, the first with the
fewest unassigned literals gives the decision, its first unassigned
candidate, tried absent before present; with none open, the candidates
follow in atom order (see _Search.solutions).

Any two-valued well-founded model extends to a total assignment of this
database, so propagation and conflict pruning never lose a solution.
The converse fails on positive loops, where completion admits models
whose loop atoms only support each other.  One pass over the definition
layer's dependency graph finds its strongly connected components.  On
the components with a positive loop, the search also falsifies the
atoms left without a source body (unfounded-set propagation).  A
conflict-free total assignment is then a stable model, and when no
component holds a negative edge it is the total well-founded model, so
the leaf is a solution as it stands.  Where a negative loop exists,
check_delta itself decides each leaf (see _Search._admissible).
Propagation also regresses goals backwards through the rules, which is
what makes the planning workload tractable.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import wfs
from .ground import GroundClause, GroundConstraint, GroundTheory, _key, _StopJoin
from .syntax import (
    Atom,
    Clause,
    Constraint,
    IntConst,
    Pos,
    Program,
    ProgramError,
    SolveError,
    SymConst,
    Var,
    classify_predicates,
    normalize,
)

# ---------------------------------------------------------------------------
# reference semantics: check one candidate


@dataclass(frozen=True)
class Sat:
    trace: wfs.FixpointTrace | None = field(default=None, compare=False)


@dataclass(frozen=True)
class UnsatConstraint:
    instance: GroundConstraint = field(compare=False)
    rendered: str = ""
    trace: wfs.FixpointTrace | None = field(default=None, compare=False)


@dataclass(frozen=True)
class NotTwoValued:
    atoms: tuple[int, ...]
    trace: wfs.FixpointTrace | None = field(default=None, compare=False)


CheckResult = Sat | UnsatConstraint | NotTwoValued


def check_delta(theory: GroundTheory, delta: Iterable[int]) -> CheckResult:
    """Decide one hypothesis set against the reference semantics.

    Computes the well-founded model of definitions plus delta, requires
    it to be total, and then tests every ground constraint.  The delta
    must stay inside universe plus forced atoms.  Reads the theory's
    constraint clauses and definition arrays and re-runs the joins of
    its rules (see _first_falsified): it compiles no _Search.
    """
    dset = set(delta)
    stray = sorted(dset.difference(theory.universe, theory.forced))
    if stray:
        names = ", ".join(theory.atoms.render(i) for i in stray[:5])
        raise SolveError(f"delta atoms outside the abducible universe: {names}")
    truth, trace = wfs.well_founded(theory.definition_arrays, dset, theory.n_atoms)
    two_valued, undef = wfs.is_two_valued(truth)
    if not two_valued:
        return NotTwoValued(tuple(undef), trace)
    gc = _first_falsified(theory, truth)
    if gc is None:
        return Sat(trace)
    return UnsatConstraint(gc, theory.render_constraint(gc), trace)


def _first_falsified(theory: GroundTheory, truth: Sequence[int]) -> GroundConstraint | None:
    """The first constraint of theory.expand_constraints() whose clause
    has every literal false under a total truth array; under a total
    model a constraint is violated exactly when its clause is falsified.
    GroundTheory.first_instance finds it from the first stored clause
    that truth falsifies, without expanding anything."""
    true_lit = bytearray(2 * theory.n_atoms)
    true_lit[0::2] = bytes(t == wfs.TRUE for t in truth)
    true_lit[1::2] = bytes(t != wfs.TRUE for t in truth)
    return theory.first_instance(_first_false_clause(true_lit, theory.constraints), true_lit)


def _first_false_clause(true_lit, constraints) -> int | None:
    """The index of the first of constraints whose clause has no true
    literal, or None."""
    for ci, (clause, _origin, _denial) in enumerate(constraints):
        for lit in clause:
            if true_lit[lit]:
                break
        else:
            return ci
    return None


# ---------------------------------------------------------------------------
# options and reports


@dataclass
class SolveOptions:
    max_models: int | None = None  # at least 1; None enumerates every solution
    minimal_only: bool = False


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    pruned: int = 0
    checks: int = 0
    models: int = 0
    wall_time: float = 0.0


@dataclass
class SolveReport:
    solutions: list[tuple[int, ...]]
    stats: SolveStats
    warnings: list[str] = field(default_factory=list)
    unsat_reason: str | None = None


# ---------------------------------------------------------------------------
# the search engine


class _Search:
    """One depth-first enumeration over a ground theory, which it
    compiles for itself.  After propagate_pending, solutions() is a
    generator that runs the search as one loop over an explicit stack
    of open nodes and yields each solution when it reaches it; the
    caller takes as many as it wants.

    Literals follow the grounder's encoding (alp.ground._key): 2*v is
    "v true", 2*v+1 is "v false".  Clauses are literal sets in order of
    first occurrence, deduplicated (the denial flag is ORed over
    duplicates) and without tautologies.  The first n_constraint_clauses
    are the theory's constraints as it stores them, already so, with
    origins[i] and is_denial[i] their origin and denial flag, and
    describe_origin names the first instance of one through
    GroundTheory.first_instance.  The rest encode the completion of the
    definition layer, deduplicated against them, with origins[i] the
    defined atom.

    The theory's lazy denials have no clauses.  A denial of two atoms
    gets the binary clauses of its instances as its atoms become true:
    the first time atom a is true, _propagate joins a's partners once
    (_pair) and adds a clause (not a, not b) for each partner b not
    paired before.  A longer denial is compiled into joins (see
    _add_lazy_denials) that run each time one of its atoms becomes true
    and do what the clauses of its instances would do: make an atom
    false when every other atom of an instance is true, or report a
    conflict when all are.  The atoms may be abducible or defined.
    _fixpoint alternates them with clause propagation, and the argument
    there shows that the search meets the same nodes as over every
    instance.  A conflict in the rule of origin r is reported as the
    index len(clauses) + r, and describe_origin names the rule's first
    instance whose atoms are all true.  The typing rules that the
    universe satisfies (alp.ground._satisfied_typing) have neither
    clauses nor joins: no instance of theirs is ever violated.

    The loop tables come from one pass over the strongly connected
    components of the definition layer's dependency graph (head to
    each body atom, either sign), made before the completion clauses
    are added; see _find_loops.

    The assignment is one value per literal (1 true, 0 false, -1
    unassigned) plus a trail of the literals made true, in order.  A
    binary clause (a, b) sits in two implication lists: implied[a]
    holds b and implied[b] holds a, so when one literal goes false the
    other must hold.  A longer clause watches two of its literals,
    watch0[ci] and watch1[ci], and sits in the watch array of each:
    only a watch going false makes the clause look for a replacement
    among its literals that are not false, and when there is none the
    other watch is implied, or the clause is falsified.  A watch stays
    false only while the other watch is true and was made true at the
    same decision or an earlier one, so backtracking never invalidates
    a watch and undo_to only unassigns the trail.  Unit clauses are
    assigned once, at the root, and never undone.

    watches[l] holds the clauses watching literal l in order, as an
    array of C ints, which unlike a list holds no int object per index.
    When l goes false its array is compacted in place, and a moved
    watch is appended to the array of its new literal.  Implication
    lists hold literals, which are shared with the clause tuples; a
    binary clause that is falsified is named through binary, which maps
    each one to its index, or a pair of a lazy denial to the conflict
    index of its rule.

    When the definition layer has loop atoms, unit propagation is
    followed by falsifying unfounded loop atoms, with one source body
    per atom (Gebser, Kaufmann & Schaub, 2012; smodels' atmost).
    source[a] is a body of loop atom a or -1.  At every propagation
    fixpoint each loop atom that is not false has a source whose
    literal is not false and whose internal atoms have sources, and
    following sources from atom to internal atom never cycles, because
    an atom gets a source only when the body's internal atoms already
    have theirs.  Only a source body going false breaks this: its head
    loses its source, and so does every atom whose source holds an atom
    that lost its own.  Those atoms are sourced again where a body
    allows; the rest form an unfounded set, and each of them is made
    false, or is a conflict if already true.  Source changes are logged
    with the trail length at which they happen and undone with the
    trail, so backtracking restores the sources of the fixpoint it
    returns to.
    """

    def __init__(self, theory: GroundTheory, options: SolveOptions, stats: SolveStats):
        self.theory = theory
        self.options = options
        self.stats = stats
        self.n_atoms = self.nvars = theory.n_atoms
        candidates = list(theory.universe)
        in_universe = set(theory.universe)
        candidates += [i for i in theory.forced if i not in in_universe]
        self.branch_vars = sorted(candidates, key=lambda i: theory.atoms.atom(i).sort_key)
        self.candidates = candidates = frozenset(candidates)
        self._add_clauses(theory)

        clauses = self.clauses
        n_lits = 2 * self.nvars
        self.value = [-1] * n_lits
        self.trail: list[int] = []
        self.units: list[int] = []
        self.implied = implied = [[] for _ in range(n_lits)]
        self.binary: dict[tuple[int, ...], int] = {}  # only conflicts read it
        binary = self.binary
        self.watches = watches = [array("i") for _ in range(n_lits)]
        self.watch0 = watch0 = array("i", [0]) * len(clauses)
        self.watch1 = watch1 = array("i", [0]) * len(clauses)
        # The support clauses, the clauses of three or more literals that
        # are not denials and mention a candidate (see solutions): for
        # each, a getter of its literals' values, its candidates and a
        # getter of their values, so that the search reads a clause in
        # one call.
        self.support: list[tuple[itemgetter, tuple[int, ...], itemgetter]] = []
        for ci, cl in enumerate(clauses):
            if len(cl) == 2:
                a, b = cl
                implied[a].append(b)
                implied[b].append(a)
                binary[cl] = ci
            elif len(cl) > 2:
                a = watch0[ci] = cl[0]
                b = watch1[ci] = cl[1]
                watches[a].append(ci)
                watches[b].append(ci)
                if not self.is_denial[ci]:
                    cands = tuple(lit >> 1 for lit in cl if lit >> 1 in candidates)
                    if cands:
                        # The first repeated at the end: a getter of one
                        # item would return its value, not a tuple.
                        get_cands = itemgetter(*(2 * v for v in cands), 2 * cands[0])
                        self.support.append((itemgetter(*cl), cands, get_cands))
            else:
                self.units.append(ci)
        self.minimal_sets: list[frozenset[int]] = []
        self.source = [-1] * self.n_atoms
        self.source_log: list[tuple[int, int, int]] = []  # (trail length, atom, old source)
        self.triggers: dict[int, list] = {}
        self.unpaired: list[list | None] = [None] * n_lits
        self.pairing = bytearray(b"\x01") * (2 * self.n_atoms)  # pairing[2a] = 0: a is paired
        self.found: list[tuple[int, int]] = []  # (partner, conflict index) that _pair collects
        self.denial_units: list[tuple[int, int]] = []
        self._add_lazy_denials(theory)

    # -- compiling the theory ---------------------------------------------

    def _add_clauses(self, theory: GroundTheory):
        """Build clauses, origins and is_denial: the theory's constraint
        clauses as they are, then the completion.  known, which the
        completion is deduplicated against, maps each clause so far to
        whether it is a constraint's denial clause.  It is local, so it
        is freed on return, before __init__ builds the watch arrays:
        alive beside them, it would raise the peak memory of solve."""
        self.clauses: list[tuple[int, ...]] = [record.clause for record in theory.constraints]
        self.origins: list[int] = [record.origin for record in theory.constraints]
        self.is_denial: list[bool] = [record.denial for record in theory.constraints]
        self.n_constraint_clauses = len(self.clauses)
        bodies = self._find_loops(theory.clauses)
        self._add_completion(bodies, dict(zip(self.clauses, self.is_denial)))

    def _add_lazy_denials(self, theory: GroundTheory):
        """Compile the lazy denials: triggers[2 * a] lists the joins to
        run when atom a becomes true (ConstraintRule.propagators), and
        denial_units the atoms that an instance alone makes false, each
        with the conflict index of its rule, len(clauses) + its origin.

        A denial of two atoms has no middle literal, so the partners
        that its instances give an atom do not depend on the
        assignment.  Its joins are kept in unpaired[2 * a] and run once,
        the first time a becomes true (see _pair).  They read pairing
        as their assignment, which makes false only the atoms paired
        already, so their open literal takes the atoms not yet paired.
        The closures hold the assignment, pairing and the list that
        collects partners, not the search, so they make no reference
        cycle."""
        value = self.value
        trail = self.trail
        stats = self.stats
        triggers = self.triggers
        unpaired = self.unpaired
        found = self.found
        for rule in (rule for rule in theory.rules if rule.lazy):
            conflict = len(self.clauses) + rule.origin
            self.denial_units += [(a, conflict) for a in rule.unit_atoms()]
            if sum(isinstance(lit, Pos) for lit in rule.denial.body) == 2:

                def pair(binding, pos_ids, conflict=conflict):
                    found.append((pos_ids[-1], conflict))

                for a, runs in rule.propagators(self.pairing, pair).items():
                    unpaired[2 * a] = (unpaired[2 * a] or []) + runs
                continue

            def imply(binding, pos_ids, conflict=conflict):
                a = pos_ids[-1]
                if value[2 * a] == 1:  # every atom of the instance is true
                    raise _StopJoin(conflict)
                stats.propagations += 1
                value[2 * a] = 0
                value[2 * a + 1] = 1
                trail.append(2 * a + 1)

            for a, runs in rule.propagators(value, imply).items():
                triggers.setdefault(2 * a, []).extend(runs)

    def _pair(self, lit: int):
        """Run the joins of unpaired[lit], lit = 2a being true for the
        first time, drop them and mark a paired: each partner b that
        they give a, not yet in a binary clause with it, becomes the
        binary clause (not a, not b).  So 2b+1 joins implied[2a+1] and
        2a+1 joins implied[2b+1], and binary maps the pair to the
        conflict index of the rule that gave it; _propagate then reads
        implied[2a+1] as it does for any binary clause.

        The joins skip the partners paired already.  When such a b was
        paired, its joins met every instance holding b, the one with a
        among them, since a was not paired then; so the clause is in
        already, and each pair is met once, from its atom paired
        first."""
        found = self.found
        for cell, cand, start in self.unpaired[lit]:
            cell[0] = cand
            start({}, ())
        self.unpaired[lit] = None
        self.pairing[lit] = 0
        implied = self.implied
        binary = self.binary
        not_a = lit + 1
        for b, conflict in found:
            not_b = 2 * b + 1
            key = (not_a, not_b) if not_a < not_b else (not_b, not_a)
            if key not in binary:
                binary[key] = conflict
                implied[not_a].append(not_b)
                implied[not_b].append(not_a)
        found.clear()

    def _add_completion(self, bodies: dict[int, dict[tuple, int]], known: dict[tuple[int, ...], bool]):
        """Add the completion of the definition layer, from each head's
        distinct bodies (see _find_loops).  A fact head is a unit clause.
        Otherwise each body stands for its one literal or for a fresh
        variable dj equivalent to its conjunction, each body implies the
        head, and the head implies the disjunction of its bodies, its
        support clause.

        The clauses are those that adding each one through _key and the
        clauses known so far would give, in the same order, but a clause
        holding a fresh dj skips both, and a support clause of three or
        more literals that repeats a denial's clause is added again (see
        below).  No clause made before dj holds it, and of those made
        later only its head's support clause may.  So the clauses of one
        body, (lit, ¬dj) for each literal, (¬lits..., dj) and (2h, ¬dj),
        are new but for repeats among themselves: a repeated literal,
        the head clause when the head is a positive body atom (it is
        then one of the (lit, ¬dj)), and the body clause when it is a
        tautology, the body holding an atom and its negation.  They are appended sorted, since dj is the
        greatest variable so far.  A support clause holding a fresh dj
        may equal only a body clause of its own head, and only when it
        holds one dj: that dj's body clause.  The other clauses hold
        atoms only and may repeat a constraint clause or one another.

        A denial's clause is no support clause, so a support clause
        equal to one would branch (see solutions) when the denial is
        lazy and not when it is grounded: ``h :- not a.  h :- not b.
        false <- h, a, b.`` searched its solutions in two orders.  The
        repeat keeps it a support clause either way; it holds the
        literals of the denial's clause, so it changes no fixpoint and
        no conflict, only branching."""
        clauses = self.clauses
        origins = self.origins
        first = len(clauses)

        def add(key: tuple[int, ...] | None, origin: int):
            """Add a completion clause with sorted literal set key, unless
            it is a tautology (None, see alp.ground._key) or in already."""
            if key is None or key in known:
                return
            known[key] = False
            clauses.append(key)
            origins.append(origin)

        for head, of_head in bodies.items():
            if ((), ()) in of_head:
                add((2 * head,), head)
                continue
            support = [2 * head + 1]
            fresh = 0  # the bodies given a fresh variable
            for pos, neg in of_head:
                if len(pos) + len(neg) == 1:
                    dj = 2 * pos[0] if pos else 2 * neg[0] + 1
                    add(_key((dj ^ 1, 2 * head)), head)
                else:
                    dj = 2 * self.nvars  # a fresh auxiliary variable
                    self.nvars += 1
                    fresh += 1
                    lits = dict.fromkeys([2 * a for a in pos] + [2 * a + 1 for a in neg])
                    made = [(lit, dj ^ 1) for lit in lits]
                    body_clause = None
                    if not neg or set(pos).isdisjoint(neg):
                        body_clause = (*sorted([lit ^ 1 for lit in lits]), dj)
                        made.append(body_clause)
                    if head not in pos:
                        made.append((2 * head, dj ^ 1))
                    clauses += made
                    origins += [head] * len(made)
                support.append(dj)
                if head in self.loop_atoms:
                    self._add_loop_body(head, dj, pos)
            key = _key(support)
            if not fresh:
                if known.get(key) and len(key) > 2:  # a denial's clause: see above
                    clauses.append(key)
                    origins.append(head)
                else:
                    add(key, head)
            elif key is not None and not (fresh == 1 and key == body_clause):
                clauses.append(key)
                origins.append(head)
        # Atoms that are neither derivable nor assumable are simply false.
        for a in range(self.n_atoms):
            if a not in bodies and a not in self.candidates:
                add((2 * a + 1,), a)
        self.is_denial += [False] * (len(clauses) - first)

    def _find_loops(self, clauses: list[GroundClause]) -> dict[int, dict[tuple, int]]:
        """Group the definition layer's bodies by head and find its loops
        in one pass over the strongly connected components of its
        dependency graph.  Returns, for each head in order of its first
        clause, its distinct bodies (pos, neg) in order, each with the
        index of the first clause giving it.

        negative_loop_atom is the head of the first clause with a
        negative body atom in the head's own component, None when there
        is none (the layer is then stratified).  loop_atoms maps each
        loop atom to its component: the heads in a component where some
        clause has a positive body atom of the head's own component,
        except heads of a fact clause, which are always founded.  Their
        bodies are numbered as _add_completion meets them (see
        _add_loop_body).  A repeated body adds only edges that are there
        already, which leaves every component as it is.
        """
        bodies: dict[int, dict[tuple, int]] = {}
        for i, gc in enumerate(clauses):
            of_head = bodies.get(gc.head)
            if of_head is None:
                of_head = bodies[gc.head] = {}
            of_head.setdefault((gc.pos, gc.neg), i)
        succ = {h: [b for pos, neg in of_head for b in pos + neg] for h, of_head in bodies.items()}
        comp = _components(succ)
        members: dict[int, set[int]] = {}
        for a, c in comp.items():
            members.setdefault(c, set()).add(a)
        looped = set()
        negative = []  # the first clauses of bodies with a negative loop
        for h, of_head in bodies.items():
            c = comp[h]
            inside = members[c]
            for (pos, neg), i in of_head.items():
                if not inside.isdisjoint(pos):
                    looped.add(c)
                if neg and not inside.isdisjoint(neg):
                    negative.append(i)
        self.negative_loop_atom = clauses[min(negative)].head if negative else None
        facts = {h for h, of_head in bodies.items() if ((), ()) in of_head}
        self.loop_atoms = {h: comp[h] for h in bodies if comp[h] in looped and h not in facts}
        self.body_head: list[int] = []
        self.body_lit: list[int] = []
        self.body_internal: list[tuple[int, ...]] = []
        self.bodies_of: dict[int, list[int]] = {}
        self.dependents: dict[int, list[int]] = {}
        self.body_watch: dict[int, list[int]] = {}
        return bodies

    def _add_loop_body(self, head: int, lit: int, pos: tuple[int, ...]):
        """Number a body of a loop atom: body_head[k] is body k's head,
        body_lit[k] the literal true exactly when it holds and
        body_internal[k] its positive atoms that are loop atoms of the
        head's component.  bodies_of[a] lists loop atom a's bodies,
        dependents[b] the bodies with b internal and body_watch[lit]
        those with literal lit."""
        k = len(self.body_head)
        loop = self.loop_atoms[head]
        internal = tuple(sorted({b for b in pos if self.loop_atoms.get(b) == loop}))
        self.body_head.append(head)
        self.body_lit.append(lit)
        self.body_internal.append(internal)
        self.bodies_of.setdefault(head, []).append(k)
        for b in internal:
            self.dependents.setdefault(b, []).append(k)
        self.body_watch.setdefault(lit, []).append(k)

    def describe_origin(self, idx: int) -> str:
        theory = self.theory
        if idx < 0:  # an unfounded loop atom, see _unfounded
            atom = theory.atoms.render(-1 - idx)
            return f"definition of {atom} (a loop without outside support)"
        if idx >= len(self.clauses):  # a lazy denial, see _add_lazy_denials
            rule = theory.rules[idx - len(self.clauses)]
            return theory.render_constraint(rule.first_true(self.value))
        if idx < self.n_constraint_clauses:
            return theory.render_constraint(theory.first_instance(idx))
        return f"definition of {theory.atoms.render(self.origins[idx])}"

    # -- assignment machinery -------------------------------------------

    def undo_to(self, mark: int):
        value = self.value
        trail = self.trail
        for lit in trail[mark:]:
            value[lit] = value[lit ^ 1] = -1
        del trail[mark:]
        log = self.source_log
        source = self.source
        while log and log[-1][0] > mark:
            _at, a, old = log.pop()
            source[a] = old

    def propagate(self, lit: int) -> int | None:
        """Make an unassigned literal true and propagate to fixpoint; on
        conflict the index of a clause that the current assignment
        falsifies comes back, or -1 - a for an unfounded atom a that is
        true, and the caller unwinds."""
        self.value[lit] = 1
        self.value[lit ^ 1] = 0
        start = len(self.trail)
        self.trail.append(lit)
        conflict = self._fixpoint(start)
        if conflict is None and self.loop_atoms:
            conflict = self._unfounded(start, [])
        return conflict

    def propagate_pending(self) -> int | None:
        """Root propagation: assign every unit clause, then propagate."""
        value = self.value
        for ci in self.units:
            cl = self.clauses[ci]
            if not cl or value[cl[0]] == 0:
                return ci
            lit = cl[0]
            if value[lit] == -1:
                self.stats.propagations += 1
                value[lit] = 1
                value[lit ^ 1] = 0
                self.trail.append(lit)
        for a, conflict in self.denial_units:
            if value[2 * a] == 1:
                return conflict
            if value[2 * a] == -1:
                self.stats.propagations += 1
                value[2 * a] = 0
                value[2 * a + 1] = 1
                self.trail.append(2 * a + 1)
        conflict = self._fixpoint(0)
        if conflict is None and self.loop_atoms:
            # No atom has a source yet: all of them are to be sourced.
            conflict = self._unfounded(len(self.trail), list(self.loop_atoms))
        return conflict

    def _fixpoint(self, head: int) -> int | None:
        """Propagate the trail from position head on, through the clauses
        and the lazy denials, to their common fixpoint or a conflict.

        Without lazy denials of three or more atoms, which have
        triggers, this is _propagate.  With them, the two take turns:
        _propagate runs the clauses to their fixpoint, then each atom
        that it made true is given to the joins of triggers, which make
        atoms false or meet a conflict; the atoms they made false go
        back to _propagate, and so on until neither adds a literal.

        The clause (not a, not b) of a denial of two atoms is added by
        _pair when a or b is first true, and _propagate runs _pair for a
        literal before it reads the literal's implication list.  So the
        clause is in implied[2a+1] when a is true, and in implied[2b+1]
        when b is, and wherever the clause would propagate, it does.

        The joins see every true atom, whatever its predicate, as the
        clauses would.  A lazy denial may read defined atoms, those true
        in the base model among them, such as blocks' block(B).  The
        search makes an atom true only by pushing its literal onto the
        trail: a decision, an implication, or at the root a unit clause,
        which propagate_pending assigns before it calls _fixpoint(0).
        That call walks the whole root trail, so the atoms of the units,
        a fact's unit completion clause among them, and every atom they
        imply through the completion are given to the joins and paired
        too.  And _propagate pairs each literal of the trail, and the
        loop below runs the triggers of each, before the fixpoint is
        reached.

        Unit propagation reaches one fixpoint whatever order it assigns
        literals in, and reaches a conflict in every order if in any,
        and the joins imply exactly what the clauses of the rules'
        instances would (ConstraintRule.propagators): so the search
        meets the same fixpoints and the same conflicting nodes as it
        would over every instance, and only the number of literals
        assigned before a conflict, in propagations, can differ.  The
        denials are no support clauses, so branching (see solutions)
        does not change either, nor do nodes, pruned, checks, models or
        the order of the solutions.  That holds where a support clause
        equals a grounded denial's clause too, as in ``h :- not a.
        h :- not b.  false <- h, a, b.``: the completion keeps the
        support clause, lazy or grounded (_add_completion)."""
        conflict = self._propagate(head)
        triggers = self.triggers
        if not triggers:
            return conflict
        trail = self.trail
        while conflict is None:
            end = len(trail)
            try:
                for lit in trail[head:end]:
                    runs = triggers.get(lit)
                    if runs:
                        for cell, cand, start in runs:
                            cell[0] = cand
                            start({}, ())
            except _StopJoin as stop:
                return stop.args[0]
            if len(trail) == end:
                return None
            head = end
            conflict = self._propagate(head)
        return conflict

    def _propagate(self, head: int) -> int | None:
        """Propagate the trail from position head on through the clauses;
        a conflict leaves the rest of the queue unprocessed, for the
        caller to undo.  An atom true for the first time first gets the
        binary clauses of its lazy denials of two atoms (_pair)."""
        value = self.value
        trail = self.trail
        push = trail.append
        implied = self.implied
        binary = self.binary
        watches = self.watches
        watch0 = self.watch0
        watch1 = self.watch1
        clauses = self.clauses
        unpaired = self.unpaired
        implications = 0
        conflict = None
        while head < len(trail):
            true_lit = trail[head]
            if unpaired[true_lit] is not None:  # its atom is true for the first time
                self._pair(true_lit)
            false_lit = true_lit ^ 1
            head += 1
            for lit in implied[false_lit]:
                val = value[lit]
                if val == -1:
                    implications += 1
                    value[lit] = 1
                    value[lit ^ 1] = 0
                    push(lit)
                elif val == 0:
                    conflict = binary[(false_lit, lit) if false_lit < lit else (lit, false_lit)]
                    break
            if conflict is not None:
                break
            watching = watches[false_lit]
            if not watching:
                continue
            kept = 0  # the watch array is compacted in place
            for i, ci in enumerate(watching):
                other = watch0[ci]
                if other == false_lit:  # keep the false watch in watch1
                    other = watch1[ci]
                    watch0[ci] = other
                    watch1[ci] = false_lit
                val = value[other]
                if val != 1:
                    for lit in clauses[ci]:
                        if lit != other and value[lit] != 0:
                            break
                    else:
                        lit = -1
                    if lit != -1:  # move the watch to lit
                        watch1[ci] = lit
                        watches[lit].append(ci)
                        continue
                    if val == 0:
                        conflict = ci
                        del watching[kept:i]  # this clause and the rest stay
                        break
                    implications += 1
                    value[other] = 1
                    value[other ^ 1] = 0
                    push(other)
                watching[kept] = ci
                kept += 1
            if conflict is not None:
                break
            del watching[kept:]
        self.stats.propagations += implications
        return conflict

    def _set_source(self, a: int, k: int):
        self.source_log.append((len(self.trail), a, self.source[a]))
        self.source[a] = k

    def _unfounded(self, start: int, lost: list[int]) -> int | None:
        """Restore the source invariant after unit propagation assigned
        trail[start:], the atoms in lost having no source already."""
        value = self.value
        trail = self.trail
        source = self.source
        body_head = self.body_head
        body_lit = self.body_lit
        body_internal = self.body_internal
        dependents = self.dependents
        while True:
            for lit in trail[start:]:
                for k in self.body_watch.get(lit ^ 1, ()):
                    a = body_head[k]
                    if source[a] == k:
                        self._set_source(a, -1)
                        lost.append(a)
            if not lost:
                return None
            for b in lost:  # lost grows while it is walked
                for k in dependents.get(b, ()):
                    a = body_head[k]
                    if source[a] == k:
                        self._set_source(a, -1)
                        lost.append(a)
            # Source again, bottom up: a body serves once it is not
            # false and its internal atoms without a source are none.
            missing: dict[int, int] = {}
            ready = []
            for a in lost:
                for k in self.bodies_of[a]:
                    if value[body_lit[k]] != 0:
                        m = sum(source[b] == -1 for b in body_internal[k])
                        if m:
                            missing[k] = m
                        else:
                            ready.append(k)
            for k in ready:  # ready grows while it is walked
                a = body_head[k]
                if source[a] != -1:
                    continue
                self._set_source(a, k)
                for k2 in dependents.get(a, ()):
                    m = missing.get(k2)
                    if m:
                        missing[k2] = m - 1
                        if m == 1:
                            ready.append(k2)
            start = len(trail)
            for a in lost:
                if source[a] == -1:
                    val = value[2 * a]
                    if val == 1:
                        return -1 - a
                    if val == -1:
                        self.stats.propagations += 1
                        value[2 * a] = 0
                        value[2 * a + 1] = 1
                        trail.append(2 * a + 1)
            lost = []
            conflict = self._fixpoint(start)
            if conflict is not None:
                return conflict

    # -- branching --------------------------------------------------------

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Depth-first search from the root fixpoint (see
        propagate_pending), yielding each solution as it is found.

        The open nodes sit on an explicit stack, so the depth of the
        search is bounded by memory alone.  A frame holds a node's kept
        goals, its start, the trail mark taken before its decision and
        the literals it still has to try, popped from the end so that
        absent comes first.  Each turn of the loop is at a node whose
        propagation met no conflict: it is a leaf, which _leaf decides,
        or it pushes its frame.  Then the deepest frame with a literal
        left undoes the trail to its mark and propagates that literal; a
        conflict prunes the child and the next literal is taken.  A
        frame with none left is dropped without undoing: the frame below
        it undoes to an earlier mark.  A caller that stops taking
        solutions leaves the generator suspended where it found the
        last one, so the search meets no further node.

        Variables before branch_vars[start] are assigned on this path,
        so the node is a leaf when none from start on is unassigned.
        Otherwise the decision is first-fail on the support clauses
        (constraint clauses with heads, a defined atom's need for one of
        its bodies and a body's clause for its auxiliary variable; see
        the module docstring): of those in goals that are not satisfied
        and have an unassigned candidate, the first with the fewest
        unassigned literals gives its first unassigned candidate; with
        none open, the decision is branch_vars[start].  A clause that
        is satisfied or has no unassigned candidate stays so below this
        node, so goals, which holds every support clause that may still
        be open, is filtered on the way down.  At a propagation fixpoint
        an open clause has at least two unassigned literals, so the scan
        stops at the first one with two.

        The decision thus depends only on the assignment at the node,
        which _leaf's argument for --minimal rests on: two leaves part
        at one node, on one variable, and the absent branch comes
        first."""
        value = self.value
        trail = self.trail
        stats = self.stats
        branch_vars = self.branch_vars
        support = self.support
        propagate = self.propagate
        undo_to = self.undo_to
        stack: list[tuple[list[int], int, int, list[int]]] = []
        goals = list(range(len(support)))
        start = 0
        while True:
            while start < len(branch_vars) and value[2 * branch_vars[start]] != -1:
                start += 1
            if start == len(branch_vars):  # no candidate left, so no clause open
                delta = self._leaf()
                if delta is not None:
                    yield delta
            else:
                var = branch_vars[start]
                best = 0
                kept: list[int] = []
                for i, s in enumerate(goals):
                    get_lits, cands, get_cands = support[s]
                    vals = get_lits(value)
                    if 1 in vals:
                        continue
                    n = vals.count(-1)
                    # Whether a candidate is unassigned matters only to a
                    # clause that would be picked; the others are kept.
                    if not best or n < best:
                        vals = get_cands(value)
                        if -1 not in vals:
                            continue
                        var = cands[vals.index(-1)]
                        best = n
                        if n == 2:
                            kept += goals[i:]
                            break
                    kept.append(s)
                stack.append((kept, start, len(trail), [2 * var, 2 * var + 1]))
            while stack:
                goals, start, mark, lits = stack[-1]
                if not lits:
                    stack.pop()
                    continue
                if len(trail) > mark:
                    undo_to(mark)
                stats.nodes += 1
                if propagate(lits.pop()) is None:
                    break
                stats.pruned += 1
            else:
                return

    def _leaf(self) -> tuple[int, ...] | None:
        """The leaf's hypothesis set if it is a solution to emit, else
        None."""
        value = self.value
        delta = tuple(v for v in self.branch_vars if value[2 * v] == 1)
        if self.options.minimal_only:
            # Each decision depends only on the assignment at its node,
            # so two leaves share their path down to the first node
            # where they differ, and that node branches one variable
            # both ways.  Of a solution and its strict superset, the
            # subset lacks that variable, so it lies on the absent
            # branch, which is searched first: every solution is reached
            # before its strict supersets.  A leaf containing no emitted
            # solution is therefore minimal: any solution inside it was
            # reached earlier and was either emitted or itself contains
            # an emitted one.
            dset = frozenset(delta)
            if any(s <= dset for s in self.minimal_sets):
                return None
        self.stats.checks += 1
        if not self._admissible(delta):
            return None
        if self.options.minimal_only:
            self.minimal_sets.append(dset)
        self.stats.models += 1
        return delta

    def _admissible(self, delta: tuple[int, ...]) -> bool:
        """Whether check_delta(theory, delta) is Sat.

        Propagation reached a conflict-free fixpoint and root units are
        never undone, so every clause whose variables are all assigned
        has a true literal.  When every atom is assigned, so is every
        auxiliary variable, being equivalent to its body: the
        assignment M satisfies every constraint clause and the
        completion, so M is a supported model of definitions plus delta.
        No instance of a lazy denial has every atom true in M either,
        whether its atoms are abducible or defined: each true atom went
        onto the trail, at the root or below it, and was paired and
        given to the triggers there; so the instance's binary clause, or
        the join run for the last of its atoms to become true, would
        have met the conflict (see _fixpoint).
        It is also a stable model, as no nonempty set U of true atoms is
        unfounded (Van Gelder, Ross & Schlipf, 1991).  Take the lowest
        component U meets: off a loop component, a true atom's true body
        has its positive atoms in lower components, outside U (Fages,
        1994); on one, the atom of U first in the acyclic source order
        (see the class docstring) has a true source body whose atoms are
        outside U.  With no negative loop, definitions plus delta are
        stratified, so their well-founded model is total and is their
        only stable model, M: the leaf is Sat as it stands.

        Under a negative loop, M may be a stable model whose atoms the
        well-founded model leaves undefined, so check_delta itself
        decides the leaf.
        """
        if self.negative_loop_atom is None and -1 not in self.value[0 : 2 * self.n_atoms : 2]:
            return True
        return isinstance(check_delta(self.theory, delta), Sat)


def _components(succ: dict[int, list[int]]) -> dict[int, int]:
    """Strongly connected components of a digraph given by successor
    lists (Tarjan, iterative): for each vertex reached, the vertex that
    roots its component."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if w not in comp:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp



# ---------------------------------------------------------------------------
# public entry points


def solve(theory: GroundTheory, options: SolveOptions | None = None) -> SolveReport:
    """Enumerate admissible hypothesis sets in deterministic order.

    Every emitted solution gets check_delta's verdict Sat (decided as
    in _Search._admissible), so the report is sound by construction;
    completeness comes from every solution's model satisfying the
    propagation clauses and making every unfounded loop atom false.
    The solutions are the first max_models that _Search.solutions
    yields, taken by islice, which then resumes the search no more: it
    stops at the node of the last one.  A max_models cap below 1
    raises SolveError.
    """
    options = options or SolveOptions()
    if options.max_models is not None and options.max_models < 1:
        raise SolveError(f"max_models must be at least 1, got {options.max_models}")
    stats = SolveStats()
    t0 = time.perf_counter()
    search = _Search(theory, options, stats)
    report = SolveReport([], stats)
    loop_atom = search.negative_loop_atom
    if loop_atom is not None:
        report.warnings.append(
            "definition layer is not stratified "
            f"(negative loop through {theory.atoms.render(loop_atom)}); "
            "candidates that wake the loop are rejected as not two-valued"
        )
    conflict = search.propagate_pending()
    if conflict is not None:
        report.unsat_reason = (
            "constraints are contradictory before any hypothesis: "
            + search.describe_origin(conflict)
        )
        stats.wall_time = time.perf_counter() - t0
        return report
    report.solutions = list(islice(search.solutions(), options.max_models))
    stats.wall_time = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# query translation


def _fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def translate_query(query: Sequence[Atom], program: Program) -> Program:
    """Reduce query answering to solving.

    Appends the definition ``query_holds :- Q1,...,Qm.`` and the
    constraint ``query_holds <- true.``, with ``query_holds`` renamed if
    the program already uses the name, so the solutions of the
    translated program are exactly the original solutions in which some
    instance of the query is true.  An empty query returns the program
    unchanged.
    """
    if not query:
        return program
    kinds = classify_predicates(normalize(program))
    for atom in query:
        if atom.key not in kinds:
            raise ProgramError(
                f"query atom {atom} is not a defined or abducible predicate"
            )
        for arg in atom.args:
            if not isinstance(arg, (Var, IntConst, SymConst)):
                raise ProgramError(f"query arguments must be constants or variables: {atom}")

    used = {name for name, _arity in kinds}
    used |= {c.name for c in program.decls.constants}
    used |= {d.name for d in program.decls.domains}
    holds = Atom(_fresh_name("query_holds", used), ())
    return Program(
        program.decls,
        program.definitions + (Clause(holds, tuple(Pos(a) for a in query)),),
        program.constraints + (Constraint((Pos(holds),), ()),),
    )
