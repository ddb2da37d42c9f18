"""Abductive solver: enumerate hypothesis sets that satisfy a theory.

A solution is a set of universe atoms whose addition to the definition
layer yields a total well-founded model satisfying every constraint.
The search is a trail-based DPLL over the abducible candidates.  Unit
propagation runs on a clause database built from two sources:

  * every ground constraint, as the disjunction of its head verdicts
    and negated body literals, and
  * a supported-model (completion) encoding of the definition layer,
    with one auxiliary variable per multi-literal clause body.

Any two-valued well-founded model extends to a total assignment of this
database, so propagation and conflict pruning never lose a solution;
the converse does not hold in the presence of positive cycles, which is
why every surviving leaf is verified with the reference check before it
is emitted.  On acyclic definition layers, which cover the common case,
propagation alone decides every derived atom, and it also regresses
goals backwards through the rules, which is what makes the planning
workload tractable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import wfs
from .ground import GroundClause, GroundConstraint, GroundTheory, _typing_positions
from .syntax import (
    AbducibleDecl,
    Atom,
    Clause,
    Constraint,
    Declarations,
    IntConst,
    Pos,
    PredKind,
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
    must stay inside universe plus forced atoms.
    """
    db = _clause_db(theory)
    dset = set(delta)
    stray = sorted(dset - db.candidates)
    if stray:
        names = ", ".join(theory.atoms.render(i) for i in stray[:5])
        raise SolveError(f"delta atoms outside the abducible universe: {names}")
    truth, trace = wfs.well_founded(db.definitions, dset, theory.n_atoms)
    two_valued, undef = wfs.is_two_valued(truth)
    if not two_valued:
        return NotTwoValued(tuple(undef), trace)
    idx = db.first_falsified(truth)
    if idx is None:
        return Sat(trace)
    gc = theory.constraints[db.origins[idx]]
    return UnsatConstraint(gc, theory.render_constraint(gc), trace)


# ---------------------------------------------------------------------------
# options and reports


@dataclass
class SolveOptions:
    max_models: int | None = None  # None enumerates every solution
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
# clause database


class _ClauseDb:
    """A ground theory compiled once for both the search and the leaf check.

    Literal encoding: 2*v is "v true", 2*v+1 is "v false".  Clauses are
    literal sets in order of first occurrence, deduplicated (the denial
    flag is ORed over duplicates) and without tautologies.  The first
    n_constraint_clauses encode the ground constraints, each as the
    disjunction of its head verdicts and negated body literals, with
    origins[i] the index of the first constraint giving that set; the
    rest encode the completion of the definition layer, with origins[i]
    the defined atom.  definitions holds the definition layer in the
    form wfs.well_founded takes.

    The theory owns its database as a cache, so the database keeps no
    reference back to it: a cycle would keep every theory alive until
    the cyclic garbage collector runs.
    """

    def __init__(self, theory: GroundTheory):
        self.n_atoms = theory.n_atoms
        self.nvars = theory.n_atoms
        self.clauses: list[tuple[int, ...]] = []
        self.origins: list[int] = []
        self.is_denial: list[bool] = []
        self._index: dict[tuple[int, ...], int] = {}

        candidates = list(theory.universe)
        in_universe = set(theory.universe)
        candidates += [i for i in theory.forced if i not in in_universe]
        self.branch_vars = sorted(candidates, key=lambda i: theory.atoms.atom(i).sort_key)
        self.candidates = frozenset(candidates)

        for ci, gc in enumerate(theory.constraints):
            lits = [2 * a + (0 if wanted else 1) for a, wanted in gc.heads]
            lits += [2 * a + 1 for a in gc.pos]
            lits += [2 * a for a in gc.neg]
            self._add(lits, ci, denial=not gc.heads)
        self.n_constraint_clauses = len(self.clauses)
        self._add_completion(theory.clauses)
        del self._index  # only dedup needs it, and the database outlives the search

        self.occ: list[list[int]] = [[] for _ in range(2 * self.nvars)]
        for idx, cl in enumerate(self.clauses):
            for lit in cl:
                self.occ[lit].append(idx)
        self.definitions = wfs.clause_arrays([(c.head, c.pos, c.neg) for c in theory.clauses])

    def _new_aux(self) -> int:
        v = self.nvars
        self.nvars += 1
        return v

    def _add(self, lits: list[int], origin: int, denial: bool = False):
        uniq = set(lits)
        key = tuple(sorted(uniq))
        for lit in key:
            if lit ^ 1 in uniq:
                return  # tautology
        prev = self._index.get(key)
        if prev is not None:
            self.is_denial[prev] = self.is_denial[prev] or denial
            return
        self._index[key] = len(self.clauses)
        self.clauses.append(key)
        self.origins.append(origin)
        self.is_denial.append(denial)

    def _add_completion(self, clauses: list[GroundClause]):
        bodies_by_head: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
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
                self._add([2 * head], head)
                continue
            support = [2 * head + 1]
            for pos, neg in bodies:
                lits = [2 * a for a in pos] + [2 * a + 1 for a in neg]
                if len(lits) == 1:
                    dj = lits[0]
                else:
                    aux = self._new_aux()
                    dj = 2 * aux
                    for lit in lits:
                        self._add([dj ^ 1, lit], head)
                    self._add([dj] + [lit ^ 1 for lit in lits], head)
                self._add([dj ^ 1, 2 * head], head)
                support.append(dj)
            self._add(support, head)
        # Atoms that are neither derivable nor assumable are simply false.
        for a in range(self.n_atoms):
            if a not in bodies_by_head and a not in self.candidates:
                self._add([2 * a + 1], a)

    def first_falsified(self, truth: Sequence[int]) -> int | None:
        """First constraint clause with every literal false under a total
        truth array; under a total model a constraint is violated exactly
        when its clause is falsified."""
        true_lit = bytearray(2 * self.n_atoms)
        true_lit[0::2] = bytes(t == wfs.TRUE for t in truth)
        true_lit[1::2] = bytes(t != wfs.TRUE for t in truth)
        clauses = self.clauses
        for idx in range(self.n_constraint_clauses):
            for lit in clauses[idx]:
                if true_lit[lit]:
                    break
            else:
                return idx
        return None

    def describe_origin(self, theory: GroundTheory, idx: int) -> str:
        ref = self.origins[idx]
        if idx < self.n_constraint_clauses:
            return theory.render_constraint(theory.constraints[ref])
        return f"definition of {theory.atoms.render(ref)}"


def _clause_db(theory: GroundTheory) -> _ClauseDb:
    """The theory's compiled clause database, built on first use."""
    if theory._clause_db is None:
        theory._clause_db = _ClauseDb(theory)
    return theory._clause_db


# ---------------------------------------------------------------------------
# the search engine


class _Search:
    def __init__(self, theory: GroundTheory, options: SolveOptions, stats: SolveStats):
        self.theory = theory
        self.options = options
        self.stats = stats
        self.db = _clause_db(theory)
        n = self.db.nvars
        self.status = [-1] * n
        self.sat_count = [0] * len(self.db.clauses)
        self.unk_count = [len(cl) for cl in self.db.clauses]
        self.trail: list[int] = []
        self.score = [0] * n
        for idx, cl in enumerate(self.db.clauses):
            if self.db.is_denial[idx]:
                for lit in cl:
                    v = lit >> 1
                    if v in self.db.candidates:
                        self.score[v] += 1
        self.solutions: list[tuple[int, ...]] = []
        self.minimal_sets: list[frozenset[int]] = []

    # -- assignment machinery -------------------------------------------

    def _apply(self, var: int, val: int) -> int | None:
        """Set one variable and update counters; returns a conflicting
        clause index if some clause just lost its last disjunct."""
        db = self.db
        self.status[var] = val
        self.trail.append(var)
        tlit = 2 * var + (0 if val else 1)
        occ = db.occ
        sat_count = self.sat_count
        unk_count = self.unk_count
        for ci in occ[tlit]:
            was = sat_count[ci]
            sat_count[ci] = was + 1
            if was == 0 and db.is_denial[ci]:
                for lit in db.clauses[ci]:
                    v = lit >> 1
                    if v in db.candidates:
                        self.score[v] -= 1
        conflict = None
        for ci in occ[tlit ^ 1]:
            unk_count[ci] -= 1
            if conflict is None and sat_count[ci] == 0 and unk_count[ci] == 0:
                conflict = ci
        return conflict

    def _unapply(self, var: int):
        db = self.db
        val = self.status[var]
        tlit = 2 * var + (0 if val else 1)
        for ci in db.occ[tlit]:
            now = self.sat_count[ci] - 1
            self.sat_count[ci] = now
            if now == 0 and db.is_denial[ci]:
                for lit in db.clauses[ci]:
                    v = lit >> 1
                    if v in db.candidates:
                        self.score[v] += 1
        for ci in db.occ[tlit ^ 1]:
            self.unk_count[ci] += 1
        self.status[var] = -1

    def undo_to(self, mark: int):
        while len(self.trail) > mark:
            self._unapply(self.trail.pop())

    def propagate(self, var: int, val: int) -> int | None:
        """Assign and run unit propagation to fixpoint; on conflict the
        offending clause index comes back and the caller unwinds."""
        conflict = self._apply(var, val)
        if conflict is not None:
            return conflict
        db = self.db
        status = self.status
        qi = len(self.trail) - 1
        while qi < len(self.trail):
            v = self.trail[qi]
            qi += 1
            flit = 2 * v + (1 if status[v] else 0)
            for ci in db.occ[flit]:
                if self.sat_count[ci] != 0 or self.unk_count[ci] != 1:
                    continue
                unit = None
                for lit in db.clauses[ci]:
                    if status[lit >> 1] == -1:
                        unit = lit
                        break
                if unit is None:  # pragma: no cover - counters keep this exact
                    continue
                self.stats.propagations += 1
                conflict = self._apply(unit >> 1, 0 if unit & 1 else 1)
                if conflict is not None:
                    return conflict
        return None

    def propagate_pending(self) -> int | None:
        """Initial propagation: fire all unit and empty clauses."""
        for ci, cl in enumerate(self.db.clauses):
            if self.sat_count[ci] != 0:
                continue
            if self.unk_count[ci] == 0:
                return ci
            if self.unk_count[ci] == 1:
                unit = None
                for lit in cl:
                    if self.status[lit >> 1] == -1:
                        unit = lit
                        break
                if unit is None:
                    continue
                self.stats.propagations += 1
                conflict = self.propagate(unit >> 1, 0 if unit & 1 else 1)
                if conflict is not None:
                    return conflict
        return None

    # -- branching --------------------------------------------------------

    def pick(self) -> int | None:
        best = None
        best_score = -1
        status = self.status
        score = self.score
        for v in self.db.branch_vars:
            if status[v] == -1 and score[v] > best_score:
                best = v
                best_score = score[v]
        return best

    def run(self) -> bool:
        """DFS; returns False when the model cap stopped the search."""
        var = self.pick()
        if var is None:
            return self._leaf()
        for val in (0, 1):
            self.stats.nodes += 1
            mark = len(self.trail)
            conflict = self.propagate(var, val)
            if conflict is None:
                more = self.run()
                self.undo_to(mark)
                if not more:
                    return False
            else:
                self.stats.pruned += 1
                self.undo_to(mark)
        return True

    def _leaf(self) -> bool:
        delta = tuple(v for v in self.db.branch_vars if self.status[v] == 1)
        if self.options.minimal_only:
            # Two leaves first differ at a decision on some variable, and
            # a subset takes it absent there, so absent-first search
            # reaches every solution before its strict supersets.  A leaf
            # containing no emitted solution is therefore minimal: any
            # solution inside it was reached earlier and was either
            # emitted or itself contains an emitted one.
            dset = frozenset(delta)
            if any(s <= dset for s in self.minimal_sets):
                return True
        self.stats.checks += 1
        if not isinstance(check_delta(self.theory, delta), Sat):
            return True
        self.solutions.append(delta)
        if self.options.minimal_only:
            self.minimal_sets.append(dset)
        self.stats.models += 1
        cap = self.options.max_models
        return cap is None or self.stats.models < cap


# ---------------------------------------------------------------------------
# stratification warning


def _stratification_warning(theory: GroundTheory) -> str | None:
    """Detect negative dependencies inside a strongly connected component
    of the ground definition layer."""
    adj: dict[int, list[tuple[int, bool]]] = {}
    for gc in theory.clauses:
        edges = adj.setdefault(gc.head, [])
        edges.extend((b, False) for b in gc.pos)
        edges.extend((b, True) for b in gc.neg)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    counter = [0]
    comps = [0]
    stack: list[int] = []
    on_stack: set[int] = set()

    def strongconnect(root: int):
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w, _negedge in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                cid = comps[0]
                comps[0] += 1
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = cid
                    if w == v:
                        break

    for v in adj:
        if v not in index:
            strongconnect(v)
    for gc in theory.clauses:
        for b in gc.neg:
            if comp.get(gc.head) is not None and comp.get(gc.head) == comp.get(b):
                return (
                    "definition layer is not stratified "
                    f"(negative loop through {theory.atoms.render(gc.head)}); "
                    "candidates that wake the loop are rejected as not two-valued"
                )
    return None


# ---------------------------------------------------------------------------
# public entry points


def solve(theory: GroundTheory, options: SolveOptions | None = None) -> SolveReport:
    """Enumerate admissible hypothesis sets in deterministic order.

    Every emitted solution has been re-verified against check_delta, so
    the report is sound by construction; completeness comes from the
    propagation clauses being satisfied by every solution's model.
    """
    options = options or SolveOptions()
    stats = SolveStats()
    t0 = time.perf_counter()
    search = _Search(theory, options, stats)
    report = SolveReport([], stats)
    warning = _stratification_warning(theory)
    if warning:
        report.warnings.append(warning)
    conflict = search.propagate_pending()
    if conflict is not None:
        report.unsat_reason = (
            "constraints are contradictory before any hypothesis: "
            + search.db.describe_origin(theory, conflict)
        )
        stats.wall_time = time.perf_counter() - t0
        return report
    search.run()
    report.solutions = search.solutions
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

    Adds a fresh abducible marker x over the query's variables, the
    denial ``false <- Q1,...,Qm, x(V1,...,Vk)``, and a forcing constraint
    through a fresh defined predicate that requires the query to hold,
    so the solutions of the translated program are exactly the original
    solutions in which the query is true.  An empty query returns the
    program unchanged.
    """
    if not query:
        return program
    normalized = normalize(program)
    kinds = classify_predicates(normalized)
    used = {name for name, _arity in kinds}
    used |= {c.name for c in program.decls.constants}
    used |= {d.name for d in program.decls.domains}

    seen_vars: list[str] = []
    for atom in query:
        if atom.key not in kinds or kinds[atom.key] is PredKind.BUILTIN:
            raise ProgramError(
                f"query atom {atom} is not a defined or abducible predicate"
            )
        for arg in atom.args:
            if isinstance(arg, Var):
                if arg.name not in seen_vars:
                    seen_vars.append(arg.name)
            elif not isinstance(arg, (IntConst, SymConst)):
                raise ProgramError(f"query arguments must be constants or variables: {atom}")

    domain_names: dict[str, str] = {}
    typing_preds: dict[str, list[str]] = {}
    decl_by_pred = {d.pred: d for d in program.decls.abducibles}
    for atom in query:
        for i, arg in enumerate(atom.args):
            if not isinstance(arg, Var):
                continue
            decl = decl_by_pred.get(atom.pred)
            if decl is not None and decl.arg_domains is not None:
                domain_names.setdefault(arg.name, decl.arg_domains[i])
                continue
            for d in _typing_positions(normalized, atom.pred, atom.arity).get(i, ()):
                typing_preds.setdefault(arg.name, [])
                if d not in typing_preds[arg.name]:
                    typing_preds[arg.name].append(d)

    for v in seen_vars:
        if v not in domain_names and v not in typing_preds:
            raise ProgramError(f"cannot infer a domain for query variable {v}")
        if v in domain_names and v in typing_preds:
            raise ProgramError(
                f"query variable {v} mixes declared domains with typing constraints"
            )
    use_domains = bool(seen_vars) and all(v in domain_names for v in seen_vars)
    if seen_vars and not use_domains and any(v in domain_names for v in seen_vars):
        raise ProgramError("query variables mix declared domains with typing constraints")

    x_name = _fresh_name("x", used)
    used.add(x_name)
    holds_name = _fresh_name("query_holds", used)

    var_terms = tuple(Var(v) for v in seen_vars)
    x_atom = Atom(x_name, var_terms)
    query_lits = tuple(Pos(a) for a in query)

    x_decl = AbducibleDecl(
        x_name,
        len(seen_vars),
        tuple(domain_names[v] for v in seen_vars) if use_domains else None,
    )
    new_definitions = (Clause(Atom(holds_name, ()), query_lits),)
    new_constraints = [Constraint((), query_lits + (Pos(x_atom),))]
    if seen_vars and not use_domains:
        for v in seen_vars:
            for d in typing_preds[v]:
                new_constraints.append(
                    Constraint((Pos(Atom(d, (Var(v),))),), (Pos(x_atom),))
                )
    if seen_vars:
        new_constraints.append(Constraint((), (Pos(x_atom),)))
    new_constraints.append(Constraint((Pos(Atom(holds_name, ())),), ()))

    decls = Declarations(
        program.decls.abducibles + (x_decl,),
        program.decls.constants,
        program.decls.domains,
    )
    return Program(
        decls,
        program.definitions + new_definitions,
        program.constraints + tuple(new_constraints),
    )
