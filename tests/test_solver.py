"""Search engine: candidate checking, enumeration, query translation."""

import collections
import dataclasses
import importlib.resources
import itertools
import random

import pytest

from alp import wfs
from alp.ground import (
    AtomTable,
    GroundAtom,
    GroundClause,
    GroundConstraint,
    GroundTheory,
    _clause,
    _constraint_clauses,
    apply_const_overrides,
    build_theory,
)
from alp.parser import parse_text, pretty_print
from alp.solver import (
    NotTwoValued,
    Sat,
    SolveOptions,
    SolveStats,
    UnsatConstraint,
    _Search,
    check_delta,
    solve,
    translate_query,
)
from alp.syntax import ArithExpr, Atom, IntConst, Pos, ProgramError, SolveError, SymConst, Var, normalize
from alp.wfs import TRUE, is_two_valued, well_founded
from reference_completion import ReferenceSearch
from test_ground import bench_hamcycle_text, random_program, symmetric_program


def theory_for(text, name="t"):
    return build_theory(parse_text(text, name))


def atom_id(theory, text):
    for i in range(theory.n_atoms):
        if str(theory.atoms.atom(i)) == text:
            return i
    raise AssertionError(f"no atom {text}")


def solution_strs(theory, report):
    return [
        tuple(str(theory.atoms.atom(a)) for a in delta) for delta in report.solutions
    ]


def brute_solutions(theory):
    cands = sorted(set(theory.universe) | set(theory.forced))
    out = set()
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            if isinstance(check_delta(theory, combo), Sat):
                out.add(frozenset(combo))
    return out


# -- check_delta ------------------------------------------------------------


def test_check_delta_sat():
    theory = theory_for("abducible a/0.\np :- a.\np <- true.\n")
    result = check_delta(theory, [atom_id(theory, "a")])
    assert isinstance(result, Sat)
    assert result.trace is not None


def test_check_delta_reports_first_violated_instance():
    theory = theory_for(
        "abducible a/0.\nq <- true.\nr <- true.\nq :- a.\nr :- a.\n"
    )
    result = check_delta(theory, [])
    assert isinstance(result, UnsatConstraint)
    # constraints are checked in theory order, so q's comes first
    assert result.rendered == "q <- true."


def test_check_delta_not_two_valued():
    theory = theory_for("abducible a/0.\np :- not p, a.\nfalse <- not a.\n")
    result = check_delta(theory, [atom_id(theory, "a")])
    assert isinstance(result, NotTwoValued)
    assert [str(theory.atoms.atom(i)) for i in result.atoms] == ["p"]


def test_check_delta_rejects_stray_atoms():
    theory = theory_for("abducible a/0.\nfalse <- not a.\np :- a.\n")
    with pytest.raises(SolveError, match="universe"):
        check_delta(theory, [atom_id(theory, "p")])


def test_check_delta_negative_heads():
    # not a <- b. is satisfied when a is false
    theory = theory_for("abducible a/0.\nabducible b/0.\nnot a <- b.\n")
    a, b = atom_id(theory, "a"), atom_id(theory, "b")
    assert isinstance(check_delta(theory, [a, b]), UnsatConstraint)
    assert isinstance(check_delta(theory, [b]), Sat)
    assert isinstance(check_delta(theory, [a]), Sat)  # body fails, head moot


def reference_check(theory, delta):
    """check_delta's verdict from the raw ground constraints, every one
    of them (expand_constraints), field by field: (verdict class,
    undefined atoms or violated instance)."""
    truth, _trace = well_founded(
        [(c.head, c.pos, c.neg) for c in theory.clauses], set(delta), theory.n_atoms
    )
    two_valued, undef = is_two_valued(truth)
    if not two_valued:
        return NotTwoValued, tuple(undef)
    for gc in theory.expand_constraints():
        body = all(truth[a] == TRUE for a in gc.pos) and not any(
            truth[a] == TRUE for a in gc.neg
        )
        if not body:
            continue
        if gc.heads and any((truth[a] == TRUE) == wanted for a, wanted in gc.heads):
            continue
        return UnsatConstraint, gc
    return Sat, None


class FixedRule:
    """A test double for alp.ground.ConstraintRule: one rule that is not
    lazy, whose instances are a fixed list of ground constraints, in
    order, with the reader methods the theory and the solver call.  Its
    expansion keeps every instance, repeats included, and its readers
    return the listed objects themselves."""

    lazy = False
    satisfied = False
    origin = 0

    def __init__(self, instances):
        self.instances = instances

    def each_instance(self, found, count):
        for gc in self.instances:
            found(_clause(gc.heads, gc.pos, gc.neg), gc.heads, gc.pos, gc.neg)

    def expand(self, seen, keep, count):
        for gc in self.instances:
            keep(gc)

    def first_true(self, value, clause=None):
        for gc in self.instances:
            c = _clause(gc.heads, gc.pos, gc.neg)
            if c is not None and (c == clause if clause is not None else all(value[lit] == 0 for lit in c)):
                return gc
        return None


def hand_built(atoms, clauses, instances, universe, forced):
    """A theory whose constraints are the given instances, through one
    FixedRule, its clauses kept as ground keeps them."""
    rule = FixedRule(instances)
    return GroundTheory(atoms, clauses, _constraint_clauses([rule]), universe, forced, (rule,))


def random_ground_theory(rng, positive_loops=False):
    """A small ground theory whose constraints repeat, permute and
    contradict themselves: equal copies, shuffled copies, tautologies and
    negative heads, over few atoms so that accidental repeats occur too.

    With positive_loops the definitions may refer to any atom but never
    negatively, so loops are positive: the family whose leaves are
    decided without a well-founded run.  Otherwise 30% of the draws are
    cyclic with negation, the rest acyclic."""
    table = AtomTable()
    universe = tuple(table.intern(GroundAtom("u", (i,))) for i in range(rng.randint(1, 5)))
    defined = tuple(table.intern(GroundAtom("d", (i,))) for i in range(rng.randint(0, 4)))
    atoms = universe + defined
    cyclic = positive_loops or rng.random() < 0.3  # else each d(i) rests on u and lower d only
    clauses = []
    for i, head in enumerate(defined):
        below = atoms if cyclic else universe + defined[:i]
        for _ in range(rng.randint(0, 2)):
            pos = tuple(rng.choice(below) for _ in range(rng.randint(0, 2)))
            neg = ()
            if not positive_loops:
                neg = tuple(rng.choice(below) for _ in range(rng.randint(0, 1)))
            clauses.append(GroundClause(head, pos, neg))
    constraints = []
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        if constraints and roll < 0.2:
            constraints.append(dataclasses.replace(rng.choice(constraints)))
        elif constraints and roll < 0.35:
            gc = rng.choice(constraints)
            constraints.append(
                GroundConstraint(
                    tuple(rng.sample(gc.heads, len(gc.heads))),
                    tuple(rng.sample(gc.pos, len(gc.pos))),
                    tuple(rng.sample(gc.neg, len(gc.neg))),
                )
            )
        else:
            heads = [(rng.choice(atoms), rng.random() < 0.6) for _ in range(rng.randint(0, 2))]
            pos = [rng.choice(atoms) for _ in range(rng.randint(0, 3))]
            neg = [rng.choice(atoms) for _ in range(rng.randint(0, 2))]
            if roll > 0.85:  # a tautology: some literal and its complement
                a = rng.choice(atoms)
                pos.append(a)
                if rng.random() < 0.5:
                    neg.append(a)
                else:
                    heads.append((a, True))
            constraints.append(GroundConstraint(tuple(heads), tuple(pos), tuple(neg)))
    forced = tuple(a for a in universe if rng.random() < 0.1)
    return hand_built(table, clauses, constraints, universe, forced)


def test_check_delta_matches_field_by_field_reference():
    rng = random.Random(20)
    seen = set()
    for _ in range(400):
        theory = random_ground_theory(rng)
        candidates = sorted(set(theory.universe) | set(theory.forced))
        for _ in range(6):
            delta = [a for a in candidates if rng.random() < 0.5]
            kind, detail = reference_check(theory, delta)
            result = check_delta(theory, delta)
            assert type(result) is kind
            seen.add(kind)
            if kind is NotTwoValued:
                assert result.atoms == detail
            elif kind is UnsatConstraint:
                assert result.instance is detail  # the first violated instance itself
                assert result.rendered == theory.render_constraint(detail)
    assert seen == {Sat, UnsatConstraint, NotTwoValued}


# -- clause database ----------------------------------------------------------


def reference_clause(gc, seen):
    """One constraint's literal set, computed the plain way: sorted, or
    None for a tautology.  seen counts the cases met."""
    lits = [2 * a + (0 if wanted else 1) for a, wanted in gc.heads]
    lits += [2 * a + 1 for a in gc.pos]
    lits += [2 * a for a in gc.neg]
    if len(set(lits)) < len(lits):
        seen["repeated literal"] += 1
    if any(lit ^ 1 in lits for lit in lits):
        seen["tautology"] += 1
        return None
    return tuple(sorted(set(lits)))


def eager_instances(theory, skipped=frozenset()):
    """(origin, instance) for each instance of the theory's rules that
    are not lazy and whose origin is not in skipped, as expanding those
    rules alone keeps them."""
    out = []
    seen = set()
    for rule in theory.rules:
        if not rule.lazy and rule.origin not in skipped:
            rule.expand(seen, lambda gc, origin=rule.origin: out.append((origin, gc)), [0])
    return out


def satisfied_typing(program, theory):
    """The origins of the typing constraints that the universe satisfies,
    read from the source: a constraint with one positive head d(V) over
    a unary predicate and one positive body literal p(V1,...,Vn) whose
    arguments are distinct variables, V among them, where p is an
    abducible declared without domains none of whose forced atoms lies
    outside the universe.  ground also asks that the universe keep to
    the integers of the base model's hull, which every program read
    here does."""
    untyped = {(d.pred, d.arity) for d in program.decls.abducibles if d.arg_domains is None}
    universe = set(theory.universe)
    for i in theory.forced:
        if i not in universe:
            atom = theory.atoms.atom(i)
            untyped.discard((atom.pred, len(atom.args)))
    out = set()
    for origin, con in enumerate(normalize(program).constraints):
        if len(con.heads) != 1 or len(con.body) != 1:
            continue
        head, body = con.heads[0], con.body[0]
        if not isinstance(head, Pos) or not isinstance(body, Pos) or body.atom.key not in untyped:
            continue
        names = [arg.name for arg in body.atom.args if isinstance(arg, Var)]
        var = head.atom.args[0] if len(head.atom.args) == 1 else None
        if len(set(names)) == len(body.atom.args) and isinstance(var, Var) and var.name in names:
            out.add(origin)
    return out


def reference_constraint_clauses(theory, seen, skipped=frozenset()):
    """The constraint clauses as GroundTheory documents them, computed
    the plain way from the instances of the rules that are not lazy,
    bar those in skipped: each instance's literal set, tautologies
    dropped, the first occurrence of each set kept with its rule's
    origin, and the denial flag ORed over the instances giving the set.
    seen counts the cases met."""
    clauses, origins, is_denial = [], [], []
    first = {}
    for origin, gc in eager_instances(theory, skipped):
        key = reference_clause(gc, seen)
        if key is None:
            continue
        if key not in first:
            first[key] = len(clauses)
            clauses.append(key)
            origins.append(origin)
            is_denial.append(not gc.heads)
            continue
        seen["duplicate"] += 1
        j = first[key]
        if not gc.heads and not is_denial[j]:
            seen["denial ORed"] += 1
            is_denial[j] = True
    return clauses, origins, is_denial


def clashing_constraints(rng, theory):
    """The theory with constraints inserted at random places whose heads
    repeat body literals: a head equal to a negated body atom, a
    negative head equal to a positive body atom, and a denial whose body
    is another constraint's body and negative heads, permuted, so that
    both give one literal set."""
    atoms = list(range(theory.n_atoms))
    constraints = theory.expand_constraints()
    for _ in range(rng.randint(0, 6)):
        a = rng.choice(atoms)
        pos = tuple(rng.choice(atoms) for _ in range(rng.randint(0, 2)))
        roll = rng.random()
        if roll < 0.3:  # a <- not a, ...: one literal, twice
            gc = GroundConstraint(((a, True),), pos, (a,))
        elif roll < 0.6:  # not a <- a, ...: the clause of false <- a, ...
            gc = GroundConstraint(((a, False),), pos + (a,))
        else:  # negative heads moved into the body: a denial, the same set
            negative = [c for c in constraints if c.heads and not any(w for _a, w in c.heads)]
            if not negative:
                continue
            src = rng.choice(negative)
            body = list(src.pos) + [h for h, _wanted in src.heads]
            gc = GroundConstraint((), tuple(rng.sample(body, len(body))), src.neg)
        constraints.insert(rng.randint(0, len(constraints)), gc)
    return hand_built(theory.atoms, theory.clauses, constraints, theory.universe, theory.forced)


def assert_constraint_clauses_match(theory, seen, label, skipped=frozenset()):
    """The theory's constraint clauses and the constraint part of its
    search's clauses against the plain reference encoding, which leaves
    out the rules in skipped."""
    clauses, origins, is_denial = reference_constraint_clauses(theory, seen, skipped)
    assert [tuple(record) for record in theory.constraints] == list(zip(clauses, origins, is_denial)), label
    db = _Search(theory, SolveOptions(), SolveStats())
    n = db.n_constraint_clauses
    assert n == len(clauses), label
    assert db.clauses[:n] == clauses, label
    assert db.origins[:n] == origins, label
    assert db.is_denial[:n] == is_denial, label
    # The completion clauses come after, through the same dedup: no
    # set twice, but a support clause that repeats a denial's clause
    # (see _Search._add_completion), no tautology, none a denial.
    denials = {cl for cl, denial in zip(clauses, is_denial) if denial and len(cl) > 2}
    repeats = sum(cl in denials for cl in db.clauses[n:])
    assert len(set(db.clauses)) == len(db.clauses) - repeats, label
    assert all(lit ^ 1 not in cl for cl in db.clauses for lit in cl), label
    assert not any(db.is_denial[n:]), label


def test_constraint_clauses_match_a_plain_reference_encoding():
    # hand-built theories: the clauses come from _constraint_clauses
    # over a FixedRule
    rng = random.Random(31)
    seen = collections.Counter()
    for i in range(500):
        theory = clashing_constraints(rng, random_ground_theory(rng))
        assert_constraint_clauses_match(theory, seen, f"theory {i}")
    # Floors at about half of what this seed gives (2,507 constraints
    # with a repeated literal, 1,617 tautologies, 738 duplicates, 113
    # denial flags ORed into a clause first given by heads).
    floors = {"repeated literal": 1200, "tautology": 800, "duplicate": 350, "denial ORed": 55}
    assert all(seen[case] >= floor for case, floor in floors.items()), seen


def test_grounded_constraint_clauses_match_a_plain_reference_encoding():
    # grounded theories: ground keeps the clauses as it runs each
    # rule's join, but for the typing rules that the universe satisfies
    programs = [
        ("queens-6", bundled_program("queens.alp", size=6)),
        ("queens-8", bundled_program("queens.alp", size=8)),
        ("queens-10", bundled_program("queens.alp", size=10)),
        ("blocks", bundled_program("blocks.alp")),
        ("hamcycle-1", parse_text(bench_hamcycle_text(1), "hamcycle-1")),
        ("hamcycle-2", parse_text(bench_hamcycle_text(2), "hamcycle-2")),
    ]
    for seed, family in ((6610, random_program), (8, symmetric_program)):
        rng = random.Random(seed)
        for i in range(300):
            text = family(rng)
            programs.append((f"{family.__name__} {i}:\n{text}", parse_text(text, "t")))
    seen = collections.Counter()
    for label, program in programs:
        theory = build_theory(program)
        skipped = satisfied_typing(program, theory)
        seen["satisfied typing"] += len(skipped)
        assert_constraint_clauses_match(theory, seen, label, skipped)
    # Floors at about half of what these seeds give (5,909 constraints
    # with a repeated literal, 2,151 tautologies, 14 duplicates across
    # rules, 3 denial flags ORed into a clause first given by heads).
    # The typing rules left out are queens' two, blocks' five and
    # hamcycle's two: 15 (the random programs declare their domains).
    floors = {"repeated literal": 2900, "tautology": 1000, "duplicate": 7, "denial ORed": 1, "satisfied typing": 15}
    assert all(seen[case] >= floor for case, floor in floors.items()), seen


COMPILED = (
    "clauses origins is_denial nvars n_constraint_clauses implied watches watch0 watch1 "
    "binary units negative_loop_atom loop_atoms body_head body_lit body_internal "
    "bodies_of dependents body_watch"
).split()


def count_completion_cases(theory, seen):
    """Count the definition layer's shapes that the completion must
    compile as the reference does: repeats inside one body, the head
    among its own body atoms, an atom and its negation in one body, a
    one-literal body whose clause is a constraint clause, a fact head,
    a support clause that is a tautology or equals a body clause, and a
    unit clause that repeats a constraint clause."""
    constraint_clauses = {record.clause for record in theory.constraints}
    bodies = {}
    for gc in theory.clauses:
        bodies.setdefault(gc.head, {})[gc.pos, gc.neg] = None
    for head, of_head in bodies.items():
        if ((), ()) in of_head:
            seen["fact head"] += 1
            seen["fact repeats a constraint clause"] += (2 * head,) in constraint_clauses
            continue
        singles, long = set(), []
        for pos, neg in of_head:
            lits = [2 * a for a in pos] + [2 * a + 1 for a in neg]
            if len(lits) == 1:
                singles.add(lits[0])
                if tuple(sorted((lits[0] ^ 1, 2 * head))) in constraint_clauses:
                    seen["one-literal body repeats a constraint clause"] += 1
                continue
            seen["repeated body literal"] += len(set(lits)) < len(lits)
            seen["head among its body atoms"] += head in pos
            if set(pos) & set(neg):
                seen["complementary body literals"] += 1
            else:
                long.append({lit ^ 1 for lit in lits})
        if 2 * head in singles or any(lit ^ 1 in singles for lit in singles):
            seen["tautological support clause"] += 1
        elif len(long) == 1 and long[0] == singles | {2 * head + 1}:
            seen["support clause repeats a body clause"] += 1
    candidates = set(theory.universe) | set(theory.forced)
    for a in range(theory.n_atoms):
        if a not in bodies and a not in candidates and (2 * a + 1,) in constraint_clauses:
            seen["false atom's unit repeats a constraint clause"] += 1


def definition_clashes(rng, theory):
    """The theory with constraints inserted at random places that give
    a completion clause: the clause of a one-literal body (h <- b for
    h :- b, and h ; b <- true for h :- not b), a fact's unit and the
    unit of an atom that is neither defined nor a candidate."""
    defined = {gc.head for gc in theory.clauses}
    candidates = set(theory.universe) | set(theory.forced)
    planted = []
    for gc in theory.clauses:
        if len(gc.pos) + len(gc.neg) == 1 and rng.random() < 0.5:
            heads = ((gc.head, True),) + tuple((b, True) for b in gc.neg)
            planted.append(GroundConstraint(heads, gc.pos))
        elif not gc.pos and not gc.neg:
            planted.append(GroundConstraint(((gc.head, True),)))
    undefined = [a for a in range(theory.n_atoms) if a not in defined and a not in candidates]
    if undefined:
        planted.append(GroundConstraint((), (rng.choice(undefined),)))
    constraints = theory.expand_constraints()
    for gc in planted:
        constraints.insert(rng.randint(0, len(constraints)), gc)
    return hand_built(theory.atoms, theory.clauses, constraints, theory.universe, theory.forced)


def assert_compiled_like_the_reference(theory, seen, label):
    """Every structure _Search compiles, against ReferenceSearch."""
    count_completion_cases(theory, seen)
    ref = ReferenceSearch(theory, SolveOptions(), SolveStats())
    new = _Search(theory, SolveOptions(), SolveStats())
    for name in COMPILED:
        assert getattr(new, name) == getattr(ref, name), (label, name)

    def support(search):  # itemgetters compare by identity, so by repr
        return [(repr(lits), cands, repr(get)) for lits, cands, get in search.support]

    assert support(new) == support(ref), label


# Programs that meet each case count_completion_cases counts, and one
# whose first clause with a negative loop has not the first head that
# has one: negative_loop_atom is b.
COMPLETION_CASES = [
    "abducible q/0.\nh :- h, q.\nh :- not q.\n",
    "abducible q/0.\nabducible r/0.\nh :- q, q, r.\nh :- q, not q.\nh :- h.\n",
    "abducible q/0.\nh :- q.\nh <- q.\nf.\nf <- true.\ng :- f, q.\n",
    "abducible q/0.\na :- q.\nb :- not b, q.\na :- not a.\n",
]


def test_completion_compiles_like_the_reference():
    theories = [(text, theory_for(text)) for text in COMPLETION_CASES]
    theories += [
        ("queens-6", bundled_theory("queens.alp", size=6)),
        ("queens-8", bundled_theory("queens.alp", size=8)),
        ("queens-10", bundled_theory("queens.alp", size=10)),
        ("blocks", bundled_theory("blocks.alp")),
        ("hamcycle-1", bench_hamcycle_theory(1)),
        ("hamcycle-2", bench_hamcycle_theory(2)),
    ]
    for seed, family in ((6610, random_program), (8, symmetric_program)):
        rng = random.Random(seed)
        theories += [(f"{family.__name__} {i}", theory_for(family(rng))) for i in range(100)]
    rng = random.Random(19)
    for i in range(400):
        theory = random_ground_theory(rng, positive_loops=i % 2 == 0)
        theories.append((f"random {i}", definition_clashes(rng, theory)))
        theories.append((f"negative loop {i}", negative_loop_theory(rng)))
    seen = collections.Counter()
    for label, theory in theories:
        assert_compiled_like_the_reference(theory, seen, label)
    # Floors at about half of what these seeds give (471 fact heads,
    # 205 units of a false atom, 198 fact units and 110 one-literal body
    # clauses that repeat a constraint clause, 123 repeated body
    # literals, 116 heads among their body atoms, 114 bodies with an
    # atom and its negation, 27 tautological support clauses and 2
    # support clauses equal to a body clause, COMPLETION_CASES included).
    floors = {
        "fact head": 235,
        "false atom's unit repeats a constraint clause": 100,
        "fact repeats a constraint clause": 100,
        "one-literal body repeats a constraint clause": 55,
        "repeated body literal": 60,
        "head among its body atoms": 58,
        "complementary body literals": 57,
        "tautological support clause": 13,
        "support clause repeats a body clause": 1,
    }
    assert all(seen[case] >= floor for case, floor in floors.items()), seen


# -- solve ------------------------------------------------------------------


def test_solve_matches_brute_force():
    texts = [
        "abducible a/0.\nabducible b/0.\nfalse <- a, b.\n",
        "abducible a/0.\nabducible b/0.\np :- a.\np :- b.\np <- true.\n",
        "abducible a/0.\nq :- not a.\nq <- true.\n",
        "domain v == 1..3.\nabducible pick(v).\npick(1) ; pick(2) <- true.\n"
        "false <- pick(V1), pick(V2), V1 < V2.\n",
    ]
    for text in texts:
        theory = theory_for(text)
        report = solve(theory, SolveOptions())
        assert {frozenset(s) for s in report.solutions} == brute_solutions(theory)


def test_solve_emits_deterministic_order():
    theory = theory_for("domain v == 1..4.\nabducible pick(v).\nfalse <- pick(1).\n")
    first = solve(theory, SolveOptions()).solutions
    second = solve(theory, SolveOptions()).solutions
    assert first == second
    assert len(first) == 8  # free choice over pick(2..4)


def test_solve_max_models_caps_enumeration():
    theory = theory_for("domain v == 1..4.\nabducible pick(v).\n")
    report = solve(theory, SolveOptions(max_models=3))
    assert len(report.solutions) == 3
    assert report.stats.models == 3


def test_solve_rejects_a_cap_below_one():
    theory = theory_for("domain v == 1..4.\nabducible pick(v).\n")
    for cap in (0, -1):
        with pytest.raises(SolveError, match="max_models must be at least 1"):
            solve(theory, SolveOptions(max_models=cap))


def test_solve_minimal_only():
    # p needs at least one of a, b; minimal solutions never carry both
    theory = theory_for(
        "abducible a/0.\nabducible b/0.\np :- a.\np :- b.\np <- true.\n"
    )
    report = solve(theory, SolveOptions(minimal_only=True))
    sols = {frozenset(str(theory.atoms.atom(i)) for i in s) for s in report.solutions}
    assert sols == {frozenset({"a"}), frozenset({"b"})}


def test_solve_minimal_cap_counts_minimal_solutions():
    theory = theory_for(
        "abducible pick(item).\ndomain item == 1..3.\n"
        "ok :- pick(1).\nok :- pick(2).\nok <- true.\n"
    )
    report = solve(theory, SolveOptions(max_models=2, minimal_only=True))
    assert sorted(solution_strs(theory, report)) == [("pick(1)",), ("pick(2)",)]


def reference_enumeration(theory):
    """The search's emission order from first principles: a DFS whose
    node is naive_closure of its decisions, whose decision is the pick
    rule applied from scratch to that closure, and whose leaves are
    decided by brute force.  Returns the solutions in order and how many
    decisions a support clause gave and how many the fallback to
    branch_vars gave."""
    db = _Search(theory, SolveOptions(), SolveStats())
    solutions = brute_solutions(theory)
    support = [
        cl
        for cl, denial in zip(db.clauses, db.is_denial)
        if len(cl) > 2 and not denial and any(lit >> 1 in db.candidates for lit in cl)
    ]
    picks = {"support": 0, "fallback": 0}
    out = []

    def pick(true):
        def free(v):
            return 2 * v not in true and 2 * v + 1 not in true

        best = None
        for cl in support:
            cands = [lit >> 1 for lit in cl if lit >> 1 in db.candidates and free(lit >> 1)]
            if any(lit in true for lit in cl) or not cands:
                continue
            n = sum(lit ^ 1 not in true for lit in cl)
            if best is None or n < best[0]:
                best = (n, cands[0])
        if best is not None:
            picks["support"] += 1
            return best[1]
        for v in db.branch_vars:
            if free(v):
                picks["fallback"] += 1
                return v
        return None

    def dfs(decisions):
        true = naive_closure(db, decisions)
        if true is None:
            return
        var = pick(true)
        if var is None:
            delta = tuple(v for v in db.branch_vars if 2 * v in true)
            if frozenset(delta) in solutions:
                out.append(delta)
            return
        for lit in (2 * var + 1, 2 * var):
            dfs(decisions + [lit])

    dfs([])
    return out, picks


def test_solve_minimal_is_the_filtered_enumeration_in_order():
    # The whole search on random theories of both families: the
    # enumeration against brute force and, element by element, against
    # reference_enumeration; --minimal against the filtered enumeration,
    # and each cap against a prefix of the uncapped list.  Leaves are
    # decided three ways, each needing draws that reach a leaf: accepted
    # as they stand on loops without a negative loop, by check_delta
    # under a negative loop, and by check_delta after unfounded-set
    # propagation where loop atoms and a negative loop meet.  Decisions
    # come from support clauses or from the fallback to branch_vars.
    # The floors sit at or below the counts these seeds give: 60, 21 and
    # 12 theories, 451 and 3,616 decisions.
    decided = {"loops": 0, "negative loop": 0, "loops and a negative loop": 0}
    picks = {"support": 0, "fallback": 0}
    for positive_loops, seed, count in ((False, 7, 320), (True, 31, 300)):
        rng = random.Random(seed)
        for i in range(count):
            theory = random_ground_theory(rng, positive_loops)
            report = solve(theory, SolveOptions())
            everything = report.solutions
            expected, counts = reference_enumeration(theory)
            assert everything == expected, f"theory {i}, positive_loops={positive_loops}"
            assert {frozenset(s) for s in everything} == brute_solutions(theory)
            for kind in picks:
                picks[kind] += counts[kind]
            sets = [frozenset(s) for s in everything]
            minimal = [s for s, x in zip(everything, sets) if not any(y < x for y in sets)]
            assert solve(theory, SolveOptions(minimal_only=True)).solutions == minimal
            cap = rng.randint(1, 3)
            capped = solve(theory, SolveOptions(max_models=cap, minimal_only=True))
            assert capped.solutions == minimal[:cap]
            for k in range(1, len(everything) + 1):
                assert solve(theory, SolveOptions(max_models=k)).solutions == everything[:k]
            db = _Search(theory, SolveOptions(), SolveStats())
            if not report.stats.checks:
                continue
            if db.negative_loop_atom is None:
                decided["loops"] += bool(db.loop_atoms)
            else:
                decided["negative loop"] += 1
                decided["loops and a negative loop"] += bool(db.loop_atoms)
    assert decided["loops"] >= 50 and decided["negative loop"] >= 20, decided
    assert decided["loops and a negative loop"] >= 12, decided
    assert picks["support"] >= 400 and picks["fallback"] >= 3000, picks


def naive_propagation(clauses, true_lits):
    """Unit propagation to fixpoint by rescanning every clause; the set
    of true literals, or None on a falsified clause."""
    true = set(true_lits)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(lit in true for lit in cl):
                continue
            free = [lit for lit in cl if lit ^ 1 not in true]
            if not free:
                return None
            if len(free) == 1:
                true.add(free[0])
                changed = True
    return true


def naive_closure(db, true_lits):
    """naive_propagation alternated with falsifying the greatest
    unfounded set of loop atoms, computed from scratch as the loop atoms
    outside the least set closed under bodies that are not false and
    whose internal atoms are in the set; None on a conflict."""
    true = set(true_lits)
    while True:
        true = naive_propagation(db.clauses, true)
        if true is None:
            return None
        founded = set()
        changed = True
        while changed:
            changed = False
            for k, a in enumerate(db.body_head):
                if a in founded or db.body_lit[k] ^ 1 in true:
                    continue
                if all(b in founded for b in db.body_internal[k]):
                    founded.add(a)
                    changed = True
        unfounded = {2 * a + 1 for a in db.loop_atoms if a not in founded}
        if any(lit ^ 1 in true for lit in unfounded):
            return None
        if unfounded <= true:
            return true
        true |= unfounded


def true_literals(search):
    return {lit for lit, val in enumerate(search.value) if val == 1}


def assert_falsified(search, idx):
    assert all(search.value[lit] == 0 for lit in search.clauses[idx])


def assert_conflict(search, idx):
    if idx < 0:  # a true loop atom left without a source
        assert search.loop_atoms and search.value[2 * (-1 - idx)] == 1
    elif idx >= len(search.clauses):  # a lazy denial with every atom true
        rule = search.theory.rules[idx - len(search.clauses)]
        assert rule.first_true(search.value) is not None
    else:
        assert_falsified(search, idx)


def test_propagation_matches_naive_unit_propagation():
    # Unit propagation, and on loop atoms unfounded-set propagation, each
    # against a rescanning reference; the second family has positive loops.
    conflicts = {"root": 0, "decision": 0, "unfounded": 0}
    for positive_loops, seed in ((False, 5), (True, 6)):
        rng = random.Random(seed)
        for _ in range(400):
            theory = random_ground_theory(rng, positive_loops)
            search = _Search(theory, SolveOptions(), SolveStats())
            expected = naive_closure(search, ())
            conflict = search.propagate_pending()
            if expected is None:
                assert conflict is not None
                assert_conflict(search, conflict)
                conflicts["root"] += 1
                conflicts["unfounded"] += conflict < 0
                continue
            assert conflict is None and true_literals(search) == expected
            # Decisions, each kept or undone at random, and undone on a
            # conflict, so that the watches are exercised after backtracking.
            marks = []
            for _ in range(12):
                free = [v for v in range(search.nvars) if search.value[2 * v] == -1]
                if not free:
                    break
                before = true_literals(search)
                lit = 2 * rng.choice(free) + rng.randint(0, 1)
                expected = naive_closure(search, before | {lit})
                mark = len(search.trail)
                conflict = search.propagate(lit)
                if expected is None:
                    assert conflict is not None
                    assert_conflict(search, conflict)
                    conflicts["decision"] += 1
                    conflicts["unfounded"] += conflict < 0
                    search.undo_to(mark)
                    assert true_literals(search) == before
                    continue
                assert conflict is None and true_literals(search) == expected
                marks.append((mark, before))
                if rng.random() < 0.3:
                    k = rng.randrange(len(marks))
                    mark, before = marks[k]
                    del marks[k:]
                    search.undo_to(mark)
                    assert true_literals(search) == before
    assert min(conflicts.values()) > 0, conflicts


def root_conflict(text):
    theory = theory_for(text)
    search = _Search(theory, SolveOptions(), SolveStats())
    idx = search.propagate_pending()
    assert idx is not None
    assert_conflict(search, idx)
    report = solve(theory, SolveOptions())
    assert report.unsat_reason == (
        "constraints are contradictory before any hypothesis: "
        + search.describe_origin(idx)
    )
    return (search.clauses[idx] if 0 <= idx < len(search.clauses) else ()), report.unsat_reason


def test_root_conflict_through_a_binary_clause_names_it():
    clause, reason = root_conflict(
        "abducible a/0.\nabducible b/0.\na <- true.\nb <- a.\nfalse <- b.\n"
    )
    assert len(clause) == 2
    assert reason.endswith("b <- a.")


def test_root_conflict_through_a_long_clause_names_it():
    # not c keeps the denial ground (a positive one over abducibles
    # would be a lazy denial, see tests/test_lazy_denials.py)
    clause, reason = root_conflict(
        "abducible a/0.\nabducible b/0.\nabducible c/0.\n"
        "a <- true.\nb <- true.\nfalse <- c.\nfalse <- a, b, not c.\n"
    )
    assert len(clause) == 3
    assert reason.endswith("false <- a, b, not c.")


def test_root_conflict_on_a_loop_without_outside_support_names_its_atom():
    _clause, reason = root_conflict(
        "abducible a/0.\np :- q.\nq :- p.\nq :- a.\np <- true.\nfalse <- a.\n"
    )
    assert reason.split(": ")[1] in {
        f"definition of {atom} (a loop without outside support)" for atom in "pq"
    }


# Constraints that force atoms true or false at the root, so that the
# random programs below meet root conflicts.
FORCING = (
    "a(1) <- true.\n", "a(2) <- true.\n", "b(1,1) <- true.\n", "b(2,3) <- true.\n", "b(3,2) <- true.\n",
    "p(1) <- true.\n", "p(3) <- true.\n", "not a(3) <- true.\n", "not p(2) <- true.\n", "not b(1,2) <- true.\n",
)


# Denials with a negative literal, which stay instantiated (a positive
# one over a and p would be a lazy denial), drawn one per program below.
EAGER_DENIALS = (
    "false <- p(X), b(X,Y), not a(Y).\n", "false <- a(X), p(Y), not b(X,Y).\n",
    "false <- p(X), not a(X).\n", "false <- b(X,Y), a(Y), not p(X).\n",
)


def test_root_conflicts_on_grounded_constraint_clauses_name_their_first_instance():
    # Whenever root propagation of a grounded program meets a falsified
    # constraint clause, unsat_reason renders the first of every ground
    # constraint (expand_constraints) whose clause that is.  Each program
    # ends in a denial that stays instantiated, after the family's own
    # constraints, many of which are lazy: so first_instance also searches
    # the lazy rules before the one that names the conflict.  These seeds
    # give 236 such conflicts, 42 of them named by a constraint with heads
    # and a body, 147 by one with a negative body atom and 109 by one
    # after a lazy rule.  The floors sit below that: the first three are
    # those set before the programs drew these denials, and the last is
    # about half of its count.
    met = collections.Counter()
    for seed, family in ((21, random_program), (22, symmetric_program)):
        rng = random.Random(seed)
        for i in range(600):
            text = family(rng) + "".join(rng.sample(FORCING, rng.randint(3, 8))) + rng.choice(EAGER_DENIALS)
            theory = theory_for(text)
            search = _Search(theory, SolveOptions(), SolveStats())
            idx = search.propagate_pending()
            if idx is None or not 0 <= idx < search.n_constraint_clauses:
                continue
            clause = search.clauses[idx]
            first = next(gc for gc in theory.expand_constraints() if _clause(gc.heads, gc.pos, gc.neg) == clause)
            reason = "constraints are contradictory before any hypothesis: " + theory.render_constraint(first)
            assert solve(theory).unsat_reason == reason, f"{family.__name__} {i}:\n{text}"
            met["conflicts"] += 1
            met["heads"] += bool(first.heads and (first.pos or first.neg))
            met["negative atoms"] += bool(first.neg)
            met["after a lazy rule"] += any(rule.lazy for rule in theory.rules[: first.origin])
    floors = {"conflicts": 170, "heads": 19, "negative atoms": 12, "after a lazy rule": 50}
    assert all(met[case] >= floor for case, floor in floors.items()), met


def test_solve_forced_atoms_in_every_solution():
    theory = theory_for(
        "domain v == 1..3.\nabducible pick(v).\npick(2) <- true.\nfalse <- pick(1).\n"
    )
    report = solve(theory, SolveOptions())
    two = atom_id(theory, "pick(2)")
    assert report.solutions
    for s in report.solutions:
        assert two in s


def test_solve_unsat_before_search():
    theory = theory_for("abducible a/0.\na <- true.\nfalse <- a.\n")
    report = solve(theory, SolveOptions())
    assert not report.solutions
    assert report.unsat_reason is not None
    assert "a" in report.unsat_reason


def test_solve_warns_on_unstratified_definitions():
    theory = theory_for(
        "abducible a/0.\np :- not q.\nq :- not p.\nr <- true.\nr :- a.\n"
    )
    report = solve(theory, SolveOptions())
    assert report.warnings and "stratified" in report.warnings[0]
    # and the even loop keeps every candidate three-valued
    assert not report.solutions


def counting_well_founded(monkeypatch):
    calls = []
    real = wfs.well_founded

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wfs, "well_founded", counted)
    return calls


# A digraph whose cycle covers are the Hamiltonian cycle 1-2-3-4 and the
# two disjoint subcycles 1-2 and 3-4.  Completion lets reached(3) and
# reached(4) support each other in the second cover.
SUBCYCLES = """\
node(X) :- X in 1..4.
edge(1,2). edge(2,1). edge(2,3). edge(3,4). edge(4,3). edge(4,1).
abducible hc/2.
node(X) <- hc(X,Y).
node(Y) <- hc(X,Y).
false <- hc(X,Y), not edge(X,Y).
has_out(X) :- hc(X,Y).
has_in(Y) :- hc(X,Y).
has_out(X) <- node(X).
has_in(X) <- node(X).
Y1 = Y2 <- hc(X,Y1), hc(X,Y2).
X1 = X2 <- hc(X1,Y), hc(X2,Y).
reached(Y) :- hc(1,Y).
reached(Y) :- reached(X), hc(X,Y).
reached(X) <- node(X).
"""


def test_subcycle_covers_are_pruned_by_unfounded_sets(monkeypatch):
    theory = theory_for(SUBCYCLES)
    db = _Search(theory, SolveOptions(), SolveStats())
    loop = sorted(str(theory.atoms.atom(a)) for a in db.loop_atoms)
    assert loop == [f"reached({i})" for i in range(1, 5)]
    assert db.negative_loop_atom is None
    calls = counting_well_founded(monkeypatch)
    report = solve(theory)
    cycle = [("hc(1,2)", "hc(2,3)", "hc(3,4)", "hc(4,1)")]
    assert solution_strs(theory, report) == cycle
    # The cover 1-2, 3-4 is cut in the search; the leaf of the cycle is
    # accepted without a well-founded run.
    stats = report.stats
    assert stats.models == stats.checks == 1 and not calls and stats.pruned > 0


def test_negative_loop_woken_by_an_abducible_runs_the_well_founded_model(monkeypatch):
    calls = counting_well_founded(monkeypatch)
    loop = "abducible a/0.\np :- not q, a.\nq :- not p.\n"
    theory = theory_for(loop)
    report = solve(theory)
    assert report.warnings == [
        "definition layer is not stratified (negative loop through p); "
        "candidates that wake the loop are rejected as not two-valued"
    ]
    # With a, p and q stay open at the leaf and are undefined.
    assert report.solutions == [()] and calls
    assert {frozenset(s) for s in report.solutions} == brute_solutions(theory)
    # Here propagation assigns every atom under a (q false, p true), yet
    # the well-founded model leaves both undefined: no solution.
    theory = theory_for(loop + "false <- q.\n")
    report = solve(theory)
    assert report.solutions == [] and brute_solutions(theory) == set()
    assert report.stats.checks == 1


def negative_loop_theory(rng):
    """random_ground_theory with an even negative loop planted on fresh
    atoms l(0), ..., l(n-1), each defined by the negation of the next.
    A hypothesis wakes the loop and a constraint on one loop atom takes
    a side, so propagation can assign every atom at a leaf where the
    well-founded model leaves the loop undefined."""
    theory = random_ground_theory(rng)
    n = rng.choice((2, 4))
    loop = [theory.atoms.intern(GroundAtom("l", (i,))) for i in range(n)]
    clauses = list(theory.clauses)
    for i, head in enumerate(loop):
        gate = tuple(rng.sample(theory.universe, 1 if i == 0 else rng.randint(0, 1)))
        clauses.append(GroundClause(head, gate, (loop[(i + 1) % n],)))
    side = GroundConstraint((), (rng.choice(loop),))
    constraints = theory.expand_constraints()
    constraints = rng.sample(constraints + [side], len(constraints) + 1)
    return hand_built(theory.atoms, clauses, constraints, theory.universe, theory.forced)


def test_total_leaves_under_a_negative_loop_are_checked(monkeypatch):
    # Under a negative loop a leaf where propagation assigned every atom
    # can still be rejected: its well-founded model may leave the loop
    # undefined, and only check_delta tells.  The floor sits below the
    # count this seed gives (553 such leaves).
    rejected = 0
    real = _Search._admissible

    def spy(self, delta):
        nonlocal rejected
        admissible = real(self, delta)
        rejected += not admissible and -1 not in self.value[0 : 2 * self.n_atoms : 2]
        return admissible

    monkeypatch.setattr(_Search, "_admissible", spy)
    rng = random.Random(9)
    for i in range(200):
        theory = negative_loop_theory(rng)
        assert _Search(theory, SolveOptions(), SolveStats()).negative_loop_atom is not None
        report = solve(theory)
        assert {frozenset(s) for s in report.solutions} == brute_solutions(theory), f"theory {i}"
    assert rejected >= 450, rejected


def bundled_program(name, **overrides):
    text = (importlib.resources.files("alp") / "programs" / name).read_text(encoding="utf-8")
    return apply_const_overrides(parse_text(text, name), overrides)


def bundled_theory(name, **overrides):
    return build_theory(bundled_program(name, **overrides))


@pytest.mark.parametrize(
    "name, overrides, models",
    [("queens.alp", {"size": 6}, 4), ("queens.alp", {"size": 8}, 92), ("blocks.alp", {}, 24)],
)
def test_tight_programs_make_at_most_one_well_founded_run(monkeypatch, name, overrides, models):
    theory = bundled_theory(name, **overrides)
    db = _Search(theory, SolveOptions(), SolveStats())
    assert not db.loop_atoms and db.negative_loop_atom is None
    calls = counting_well_founded(monkeypatch)
    report = solve(theory)
    assert report.stats.models == report.stats.checks == models
    assert len(calls) <= 1


def test_definition_arrays_wait_for_check_delta():
    # solve reads the definition layer's wfs arrays only through
    # check_delta, which a tight program never needs; the theory caches
    # them on first use
    theory = bundled_theory("queens.alp", size=6)
    report = solve(theory)
    assert "definition_arrays" not in vars(theory)
    assert all(isinstance(check_delta(theory, delta), Sat) for delta in report.solutions)
    arrays = vars(theory)["definition_arrays"]
    assert isinstance(check_delta(theory, ()), UnsatConstraint)
    assert theory.definition_arrays is arrays


def test_check_delta_builds_no_clause_database(monkeypatch):
    # a check reads the theory's rules and definition arrays only: it
    # never compiles a search
    (plan,) = solve(bundled_theory("blocks.alp"), SolveOptions(max_models=1)).solutions
    theory = bundled_theory("blocks.alp")

    def refuse(*args):
        raise AssertionError("check_delta compiled a search")

    monkeypatch.setattr("alp.solver._Search", refuse)
    assert isinstance(check_delta(theory, plan), Sat)
    assert isinstance(check_delta(theory, plan[1:]), UnsatConstraint)


def assert_reads_no_stored_clause(theory, deltas, met, label):
    """check_delta on theory and on a copy whose stored constraint
    clauses are gone: the same verdict, the same named instance, which
    is the reference's, and no atom interned.  met counts the verdicts
    by kind, and the violations by the kind of rule they name."""
    bare = dataclasses.replace(theory, constraints=[])
    n_atoms = theory.n_atoms
    for delta in deltas:
        result = check_delta(bare, delta)
        assert result == check_delta(theory, delta), label
        assert theory.n_atoms == n_atoms, label
        kind, detail = reference_check(theory, delta)
        assert type(result) is kind, label
        if kind is UnsatConstraint:
            assert result.instance == detail, label
            rule = theory.rules[detail.origin]
            met["lazy" if rule.lazy else "stored"] += 1
        met[kind.__name__] += 1


def test_check_delta_reads_no_stored_clause():
    # check_delta reads the rules, not the clauses the search is built
    # from: with those gone it names the same instance, on the bundled
    # programs' solutions, on deltas with one atom dropped from them or
    # added to them, and on random programs with an instantiated denial
    met = collections.Counter()
    for theory in (bundled_theory("queens.alp", size=6), bundled_theory("blocks.alp")):
        solutions = solve(theory, SolveOptions(max_models=3)).solutions
        extra = [a for a in theory.universe if a not in solutions[0]][:2]
        deltas = [()] + solutions + [s[1:] for s in solutions] + [solutions[0] + (a,) for a in extra]
        assert_reads_no_stored_clause(theory, deltas, met, "bundled")
    rng = random.Random(28)
    for i in range(150):
        text = random_program(rng) + rng.choice(EAGER_DENIALS)
        theory = theory_for(text)
        candidates = sorted(set(theory.universe) | set(theory.forced))
        deltas = [[a for a in candidates if rng.random() < 0.4] for _ in range(4)]
        assert_reads_no_stored_clause(theory, deltas, met, f"program {i}:\n{text}")
    # seen at seed 28: 152 Sat and 466 violated, 350 of them named by a
    # stored rule and 116 by a lazy one
    floors = {"Sat": 100, "UnsatConstraint": 300, "stored": 230, "lazy": 75}
    assert all(met[case] >= floor for case, floor in floors.items()), met


def bench_hamcycle_theory(seed):
    """The benchmark's hamcycle program for one seed, grounded."""
    return theory_for(bench_hamcycle_text(seed))


@pytest.mark.parametrize(
    "program, options, counts",
    [
        (lambda: bundled_theory("queens.alp", size=8), SolveOptions(), (766, 6193, 292, 92, 92)),
        (lambda: bundled_theory("blocks.alp"), SolveOptions(), (104, 4366, 29, 24, 24)),
        (lambda: bench_hamcycle_theory(1), SolveOptions(), (668, 6084, 216, 119, 119)),
        (lambda: bundled_theory("queens.alp", size=8), SolveOptions(max_models=1), (56, 422, 23, 1, 1)),
        (lambda: bundled_theory("blocks.alp"), SolveOptions(max_models=1), (25, 1665, 3, 1, 1)),
        (lambda: bundled_theory("blocks.alp"), SolveOptions(minimal_only=True), (104, 4366, 29, 1, 1)),
    ],
    ids=["queens-8", "blocks", "hamcycle-1", "queens-8-first", "blocks-first", "blocks-minimal"],
)
def test_search_counts_are_pinned(program, options, counts):
    # Nodes, propagations, pruned, checks and models of a search for all
    # solutions, for the first one and for the minimal ones.  They change
    # with the branching rule or the order in which clauses are watched
    # and implied, which would then change the order of the solutions
    # too: such a change has to be made on purpose.  A capped search
    # stops at the node where it meets its last solution.
    stats = solve(program(), options).stats
    assert (stats.nodes, stats.propagations, stats.pruned, stats.checks, stats.models) == counts


def test_queens_first_model_at_size_20_takes_few_nodes():
    # The bound is a node count, so it holds on any machine; this rule
    # takes 163 nodes here.
    n = 20
    theory = bundled_theory("queens.alp", size=n)
    report = solve(theory, SolveOptions(max_models=1))
    assert report.stats.nodes < 1000
    [delta] = report.solutions
    board = [theory.atoms.atom(a) for a in delta]
    assert {atom.pred for atom in board} == {"position"}
    rows = [atom.args[0] for atom in board]
    cols = [atom.args[1] for atom in board]
    assert sorted(rows) == sorted(cols) == list(range(1, n + 1))
    assert len({r - c for r, c in zip(rows, cols)}) == n
    assert len({r + c for r, c in zip(rows, cols)}) == n


PICKS = """\
abducible a/0. abducible b/0. abducible c/0. abducible d/0.
abducible e/0. abducible f/0. abducible g/0.
a ; b ; c <- true.
q :- d. q :- e.
r :- f. r :- g.
q <- true. r <- true.
"""


def test_the_shortest_open_support_clause_gives_the_decision(monkeypatch):
    # Support clauses in database order: a | b | c (a constraint, three
    # unassigned), then not q | d | e and not r | f | g (completions, two
    # each once q and r hold).  The shortest wins over the earlier
    # longer one, the first of equals wins, and the decision is the
    # clause's first unassigned candidate, absent first.
    theory = theory_for(PICKS)
    decisions = []
    real = _Search.propagate

    def spy(self, lit):
        decisions.append(("-" if lit & 1 else "+") + str(theory.atoms.atom(lit >> 1)))
        return real(self, lit)

    monkeypatch.setattr(_Search, "propagate", spy)
    report = solve(theory, SolveOptions(max_models=1))
    assert decisions == ["-d", "-f", "-a", "-b"]
    assert solution_strs(theory, report) == [("c", "e", "g")]


def test_solve_survives_a_deep_search():
    # 1,200 decisions on one path, each an open node on the search's
    # stack.  Every subset of the candidates is a solution, so the search
    # is capped at the first, the all-absent leaf.
    theory = theory_for("abducible p/1.\nn(X) :- X in 1..1200.\nn(X) <- p(X).\n")
    report = solve(theory, SolveOptions(max_models=1))
    assert report.solutions == [()]


def test_solve_empty_universe():
    theory = theory_for("p.\np <- true.\n")
    report = solve(theory, SolveOptions())
    assert report.solutions == [()]
    theory = theory_for("p.\nfalse <- p.\n")
    report = solve(theory, SolveOptions())
    assert not report.solutions


# -- query translation --------------------------------------------------------

QUEENS_MINI = (
    "abducible position/2.\n"
    "size(4).\n"
    "row(R) :- size(N), R in 1..N.\n"
    "column(C) :- size(N), C in 1..N.\n"
    "row_has_queen(R) :- position(R,C).\n"
    "row(R) <- position(R,C).\n"
    "column(C) <- position(R,C).\n"
    "row_has_queen(R) <- row(R).\n"
    "C1 = C2 <- position(R,C1), position(R,C2).\n"
    "false <- position(R1,C1), position(R2,C2), R1 < R2, "
    "(C1 = C2 ; abs(R2-R1) = abs(C2-C1)).\n"
)


def test_translate_query_filters_solutions():
    prog = parse_text(QUEENS_MINI, "q4")
    base = solve(build_theory(prog), SolveOptions())
    assert len(base.solutions) == 2

    tprog = translate_query([Atom("position", (IntConst(1), IntConst(2)))], prog)
    theory = build_theory(tprog)
    report = solve(theory, SolveOptions())
    assert len(report.solutions) == 1
    facts = {str(theory.atoms.atom(a)) for a in report.solutions[0]}
    assert "position(1,2)" in facts
    assert all(f.startswith("position(") for f in facts)


def test_translate_query_appends_one_definition_and_one_constraint():
    prog = parse_text(QUEENS_MINI, "q4")
    tprog = translate_query([Atom("position", (IntConst(1), IntConst(2)))], prog)
    assert tprog.decls == prog.decls
    assert tprog.definitions[:-1] == prog.definitions
    assert tprog.constraints[:-1] == prog.constraints
    printed = pretty_print(tprog).splitlines()
    added = collections.Counter(printed) - collections.Counter(pretty_print(prog).splitlines())
    assert sorted(added.elements()) == ["query_holds :- position(1,2).", "query_holds <- true."]


def test_translate_query_with_variables_adds_no_typing():
    prog = parse_text(QUEENS_MINI, "q4")
    tprog = translate_query([Atom("position", (IntConst(1), Var("C")))], prog)
    assert tprog.decls == prog.decls
    assert str(tprog.definitions[-1]) == "query_holds :- position(1,C)."
    assert str(tprog.constraints[-1]) == "query_holds <- true."
    # both 4x4 boards have a queen in row 1
    theory = build_theory(tprog)
    report = solve(theory, SolveOptions())
    assert len(report.solutions) == 2


def test_translate_query_empty_is_identity():
    prog = parse_text(QUEENS_MINI, "q4")
    assert translate_query([], prog) is prog


def test_translate_query_freshens_its_head_name():
    prog = parse_text(
        "abducible a/0.\nquery_holds :- a.\nquery_holds1 :- not a.\np :- a.\n", "t"
    )
    tprog = translate_query([Atom("p", ())], prog)
    assert str(tprog.definitions[-1]) == "query_holds2 :- p."
    assert str(tprog.constraints[-1]) == "query_holds2 <- true."
    theory = build_theory(tprog)
    assert solution_strs(theory, solve(theory, SolveOptions())) == [("a",)]


def test_translate_query_rejects_unknown_predicate():
    prog = parse_text(QUEENS_MINI, "q4")
    with pytest.raises(ProgramError, match="nope"):
        translate_query([Atom("nope", ())], prog)


def test_translate_query_rejects_a_builtin_name():
    prog = parse_text(QUEENS_MINI, "q4")
    with pytest.raises(ProgramError, match="not a defined or abducible predicate"):
        translate_query([Atom("<", (IntConst(1), IntConst(2)))], prog)


def test_translate_query_rejects_compound_arguments():
    prog = parse_text(QUEENS_MINI, "q4")
    with pytest.raises(ProgramError, match="constants or variables"):
        two = ArithExpr("+", (IntConst(1), IntConst(1)))
        translate_query([Atom("position", (IntConst(1), two))], prog)


UNTYPED_P = "abducible a/0.\np(1) :- a.\np(2) :- not a.\nfalse <- not p(1).\n"


def test_translate_query_answers_a_variable_that_no_constraint_types():
    # p's argument has no declared domain and no typing constraint; the
    # query needs none, since the grounder bounds X through p itself.
    prog = parse_text(UNTYPED_P, "t")
    theory = build_theory(translate_query([Atom("p", (Var("X"),))], prog))
    assert solution_strs(theory, solve(theory, SolveOptions())) == [("a",)]


def query_instances_hold(theory, truth, query):
    """Whether some ground instance of the query is true in truth: the
    query's atoms are matched against the theory's atoms, binding each
    variable once across the conjunction."""
    by_pred = collections.defaultdict(list)
    for i in range(theory.n_atoms):
        atom = theory.atoms.atom(i)
        if truth[i] == TRUE:
            by_pred[atom.pred, len(atom.args)].append(atom.args)

    def value(term):
        return term.value if isinstance(term, IntConst) else term.name

    def match(k, binding):
        if k == len(query):
            return True
        q = query[k]
        for args in by_pred[q.key]:
            b = dict(binding)
            for term, v in zip(q.args, args):
                if isinstance(term, Var):
                    if b.setdefault(term.name, v) != v:
                        break
                elif value(term) != v:
                    break
            else:
                if match(k + 1, b):
                    return True
        return False

    return match(0, {})


def solution_set(theory, solutions):
    return {frozenset(str(theory.atoms.atom(a)) for a in sol) for sol in solutions}


def parse_query(text):
    """A conjunction written as a constraint body, as query atoms."""
    return [lit.atom for lit in parse_text(f"false <- {text}.\n", "query").constraints[0].body]


QUERY_CASES = {
    "queens6": (
        ("queens.alp", {"size": 6}),
        [f"position({r},{c})" for r in range(1, 7) for c in range(1, 7)]
        + [f"position({r},C)" for r in range(1, 7)]
        + ["position(D,D)"],
    ),
    "blocks": (
        ("blocks.alp", {}),
        ["move(1,table,0)", "move(B,table,T)", "on(3,L,1)", "initially_on(1,table)"],
    ),
    "untyped": ((UNTYPED_P, {}), ["p(X)"]),
}


@pytest.mark.parametrize("case", sorted(QUERY_CASES))
def test_translated_query_keeps_the_solutions_where_the_query_holds(case):
    (source, overrides), queries = QUERY_CASES[case]
    if source.endswith(".alp"):
        source = (importlib.resources.files("alp") / "programs" / source).read_text()
    prog = apply_const_overrides(parse_text(source, case), overrides)
    base = build_theory(prog)
    base_solutions = solve(base, SolveOptions()).solutions
    models = [
        (sol, well_founded(base.definition_arrays, set(sol) | set(base.forced), base.n_atoms)[0])
        for sol in base_solutions
    ]
    for text in queries:
        query = parse_query(text)
        expected = [sol for sol, truth in models if query_instances_hold(base, truth, query)]
        theory = build_theory(translate_query(query, prog))
        got = solve(theory, SolveOptions()).solutions
        assert solution_set(theory, got) == solution_set(base, expected), text
