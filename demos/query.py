"""
Queries as constraints
======================

There is no query evaluator in this package, and none is needed.  Asking
"which solutions satisfy Q" compiles into the two kinds of rule the
language already has: a definition ``query_holds :- Q.`` and the
constraint ``query_holds <- true.`` that makes it mandatory.  Solving
the extended program yields exactly the solutions of the original one
in which some instance of Q holds.
"""

import importlib.resources

from alp import (
    Atom,
    IntConst,
    SolveOptions,
    Var,
    apply_const_overrides,
    build_theory,
    parse_text,
    solve,
    translate_query,
)

source = (importlib.resources.files("alp") / "programs" / "queens.alp").read_text()
program = apply_const_overrides(parse_text(source, "queens.alp"), {"size": 6})


def count(prog):
    return len(solve(build_theory(prog), SolveOptions()).solutions)


def show_added(prog):
    print()
    print(prog.definitions[-1])
    print(prog.constraints[-1])
    print()


# Unfiltered: the 6x6 board has four placements.
print(f"all solutions: {count(program)}")

# Ask for boards with a queen at row 1, column 2.  The translation is
# ordinary source text; print the two statements it appends.
asked = translate_query([Atom("position", (IntConst(1), IntConst(2)))], program)
show_added(asked)
print(f"with position(1,2): {count(asked)}")

# A query with variables asks whether some instance holds.  The variables
# need no types of their own: they range over whatever the query's atoms
# can be, as in any rule body.  D appears in both argument positions, and
# the answer is a small fact about the puzzle: no 6x6 placement touches
# the main diagonal.
asked = translate_query([Atom("position", (Var("D"), Var("D")))], program)
show_added(asked)
print(f"with a queen on the main diagonal: {count(asked)}")

# Richer conditions are expressed the way any derived notion is: define
# a predicate for the condition, then query it.  "The queens of rows 1
# and 2 stand two columns apart":
stepped = source + "\nstepped :- position(1,C), position(2,D), abs(D - C) = 2.\n"
program = apply_const_overrides(parse_text(stepped, "queens+step.alp"), {"size": 6})
asked = translate_query([Atom("stepped", ())], program)

theory = build_theory(asked)
report = solve(theory, SolveOptions())
print(f"with a two-column step from row 1 to row 2: {len(report.solutions)}")
for sol in report.solutions:
    facts = sorted(theory.atoms.atom(i).args for i in sol)
    print(" ", " ".join(f"({r},{c})" for r, c in facts))
