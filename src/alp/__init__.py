"""Abductive reasoning over inductive definitions.

Programs declare abducible predicates, define the rest with clauses
under the well-founded semantics, and state integrity constraints.
Solving finds the sets of abducible facts whose addition makes the
definitions total and every constraint true.

The usual flow: ``parse_text`` or ``load_program``, ``build_theory``,
``solve``.  ``check_delta`` verifies a single hypothesis set, and
``translate_query`` reduces query answering to solving.
"""

from .ground import (
    GroundAtom,
    GroundClause,
    GroundConstraint,
    GroundTheory,
    apply_const_overrides,
    build_theory,
)
from .parser import load_program, parse_text, pretty_print
from .solver import (
    CheckResult,
    NotTwoValued,
    Sat,
    SolveOptions,
    SolveReport,
    SolveStats,
    UnsatConstraint,
    check_delta,
    solve,
    translate_query,
)
from .syntax import (
    AlpError,
    Atom,
    Clause,
    Constraint,
    GroundError,
    IntConst,
    ParseError,
    Program,
    ProgramError,
    SolveError,
    SymConst,
    Var,
    normalize,
)
from .wfs import FixpointTrace, well_founded

__all__ = [
    "AlpError",
    "Atom",
    "CheckResult",
    "Clause",
    "Constraint",
    "FixpointTrace",
    "GroundAtom",
    "GroundClause",
    "GroundConstraint",
    "GroundError",
    "GroundTheory",
    "IntConst",
    "NotTwoValued",
    "ParseError",
    "Program",
    "ProgramError",
    "Sat",
    "SolveError",
    "SolveOptions",
    "SolveReport",
    "SolveStats",
    "SymConst",
    "UnsatConstraint",
    "Var",
    "apply_const_overrides",
    "build_theory",
    "check_delta",
    "load_program",
    "normalize",
    "parse_text",
    "pretty_print",
    "solve",
    "translate_query",
    "well_founded",
]

__version__ = "0.1.0"
