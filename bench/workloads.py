"""Benchmark workloads: the source text each one hands the program, and
the engine-independent check of the rendered solutions.

A solution reaches a check the way the command line prints it: the list
of fact lines from ``GroundTheory.render_delta``.  Checks parse those
lines with their own patterns and compare them with computations that
share no code with the parser, grounder or solver.  A check returns
None when the solution list is right, else the first reason it is not.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import hamcycle
from alp.oracles import simulate_plan

Rendered = list[list[str]]


@dataclass
class Instance:
    text: str
    filename: str
    check: Callable[[Rendered], str | None]
    overrides: dict[str, int] = field(default_factory=dict)


def _bundled(name: str) -> str:
    return (importlib.resources.files("alp") / "programs" / name).read_text(encoding="utf-8")


def _parse_facts(solution: list[str], pattern: re.Pattern) -> list[tuple[str, ...]] | str:
    out = []
    for line in solution:
        m = pattern.fullmatch(line)
        if m is None:
            return f"unexpected fact {line!r}"
        out.append(m.groups())
    return out


def _same_set(found: list, expected: list, what: str) -> str | None:
    if len(set(found)) != len(found):
        return f"duplicate {what} in the solution list"
    missing = set(expected) - set(found)
    extra = set(found) - set(expected)
    if missing or extra:
        return f"{len(missing)} {what} missing, {len(extra)} unexpected"
    return None


# ---------------------------------------------------------------------------
# queens-all: bundled queens.alp at size 10, every solution

QUEENS_SIZE = 10
_POSITION = re.compile(r"position\((\d+),(\d+)\)\.")


def queens_boards(n: int) -> list[tuple[int, ...]]:
    """Every n-queens board as a column per row, by backtracking."""
    boards: list[tuple[int, ...]] = []
    cols: list[int] = []

    def place(row: int):
        if row == n:
            boards.append(tuple(cols))
            return
        for c in range(1, n + 1):
            if all(c != c2 and abs(c - c2) != row - r2 for r2, c2 in enumerate(cols)):
                cols.append(c)
                place(row + 1)
                cols.pop()

    place(0)
    return boards


def _check_queens(rendered: Rendered, expected: list[tuple[int, ...]]) -> str | None:
    boards = []
    for solution in rendered:
        facts = _parse_facts(solution, _POSITION)
        if isinstance(facts, str):
            return facts
        placed = sorted((int(r), int(c)) for r, c in facts)
        if [r for r, _ in placed] != list(range(1, QUEENS_SIZE + 1)):
            return f"not one queen per row: {solution}"
        boards.append(tuple(c for _, c in placed))
    return _same_set(boards, expected, "boards")


def queens_all(seed: int) -> Instance:
    # The bundled program and its size fix the input; the seed selects nothing.
    expected = queens_boards(QUEENS_SIZE)
    return Instance(
        _bundled("queens.alp"),
        "queens.alp",
        lambda rendered: _check_queens(rendered, expected),
        {"size": QUEENS_SIZE},
    )


# ---------------------------------------------------------------------------
# blocks-all: bundled blocks.alp, every plan

BLOCKS_HORIZON = 3
BLOCKS_INITIAL = {1: 2, 2: "table", 3: 4, 4: "table", 5: 6, 6: "table"}
BLOCKS_GOAL = {1: "table", 2: 1, 3: 2, 4: "table", 5: 4, 6: 5}
# Hypotheses the constraints cannot refute besides the stated initial
# state: any subset of "on table" facts for the three blocks stated to
# start on another block, and at most one of two extra supports on block
# 5 (see README.md): 8 * 3 = 24 solutions.
_BLOCKS_OPTIONAL_TABLE = [(1, "table"), (3, "table"), (5, "table")]
_BLOCKS_ON_FIVE = [(), ((1, 5),), ((3, 5),)]
BLOCKS_EXTRAS = [
    frozenset(table + on_five)
    for k in range(len(_BLOCKS_OPTIONAL_TABLE) + 1)
    for table in combinations(_BLOCKS_OPTIONAL_TABLE, k)
    for on_five in _BLOCKS_ON_FIVE
]
_BLOCKS_FACT = re.compile(r"(initially_on|move)\((\d+),(\d+|table)(?:,(\d+))?\)\.")


def _location(text: str) -> int | str:
    return text if text == "table" else int(text)


def _check_blocks(rendered: Rendered) -> str | None:
    hypotheses = []
    for solution in rendered:
        facts = _parse_facts(solution, _BLOCKS_FACT)
        if isinstance(facts, str):
            return facts
        initially = set()
        moves = []
        for pred, block, loc, time in facts:
            if (pred == "move") != (time is not None):
                return f"malformed fact in {solution}"
            if pred == "move":
                moves.append((int(block), _location(loc), int(time)))
            else:
                initially.add((int(block), _location(loc)))
        stated = set(BLOCKS_INITIAL.items())
        if not stated <= initially:
            return f"initial state not assumed: {solution}"
        if frozenset(initially - stated) not in BLOCKS_EXTRAS:
            return f"unexpected initial hypotheses: {sorted(initially - stated, key=str)}"
        outcome = simulate_plan(BLOCKS_INITIAL, moves, BLOCKS_HORIZON)
        if outcome != BLOCKS_GOAL:
            return f"plan {sorted(moves, key=str)} ends in {outcome}"
        hypotheses.append(frozenset(initially) | frozenset(moves))
    if len(set(hypotheses)) != len(hypotheses):
        return "duplicate plans in the solution list"
    if len(hypotheses) != len(BLOCKS_EXTRAS):
        return f"{len(hypotheses)} plans, expected {len(BLOCKS_EXTRAS)}"
    return None


def blocks_all(seed: int) -> Instance:
    # The bundled program fixes the input; the seed selects nothing.
    return Instance(_bundled("blocks.alp"), "blocks.alp", _check_blocks)


# ---------------------------------------------------------------------------
# hamcycle: a seeded random digraph, every Hamiltonian cycle

_HC = re.compile(r"hc\((\d+),(\d+)\)\.")


def _check_hamcycle(rendered: Rendered, expected: list[frozenset]) -> str | None:
    cycles = []
    for solution in rendered:
        facts = _parse_facts(solution, _HC)
        if isinstance(facts, str):
            return facts
        cycles.append(frozenset((int(x), int(y)) for x, y in facts))
    return _same_set(cycles, expected, "cycles")


def hamcycle_instance(seed: int) -> Instance:
    edges = hamcycle.generate_graph(seed)
    expected = hamcycle.hamiltonian_cycles(hamcycle.NODES, edges)
    return Instance(
        hamcycle.program_text(edges),
        f"hamcycle-{seed}.alp",
        lambda rendered: _check_hamcycle(rendered, expected),
    )


WORKLOADS: dict[str, Callable[[int], Instance]] = {
    "queens-all": queens_all,
    "blocks-all": blocks_all,
    "hamcycle": hamcycle_instance,
}
