"""Well-founded model computation for ground normal programs.

Atoms are dense integer ids.  A clause is (head, pos, neg) with tuples of
body atom ids.  The three truth values are FALSE, UNDEF, TRUE.

The engine runs the alternating fixpoint: Gamma(S) is the least model of
the program reduced by S (a clause survives when none of its negative
body atoms is in S), so iterating T <- Gamma(Gamma(T)) from the empty set
grows an underestimate of the true atoms while Gamma(T) shrinks an
overestimate of the possibly-true atoms.  Atoms caught between the two
limits are undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

FALSE = 0
UNDEF = 1
TRUE = 2

GroundClauseLike = tuple  # (head: int, pos: tuple[int, ...], neg: tuple[int, ...])


@dataclass(frozen=True)
class FixpointTrace:
    """Per-iteration sizes of the alternating fixpoint.

    true_sizes is nondecreasing and possible_sizes is nonincreasing; the
    run converged when the last two underestimates agree.
    """

    true_sizes: tuple[int, ...]
    possible_sizes: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.true_sizes)

    def is_monotone(self) -> bool:
        ts, ps = self.true_sizes, self.possible_sizes
        up = all(a <= b for a, b in zip(ts, ts[1:]))
        down = all(a >= b for a, b in zip(ps, ps[1:]))
        return up and down


class ClauseArrays(NamedTuple):
    """Clauses split into parallel arrays plus what every reduct pass
    starts from; well_founded accepts these in place of a clause list so
    that callers evaluating many fact sets against one program build
    them once.

    occ indexes clauses by positive body atom, need holds each clause's
    positive body length, units the heads of clauses with no body at
    all, and negated the indices of clauses with a negative body, the
    only ones a reduct can remove.
    """

    heads: list[int]
    pos: list[tuple[int, ...]]
    neg: list[tuple[int, ...]]
    occ: dict[int, list[int]]
    need: list[int]
    units: list[int]
    negated: list[int]


def clause_arrays(clauses: Sequence[GroundClauseLike]) -> ClauseArrays:
    heads = []
    pos = []
    neg = []
    for h, p, n in clauses:
        heads.append(h)
        pos.append(tuple(p))
        neg.append(tuple(n))
    occ = {}
    for idx, body in enumerate(pos):
        for a in body:
            occ.setdefault(a, []).append(idx)
    need = [len(body) for body in pos]
    units = [heads[idx] for idx in range(len(heads)) if not pos[idx] and not neg[idx]]
    negated = [idx for idx in range(len(heads)) if neg[idx]]
    return ClauseArrays(heads, pos, neg, occ, need, units, negated)


def _least_model_of_reduct(arrays: ClauseArrays, facts, n_atoms, allowed) -> bytearray:
    """Least model of the clauses whose negative body survives `allowed`.

    allowed is a bytearray marking possibly-true atoms: a clause is kept
    when none of its negative body atoms is marked.  Plain source-counting
    propagation; each clause fires at most once.
    """
    heads, pos, neg, occ, base_need, units, negated = arrays
    truth = bytearray(n_atoms)
    queue = []
    for a in facts:
        if not truth[a]:
            truth[a] = 1
            queue.append(a)
    for h in units:
        if not truth[h]:
            truth[h] = 1
            queue.append(h)
    # need counts every positive body occurrence, including atoms already
    # true: those sit in the queue and will decrement it exactly once.
    need = base_need.copy()
    for idx in negated:
        if any(allowed[b] for b in neg[idx]):
            need[idx] = -1  # clause removed by the reduct
        elif not pos[idx]:
            h = heads[idx]
            if not truth[h]:
                truth[h] = 1
                queue.append(h)
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        for idx in occ.get(a, ()):
            m = need[idx]
            if m <= 0:
                continue
            # A clause body may mention the same atom twice; count each
            # occurrence so `need` reaches zero exactly when all are true.
            m -= 1
            need[idx] = m
            if m == 0:
                h = heads[idx]
                if not truth[h]:
                    truth[h] = 1
                    queue.append(h)
    return truth


def well_founded(
    clauses: Sequence[GroundClauseLike] | ClauseArrays, facts: Iterable[int], n_atoms: int
) -> tuple[list[int], FixpointTrace]:
    """Well-founded model as a truth array plus the fixpoint trace."""
    if not isinstance(clauses, ClauseArrays):
        clauses = clause_arrays(clauses)
    facts = tuple(facts)
    true_set = bytearray(n_atoms)
    true_sizes = []
    possible_sizes = []
    while True:
        possible = _least_model_of_reduct(clauses, facts, n_atoms, true_set)
        new_true = _least_model_of_reduct(clauses, facts, n_atoms, possible)
        true_sizes.append(sum(new_true))
        possible_sizes.append(sum(possible))
        if new_true == true_set:
            break
        true_set = new_true
    truth = [FALSE] * n_atoms
    for i in range(n_atoms):
        if true_set[i]:
            truth[i] = TRUE
        elif possible[i]:
            truth[i] = UNDEF
    return truth, FixpointTrace(tuple(true_sizes), tuple(possible_sizes))


def is_two_valued(truth: Sequence[int]) -> tuple[bool, list[int]]:
    """Whether no atom is undefined; returns the undefined ids, sorted."""
    undef = [i for i, v in enumerate(truth) if v == UNDEF]
    return (not undef), undef
