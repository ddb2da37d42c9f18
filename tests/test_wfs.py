"""Well-founded evaluation: least models, alternating fixpoint, traces."""

import random

import pytest

from alp.oracles import wfs_brute
from alp.wfs import (
    FALSE,
    TRUE,
    UNDEF,
    FixpointTrace,
    clause_arrays,
    is_two_valued,
    well_founded,
)


def names(truth, value):
    return [i for i, v in enumerate(truth) if v == value]


def test_least_model_definite():
    # p. q :- p. r :- q, s.  A definite program's well-founded model is
    # its least model: p,q true and r,s false
    clauses = [(0, (), ()), (1, (0,), ()), (2, (1, 3), ())]
    truth, _ = well_founded(clauses, (), 4)
    assert truth == [TRUE, TRUE, FALSE, FALSE]


def test_least_model_duplicate_body_atoms():
    # q :- p, p. must wait for p, and fire exactly once; r :- p, p, s.
    # must not count p twice in place of s
    clauses = [(1, (0, 0), ()), (0, (), ()), (2, (0, 0, 3), ())]
    truth, _ = well_founded(clauses, (), 4)
    assert truth == [TRUE, TRUE, FALSE, FALSE]


def test_facts_feed_rules():
    # facts enter the model even when no clause derives them
    clauses = [(1, (0,), ())]
    truth, _ = well_founded(clauses, (0,), 2)
    assert truth == [TRUE, TRUE]


def test_wfs_definite_program_is_two_valued():
    clauses = [(0, (), ()), (1, (0,), ())]
    truth, trace = well_founded(clauses, (), 3)
    assert truth == [TRUE, TRUE, FALSE]
    two, undef = is_two_valued(truth)
    assert two and not undef


def test_wfs_even_loop_is_undefined():
    # p :- not q. q :- not p.
    truth, _ = well_founded([(0, (), (1,)), (1, (), (0,))], (), 2)
    assert truth == [UNDEF, UNDEF]


def test_wfs_odd_loop_is_undefined():
    # p :- not p.
    truth, _ = well_founded([(0, (), (0,))], (), 1)
    assert truth == [UNDEF]


def test_wfs_stratified_negation_resolves():
    # q. p :- not r. r :- q.  gives p false, q,r true
    clauses = [(1, (), ()), (0, (), (2,)), (2, (1,), ())]
    truth, _ = well_founded(clauses, (), 3)
    assert truth == [FALSE, TRUE, TRUE]


def test_wfs_positive_loop_is_false():
    # p :- q. q :- p.  unfounded, both false
    truth, _ = well_founded([(0, (1,), ()), (1, (0,), ())], (), 2)
    assert truth == [FALSE, FALSE]


def test_wfs_loop_with_external_support():
    # p :- q. q :- p. q :- not r.  with r unsupported: q,p true
    clauses = [(0, (1,), ()), (1, (0,), ()), (1, (), (2,))]
    truth, _ = well_founded(clauses, (), 3)
    assert truth == [TRUE, TRUE, FALSE]


def test_trace_shapes():
    clauses = [(0, (), (1,)), (1, (), (0,)), (2, (), ())]
    _, trace = well_founded(clauses, (), 3)
    assert isinstance(trace, FixpointTrace)
    assert trace.rounds == len(trace.true_sizes) == len(trace.possible_sizes)
    assert trace.is_monotone()


def test_trace_true_grows_possible_shrinks():
    rng = random.Random(4207)
    for _ in range(50):
        n = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(0, 20)):
            head = rng.randrange(n)
            pos = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
            neg = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
            clauses.append((head, pos, neg))
        _, trace = well_founded(clauses, (), n)
        for a, b in zip(trace.true_sizes, trace.true_sizes[1:]):
            assert a <= b
        for a, b in zip(trace.possible_sizes, trace.possible_sizes[1:]):
            assert a >= b
        assert trace.is_monotone()


SPOT_CASES = [
    # (clauses, n_atoms) checked against the exponential oracle
    ([(0, (), (1,)), (1, (), (0,)), (2, (0,), ()), (2, (1,), ())], 3),
    ([(0, (0,), ()), (1, (), (0,))], 2),
    ([(0, (), ()), (1, (0,), (2,)), (2, (1,), ())], 3),
    ([(0, (1,), (2,)), (1, (0,), ()), (2, (), (3,)), (3, (), ())], 4),
]


@pytest.mark.parametrize("clauses,n_atoms", SPOT_CASES)
def test_engine_matches_brute_oracle(clauses, n_atoms):
    truth, _ = well_founded(clauses, (), n_atoms)
    assert list(truth) == list(wfs_brute(clauses, n_atoms))


def test_prebuilt_arrays_serve_many_fact_sets():
    # one ClauseArrays evaluated against several fact sets must give each
    # the model the oracle gives the program with those facts as clauses
    rng = random.Random(5521)
    for i in range(300):
        n_atoms = rng.randint(1, 10)
        clauses = [
            (
                rng.randrange(n_atoms),
                tuple(rng.randrange(n_atoms) for _ in range(rng.randint(0, 3))),
                tuple(rng.randrange(n_atoms) for _ in range(rng.randint(0, 2))),
            )
            for _ in range(rng.randint(0, 16))
        ]
        arrays = clause_arrays(clauses)
        for _ in range(4):
            facts = rng.sample(range(n_atoms), rng.randint(0, min(3, n_atoms)))
            truth, _ = well_founded(arrays, facts, n_atoms)
            expected = wfs_brute(clauses + [(a, (), ()) for a in facts], n_atoms)
            assert list(truth) == expected, f"program {i}: {clauses} facts {facts}"
