"""Seeded Hamiltonian-cycle workload: graph generator, program text and
DFS oracle.

The program abduces ``hc(X,Y)`` edges and defines ``reached/1`` by
positive recursion from node 1.  Completion propagation cannot rule out
candidates made of several disjoint subcycles (their ``reached`` atoms
support each other), so every cycle cover of the graph reaches a leaf
and only the well-founded leaf check rejects the ones that are not a
single cycle.  The leaf check filters here instead of confirming.

The generator keeps drawing graphs from the seeded stream until the
number of cycle covers lies in a fixed window.  Cycle covers are the
leaves the solver visits, so the window fixes the amount of work per
seed while the graph itself changes.

Run ``python3 bench/hamcycle.py --seed N`` to print the generated source
and the oracle's cycle count for that seed.
"""

from __future__ import annotations

import argparse
import random

NODES = 12
EXTRA_OUT_EDGES = 3
COVERS_WINDOW = (490, 510)
CYCLES_WINDOW = (110, 140)

RULES = """\
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


def _successors(n: int, edges: frozenset) -> dict[int, list[int]]:
    succ: dict[int, list[int]] = {x: [] for x in range(1, n + 1)}
    for x, y in sorted(edges):
        succ[x].append(y)
    return succ


def count_cycle_covers(n: int, edges: frozenset) -> int:
    """Number of ways to give every node one outgoing and one incoming
    edge: the permanent of the adjacency matrix, by DFS."""
    succ = _successors(n, edges)
    used = [False] * (n + 1)

    def rec(x: int) -> int:
        if x > n:
            return 1
        total = 0
        for y in succ[x]:
            if not used[y]:
                used[y] = True
                total += rec(x + 1)
                used[y] = False
        return total

    return rec(1)


def hamiltonian_cycles(n: int, edges: frozenset) -> list[frozenset]:
    """Every Hamiltonian cycle of the digraph, as its edge set, by DFS
    from node 1."""
    succ = _successors(n, edges)
    path = [1]
    on_path = {1}
    out: list[frozenset] = []

    def rec(x: int):
        if len(path) == n:
            if (x, 1) in edges:
                out.append(frozenset(zip(path, path[1:] + [1])))
            return
        for y in succ[x]:
            if y not in on_path:
                path.append(y)
                on_path.add(y)
                rec(y)
                path.pop()
                on_path.discard(y)

    rec(1)
    return out


def generate_graph(seed: int) -> frozenset:
    """A digraph on nodes 1..NODES: a planted Hamiltonian cycle in random
    order plus EXTRA_OUT_EDGES random out-edges per node, redrawn from the
    same stream until its cycle-cover count falls in COVERS_WINDOW."""
    rng = random.Random(seed)
    lo, hi = COVERS_WINDOW
    while True:
        order = list(range(2, NODES + 1))
        rng.shuffle(order)
        order = [1] + order
        edges = {(order[i], order[(i + 1) % NODES]) for i in range(NODES)}
        for x in range(1, NODES + 1):
            others = [y for y in range(1, NODES + 1) if y != x]
            edges.update((x, y) for y in rng.sample(others, EXTRA_OUT_EDGES))
        edges = frozenset(edges)
        if lo <= count_cycle_covers(NODES, edges) <= hi and (
            CYCLES_WINDOW[0] <= len(hamiltonian_cycles(NODES, edges)) <= CYCLES_WINDOW[1]
        ):
            return edges


def program_text(edges: frozenset) -> str:
    facts = "".join(f"edge({x},{y}).\n" for x, y in sorted(edges))
    return (
        f"% generated: {NODES} nodes, {len(edges)} edges\n"
        f"node(X) :- X in 1..{NODES}.\n{facts}\n{RULES}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    edges = generate_graph(args.seed)
    print(program_text(edges), end="")
    print(f"% cycle covers: {count_cycle_covers(NODES, edges)}")
    print(f"% hamiltonian cycles (DFS oracle): {len(hamiltonian_cycles(NODES, edges))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
