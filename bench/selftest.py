"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For every workload, solves once, requires the check to accept the real
solution list, and then requires it to reject four corruptions of that
list: one solution removed, one bogus solution added, one solution
replaced by a bogus one, and one solution repeated.  A bogus solution is
a real one with its last fact dropped.  Exits 1 if any check accepts a
corrupted list or rejects the real one.
"""

from __future__ import annotations

import sys

import run

SEED = 1


def corruptions(rendered: list[list[str]]) -> dict[str, list[list[str]]]:
    bogus = rendered[0][:-1]
    return {
        "one solution removed": rendered[1:],
        "bogus solution added": rendered + [bogus],
        "one solution replaced by a bogus one": [bogus] + rendered[1:],
        "one solution repeated": rendered + [rendered[-1]],
    }


def main() -> int:
    run._import_program()
    from workloads import WORKLOADS

    ok = True
    for name, make in WORKLOADS.items():
        inst = make(SEED)
        rendered = run.run_round(inst).rendered
        reason = inst.check(rendered)
        print(f"{name}: real solutions ({len(rendered)}): {reason or 'accepted'}")
        ok &= reason is None
        for what, corrupted in corruptions(rendered).items():
            reason = inst.check(corrupted)
            print(f"{name}: {what}: {reason or 'ACCEPTED'}")
            ok &= reason is not None
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
