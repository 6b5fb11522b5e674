"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; `sympovm repro` runs the same
checks from the command line.
"""

import pytest

from sympovm._acceptance import CRITERIA

SEED = 0


@pytest.mark.parametrize("name,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(name, check):
    ok, detail = check(SEED)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"
