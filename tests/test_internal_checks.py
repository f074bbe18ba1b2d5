"""Internal checks raise InternalCheckFailure instead of relying on
``assert``, so they also run under ``python -O``."""

import ast
import os
import pathlib
import subprocess
import sys

import groupoidlab

PACKAGE = pathlib.Path(groupoidlab.__file__).parent


def test_no_assert_statements_in_the_library():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


SOLVE = """
import random
from groupoidlab.errors import InternalCheckFailure
from groupoidlab.modlin import solve_mod

n = 2**40 + 15
rng = random.Random(0)
a = [[rng.randrange(n) for _ in range(4)] for _ in range(6)]
x = [rng.randrange(n) for _ in range(4)]
b = [sum(r * v for r, v in zip(row, x)) % n for row in a]
try:
    res = solve_mod(a, b, n)
except InternalCheckFailure:
    print("raised")
else:
    solves = res.solvable and all(
        sum(r * v for r, v in zip(row, res.solution)) % n == rhs for row, rhs in zip(a, b)
    )
    print("solved" if solves else "certificate" if res.certificate else "wrong")
"""


def test_solver_self_check_survives_python_O():
    # The system is solvable by construction.  At this modulus int64
    # products would overflow, so the solver must switch to exact
    # arithmetic and return a solution that verifies, also under -O.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SOLVE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "solved"
