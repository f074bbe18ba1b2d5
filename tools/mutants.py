"""Mutation probe for the library's raising checks.

Each mutant sets the test of one ``if`` whose body raises to ``False``,
in a copy of ``src/``, one at a time.  A mutant runs first against its
module's own test files (``tests/test_<module>.py`` and any given with
``--tests``), and only a mutant that survives them runs against the
whole suite.  One line is printed per survivor, ``module.py:LINE`` and
the check's source; a mutant that the tests kill prints nothing.

    python tools/mutants.py serialize.py
    python tools/mutants.py finspace.py:391 twist.py:459 --tests tests/test_cli.py

A target is a module of ``src/groupoidlab`` (every raising ``if`` in it)
or ``module.py:LINE`` (the raising ``if`` on that line).  A module
without a raising ``if`` is skipped with a note on stderr; the probe
stops with an error when a ``module.py:LINE`` names a line without one
or when no target has one.  The probe uses only the standard library
and is not collected by the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupoidlab"


def raising_ifs(source: str) -> list[ast.If]:
    """Every ``if`` (or ``elif``) with a ``raise`` among its body's own statements."""
    nodes = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)]
    return sorted(nodes, key=lambda node: node.lineno)


def mutate(source: str, node: ast.If) -> str:
    """``source`` with the test of ``node`` replaced by ``False``; the
    line count is kept, so later line numbers still match."""
    lines = source.splitlines(keepends=True)
    # ast columns are UTF-8 byte offsets
    offset = lambda row, col: sum(map(len, lines[:row - 1])) + len(lines[row - 1].encode()[:col].decode())
    test = node.test
    start, end = offset(test.lineno, test.col_offset), offset(test.end_lineno, test.end_col_offset)
    spare = "\n" * (test.end_lineno - test.lineno)
    return source[:start] + ("(False" + spare + ")" if spare else "False") + source[end:]


def run_tests(src: pathlib.Path, tests: list[str]) -> bool:
    """Whether the tests pass with ``src`` first on the import path."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def targets(specs: list[str]) -> list[tuple[str, str, ast.If]]:
    """(module, its source, the raising ``if``) for each site named.  A
    module with no raising ``if`` is skipped with a note; a
    ``module.py:LINE`` with none, or a list in which no target has one,
    stops the probe."""
    found = []
    for spec in specs:
        name, _, line = spec.partition(":")
        source = (PACKAGE / name).read_text()
        picked = [n for n in raising_ifs(source) if not line or n.lineno == int(line)]
        if not picked:
            if line:
                raise SystemExit(f"no raising if at {spec}")
            print(f"{name}: no raising if, skipped", file=sys.stderr)
        found += [(name, source, n) for n in picked]
    if not found:
        raise SystemExit(f"no raising if in {' '.join(specs)}")
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("targets", nargs="+", help="module.py or module.py:LINE under src/groupoidlab")
    p.add_argument("--tests", nargs="*", default=[], help="more test files run first with the module's own")
    args = p.parse_args(argv)
    sites = targets(args.targets)
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for name, original, node in sites:
            own = [t for t in [f"tests/test_{pathlib.Path(name).stem}.py", *args.tests] if (ROOT / t).exists()]
            (src / "groupoidlab" / name).write_text(mutate(original, node))
            try:
                if run_tests(src, own) and run_tests(src, ["tests"]):
                    survivors += 1
                    print(f"{name}:{node.lineno} if {ast.get_source_segment(original, node.test)}", flush=True)
            finally:
                (src / "groupoidlab" / name).write_text(original)
    print(f"{len(sites)} mutants, {survivors} survive", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
