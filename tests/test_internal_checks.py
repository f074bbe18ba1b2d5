"""Internal checks raise InternalCheckFailure instead of relying on
``assert``, so they also run under ``python -O``."""

import ast
import collections
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


# public entry points with no caller inside the library: the README example,
# the bench harness, the writers that invert the readers, and a hook that
# argparse calls
ENTRY_POINTS = {
    "calgebra.py": {"identity_element"},
    "cli.py": {"error"},
    "finspace.py": {"is_local_homeomorphism", "hausdorff_cover_resolution"},
    # read by the bench harness: the hooks _triples and _terms of
    # perfbench/tracer.py count triples and convolution terms off them
    "groupoid.py": {"range_map", "source_map", "compose"},
    "serialize.py": {"twisted_groupoid_to_json", "cech_to_json", "periodic_to_json"},
}


def _attributes(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def _bindings(tree) -> tuple:
    """What a module's relative imports bind: each imported function
    name to (module, name), and each imported module to its stem."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return names, modules


def _uses(node, stem, bindings):
    """The (module, name) pairs that ``node`` names: a bare name is the
    imported function it binds, else a name of module ``stem`` itself,
    and ``module.name`` is ``name`` of an imported module."""
    names, modules = bindings
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield names.get(sub.id, (stem, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            yield modules[sub.value.id], sub.attr


def test_every_library_function_has_a_caller_in_the_library():
    """Each module-level function is named outside its own body by its
    own module, or by a module that imports it, by name or as
    ``module.name`` (``__init__.py`` does not count), and each method is
    read as an attribute (``.name``) somewhere in the package, or it is
    a listed entry point.  A function of another module or a method that
    shares the name does not count as a use, and neither does the
    import alone."""
    uses, attributes = collections.Counter(), collections.Counter()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        stem, tree = path.stem, ast.parse(path.read_text())
        bindings = _bindings(tree)
        uses.update(_uses(tree, stem, bindings))
        attributes.update(_attributes(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                definitions += [(path.name, d, attributes, d.name, _attributes(d)) for d in node.body
                                if isinstance(d, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                key = (stem, node.name)
                definitions.append((path.name, node, uses, key, _uses(node, stem, bindings)))
    offenders = [
        f"{name}:{d.lineno} {d.name}"
        for name, d, used, key, inside in definitions
        if not d.name.startswith("__")
        and d.name not in ENTRY_POINTS.get(name, ())
        and used[key] == collections.Counter(inside)[key]
    ]
    assert offenders == []


def test_every_parameter_is_read():
    """Each parameter of a module-level function or method is read in its
    body, nested functions included: a parameter no line reads is a knob
    that does nothing."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in members:
                if not isinstance(d, ast.FunctionDef):
                    continue
                read = {
                    sub.id for stmt in d.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                }
                a = d.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                offenders += [f"{path.name}:{d.lineno} {d.name}.{p.arg}" for p in params if p.arg not in read]
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


def run_under_python_O(script: str) -> str:
    """The stripped output of ``script`` run by ``python -O``."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_solver_self_check_survives_python_O():
    # The system is solvable by construction.  At this modulus int64
    # products would overflow, so the solver must switch to exact
    # arithmetic and return a solution that verifies, also under -O.
    assert run_under_python_O(SOLVE) == "solved"


NON_OPEN_ORBIT_MAP = """
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab.errors import InternalCheckFailure

# b and c lie in U_a, and q glues a to c: the saturation {a, c} of the
# open set {c} is not open, so q is not open and R(psi) is not etale
y = fs.FinSpace("abc", [0b111, 0b010, 0b100])
_, psi = fs.quotient_space(y, [{"a", "c"}, {"b"}])
g = gp.build_relation_groupoid(psi)
print(gp.groupoid_properties(g).etale, fs.classify_map(gp.orbit_space(g)[1]).open_map)
# the theorem's hypothesis, forced: the groupoid claims to be etale
g._props_cache = gp.GroupoidProperties(g.principal, True)
try:
    gp.orbit_space(g)
except InternalCheckFailure as err:
    print("raised" if "non-open orbit map" in str(err) else err)
"""


def test_orbit_space_open_map_check_survives_python_O():
    # an etale groupoid has an open orbit map; a groupoid that claims the
    # etale property without it trips the check, also under -O
    assert run_under_python_O(NON_OPEN_ORBIT_MAP).split() == ["False", "False", "raised"]


NON_CLOSED_CECH = """
import itertools

from groupoidlab import twist as tw
from groupoidlab.calgebra import build_doubled_cover_space
from groupoidlab.errors import InternalCheckFailure

# four cover sets on one point: the nerve holds the 3-simplex, and
# lambda(1,2,3) = 1 alone gives d(lambda)(1,2,3,4) = -1, not 0
cover = {i: {"p"} for i in (1, 2, 3, 4)}
entries = [(*t, int(t == (1, 2, 3))) for t in itertools.combinations((1, 2, 3, 4), 3)]
data = tw.CechData(3, ["p"], cover, entries)
print(tw.verify_cech(data).valid)
# the theorem's hypothesis, forced: the data claims to be a cocycle
tw.verify_cech = lambda data: tw.CechReport(True, (), (), (), ())
try:
    tw.cech_to_groupoid_cocycle(build_doubled_cover_space(data))
except InternalCheckFailure as err:
    print("raised" if "transported cocycle fails verification at (" in str(err) else err)
"""


def test_transported_cocycle_check_survives_python_O():
    # d(lambda) = 0 makes the transported table a cocycle; data that only
    # claims it is caught by the re-verification, also under -O
    assert run_under_python_O(NON_CLOSED_CECH).split() == ["False", "raised"]


WRONG_RESOLUTION = """
from groupoidlab import finspace as fs
from groupoidlab.errors import InternalCheckFailure

x = fs.discrete("abc")


class Indiscrete(fs.FinSpace):
    # the construction's fact, forced: each copy of U_p is U_p itself
    def __init__(self, points, masks):
        super().__init__(points, [(1 << len(masks)) - 1] * len(masks))


fs.FinSpace = Indiscrete
try:
    fs.hausdorff_cover_resolution(x, [{"a", "b"}, {"b", "c"}])
except InternalCheckFailure as err:
    print("raised" if "not a surjective local homeomorphism" in str(err) else err)
"""


def test_cover_resolution_check_survives_python_O():
    # the resolution carries each U_p to its copy, so psi is a local
    # homeomorphism; an indiscrete resolution is not, and is caught
    assert run_under_python_O(WRONG_RESOLUTION) == "raised"


WRONG_SOLVER_STEPS = """
import numpy as np

from groupoidlab import modlin
from groupoidlab.errors import InternalCheckFailure

# the replayed row of U, forced to zero: the certificate of 2 (x + y) = 1
# mod 8 then sums to 0 on the right-hand side
modlin._transform_row = lambda i, m, log, n, dtype: np.zeros(m, dtype=dtype)
try:
    modlin.solve_mod([[2, 2], [4, 4]], [1, 2], 8)
except InternalCheckFailure as err:
    print("raised" if "certificate fails to verify" in str(err) else err)
# every modular inverse, forced to 1: back-substitution then solves
# 3 x = 1 mod 7 with x = 1
modlin.pow = lambda base, exp, mod: 1
try:
    modlin.solve_mod([[3]], [1], 7)
except InternalCheckFailure as err:
    print("raised" if "solution fails to verify" in str(err) else err)
"""


def test_solver_certificate_and_solution_checks_survive_python_O():
    # a certificate is the replayed row of U times n / g, and a solution
    # divides by units; with either fact broken the re-check raises
    assert run_under_python_O(WRONG_SOLVER_STEPS).split() == ["raised", "raised"]
