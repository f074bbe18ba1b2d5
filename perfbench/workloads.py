"""The four benchmark workloads: inputs generated from the seed, and jobs.

A job is one acceptance-criterion case, one library verifier call, or
one in-process ``groupoidlab.cli.main`` invocation on a JSON file that
set-up wrote.  ``call`` is the timed part; ``check`` re-checks its output
with the independent checkers in ``checks.py`` and returns the problems
found.  Jobs look library functions up as module attributes when they
run, so a traced run sees every call.

Jobs in ``once`` run one time per run, after the timed passes: they are
ROADMAP baseline rows whose single multi-second call would make the
timed metrics unsteady.  Known-defect probes are jobs whose inputs hit a
defect recorded in ROADMAP.md; they run once per run, outside the timed
passes, and are reported on their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as ck
from groupoidlab import calgebra as ca
from groupoidlab import cli as gl_cli
from groupoidlab import corpus
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import twist as tw

WORKLOADS = ("topology-sweep", "algebra-models", "cohomology-solve", "graph-criterion")

BIG_MODULUS = 2**40 + 15


@dataclass
class Job:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    bytes_in: int = 0  # size of the JSON input handed to the CLI


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    once: list
    probes: list
    digest: str


class _JobMix:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.jobs: list = []
        self.once: list = []
        self.probes: list = []
        self._digest = hashlib.sha256()

    def add(self, job_id, params, call, check, section="jobs", bytes_in=0):
        """Add a job to ``section``: "jobs", "once" or "probes"."""
        self._digest.update(json.dumps([job_id, params], sort_keys=True).encode())
        getattr(self, section).append(Job(job_id, call, check, bytes_in))

    def cli(self, job_id, command, doc, check, extra=(), section="jobs"):
        """A ``cli.main`` job on ``doc``, written to the work directory."""
        text = json.dumps(doc, sort_keys=True)
        path = self.workdir / (job_id.replace("/", "_") + ".json")
        path.write_text(text)
        argv = [command, str(path), *extra]

        def checked(out):
            result, problems = ck.parse_report(*out)
            return problems or check(result)

        self.add(job_id, [command, list(extra), text], partial(run_cli, argv), checked,
                 section, bytes_in=len(text))


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gl_cli.main(argv)
    return code, out.getvalue()


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` and its jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    b = _JobMix(name, seed, workdir)
    {
        "topology-sweep": _topology_sweep,
        "algebra-models": _algebra_models,
        "cohomology-solve": _cohomology_solve,
        "graph-criterion": _graph_criterion,
    }[name](b)
    return Workload(name, seed, b.jobs, b.once, b.probes, b._digest.hexdigest())


def _space_doc(points, min_open) -> dict:
    return {"schema": "finspace/1", "points": list(points),
            "min_open": {p: sorted(min_open[p]) for p in points}}


# -- topology-sweep --------------------------------------------------------------


def _crit1_case(space, part):
    _, psi = fs.quotient_space(space, part)
    props = fs.classify_map(psi)
    etale = gp.groupoid_properties(gp.build_relation_groupoid(psi)).etale
    return props.quotient, etale, props.local_homeomorphism


def _crit1_check(out):
    quotient, etale, local_homeo = out
    return ck.expect(quotient, "quotient_space did not give a quotient map") + ck.expect(
        etale == local_homeo, f"etale={etale} but local homeomorphism={local_homeo}")


def _crit2_case(space, part):
    _, psi = fs.quotient_space(space, part)
    relation = gp.build_relation_groupoid(psi)
    props = gp.groupoid_properties(relation)
    return {
        "local_homeomorphism": fs.is_local_homeomorphism(psi) and psi.is_surjective(),
        "principal": props.principal,
        "etale": props.etale,
        "fell": gp.fell_check(relation).is_fell_model,
    }


def _crit2_check(out):
    return [f"{k} is false" for k, v in out.items() if v is not True]


def _sierpinski_union(rng, pieces):
    labels = [f"x{i}" for i in rng.sample(range(10 * pieces), 2 * pieces)]
    min_open = {}
    for k in range(pieces):
        open_pt, closed_pt = labels[2 * k], labels[2 * k + 1]
        min_open[open_pt] = [open_pt]
        min_open[closed_pt] = [open_pt, closed_pt]
    rng.shuffle(labels)
    return _space_doc(labels, min_open)


def _space_check(points, pieces, result):
    props = result["properties"]
    core = result["closed_hausdorff_core"]
    return (
        ck.expect(result["points"] == points, f"points {result['points']} != {points}")
        + ck.expect(result["open_subsets_checked"] == 3**pieces - 1,
                    f"{result['open_subsets_checked']} nonempty opens, expected {3**pieces - 1}")
        + [f"{k} should be false" for k in ("discrete", "t1", "hausdorff", "locally_hausdorff")
           if props[k] is not False]
        + ck.expect(result["compactness_equivalence_holds"] is True, "compactness equivalence fails")
        + ck.expect(core["core_is_open"] and core["core_is_hausdorff"], "closed Hausdorff core check fails")
    )


def _relation_doc(rng, target_morphisms):
    """A relation_groupoid/1 document with about ``target_morphisms`` pairs
    over a non-discrete base, and its fibers and base topology."""
    shape_rng = random.Random(f"fibers:{target_morphisms}")
    fibers, total = [], 0
    while True:
        size = shape_rng.randint(2, 6)
        if total + size * size > target_morphisms:
            break
        fibers.append(size)
        total += size * size
    labels = [f"y{i}" for i in range(sum(fibers))]
    rng.shuffle(labels)
    # Sierpinski pairs on randomly chosen points keep the base non-discrete
    pairing = rng.sample(labels, len(labels))
    min_open = {y: [y] for y in labels}
    for k in range(0, len(pairing) - 1, 2):
        min_open[pairing[k + 1]] = [pairing[k], pairing[k + 1]]
    assignment, at = {}, 0
    for k, size in enumerate(fibers):
        for y in labels[at:at + size]:
            assignment[y] = f"c{k}"
        at += size
    classes = [f"c{k}" for k in range(len(fibers))]
    doc = {"schema": "relation_groupoid/1", "psi": {
        "schema": "spacemap/1",
        "dom": _space_doc(labels, min_open),
        "cod": _space_doc(classes, {c: classes for c in classes}),
        "assignment": assignment,
    }}
    return doc, assignment, min_open


def _fell_check_honest(result):
    return ck.expect(result["fell"]["is_fell_model"] is True,
                     "relation groupoid with its own topology is not Fell")


def _fell_check_tampered(assignment, min_open, result):
    fell = result["fell"]
    if fell["is_fell_model"] is not False or fell["r_times_s_open"] is not False:
        return ["discrete morphisms over a non-discrete base must not be Fell"]
    witness = fell["witness"]
    if not witness or len(witness) != 1:
        return [f"witness {witness!r} is not a single morphism"]
    y, z = witness[0].strip("()").split(",")
    image = {(a, c) for a in min_open.get(y, ()) for c in min_open.get(z, ())
             if assignment[a] == assignment[c]}
    return ck.expect((y, z) in image and len(image) > 1,
                     f"image of witness {witness[0]} is open in R(q)")


def _topology_sweep(b: _JobMix):
    for n in range(1, 5):
        for ti, space in enumerate(corpus.all_topologies(n)):
            for pi, part in enumerate(corpus.all_partitions(space.points)):
                b.add(f"crit1/n{n}/t{ti}/p{pi}", None, partial(_crit1_case, space, part), _crit1_check)
    for n in range(1, 9):
        space = fs.discrete(tuple(range(n)))
        for pi, part in enumerate(corpus.all_partitions(space.points)):
            b.add(f"crit2/n{n}/p{pi}", None, partial(_crit2_case, space, part), _crit2_check)
    for pieces in (6, 7, 8):
        doc = _sierpinski_union(b.rng, pieces)
        b.cli(f"space-check/{2 * pieces}", "space-check", doc,
              partial(_space_check, 2 * pieces, pieces))
    for target in (50, 75, 100, 125, 150, 175, 200):
        doc, assignment, min_open = _relation_doc(b.rng, target)
        b.cli(f"fell-check/{target}", "fell-check", doc, _fell_check_honest)
        b.cli(f"fell-check/{target}-discrete", "fell-check", doc,
              partial(_fell_check_tampered, assignment, min_open), extra=("--discrete-morphisms",))


# -- algebra-models --------------------------------------------------------------


def _pair_values(rng, points, order):
    return [[y, z, rng.randrange(order)] for y in points for z in points if y != z]


def _twisted_relation(points, blocks, order, values):
    assignment = {p: k for k, blk in enumerate(blocks) for p in blk}
    psi = fs.SpaceMap(fs.discrete(tuple(points)), fs.discrete(tuple(range(len(blocks)))), assignment)
    relation = gp.build_relation_groupoid(psi)
    cochain = tw.OneCochain(relation, order, {(y, z): v for y, z, v in values})
    return relation, tw.coboundary_twist(cochain)


def _element(rng, relation, sigma):
    """Random coefficients on a random 70 % of the morphisms."""
    support = rng.sample(relation.morphisms, math.ceil(0.7 * len(relation.morphisms)))
    return ca.AlgebraElement(relation, sigma,
                             {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in support})


def _battery_case(points, blocks, order, values, element_seed):
    rng = random.Random(element_seed)
    relation, sigma = _twisted_relation(range(points), blocks, order, values)
    f, g, h = (_element(rng, relation, sigma) for _ in range(3))
    fg = ca.convolve(f, g)
    accumulated = {
        "associativity_dev": ca.max_deviation(ca.convolve(fg, h), ca.convolve(f, ca.convolve(g, h))),
    }
    structural = {
        "involution_dev": ca.max_deviation(ca.involute(ca.involute(f)), f),
        "anti_multiplicative_dev": ca.max_deviation(
            ca.involute(fg), ca.convolve(ca.involute(g), ca.involute(f))),
    }
    u = max(relation.orbits(), key=len)[0]
    mf, mg = ca.induced_rep(u, f).matrix, ca.induced_rep(u, g).matrix
    structural["representation_dev"] = float(np.max(np.abs(ca.induced_rep(u, fg).matrix - mf @ mg)))
    structural["star_representation_dev"] = float(
        np.max(np.abs(ca.induced_rep(u, ca.involute(f)).matrix - mf.conj().T)))
    norm = ca.reduced_norm(f)
    accumulated["cstar_dev"] = abs(ca.reduced_norm(ca.convolve(ca.involute(f), f)) - norm**2)
    dims = ca.block_decompose(relation, sigma).dims
    return accumulated, structural, sum(d * d for d in dims) == len(relation.morphisms)


def _battery_check(out):
    accumulated, structural, dims_ok = out
    return (ck.gate(accumulated, ck.ACCUMULATED_TOL) + ck.gate(structural, ck.STRUCTURAL_TOL)
            + ck.expect(dims_ok, "block dimensions do not add up to the morphism count"))


def _doubled_case(levels, sheets, seed):
    return ca.build_doubled_model(levels, sheets, rng=random.Random(seed))


def _doubled_check(levels, sheets, r):
    expected = sorted([sheets] * (levels - 1) + [1] * sheets, reverse=True)
    return (
        ck.gate({"rho_multiplicative_dev": r.rho_multiplicative_dev,
                 "rho_involutive_dev": r.rho_involutive_dev,
                 "unitary_equiv_dev": r.unitary_equiv_dev}, ck.STRUCTURAL_TOL)
        + ck.gate({"norm_dev": r.norm_dev}, ck.ACCUMULATED_TOL)
        + ck.expect(r.rho_bijective, "rho is not bijective")
        + ck.expect(sorted(r.block_shape, reverse=True) == expected,
                    f"block shape {r.block_shape} != {expected}")
    )


def _block_verify_case(points, order, values, seed):
    relation, sigma = _twisted_relation(range(points), [list(range(points))], order, values)
    return ca.block_decompose(relation, sigma).verify(random.Random(seed))


def _block_verify_check(r):
    return (
        ck.gate({"multiplicative_dev": r.multiplicative_dev,
                 "involutive_dev": r.involutive_dev}, ck.STRUCTURAL_TOL)
        + ck.gate({"norm_dev": r.norm_dev}, ck.ACCUMULATED_TOL)
        + ck.expect(r.bijective and r.dimension_identity, "block map is not bijective")
        + ck.expect(r.untwisted, "a coboundary twist was not untwisted")
    )


def _equivariant_case(points, order, values, seed):
    relation, sigma = _twisted_relation(range(points), [list(range(points))], order, values)
    return ca.equivariant_suite(relation, sigma, rng=random.Random(seed))


def _equivariant_check(r):
    return ck.gate({
        "equivariance_dev": r.equivariance_dev,
        "rho_multiplicative_dev": r.rho_multiplicative_dev,
        "rho_star_dev": r.rho_star_dev,
        "rep_equivalence_dev": r.rep_equivalence_dev,
    }, ck.STRUCTURAL_TOL) + ck.expect(r.rho_bijective, "slice map is not bijective")


def _cech_entries(triples, n, facet, value, rng=None):
    """lambda = d(mu) for a random mu (or 0), plus ``value`` on ``facet``."""
    pairs = sorted({p for (i, j, k) in triples for p in ((i, j), (i, k), (j, k))})
    mu = {p: (rng.randrange(n) if rng else 0) for p in pairs}
    lam = {(i, j, k): (mu[(j, k)] - mu[(i, k)] + mu[(i, j)]) % n for (i, j, k) in triples}
    if facet is not None:
        lam[facet] = (lam[facet] + value) % n
    return lam


def _double_cone(ring: int):
    """Vertex-star cover of the double cone over a ring of ``ring`` vertices:
    cover indices are the vertices 1..ring+2 and the base points are the
    facets, so the nonempty triple overlaps are exactly the facets."""
    north, south = ring + 1, ring + 2
    triples = []
    for i in range(1, ring + 1):
        j = i % ring + 1
        for apex in (north, south):
            triples.append(tuple(sorted((i, j, apex))))
    return sorted(triples)


def _cech_doc(triples, n, lam):
    facets = ["f" + "_".join(map(str, t)) for t in triples]
    cover = {}
    for t, f in zip(triples, facets):
        for v in t:
            cover.setdefault(str(v), []).append(f)
    return {"schema": "cech/1", "n": n, "base_points": sorted(facets),
            "cover": {k: sorted(v) for k, v in cover.items()},
            "lambda": [[i, j, k, lam[(i, j, k)]] for (i, j, k) in triples]}


def _cover_case(doc, seed):
    data = tw.CechData(doc["n"], doc["base_points"], {int(k): v for k, v in doc["cover"].items()},
                       [tuple(row) for row in doc["lambda"]])
    return ca.build_cover_model(data, rng=random.Random(seed))


def _cover_check(r):
    def algebra(prefix, c):
        return (ck.gate({f"{prefix}.associativity_dev": c.associativity_dev,
                         f"{prefix}.star_dev": c.star_dev,
                         f"{prefix}.representation_dev": c.representation_dev}, ck.STRUCTURAL_TOL)
                + ck.gate({f"{prefix}.cstar_dev": c.cstar_dev}, ck.ACCUMULATED_TOL))

    return (
        algebra("algebra", r.algebra_check) + algebra("kernel", r.kernel_check)
        + ck.gate({"character_dev": r.character_dev,
                   "character_is_induced_dev": r.character_is_induced_dev,
                   "kernel_iso_mult_dev": r.kernel_iso_mult_dev,
                   "kernel_iso_star_dev": r.kernel_iso_star_dev}, ck.STRUCTURAL_TOL)
        + ck.gate({"kernel_norm_dev": r.kernel_norm_dev}, ck.ACCUMULATED_TOL)
        + ck.expect(r.kernel_iso_bijective, "kernel isomorphism is not bijective")
        + ck.expect(r.twist_nontrivial_certified, "a nontrivial sphere class was not certified")
    )


def _random_blocks(shape_rng, rng, points):
    """A partition of range(points): block sizes from ``shape_rng``,
    membership from ``rng``."""
    k = shape_rng.randint(1, points)
    sizes = [1] * k
    for _ in range(points - k):
        sizes[shape_rng.randrange(k)] += 1
    labels = list(range(points))
    rng.shuffle(labels)
    blocks, at = [], 0
    for size in sizes:
        blocks.append(sorted(labels[at:at + size]))
        at += size
    return blocks


def _algebra_models(b: _JobMix):
    rng = b.rng
    for i in range(200):
        # sizes, block shapes, orders and support sizes are fixed per case
        # and the induced representation is taken on the largest orbit, so
        # that a case costs the same for every seed; the seed places the
        # points and draws the cochain and the elements
        shape_rng = random.Random(f"battery:{i}")
        points = 1 + i % 12
        blocks = _random_blocks(shape_rng, rng, points)
        order = shape_rng.randint(1, 8)
        values = [[y, z, rng.randrange(order)] for blk in blocks for y in blk for z in blk if y != z]
        params = [points, blocks, order, values, rng.randrange(2**32)]
        b.add(f"battery/{i}", params, partial(_battery_case, *params), _battery_check)
    # (4,8) and the 12-point block verify are ROADMAP baseline rows of
    # 2-4 s each; one such call per run made jobs_per_s unsteady
    for levels, sheets in ((3, 4), (4, 4), (4, 6), (4, 8)):
        params = [levels, sheets, rng.randrange(2**32)]
        b.add(f"doubled/{levels}x{sheets}", params, partial(_doubled_case, *params),
              partial(_doubled_check, levels, sheets), "once" if sheets == 8 else "jobs")
    for points, order in ((8, 4), (10, 6), (12, 5)):
        params = [points, order, _pair_values(rng, range(points), order), rng.randrange(2**32)]
        b.add(f"block-verify/{points}", params, partial(_block_verify_case, *params),
              _block_verify_check, "once" if points == 12 else "jobs")
    for points, order in ((4, 6), (6, 8)):
        params = [points, order, _pair_values(rng, range(points), order), rng.randrange(2**32)]
        b.add(f"equivariant/{points}pt-n{order}", params, partial(_equivariant_case, *params),
              _equivariant_check)
    tetrahedron = list(itertools.combinations((1, 2, 3, 4), 3))
    for name, triples in (("tetrahedron-z3", tetrahedron), ("double-cone-12", _double_cone(6))):
        lam = _cech_entries(triples, 3, rng.choice(triples), rng.randint(1, 2))
        doc = _cech_doc(triples, 3, lam)
        params = [doc, rng.randrange(2**32)]
        b.add(f"cover/{name}", params, partial(_cover_case, *params), _cover_check)
    # the battery's millisecond jobs run four times a pass, between
    # quarters of the model verifiers, so that their medians rest on
    # several moments of a machine whose speed drifts
    battery, models = b.jobs[:200], b.jobs[200:]
    quarter = -(-len(models) // 4)
    b.jobs = [j for k in range(4) for j in battery + models[k * quarter:(k + 1) * quarter]]


# -- cohomology-solve ------------------------------------------------------------

GROUP_SHAPES = (
    (2, 2), (4, 1), (2, 3), (6, 1), (2, 4), (8, 1), (3, 3), (2, 5), (4, 3), (2, 6),
    (7, 2), (4, 4), (3, 5), (6, 3), (4, 5), (2, 10), (3, 7), (4, 6), (5, 5), (3, 9),
    (4, 7), (6, 5), (8, 4), (6, 6),
)
COMPOSITE = tuple(n for n in range(4, 37) if any(n % p == 0 for p in range(2, n)))
CECH_RINGS = (8, 12, 16, 20, 24, 28, 32, 36, 40)


def _group_doc(a, bdim, n, rng, carry):
    """Z/a x Z/b as a one-unit fingroupoid/1 with a cocycle mod n: a random
    coboundary, plus ``carry`` times the carry cocycle of the Z/a factor."""
    elems = [(x, y) for x in range(a) for y in range(bdim)]
    lab = lambda e: f"g{e[0]}_{e[1]}"
    mul = lambda p, q: ((p[0] + q[0]) % a, (p[1] + q[1]) % bdim)
    unit = lab((0, 0))
    b = {lab(e): (rng.randrange(n) if e != (0, 0) else 0) for e in elems}
    pairs = []
    for p in elems:
        for q in elems:
            pq = lab(mul(p, q))
            value = (b[lab(p)] + b[lab(q)] - b[pq] + carry * ((p[0] + q[0]) // a)) % n
            pairs.append((lab(p), lab(q), pq, value))
    labels = [lab(e) for e in elems]
    doc = {"schema": "twisted_groupoid/1", "groupoid": {
        "schema": "fingroupoid/1",
        "topology": _space_doc(labels, {m: [m] for m in labels}),
        "units": [unit],
        "range": {m: unit for m in labels},
        "source": {m: unit for m in labels},
        "inverse": {lab(e): lab(((-e[0]) % a, (-e[1]) % bdim)) for e in elems},
        "compose": [[x, y, xy] for x, y, xy, _ in pairs],
    }, "cocycle": {"schema": "two_cocycle/1", "n": n, "table": [[x, y, v] for x, y, _, v in pairs]}}
    return doc, pairs


def _cocycle_check(pairs, n, trivial_class, result):
    if result["report"]["valid"] is not True:
        return ["a valid cocycle was reported invalid"]
    witness = result["coboundary"]
    if not trivial_class:
        return ck.expect(witness is None, "a nontrivial class got a coboundary witness")
    if witness is None:
        return ["a coboundary got no witness"]
    return ck.check_group_coboundary(pairs, witness, n)


def _cech_check(triples, lam, n, trivial_class, result):
    if result["report"]["valid"] is not True:
        return ["valid cech data was reported invalid"]
    decision = result["coboundary"]
    if decision["is_coboundary"] is not trivial_class:
        return [f"is_coboundary={decision['is_coboundary']} contradicts the class"]
    if trivial_class:
        return ck.check_cech_witness(triples, lam, decision["witness"] or {}, n)
    return ck.check_cech_certificate(triples, lam, decision["certificate"] or {}, n)


def _add_cocycle(b, job_id, a, bdim, n, trivial_class, section="jobs"):
    rng = b.rng
    if trivial_class:
        carry = 0
    else:
        g = np.gcd(a, n)
        carry = rng.choice([k for k in range(1, n) if k % g])
    doc, pairs = _group_doc(a, bdim, n, rng, carry)
    b.cli(job_id, "cocycle-verify", doc, partial(_cocycle_check, pairs, n, trivial_class),
          section=section)


def _add_cech(b, job_id, ring, n, trivial_class, section="jobs"):
    rng = b.rng
    triples = _double_cone(ring)
    shift = None if trivial_class else rng.choice(triples)
    lam = _cech_entries(triples, n, shift, rng.randrange(1, n), rng)
    b.cli(job_id, "cech-cert", _cech_doc(triples, n, lam),
          partial(_cech_check, triples, lam, n, trivial_class), section=section)


def _cohomology_solve(b: _JobMix):
    # Small systems get several seeded instances.  With these counts the
    # median job sits well inside the dense run of small costs and the
    # 90th percentile among the 36-ring, Z/3xZ/9 and Z/4xZ/7 systems,
    # not on a gap between two clusters, where it would jump from run to
    # run.
    for a, bdim in GROUP_SHAPES:
        order = a * bdim
        for trivial_class in (True, False):
            kind = "coboundary" if trivial_class else "carry"
            candidates = [n for n in COMPOSITE if trivial_class or np.gcd(a, n) > 1]
            for rep in range(4 if order <= 10 else 1):
                job_id = f"cocycle/{a}x{bdim}/{kind}/{rep}"
                n = random.Random(job_id).choice(candidates)  # fixed cost per job
                _add_cocycle(b, job_id, a, bdim, n, trivial_class)
    for ring in CECH_RINGS:
        for trivial_class in (True, False):
            kind = "coboundary" if trivial_class else "shifted"
            for rep in range(2 if ring <= 12 else 1):
                job_id = f"cech/{ring}/{kind}/{rep}"
                _add_cech(b, job_id, ring, random.Random(job_id).choice((6, 12, 30)), trivial_class)
    # ROADMAP item 2: int64 arithmetic overflows at this modulus
    for a, bdim in ((2, 3), (4, 4)):
        _add_cocycle(b, f"big-modulus/cocycle/{a}x{bdim}", a, bdim, BIG_MODULUS, True, "probes")
    for trivial_class, kind in ((True, "coboundary"), (False, "shifted")):
        _add_cech(b, f"big-modulus/cech/8/{kind}", 8, BIG_MODULUS, trivial_class, "probes")


# -- graph-criterion --------------------------------------------------------------


def _digraph(vertices, edges):
    return {"schema": "digraph/1", "vertices": list(vertices),
            "edges": [{"id": e, "range": r, "source": s} for e, r, s in edges]}


def _periodic(block_vertices, block_edges, seam_block, prefix_vertices=(), prefix_edges=(),
              seam_prefix=()):
    rows = lambda es: [{"id": e, "range": r, "source": s} for e, r, s in es]
    return {"schema": "periodic_graph/1", "block": _digraph(block_vertices, block_edges),
            "prefix": _digraph(prefix_vertices, prefix_edges),
            "seam_prefix": rows(seam_prefix), "seam_block": rows(seam_block)}


def _ladder(rungs: int, with_f2: bool = True):
    """``rungs`` copies of the two-thread ladder chained inside one block."""
    vertices, edges = [], []
    for i in range(rungs):
        vertices += [f"v{i}", f"t{i}", f"c{i}"]
        edges += [(f"f1_{i}", f"v{i}", f"t{i}"), (f"g{i}", f"t{i}", f"c{i}")]
        if with_f2:
            edges.append((f"f2_{i}", f"v{i}", f"t{i}"))
        if i + 1 < rungs:
            edges.append((f"h{i}", f"v{i}", f"v{i + 1}"))
    return _periodic(vertices, edges, [("chain", f"v{rungs - 1}", "v0")])


def _tree_with_tails(depth: int):
    vertices = [f"n{lv}_{i}" for lv in range(depth + 1) for i in range(2**lv)]
    edges = [(f"e{lv}_{i}_{side}", f"n{lv}_{i}", f"n{lv + 1}_{2 * i + side}")
             for lv in range(depth) for i in range(2**lv) for side in (0, 1)]
    leaves = [f"n{depth}_{i}" for i in range(2**depth)]
    tails = [f"tail{i}" for i in range(len(leaves))]
    return _periodic(tails, [], [(f"step{i}", t, t) for i, t in enumerate(tails)], vertices, edges,
                     [(f"drop{i}", leaf, tails[i]) for i, leaf in enumerate(leaves)])


def _seam_counterexample():
    """ROADMAP item 5: v_k has the parallel seam paths a_k, b_k to w_{k+1}."""
    return _periodic(["v", "w"], [], [("a", "v", "w"), ("b", "v", "w"), ("c", "w", "v")])


def _random_periodic(rng):
    size = rng.randint(2, 4)
    vertices = [f"u{i}" for i in range(size)]
    edges = [(f"e{i}_{j}", vertices[i], vertices[j]) for i in range(size)
             for j in range(i + 1, size) if rng.random() < 0.4]
    seam = [(f"s{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(1, 3))]
    return _periodic(vertices, edges, seam)


def _random_dag(rng, n_vertices, n_edges):
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for k in range(n_edges):
        i, j = sorted(rng.sample(range(n_vertices), 2))
        edges.append((f"e{k}", vertices[i], vertices[j]))
    return vertices, edges


def _periodic_check(doc, bound, truth, result):
    verdict = result["verdict"]
    problems = ck.check_verdict(verdict["verdict"], truth)
    if problems:
        return problems
    edges = ck.unrolled_edges(doc, bound + 1)
    if verdict["verdict"] == "NOT_FELL":
        return ck.check_parallel_paths(edges, verdict["witness_vertex"], verdict["witness_paths"])
    if verdict["verdict"] == "NOT_PRINCIPAL":
        return ck.check_cycle(edges, verdict["cycle"])
    return []


def _dag_check(vertices, edges, result):
    verdict = result["verdict"]
    if verdict["verdict"] != "FELL" or verdict["vacuous"] is not True:
        return [f"finite DAG got {verdict['verdict']}, expected a vacuous FELL"]
    expected = sorted(ck.single_threaded(vertices, edges))
    return ck.expect(verdict["single_threaded"] == expected, "single-threaded set differs")


def _cyclic_check(edges, result):
    verdict = result["verdict"]
    if verdict["verdict"] != "NOT_PRINCIPAL":
        return [f"cyclic graph got {verdict['verdict']}, expected NOT_PRINCIPAL"]
    return ck.check_cycle(edges, verdict["cycle"])


def _add_periodic(b, job_id, doc, bound, truth, section="jobs"):
    b.cli(job_id, "graph-fell", doc, partial(_periodic_check, doc, bound, truth),
          extra=("--unroll-bound", str(bound)), section=section)


def _graph_criterion(b: _JobMix):
    rng = b.rng
    # (name, presentation, ground truth, block copies of the ladder rung)
    families = [(f"ladder-{k}", _ladder(k), "NOT_FELL", k) for k in (1, 4, 10)]
    families += [(f"ladder-{k}-no-f2", _ladder(k, False), "FELL", k) for k in (1, 4)]
    families += [("single-tail", _periodic(["c"], [], [("tail", "c", "c")]), "FELL", 1)]
    families += [(f"tree-{d}", _tree_with_tails(d), "FELL", 1) for d in range(3, 8)]
    for name, doc, truth, rungs in families:
        for bound in (0, 3, 10, 30):
            if rungs * (bound + 1) <= 300:  # at most 300 rung copies unrolled
                _add_periodic(b, f"periodic/{name}/{bound}", doc, bound, truth)
    for bound in (3, 10, 30):
        _add_periodic(b, f"periodic/seam-counterexample/{bound}", _seam_counterexample(), bound, "NOT_FELL")
    for k in range(60):
        bound = rng.choice((0, 3, 10))
        _add_periodic(b, f"random-periodic/{k}", _random_periodic(rng), bound, None)
    for n_vertices, n_edges in ((100, 500), (200, 1000), (300, 2000), (400, 4000)):
        vertices, edges = _random_dag(rng, n_vertices, n_edges)
        b.cli(f"dag/{n_vertices}v{n_edges}e", "graph-fell", _digraph(vertices, edges),
              partial(_dag_check, vertices, edges))
    for k in range(20):
        vertices, edges = _random_dag(rng, 50 + 5 * k, 100 + 10 * k)
        i, j = sorted(rng.sample(range(len(vertices)), 2))
        edges.append(("back", vertices[j], vertices[i]))
        edges += [(f"p{i}_{t}", vertices[i + t], vertices[i + t + 1]) for t in range(j - i)]
        rng.shuffle(edges)
        doc = _digraph(vertices, edges)
        b.cli(f"cyclic/{k}", "graph-fell", doc, partial(_cyclic_check, ck.digraph_edges(doc)))
    # ROADMAP item 5: the truncated unrolling reads FELL off the biased tail
    _add_periodic(b, "periodic/seam-counterexample/0", _seam_counterexample(), 0, "NOT_FELL", "probes")
