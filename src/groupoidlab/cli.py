"""Command-line front end.

Subcommands parse a JSON input (or a bundled one via ``bundled:NAME``),
dispatch to the library, and emit a versioned report as JSON, to stdout
or to --output.  Exit codes: 0 when a verdict was delivered (including
mathematically negative verdicts), 1 on input errors, 2 when an internal
consistency check failed.  Reports are byte-identical across runs apart
from the wall-clock field; randomized batteries read their seed from
GROUPOIDLAB_SEED.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
import time

from . import bundled, calgebra, finspace, graphfell, groupoid, serialize, twist
from .corpus import (
    all_partitions,
    all_topologies,
    env_seed,
    random_discrete_surjection,
    random_space,
)
from .errors import InternalCheckFailure

STRUCTURAL_TOL = calgebra.STRUCTURAL_TOL
ACCUMULATED_TOL = calgebra.ACCUMULATED_TOL

# every input error the library raises (SchemaError, InvalidSpace,
# CocycleError, GraphError, SizeCapError, JSONDecodeError, ...) is a
# ValueError; a JSON value of the wrong type read as a number, a label or
# a container raises TypeError; an input path that cannot be read (missing,
# a directory, no permission) raises OSError
INPUT_ERROR_TYPES = (ValueError, TypeError, KeyError, OSError)


class UsageError(ValueError):
    """A command line the parser rejects; an input error like any other."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _load(path_or_bundle: str) -> dict:
    if path_or_bundle.startswith("bundled:"):
        return bundled.bundled_document(path_or_bundle.split(":", 1)[1])
    with open(path_or_bundle) as fh:
        return serialize.parse_json(fh.read())


# -- subcommand handlers: each returns a JSON-ready result dict -----------------


def _cmd_space_check(args) -> dict:
    """Separation properties and the closed Hausdorff core.

    Every finite space is locally compact, and so is each of its open
    subsets, so both compactness flags are the constant true;
    ``open_subsets_checked`` counts the nonempty opens they cover.
    """
    space = serialize.space_from_json(_load(args.input))
    core = finspace.closed_hausdorff_core(space)
    return {
        "points": len(space.points),
        "properties": finspace.space_properties(space).as_dict(),
        "locally_locally_compact": True,
        "compactness_equivalence_holds": True,
        "open_subsets_checked": core.open_sets - 1,
        "closed_hausdorff_core": core.as_dict(),
    }


def _cmd_map_classify(args) -> dict:
    f = serialize.map_from_json(_load(args.input))
    return {"properties": finspace.classify_map(f).as_dict()}


def _cmd_build_relation(args) -> dict:
    psi = serialize.map_from_json(_load(args.input))
    relation = groupoid.build_relation_groupoid(psi)
    props = groupoid.groupoid_properties(relation)
    orbit_sizes = sorted(map(len, relation.orbits()), reverse=True)
    report = groupoid.orbit_map_check(relation)
    if not report.all_verified:
        raise InternalCheckFailure("orbit-space identification failed")
    return {
        "morphisms": len(relation.morphisms),
        "units": len(relation.units),
        "orbit_sizes": orbit_sizes,
        "properties": props.as_dict(),
        "orbit_map": report.as_dict(),
        "groupoid": serialize.groupoid_to_json(relation),
    }


def _cmd_fell_check(args) -> dict:
    doc = _load(args.input)
    g = serialize.groupoid_from_json(doc)
    if args.discrete_morphisms:
        if not isinstance(g, groupoid.RelationGroupoid):
            raise serialize.SchemaError("--discrete-morphisms needs a relation groupoid")
        g = g.with_discrete_topology()
    res = groupoid.fell_check(g)
    return {"fell": res.as_dict(), "properties": groupoid.groupoid_properties(g).as_dict()}


def _cmd_graph_fell(args) -> dict:
    parsed = serialize.graph_input_from_json(_load(args.input))
    if isinstance(parsed, graphfell.PeriodicGraph):
        verdict = graphfell.periodic_fell_verdict(parsed, unroll_bound=args.unroll_bound)
    else:
        verdict = graphfell.fell_verdict(parsed)
    if verdict.verdict == "NOT_FELL":
        p1, p2 = verdict.witness_paths
        if p1 == p2:
            raise InternalCheckFailure("witness paths are not distinct")
    return {"validation": verdict.validation.as_dict(), "verdict": verdict.as_dict()}


def _cmd_cocycle_verify(args) -> dict:
    g, sigma = serialize.twisted_groupoid_from_json(_load(args.input))
    report = twist.verify_two_cocycle(sigma)
    witness = twist.are_cohomologous(sigma, twist.TwoCocycle.trivial(g, sigma.n)) if report.valid else None
    return {
        "order": sigma.n,
        "report": report.as_dict(),
        "coboundary": None
        if witness is None
        else {serialize.canonical_label(m): v for m, v in sorted(witness.values.items(), key=lambda kv: serialize.canonical_label(kv[0])) if v},
    }


def _cmd_cech_cert(args) -> dict:
    data = serialize.cech_from_json(_load(args.input))
    report = twist.verify_cech(data)
    out = {"order": data.n, "report": report.as_dict()}
    if report.valid:
        out["coboundary"] = twist.cech_is_coboundary(data).as_dict()
    return out


def _random_coboundary(rng: random.Random, relation, n: int):
    """The coboundary of a cochain with one ``randrange(n)`` draw per
    non-unit morphism, in morphism order."""
    values = {m: rng.randrange(n) for m in relation.morphisms if m not in relation.units}
    return twist.coboundary_twist(twist.OneCochain(relation, n, values))


def _cmd_algebra_verify(args) -> dict:
    for flag, least in (("random", 0), ("max_points", 1), ("max_order", 1)):
        if getattr(args, flag) < least:
            raise UsageError(f"argument --{flag.replace('_', '-')}: must be at least {least}, got {getattr(args, flag)}")
    rng = random.Random(env_seed())
    instances = []
    if args.input is not None:
        g, sigma = serialize.twisted_groupoid_from_json(_load(args.input))
        if not isinstance(g, groupoid.RelationGroupoid):
            raise serialize.SchemaError("algebra-verify expects a relation groupoid")
        instances.append((g, sigma))
    for _ in range(args.random):
        psi = random_discrete_surjection(rng, rng.randint(1, args.max_points))
        relation = groupoid.build_relation_groupoid(psi)
        instances.append((relation, _random_coboundary(rng, relation, rng.randint(1, args.max_order))))
    if not instances:
        raise serialize.SchemaError("provide an input file or --random N")
    results = []
    for g, sigma in instances:
        check = calgebra.axiom_battery(sigma, rng)
        dims = [len(orbit) for orbit in g.orbits()]
        dims_ok = sum(d * d for d in dims) == len(g.morphisms)
        results.append({
            "associativity_dev": check.associativity_dev,
            "involution_dev": check.star_dev,
            "representation_dev": check.representation_dev,
            "cstar_identity_dev": check.cstar_dev,
            "block_dims": sorted(dims, reverse=True),
            "block_dimension_identity": dims_ok,
            "ok": check.cocycle_valid and dims_ok
            and max(check.star_dev, check.representation_dev) < STRUCTURAL_TOL
            and max(check.associativity_dev, check.cstar_dev) < ACCUMULATED_TOL,
        })
    if not all(r["ok"] for r in results):
        raise InternalCheckFailure("algebra axiom battery failed")
    return {"instances": len(results), "seed": env_seed(), "batteries": results}


def _cmd_model_doubled(args) -> dict:
    report = calgebra.build_doubled_model(args.levels, args.sheets)
    if not report.ok:
        raise InternalCheckFailure("doubled model verification failed")
    return report.as_dict()


def _cmd_model_cover(args) -> dict:
    doc = _load(args.input)
    if args.order is not None and isinstance(doc, dict):
        doc = {**doc, "n": args.order}
    report = calgebra.build_cover_model(serialize.cech_from_json(doc))
    if not report.ok:
        raise InternalCheckFailure("cover model verification failed")
    return report.as_dict()


def _cmd_equivariant_check(args) -> dict:
    g, sigma = serialize.twisted_groupoid_from_json(_load(args.input))
    report = calgebra.equivariant_suite(g, sigma, conjugate=not args.drop_conjugation)
    if not args.drop_conjugation and not report.ok:
        raise InternalCheckFailure("equivariant slice equivalence failed")
    return report.as_dict()


# -- regression suite -------------------------------------------------------------


def _chain3_to_sierpinski():
    y = finspace.FinSpace((0, 1, 2), (0b111, 0b110, 0b100))
    return finspace.SpaceMap(y, finspace.sierpinski(), {0: "b", 1: "a", 2: "a"})


def run_paper_suite(inject_cocycle_fault: bool = False) -> dict:
    """All bundled regressions; the executable table of contents.

    With ``inject_cocycle_fault`` the cocycle used by the two
    associativity entries is perturbed off its identity, so exactly
    those entries fail; everything else is untouched.
    """
    rng = random.Random(env_seed())
    entries = []

    def entry(name, fn):
        try:
            details = fn()
            ok = details.pop("_ok", True)
        except Exception as err:  # pragma: no cover - suite entries should not raise
            details, ok = {"error": f"{type(err).__name__}: {err}"}, False
        entries.append({"name": name, "ok": ok, "details": details})

    def orbit_map_identification():
        maps = [
            finspace.SpaceMap(
                finspace.discrete((1, 2, 3)),
                finspace.discrete(("*", "**")),
                {1: "*", 2: "*", 3: "**"},
            ),
            finspace.identity_map(finspace.discrete((1, 2))),
            _chain3_to_sierpinski(),
        ]
        reports = [groupoid.orbit_map_check(groupoid.build_relation_groupoid(psi)) for psi in maps]
        return {"cases": len(reports), "_ok": all(r.all_verified for r in reports)}

    def etale_iff_local_homeo():
        checked = 0
        ok = True
        for space in all_topologies(3):
            for part in all_partitions(space.points):
                _, psi = finspace.quotient_space(space, part)
                etale = groupoid.groupoid_properties(
                    groupoid.build_relation_groupoid(psi)
                ).etale
                ok = ok and etale == finspace.classify_map(psi).local_homeomorphism
                checked += 1
        return {"cases": checked, "_ok": ok}

    def discrete_local_homeo_fell():
        checked = 0
        ok = True
        for n in range(1, 6):
            for part in all_partitions(range(n)):
                space = finspace.discrete(tuple(range(n)))
                _, psi = finspace.quotient_space(space, part)
                relation = groupoid.build_relation_groupoid(psi)
                props = groupoid.groupoid_properties(relation)
                res = groupoid.fell_check(relation)
                ok = ok and props.principal and props.etale and res.is_fell_model
                checked += 1
        return {"cases": checked, "_ok": ok}

    def rxs_openness_surrogate():
        honest = groupoid.fell_check(groupoid.build_relation_groupoid(_chain3_to_sierpinski()))
        tampered = groupoid.fell_check(
            groupoid.build_relation_groupoid(_chain3_to_sierpinski()).with_discrete_topology()
        )
        witness_ok = tampered.witness == frozenset({(0, 0)})
        return {
            "honest_fell": honest.is_fell_model,
            "tampered_fell": tampered.is_fell_model,
            "_ok": honest.is_fell_model and not tampered.is_fell_model and witness_ok,
        }

    def graph_two_thread_ladder():
        ladder = graphfell.two_thread_ladder()
        bad = graphfell.periodic_fell_verdict(ladder)
        fixed = graphfell.periodic_fell_verdict(
            graphfell.PeriodicGraph(
                ladder.block.delete_edge("f2"), seam_block=ladder.seam_block
            )
        )
        tree = graphfell.periodic_fell_verdict(graphfell.tree_with_tails(2))
        tail = graphfell.periodic_fell_verdict(graphfell.single_tail())
        witness_ids = (
            {p[0][2] for p in bad.witness_paths} if bad.witness_paths else set()
        )
        return {
            "ladder": bad.verdict,
            "single_thread": fixed.verdict,
            "tree": tree.verdict,
            "tail": tail.verdict,
            "_ok": bad.verdict == "NOT_FELL"
            and witness_ids == {"f1", "f2"}
            and fixed.verdict == "FELL"
            and tree.verdict == "FELL"
            and tail.verdict == "FELL",
        }

    def matrix_block_model():
        reports = [calgebra.build_doubled_model(m, n) for (m, n) in ((2, 2), (2, 3), (3, 2))]
        shapes = [r.block_shape for r in reports]
        return {
            "shapes": [list(s) for s in shapes],
            "_ok": all(r.ok for r in reports)
            and shapes[0] == (2, 1, 1)
            and shapes[1] == (3, 1, 1, 1),
        }

    def induced_rep_unitary_equivalence():
        report = calgebra.build_doubled_model(3, 3)
        return {
            "deviation": report.unitary_equiv_dev,
            "_ok": report.ok and report.unitary_equiv_dev < STRUCTURAL_TOL,
        }

    cover_report = {}

    def cover_twist_model():
        report = calgebra.build_cover_model(bundled.tetrahedron_cech())
        cover_report["report"] = report
        return {
            "twist_nontrivial_certified": report.twist_nontrivial_certified,
            "_ok": report.ok and report.twist_nontrivial_certified,
        }

    def boundary_character():
        report = cover_report.get("report")
        if report is None:  # pragma: no cover
            return {"_ok": False, "error": "cover model unavailable"}
        return {
            "character_dev": report.character_dev,
            "induced_agreement_dev": report.character_is_induced_dev,
            "_ok": report.character_dev < STRUCTURAL_TOL
            and report.character_is_induced_dev < STRUCTURAL_TOL,
        }

    def character_kernel_isomorphism():
        report = cover_report.get("report")
        if report is None:  # pragma: no cover
            return {"_ok": False, "error": "cover model unavailable"}
        return {
            "mult_dev": report.kernel_iso_mult_dev,
            "star_dev": report.kernel_iso_star_dev,
            "bijective": report.kernel_iso_bijective,
            "norm_dev": report.kernel_norm_dev,
            "_ok": report.kernel_iso_bijective
            and report.kernel_iso_mult_dev < STRUCTURAL_TOL
            and report.kernel_iso_star_dev < STRUCTURAL_TOL
            and report.kernel_norm_dev < ACCUMULATED_TOL,
        }

    def equivariant_slice_equivalence():
        relation, _ = bundled.trivial_cocycle_model()
        n = 4
        sigma = _random_coboundary(rng, relation, n)
        good = calgebra.equivariant_suite(relation, sigma)
        dropped = calgebra.equivariant_suite(relation, sigma, conjugate=False)
        fault_detected = (
            dropped.ok
            if not (2 * sigma.values % n).any()
            else not dropped.ok
        )
        return {
            "deviation": good.rep_equivalence_dev,
            "fault_detected": fault_detected,
            "_ok": good.ok and fault_detected,
        }

    def closed_hausdorff_core_entry():
        ok = True
        for _ in range(60):
            rep = finspace.closed_hausdorff_core(random_space(rng.randrange(10**6), 6))
            ok = ok and rep.core_is_open and rep.core_is_hausdorff
        return {"cases": 60, "_ok": ok}

    def _faultable_sigma(relation, n):
        sigma = _random_coboundary(rng, relation, n)
        if inject_cocycle_fault:
            pair = next(
                p
                for p in relation.composable_pairs()
                if p[0] not in relation.units and p[1] not in relation.units
            )
            sigma = sigma.shift(pair, 1)
        return sigma

    def convolution_associativity():
        psi = finspace.SpaceMap(
            finspace.discrete((1, 2, 3)),
            finspace.discrete(("*",)),
            {1: "*", 2: "*", 3: "*"},
        )
        relation = groupoid.build_relation_groupoid(psi)
        dev = calgebra.axiom_battery(_faultable_sigma(relation, 4), rng).associativity_dev
        return {"deviation": dev, "_ok": dev < ACCUMULATED_TOL}

    def extension_associativity():
        psi = finspace.SpaceMap(
            finspace.discrete((1, 2)), finspace.discrete(("*",)), {1: "*", 2: "*"}
        )
        relation = groupoid.build_relation_groupoid(psi)
        sigma = _faultable_sigma(relation, 4)
        try:
            twist.extension_groupoid(relation, sigma)
            return {"_ok": True}
        except groupoid.GroupoidAxiomError as err:
            return {"error": str(err), "_ok": False}

    entry("orbit-map-identification", orbit_map_identification)
    entry("etale-iff-local-homeomorphism", etale_iff_local_homeo)
    entry("discrete-local-homeo-fell", discrete_local_homeo_fell)
    entry("rxs-openness-surrogate", rxs_openness_surrogate)
    entry("graph-two-thread-ladder", graph_two_thread_ladder)
    entry("matrix-block-model", matrix_block_model)
    entry("induced-rep-unitary-equivalence", induced_rep_unitary_equivalence)
    entry("cover-twist-model", cover_twist_model)
    entry("boundary-character", boundary_character)
    entry("character-kernel-isomorphism", character_kernel_isomorphism)
    entry("equivariant-slice-equivalence", equivariant_slice_equivalence)
    entry("closed-hausdorff-core", closed_hausdorff_core_entry)
    entry("convolution-associativity", convolution_associativity)
    entry("extension-associativity", extension_associativity)

    return {
        "entries": entries,
        "passed": sum(1 for e in entries if e["ok"]),
        "failed": sorted(e["name"] for e in entries if not e["ok"]),
        "ok": all(e["ok"] for e in entries),
    }


def _cmd_suite(args) -> dict:
    result = run_paper_suite(inject_cocycle_fault=args.inject_cocycle_fault)
    if not result["ok"]:
        raise InternalCheckFailure(
            "suite entries failed: " + ", ".join(result["failed"]), result
        )
    return result


# -- argument parsing and dispatch --------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="groupoidlab",
        description="Exact finite models of relation groupoids, twisted "
        "convolution algebras, and openness criteria.",
    )
    parser.add_argument("--output", help="write the report JSON here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="JSON input path, or bundled:NAME")
        p.set_defaults(handler=fn)
        return p

    add("space-check", _cmd_space_check, "separation, compactness and core report for a finite space")
    add("map-classify", _cmd_map_classify, "continuity/openness/quotient/local-homeomorphism flags")
    add("build-relation", _cmd_build_relation, "build the relation groupoid of a surjection")
    p = add("fell-check", _cmd_fell_check, "r x s openness test for a principal groupoid")
    p.add_argument(
        "--discrete-morphisms",
        action="store_true",
        help="force the discrete topology on the morphisms before testing",
    )
    p = add("graph-fell", _cmd_graph_fell, "graph-level criterion, finite or periodic")
    p.add_argument(
        "--unroll-bound", type=int, default=3,
        help=f"block copies to unroll past the first, 0 to {graphfell.MAX_UNROLL_BOUND}",
    )
    add("cocycle-verify", _cmd_cocycle_verify, "check the 2-cocycle identity and normalization")
    add("cech-cert", _cmd_cech_cert, "verify cech data and decide the coboundary question")
    p = add("algebra-verify", _cmd_algebra_verify, "axiom battery for twisted relation algebras", needs_input=False)
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--random", type=int, default=0, help="also run N random instances")
    p.add_argument("--max-points", type=int, default=8)
    p.add_argument("--max-order", type=int, default=8)
    p = add("model-doubled", _cmd_model_doubled, "glued-sheets matrix model", needs_input=False)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--sheets", type=int, required=True)
    p = add("model-cover", _cmd_model_cover, "cover algebra with doubled point and character kernel")
    p.add_argument("--order", type=int, default=None, help="override the coefficient order")
    p = add("equivariant-check", _cmd_equivariant_check, "slice isomorphism for the central extension")
    p.add_argument(
        "--drop-conjugation",
        action="store_true",
        help="deliberately skip the cocycle conjugation to demonstrate detection",
    )
    p = add("suite", _cmd_suite, "run every bundled regression", needs_input=False)
    p.add_argument("--inject-cocycle-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    # the subparser action records the command on this namespace before it
    # parses the command's own flags, so a usage error can still name it
    args = argparse.Namespace()
    started = time.perf_counter()
    exit_code = 0
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        try:
            build_parser().parse_args(argv, args)
            if args.output:
                out = stack.enter_context(open(args.output, "w"))
            result = args.handler(args)
            ok = True
        except InternalCheckFailure as err:
            result = err.args[1] if len(err.args) > 1 else {"error": str(err)}
            ok = False
            exit_code = 2
        except INPUT_ERROR_TYPES as err:
            result = {"error": f"{type(err).__name__}: {err}"}
            ok = False
            exit_code = 1
        report = {
            "schema": "report/1",
            "command": getattr(args, "command", None),
            "ok": ok,
            "exit_code": exit_code,
            "result": result,
            "tolerances": {"structural": STRUCTURAL_TOL, "accumulated": ACCUMULATED_TOL},
            "elapsed_seconds": round(time.perf_counter() - started, 6),
        }
        out.write(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
