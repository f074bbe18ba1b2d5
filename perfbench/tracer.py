"""Span tracer for the traced benchmark run.

The tracer wraps each layer's public functions at every module binding
inside the ``groupoidlab`` package, so calls between layers are
attributed too, plus the few methods that carry a layer's work.  Each
span records its name, start, end and parent span in flat arrays that
stay in memory until the run writes them out.  A span's self time is its
duration minus the time covered by its child spans and by the tracer's
own counting hooks, which run outside every timed span.

Layers are named after the modules.  A wrapped name that the program no
longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("finspace", "groupoid", "twist", "modlin", "calgebra", "graphfell",
          "serialize", "cli", "corpus")

# Scalar helper called once per convolution term; its time stays with the caller.
NOT_WRAPPED = frozenset({"calgebra.zeta"})

METHODS = (
    ("finspace", "FinSpace", "__init__"),
    ("finspace", "FinSpace", "open_set_bits"),
    ("groupoid", "FinGroupoid", "verify_axioms"),
    ("graphfell", "PeriodicGraph", "unroll"),
    ("calgebra", "BlockDecomposition", "verify"),
    ("calgebra", "CoverAlgebra", "verify"),
)

MODEL_SPANS = frozenset({
    "calgebra.build_doubled_model", "calgebra.build_cover_model", "calgebra.equivariant_suite",
    "calgebra.BlockDecomposition.verify", "calgebra.CoverAlgebra.verify",
})


# -- counting hooks: (tracer, args, kwargs) before, (tracer, result, args) after --


def _opens(t, result, args):
    t.counts["finspace.open_sets_enumerated"] += len(result)


def _verify_axioms(t, args, kwargs):
    morphisms = tuple(args[0].morphisms)
    t.counts["groupoid.morphisms_verified"] += len(morphisms)
    if morphisms in t.verified_in_job:
        t.counts["groupoid.reverified"] += 1
    t.verified_in_job.add(morphisms)


def _props(t, args, kwargs):
    if getattr(args[0], "_props_cache", None) is not None:
        t.counts["groupoid.props_cache_hits"] += 1


def _triples(t, args, kwargs):
    g = args[0].groupoid
    by_range = Counter(g.range_map.values())
    t.counts["twist.triples_checked"] += sum(by_range[g.source_map[b]] for (_a, b) in g.compose)


def _solve_entries(t, args, kwargs):
    shape = np.shape(args[0])
    t.counts["modlin.matrix_entries"] += shape[0] * (shape[1] if len(shape) > 1 else 1)


def _certificate(t, result, args):
    if result.certificate is not None:
        t.counts["modlin.certificates"] += 1


def _terms(t, args, kwargs):
    f, g = args[0], args[1]
    gp = f.groupoid
    sources = Counter(gp.source_map[b] for b in f.coeffs)
    ranges = Counter(gp.range_map[c] for c in g.coeffs)
    t.counts["calgebra.convolve.terms"] += sum(k * ranges[u] for u, k in sources.items())


def _cells(t, result, args):
    t.counts["calgebra.induced_rep.cells"] += result.matrix.size


def _unrolled(t, result, args):
    t.counts["graphfell.unrolled_vertices"] += len(result.vertices)


def _path_entries(t, result, args):
    t.counts["graphfell.path_count_entries"] += sum(len(row) for row in result.values())


def _verdict(t, result, args):
    t.counts["graphfell.verdicts"] += 1
    if result.verdict == "UNDECIDED":
        t.counts["graphfell.undecided"] += 1


def _exit(t, result, args):
    if result in (1, 2):
        t.counts[f"cli.exit_{result}"] += 1


HOOKS = {
    "finspace.FinSpace.open_set_bits": (None, _opens),
    "groupoid.FinGroupoid.verify_axioms": (_verify_axioms, None),
    "groupoid.groupoid_properties": (_props, None),
    "twist.verify_two_cocycle": (_triples, None),
    "modlin.solve_mod": (_solve_entries, _certificate),
    "calgebra.convolve": (_terms, None),
    "calgebra.induced_rep": (None, _cells),
    "graphfell.PeriodicGraph.unroll": (None, _unrolled),
    "graphfell.path_counts": (None, _path_entries),
    "graphfell.periodic_fell_verdict": (None, _verdict),
    "graphfell.fell_verdict": (None, _verdict),
    "cli.main": (None, _exit),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self._ids: dict = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.raised = array("b")
        self.stack: list = []
        self.counts: Counter = Counter()
        self.verified_in_job: set = set()
        self.absent: list = []
        self._patches: list = []
        self._targets: list | None = None

    # -- spans ----------------------------------------------------------------

    def wrap(self, qualname: str, layer: str, fn, before=None, after=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
            self.layer_of.append(layer)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        excluded, raised, stack, clock = self.excluded, self.raised, self.stack, time.perf_counter

        def hook(run, *payload):
            t = clock()
            run(self, *payload)
            if stack:
                excluded[stack[-1]] += clock() - t

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            excluded.append(0.0)
            raised.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                hook(after, result, args)
            return result

        return traced

    def mark(self) -> int:
        """Index of the next span; a pass covers the spans between two marks."""
        return len(self.kind)

    def begin_job(self):
        self.verified_in_job.clear()

    # -- installing the wrappers ------------------------------------------------

    def _collect(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        wrappers, targets = {}, []
        for layer in LAYERS:
            mod = sys.modules.get(f"groupoidlab.{layer}")
            if mod is None:
                self.absent.append(layer)
                continue
            for name, obj in vars(mod).items():
                qualname = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and qualname not in NOT_WRAPPED):
                    wrappers[id(obj)] = (obj, self.wrap(qualname, layer, obj,
                                                        *HOOKS.get(qualname, (None, None))))
        for modname, mod in list(sys.modules.items()):
            if modname == "groupoidlab" or modname.startswith("groupoidlab."):
                for name, obj in vars(mod).items():
                    entry = wrappers.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        targets.append((mod, name, obj, entry[1]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"groupoidlab.{layer}"), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            qualname = f"{layer}.{cls_name}.{meth}"
            if fn is None:
                self.absent.append(qualname)
                continue
            targets.append((cls, meth, fn, self.wrap(qualname, layer, fn,
                                                     *HOOKS.get(qualname, (None, None)))))
        self.absent += sorted(set(HOOKS) - set(self.names))
        return targets

    def install(self):
        if self._targets is None:
            self._targets = self._collect()
        for owner, name, _original, wrapper in self._targets:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _wrapper in self._targets or ():
            setattr(owner, name, original)

    # -- aggregation --------------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> list:
        """Self time of each span in [lo, hi)."""
        own = [self.end[i] - self.start[i] - self.excluded[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name span count, self time and raised count over [lo, hi)."""
        calls, self_s, raised = Counter(), Counter(), Counter()
        for i, own in zip(range(lo, hi), self.self_times(lo, hi)):
            name = self.names[self.kind[i]]
            calls[name] += 1
            self_s[name] += own
            raised[name] += self.raised[i]
        fallback = set()
        solve_id = self._ids.get("modlin.solve_mod")
        for i in range(lo, hi):
            if self.kind[i] != solve_id:
                continue
            p = self.parent[i]
            while p >= lo and self.layer_of[self.kind[p]] != "twist":
                p = self.parent[p]
            if p >= lo and self.names[self.kind[p]] == "twist.are_cohomologous":
                fallback.add(p)
        return {"calls": calls, "self_s": self_s, "raised": raised, "fallback": len(fallback)}

    def layer_metrics(self, spans: dict, counts: Counter, bytes_in: int) -> dict:
        """The per-layer metrics of one traced pass."""
        calls, self_s, raised = spans["calls"], spans["self_s"], spans["raised"]
        layer_self, layer_calls = Counter(), Counter()
        for name, n in calls.items():
            layer = self.layer_of[self._ids[name]]
            layer_self[layer] += self_s[name]
            layer_calls[layer] += n
        ratio = lambda a, b: a / b if b else 0.0
        axiom_checks = calls["groupoid.FinGroupoid.verify_axioms"]
        c = counts
        return {
            "finspace.self_s": layer_self["finspace"],
            "finspace.calls": layer_calls["finspace"],
            "finspace.spaces_built": calls["finspace.FinSpace.__init__"],
            "finspace.open_sets_enumerated": c["finspace.open_sets_enumerated"],
            "groupoid.self_s": layer_self["groupoid"],
            "groupoid.calls": layer_calls["groupoid"],
            "groupoid.axiom_checks": axiom_checks,
            "groupoid.morphisms_verified": c["groupoid.morphisms_verified"],
            "groupoid.reverify_ratio": ratio(c["groupoid.reverified"], axiom_checks),
            "groupoid.props_cache_hit_ratio": ratio(c["groupoid.props_cache_hits"],
                                                    calls["groupoid.groupoid_properties"]),
            "twist.self_s": layer_self["twist"],
            "twist.calls": layer_calls["twist"],
            "twist.triples_checked": c["twist.triples_checked"],
            "twist.solver_fallback_ratio": ratio(spans["fallback"], calls["twist.are_cohomologous"]),
            "modlin.self_s": layer_self["modlin"],
            "modlin.calls": layer_calls["modlin"],
            "modlin.matrix_entries": c["modlin.matrix_entries"],
            "modlin.ns_per_entry": ratio(1e9 * layer_self["modlin"], c["modlin.matrix_entries"]),
            "modlin.certificates": c["modlin.certificates"],
            "modlin.failed": raised["modlin.solve_mod"],
            "calgebra.self_s": layer_self["calgebra"],
            "calgebra.convolve.calls": calls["calgebra.convolve"],
            "calgebra.convolve.terms": c["calgebra.convolve.terms"],
            "calgebra.convolve.ns_per_term": ratio(1e9 * self_s["calgebra.convolve"],
                                                   c["calgebra.convolve.terms"]),
            "calgebra.induced_rep.calls": calls["calgebra.induced_rep"],
            "calgebra.induced_rep.cells": c["calgebra.induced_rep.cells"],
            "calgebra.models.self_s": sum(self_s[name] for name in MODEL_SPANS),
            "graphfell.self_s": layer_self["graphfell"],
            "graphfell.calls": layer_calls["graphfell"],
            "graphfell.unrolled_vertices": c["graphfell.unrolled_vertices"],
            "graphfell.path_count_entries": c["graphfell.path_count_entries"],
            "graphfell.undecided_ratio": ratio(c["graphfell.undecided"], c["graphfell.verdicts"]),
            "serialize.self_s": layer_self["serialize"],
            "serialize.calls": layer_calls["serialize"],
            "serialize.bytes_in": bytes_in,
            "cli.self_s": layer_self["cli"],
            "cli.calls": layer_calls["cli"],
            "cli.exit_1": c["cli.exit_1"],
            "cli.exit_2": c["cli.exit_2"],
            "cli.uncaught": raised["cli.main"],
            "corpus.self_s": layer_self["corpus"],
        }

    def write(self, path, lo: int, hi: int):
        """Write the spans in [lo, hi) as CSV: name, parent, start, end, self."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s,self_s\n")
            for i, own in zip(range(lo, hi), self.self_times(lo, hi)):
                fh.write(f"{i},{self.names[self.kind[i]]},{self.parent[i]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},{own:.9f}\n")
