"""Tests of the benchmark itself: seeded inputs, the output checkers and
the tracer.  Run from the repository root with

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

assert run.use_checkout_src(), "run from a checkout that has src/groupoidlab"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.HERE / ".work" / "tests"


def build(name, seed):
    return workloads.build(name, seed, SCRATCH / f"{name}-{seed}")


def job(wl, job_id):
    return next(j for j in wl.jobs if j.id == job_id)


def failures_with(good, tampered_output):
    """Failures of one pass over ``good`` and a twin returning ``tampered_output``."""
    twin = workloads.Job(good.id + "-tampered", lambda: tampered_output, good.check)
    return run.run_pass([good, twin])["failures"]


def edit_report(out, edit):
    code, text = out
    report = json.loads(text)
    edit(report["result"])
    return code, json.dumps(report)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(name):
    first, again, other = build(name, 7), build(name, 7), build(name, 8)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert [j.id for j in first.jobs] == [j.id for j in other.jobs]


def test_tampered_certificate_is_one_failure():
    good = job(build("cohomology-solve", 3), "cech/8/shifted/0")

    def tamper(result):
        cert = result["coboundary"]["certificate"]
        key = next(iter(cert))
        cert[key] = cert[key] + 1

    assert len(failures_with(good, edit_report(good.call(), tamper))) == 1


def test_tampered_coboundary_witness_is_one_failure():
    good = job(build("cohomology-solve", 3), "cocycle/4x4/coboundary/0")

    def tamper(result):
        witness = result["coboundary"]
        key = next(iter(witness))
        witness[key] = witness[key] + 1

    assert len(failures_with(good, edit_report(good.call(), tamper))) == 1


def test_tampered_witness_path_is_one_failure():
    good = job(build("graph-criterion", 3), "periodic/ladder-1/3")

    def tamper(result):
        result["verdict"]["witness_paths"][1] = ["(b,0,g0)"]

    assert len(failures_with(good, edit_report(good.call(), tamper))) == 1


def test_deviation_above_tolerance_is_one_failure():
    good = job(build("algebra-models", 3), "battery/5")
    accumulated, structural, dims_ok = good.call()
    structural = dict(structural, involution_dev=2e-12)
    assert len(failures_with(good, (accumulated, structural, dims_ok))) == 1


def test_wrong_verdict_is_one_failure():
    good = job(build("graph-criterion", 3), "periodic/tree-3/3")

    def tamper(result):
        result["verdict"]["verdict"] = "NOT_FELL"

    assert len(failures_with(good, edit_report(good.call(), tamper))) == 1


def test_undecided_is_not_a_failure():
    good = job(build("graph-criterion", 3), "periodic/seam-counterexample/3")
    assert json.loads(good.call()[1])["result"]["verdict"]["verdict"].startswith("UNDECIDED")
    assert run.run_pass([good])["failures"] == []


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_and_child_spans_add_up_to_the_parent():
    t = tracing.Tracer()
    inner = t.wrap("x.inner", "x", lambda: busy(0.002))
    hook = lambda tracer, args, kwargs: busy(0.003)  # noqa: E731
    hooked = t.wrap("x.hooked", "x", lambda: busy(0.001), before=hook)

    def body():
        busy(0.001)
        inner()
        hooked()
        inner()

    outer = t.wrap("x.outer", "x", body)
    lo = t.mark()
    outer()
    hi = t.mark()
    own = t.self_times(lo, hi)
    duration = [t.end[i] - t.start[i] for i in range(lo, hi)]
    assert [t.names[t.kind[i]] for i in range(lo, hi)] == ["x.outer", "x.inner", "x.hooked", "x.inner"]
    assert [t.parent[i] for i in range(lo, hi)] == [-1, lo, lo, lo]
    assert own[0] + sum(duration[1:]) + t.excluded[lo] == pytest.approx(duration[0], abs=1e-9)
    assert t.excluded[lo] >= 0.003
    assert own[1:] == pytest.approx(duration[1:], abs=1e-12)


def test_traced_counts_repeat_and_wrappers_come_off():
    from groupoidlab import cli, graphfell

    wl = build("graph-criterion", 5)
    jobs = wl.jobs[:12] + [j for j in wl.jobs if j.id.startswith("dag/")][:1]
    original, original_unroll = cli.main, graphfell.PeriodicGraph.unroll
    t = tracing.Tracer()
    counts = []
    for _ in range(2):
        t.install()
        assert cli.main is not original
        t.counts.clear()
        lo = t.mark()
        assert run.run_pass(jobs)["failures"] == []
        hi = t.mark()
        t.uninstall()
        metrics = t.layer_metrics(t.summarize(lo, hi), t.counts.copy(), 0)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s") and "ns_per" not in k})
    assert cli.main is original and graphfell.PeriodicGraph.unroll is original_unroll
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] >= len(jobs) and counts[0]["cli.uncaught"] == 0
    assert counts[0]["graphfell.unrolled_vertices"] > 0 and counts[0]["graphfell.path_count_entries"] > 0
    assert t.absent == []


def test_bare_benchmark_directory_fails_without_a_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-criterion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
