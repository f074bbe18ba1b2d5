"""groupoidlab benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  Set-up generates the workload's inputs from the seed
and writes the CLI inputs under ``perfbench/.work/``.  The run then
executes whole passes over the workload's fixed job mix until the next
pass would end after ``--seconds``, re-checks every output, and prints a
summary followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced pass with ``--trace 1``.
``--check`` runs one untimed pass and prints failures only.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# The machine's speed drifts by tens of percent over seconds to minutes, so
# every timing is rescaled to a reference speed: a fixed pure-Python
# kernel runs every REF_INTERVAL_S between jobs, and a job's latency is
# multiplied by REF_NOMINAL_S / r, where r is the kernel's median time
# within REF_WINDOW_S of the job, or within the job's own length of it
# for a long job, which no kernel run can interrupt.
# REF_NOMINAL_S is the kernel's median time on the 2-core machine the
# benchmark was defined on, so rescaled and wall-clock times agree there.
REF_INTERVAL_S = 0.03
REF_WINDOW_S = 0.1
REF_NOMINAL_S = 0.00035
BASELINE_ROWS = {  # ROADMAP baseline row -> job id prefix
    "criterion 1": "crit1/",
    "criterion 2": "crit2/",
    "build_doubled_model(4,8)": "doubled/4x8",
    "BlockDecomposition.verify, 12-point pair groupoid": "block-verify/12",
    "space-check, 16 points": "space-check/16",
}


def use_checkout_src(root: Path = ROOT) -> bool:
    """Put the checkout's ``src`` first on the import path, if it exists."""
    src = root / "src"
    if not (src / "groupoidlab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def workdir(name: str, seed: int) -> Path:
    return HERE / ".work" / f"{name}-{seed}"


def run_job(job):
    """Time one job's call; returns (latency_s, problems)."""
    started = time.perf_counter()
    try:
        out = job.call()
    except Exception as err:
        return time.perf_counter() - started, [f"raised {type(err).__name__}: {err}"]
    latency = time.perf_counter() - started
    try:
        return latency, job.check(out)
    except Exception as err:
        return latency, [f"output check raised {type(err).__name__}: {err}"]


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed.

    The fastest of three runs, so that a cold cache or an interrupt does
    not count as a slow machine."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(4_000):
            acc += i * i
            table[i & 255] = acc
        best = min(best, time.perf_counter() - started)
    return best


def run_pass(jobs, before_job=None) -> dict:
    """Run every job once; latencies are rescaled to the reference speed."""
    ref_at, ref_s, spans, wall, failures = [], [], [], [], []

    def gauge():
        ref_s.append(reference_kernel())
        ref_at.append(time.perf_counter())

    gauge()
    for job in jobs:
        if time.perf_counter() - ref_at[-1] > REF_INTERVAL_S:
            gauge()
        if before_job is not None:
            before_job(job)
        started = time.perf_counter()
        latency, problems = run_job(job)
        spans.append((started, started + latency))
        wall.append(latency)
        if problems:
            failures.append({"id": job.id, "problems": problems[:3]})
    gauge()
    # a job uses the median kernel time from REF_WINDOW_S, or its own
    # length if longer, before it starts until as long after it ends
    scaled = []
    for (t0, t1), latency in zip(spans, wall):
        reach = max(REF_WINDOW_S, latency)
        lo = bisect.bisect_left(ref_at, t0 - reach)
        hi = bisect.bisect_right(ref_at, t1 + reach)
        lo, hi = min(lo, len(ref_at) - 1), max(hi, lo + 1)
        scaled.append(latency * REF_NOMINAL_S / statistics.median(ref_s[lo:hi]))
    return {"latencies": scaled, "wall": wall, "failures": failures}


def measure_setup(name: str, seed: int) -> tuple[list, list]:
    """Seconds from starting a fresh process until its first job could start,
    rescaled to the reference speed, and the same in wall-clock seconds."""
    scaled, wall = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        refs = [reference_kernel() for _ in range(3)]
        started = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = done.stdout.split()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        wall.append(float(lines[-1]) - started)
        refs += [reference_kernel() for _ in range(3)]
        scaled.append(wall[-1] * REF_NOMINAL_S / statistics.median(refs))
    return scaled, wall


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def job_medians(jobs, passes, key: str = "latencies") -> dict:
    """Each job's median latency over all its runs, by job id."""
    runs: dict = {}
    for p in passes:
        for job, latency in zip(jobs, p[key]):
            runs.setdefault(job.id, []).append(latency)
    return {job_id: statistics.median(v) for job_id, v in runs.items()}


def baseline(medians: dict) -> dict:
    """Seconds of each ROADMAP baseline row present: its jobs' medians summed."""
    out = {}
    for row, prefix in BASELINE_ROWS.items():
        picks = [v for job_id, v in medians.items() if job_id.startswith(prefix)]
        if picks:
            out[row] = sum(picks)
    return out


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def run_probes(probes) -> list:
    out = []
    for job in probes:
        _latency, problems = run_job(job)
        out.append({"id": job.id, "ok": not problems, "problems": problems[:2]})
    return out


def timed(args, wl, setup_samples) -> tuple[dict, dict]:
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(wl.jobs))
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    # each job's latency is its median over its runs, which damps machine
    # noise that hits one moment
    medians = job_medians(wl.jobs, passes)
    latencies = sorted(medians.values())
    p90, beyond = percentile(latencies, 0.9)
    once = run_pass(wl.once)
    setup_scaled, setup_wall = setup_samples
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    medians.update(job_medians(wl.once, [once]))
    (workdir(wl.name, wl.seed) / "jobs.json").write_text(json.dumps(medians, indent=0))
    wall = sorted(job_medians(wl.jobs, passes, "wall").values())
    info = {"pass_count": len(passes), "measured_s": round(elapsed, 3), "p90_samples": len(latencies),
            "p90_samples_beyond": beyond, "baseline_s": baseline(medians),
            "wall_clock": {"setup_s": statistics.median(setup_wall),
                           "jobs_per_s": len(wall) / sum(wall),
                           "job_p50_ms": 1e3 * statistics.median(wall),
                           "job_p90_ms": 1e3 * percentile(wall, 0.9)[0]}}
    return metrics, {"passes": passes, "once": once, **info}


def traced(args, wl, tracer, setup_spans) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    bytes_in = sum(job.bytes_in for job in wl.jobs)
    passes, untraced_s, traced_s, layer_runs = [], [], [], []

    started = time.perf_counter()
    while True:
        p = run_pass(wl.jobs)
        untraced_s.append(sum(p["latencies"]))
        passes.append(p)
        tracer.install()
        tracer.counts.clear()
        lo = tracer.mark()
        p = run_pass(wl.jobs, lambda job: tracer.begin_job())
        hi = tracer.mark()
        tracer.uninstall()
        traced_s.append(sum(p["latencies"]))
        passes.append(p)
        spans = tracer.summarize(lo, hi)
        layer_runs.append(tracer.layer_metrics(spans, tracer.counts.copy(), bytes_in))
        if len(layer_runs) == 1:
            first = (lo, hi)
        elapsed = time.perf_counter() - started
        if elapsed * (len(layer_runs) + 1) / len(layer_runs) > args.seconds:
            break
    metrics = {}
    for name, value in layer_runs[0].items():
        if name.endswith("_s") or "ns_per" in name:
            value = statistics.median(run[name] for run in layer_runs)
        unit = "s" if name.endswith("_s") else "ns" if "ns_per" in name else \
            "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    corpus_setup = tracer.summarize(*setup_spans)["self_s"]
    metrics["corpus.self_s"] = (metrics["corpus.self_s"][0]
                                + sum(v for k, v in corpus_setup.items() if k.startswith("corpus.")), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(untraced_s),
                                       "ratio")
    counts_repeat = all(
        all(run[k] == layer_runs[0][k] for k in run if not (k.endswith("_s") or "ns_per" in k))
        for run in layer_runs)
    tracer.write(workdir(wl.name, wl.seed) / "spans.csv", *first)
    info = {"traced_passes": len(layer_runs), "counts_repeat_across_passes": counts_repeat,
            "absent_wrapped_names": tracer.absent}
    return metrics, {"passes": passes, **info}


def report(args, wl, metrics, info, probes) -> dict:
    passes = info.pop("passes")
    runs = passes + [info.pop("once")] if "once" in info else passes
    attempted = sum(len(p["latencies"]) for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    failed_probes = [p for p in probes if not p["ok"]]
    failed_ratio = (len(failures) + len(failed_probes)) / (attempted + len(probes))
    print(f"workload {wl.name}  seed {wl.seed}  trace {args.trace}  "
          f"jobs/pass {len(wl.jobs)}  inputs sha256 {wl.digest[:16]}")
    for name, (value, unit) in metrics.items():
        note = (f"   ({info['p90_samples']} job medians, {info['p90_samples_beyond']} above)"
                if name == "job_p90_ms" else "")
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_ratio':32s} {failed_ratio:14.6g} ratio   "
          f"({len(failures)} of {attempted} jobs, {len(failed_probes)} of {len(probes)} "
          f"known-defect probes)")
    for f in failures[:10]:
        print(f"  FAILED {f['id']}: {'; '.join(f['problems'])}")
    for p in probes:
        print(f"  known-defect probe {p['id']}: {'ok' if p['ok'] else 'FAILED ' + '; '.join(p['problems'])}")
    details = {"workload": wl.name, "seed": wl.seed, "inputs_digest": wl.digest,
               "jobs_per_pass": len(wl.jobs), "failed_ratio": failed_ratio,
               "known_defect_probes": probes, "src_lines": src_lines(), **info}
    print(json.dumps(details, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true", help="one untimed pass; print failures")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_src():
        print(f"no groupoidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads  # imports groupoidlab from the checkout

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
        print(repr(time.monotonic()))
        return 0
    if args.check:
        wl = workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
        failures = run_pass(wl.jobs + wl.once)["failures"]
        for f in failures + [p for p in run_probes(wl.probes) if not p["ok"]]:
            print(f"FAILED {f['id']}: {'; '.join(f['problems'])}")
        print(f"{len(wl.jobs)} jobs, {len(failures)} failed, {len(wl.probes)} known-defect probes run")
        return 1 if failures else 0
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
        lo = tracer.mark()
        wl = workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
        setup_spans = (lo, tracer.mark())
        tracer.uninstall()
        metrics, info = traced(args, wl, tracer, setup_spans)
    else:
        setup_samples = measure_setup(args.workload, args.seed)
        wl = workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
        metrics, info = timed(args, wl, setup_samples)
    probes = run_probes(wl.probes)
    print(json.dumps(report(args, wl, metrics, info, probes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
