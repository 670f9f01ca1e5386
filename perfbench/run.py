"""Sweep benchmark for cyclecodes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the jobs of the workload (see
workloads.py) run one after another through ``cyclecodes.cli.main``
in this process, with stdout captured, and a pass is one run through
the job list.  Passes repeat until ``--seconds`` have elapsed.  Every
job's output is checked by gate.py before its time counts; a failed
job records no time and a pass with a failed job records no sweep time.

``--trace 0`` reports the end-to-end metrics: ``sweep_s`` (median pass
time), ``slowest_job_s`` (median over passes of the longest job),
``setup_s`` (median time for a fresh interpreter to import
``cyclecodes.cli`` and build the workload's fields) and
``peak_rss_mb`` (peak resident memory of this process).  ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics
of tracing.py plus ``trace.overhead_ratio`` (traced / untraced median
pass time).  The last line of stdout is the result as one JSON object;
the drawn job list, every pass and, for a traced run, every span are
written under perfbench/out/.

Every time a metric reports is scaled to a fixed CPU speed.  On a
shared host the speed a process gets drifts by a third or more over
minutes, with the same code, and a median over one run cannot average
that out.  So a fixed pure-Python reference loop (``reference_loop``)
is timed right before and right after every job and every set-up
sample (it tracked that drift better than probes that stress caches,
allocation or NumPy's memory bandwidth), and each time is multiplied
by ``REFERENCE_S`` / (mean of the two reference-loop times around it):
the result is the time the work takes when the reference loop takes
``REFERENCE_S``.  The loop is the benchmark's own code, so a change to
the program moves the scaled times as much as the raw ones.  The raw
wall times and the reference-loop times are kept in the results
file.

Numeric libraries are pinned to one thread.  The program is imported
from src/ of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = [("sweep_s", "s"), ("slowest_job_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

# Per-layer metrics: "<layer>.self_s" is a layer's self time in a pass,
# other names are counts per pass from tracing.py.
PER_LAYER = [
    ("codes.rank_table.self_s", "s"),
    ("codes.build_evaluation_matrix.self_s", "s"),
    ("codes.matrix_entries", "count"),
    ("codes.code_params.self_s", "s"),
    ("codes.messages", "count"),
    ("hilbert.footprint_by_degree.calls", "count"),
    ("hilbert.footprint_by_degree.self_s", "s"),
    ("hilbert.hilbert_union_formula.self_s", "s"),
    ("hilbert.union_terms", "count"),
    ("hilbert.solve_betas.self_s", "s"),
    ("hilbert.degenerate_torus_hilbert.calls", "count"),
    ("poly.buchberger_is_groebner.self_s", "s"),
    ("poly.multivariate_divide.calls", "count"),
    ("poly.multivariate_divide.self_s", "s"),
    ("ideal.build_generators.self_s", "s"),
    ("ideal.generators", "count"),
    ("cyclegraph.enumerate_toric_set.self_s", "s"),
    ("cyclegraph.enumerated_cardinality.self_s", "s"),
    ("cyclegraph.points", "count"),
    ("gf.field_new.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Scaled times are in seconds at the speed where the reference loop
# takes this long: near its median on the shared 2-CPU VM (Python 3.11)
# the baseline was measured on.
REFERENCE_S = 0.025

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import cyclecodes.cli as cli
for q in {qs!r}:
    cli.field_new(q)
print(time.perf_counter() - t0)
"""


def load_program() -> dict | None:
    """The cyclecodes modules the benchmark drives and wraps, imported
    from the checkout's src/; None when they are not there."""
    if not (SRC / "cyclecodes" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"cyclecodes.{name}")
               for name in ("cli", "codes", "hilbert", "poly")}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "cyclecodes":
        return None
    return modules


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop of integer arithmetic takes now:
    a probe of the speed the interpreter gets.  It allocates nothing
    that outlives an iteration, so it measures the CPU, not the
    allocator or the page tables."""
    t0 = perf_counter()
    s = 0
    for k in range(200_000):
        s = (s * 31 + k) % 1_000_003
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work at the reference speed, given the reference
    loop's times right before and right after the work."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_job(main, job) -> tuple[float, list[str]]:
    """(wall seconds, gate problems) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = main(job.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed job, not a stop
            rc = f"raised {exc!r}"
        elapsed = perf_counter() - t0
    return elapsed, gate.check(job, rc, out.getvalue())


def run_pass(main, jobs, tracer=None) -> dict:
    """One run through the job list.  ``job_s`` holds each job's time
    at the reference speed (None for a failed job), ``wall_s`` its wall
    time, and ``reference_s`` the reference loop's times between the
    jobs, outside their times."""
    job_s, wall_s, failures = [], [], []
    reference_s = [reference_loop()]
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        elapsed, problems = run_job(main, job)
        reference_s.append(reference_loop())
        wall_s.append(elapsed)
        job_s.append(None if problems
                     else scaled(elapsed, *reference_s[-2:]))
        if problems:
            failures.append({"job": i, "argv": str(job),
                             "problems": problems})
    ok = not failures
    return {"traced": tracer is not None, "job_s": job_s,
            "sweep_s": sum(job_s) if ok else None, "wall_s": wall_s,
            "reference_s": reference_s, "failures": failures}


def measure_setup(qs) -> dict:
    """Seconds a fresh interpreter takes to import cyclecodes.cli and
    build the fields ``qs``: at the reference speed (``setup_s``) and
    wall time, with the reference loop's times around it."""
    before = reference_loop()
    proc = subprocess.run([sys.executable, "-c",
                           SETUP_CODE.format(qs=sorted(set(qs)))],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    after = reference_loop()
    wall = float(proc.stdout)
    return {"setup_s": scaled(wall, before, after), "wall_s": wall,
            "reference_s": [before, after]}


def tail(samples: list[float]) -> dict:
    """Sample count, median, and the highest of a few percentiles that
    has at least ten samples beyond it (None when there is none)."""
    out = {"n": len(samples), "median": _median(samples), "p_hi": None}
    ordered = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            rank = max(1, -(-p * len(samples) // 100))
            out["p_hi"] = {"p": p, "value": ordered[rank - 1]}
            break
    return out


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def measure(modules: dict, jobs, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` (at least one pass, two when traced)
    and derive the metrics, every time scaled to the reference speed.
    An untraced run measures set-up once before each pass, so that
    set-up and passes sample the same stretch of a shared machine's
    time."""
    main = modules["cli"].main
    passes, tracers, setups = [], [], []
    start = perf_counter()
    while (not passes or (trace and len(passes) < 2)
           or perf_counter() - start < seconds):
        if not trace:
            setups.append(measure_setup(job.q for job in jobs))
        if trace and len(passes) % 2 == 0:
            tracer = Tracer()
            with tracer.installed(modules):
                passes.append(run_pass(tracer.wrap(main, "cli.main"),
                                       jobs, tracer))
            tracers.append(tracer)
        else:
            passes.append(run_pass(main, jobs))

    def sweeps(traced):
        return [p["sweep_s"] for p in passes
                if p["traced"] == traced and p["sweep_s"] is not None]

    plain = [p for p in passes if not p["traced"]]
    if trace:
        per_pass = []
        for t, p in zip(tracers, [p for p in passes if p["traced"]]):
            if p["sweep_s"] is None:
                continue
            # the pass's ratio of reference-speed time to wall time
            factor = p["sweep_s"] / sum(p["wall_s"])
            per_pass.append({**{f"{layer}.self_s": s * factor
                                for layer, s in t.self_times().items()},
                             **t.counts})
        traced_s, plain_s = _median(sweeps(True)), _median(sweeps(False))
        metrics = {name: _median(p.get(name, 0) for p in per_pass)
                   for name, _ in PER_LAYER}
        metrics["trace.overhead_ratio"] = (
            traced_s / plain_s if traced_s and plain_s else None)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "sweep_s": _median(sweeps(False)),
            "slowest_job_s": _median(max(p["job_s"]) for p in plain
                                     if p["sweep_s"] is not None),
            "setup_s": _median(s["setup_s"] for s in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    attempted = len(passes) * len(jobs)
    failed = sum(len(p["failures"]) for p in passes)
    job_samples = [t for p in plain for t in p["job_s"] if t is not None]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "fail_ratio": failed / attempted,
        "setups": setups,
        "sweep_s": tail(sweeps(False)),
        "wall_sweep_s": tail([sum(p["wall_s"]) for p in plain
                              if p["sweep_s"] is not None]),
        "job_s": tail(job_samples),
        "passes": passes,
        "counts": [dict(t.counts) for t in tracers],
        "spans": [t.spans for t in tracers],
    }


def report(name: str, seed: int, jobs, result: dict) -> None:
    """Human-readable lines; the caller prints the JSON result last."""
    print(f"workload {name}, seed {seed}: {len(jobs)} jobs")
    for job in jobs:
        print(f"  cyclecodes {job}")
    sweep = result["sweep_s"]
    print(f"passes {len(result['passes'])}, untraced with all outputs "
          f"verified {sweep['n']}, highest percentile with 10 samples "
          f"beyond it: {sweep['p_hi']}; median wall time of a pass "
          f"{result['wall_sweep_s']['median']} s, at the reference "
          f"speed {sweep['median']} s")
    print(f"jobs attempted {result['attempted']}, failed "
          f"{result['failed']}, fail_ratio {result['fail_ratio']}")
    for p in result["passes"]:
        for f in p["failures"]:
            print(f"  FAILED {f['argv']}: {'; '.join(f['problems'])}")
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']} {m['unit']}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = load_program()
    if modules is None:
        print(f"error: no cyclecodes sources under {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.draw(workloads.WORKLOADS[args.workload], args.seed)
    result = measure(modules, jobs, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": [str(job) for job in jobs], **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    report(args.workload, args.seed, jobs, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
