"""Tests of the benchmark itself: a smoke run of each workload on tiny
instances, the correctness gate on tampered outputs, seeded drawing,
and the refusal to run without the program's sources.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import workloads
from workloads import Job

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MODULES = run.load_program()

# Tiny jobs of the same commands and shapes as each workload's.
TINY = {
    "rank": [Job("hilbert", 5, "3", dmax=3, rank=True),
             Job("hilbert", 4, "3", rank=True)],
    "counting": [Job("hilbert", 13, "3", dmax=8),
                 Job("hilbert", 31, "3", d=5),
                 Job("hilbert", 7, "5"),
                 Job("betas", 7, "5"),
                 Job("regularity", 7, "5,3"),
                 Job("hilbert", 5, "5,3x2")],
    "verify": [Job("groebner-check", 3, "5"),
               Job("card", 5, "3"),
               Job("code", 4, "3", d=1),
               Job("code", 5, "3", d=1)],
}


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) \
        == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric(name, trace):
    result = run.measure(MODULES, TINY[name], 0, trace)
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_times_are_scaled_to_the_reference_speed():
    assert run.scaled(2.0, run.REFERENCE_S, run.REFERENCE_S) == 2.0
    assert run.scaled(2.0, run.REFERENCE_S, 3 * run.REFERENCE_S) == 1.0
    result = run.measure(MODULES, TINY["verify"], 0, False)
    (p,) = result["passes"]
    assert len(p["reference_s"]) == len(TINY["verify"]) + 1
    assert p["job_s"] == [run.scaled(t, *p["reference_s"][i:i + 2])
                          for i, t in enumerate(p["wall_s"])]
    assert result["metrics"]["sweep_s"]["value"] == sum(p["job_s"])
    (setup,) = result["setups"]
    assert result["metrics"]["setup_s"]["value"] == run.scaled(
        setup["wall_s"], *setup["reference_s"])


def test_trace_attributes_time_to_the_called_layers():
    result = run.measure(MODULES, TINY["verify"], 0, True)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["poly.multivariate_divide.calls"] > 0
    assert metrics["ideal.generators"] == 5 + 10  # torus + C(5, 2)
    assert metrics["codes.messages"] > 0
    assert metrics["hilbert.footprint_by_degree.calls"] == 0
    assert metrics["codes.rank_table.self_s"] == 0
    # the wrappers are gone after a traced pass
    assert MODULES["poly"].multivariate_divide.__name__ \
        == "multivariate_divide"


def _output(job):
    """A job's real JSON output, which passes the gate."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert MODULES["cli"].main(job.argv) == 0
    assert gate.check(job, 0, buf.getvalue()) == []
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("job, key, tamper", [
    (Job("card", 5, "3"), "enumerated", lambda v: v + 1),
    (Job("card", 5, "3"), "agree", lambda v: False),
    (Job("regularity", 7, "5"), "bruteforce", lambda v: v + 1),
    (Job("betas", 7, "5"), "betas", lambda v: [v[0] + 1] + v[1:]),
    (Job("code", 4, "3", d=1), "dimension", lambda v: v - 1),
    (Job("code", 4, "3", d=1), "min_distance", lambda v: 64),
    (Job("groebner-check", 3, "3"), "groebner", lambda v: False),
    (Job("hilbert", 5, "3", dmax=3), "agree", lambda v: False),
])
def test_gate_rejects_tampered_output(job, key, tamper):
    out = _output(job)
    out[key] = tamper(out[key])
    assert gate.check(job, 0, json.dumps(out)) != []


@pytest.mark.parametrize("column", ["footprint", "union", "rank"])
def test_gate_rejects_tampered_hilbert_row(column):
    job = Job("hilbert", 5, "3", dmax=6, rank=True)
    out = _output(job)
    out["rows"][3][column] += 1
    assert gate.check(job, 0, json.dumps(out)) != []


def test_gate_rejects_nonzero_exit_and_garbage():
    job = Job("card", 5, "3")
    assert gate.check(job, 1, "") != []
    assert gate.check(job, 0, "not json") != []


def test_anchors():
    assert gate.beta_anchor(3) == [-2, 3]
    assert gate.beta_anchor(5) == [6, -15, 10]
    assert gate.beta_anchor(7) == [-20, 70, -84, 35]
    assert gate.cardinality(5, [(5, 1)]) == 512
    assert gate.cardinality(4, [(3, 2)]) == 3 ** 6
    assert gate.regularity(5, [(5, 1)]) == 9


def test_draw_is_seeded():
    slots = workloads.COUNTING
    assert workloads.draw(slots, 3) == workloads.draw(slots, 3)
    draws = {tuple(workloads.draw(slots, s)) for s in range(10)}
    assert len(draws) > 1
    for seed in range(10):
        jobs = workloads.draw(slots, seed)
        assert len(jobs) == len(slots)
        assert all(any(j in pool for pool in slots) for j in jobs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
