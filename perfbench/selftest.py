"""Tests of the benchmark itself, at tiny orders.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, Task  # noqa: E402

SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SIZES["tiny"]))
def test_every_workload_runs_and_reports_every_metric(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.1, trace=trace,
                              size="tiny", spec=SPEC)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SIZES["tiny"][name].tasks)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert len(record["setup_samples"]) >= run.SETUP_SAMPLES
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(record)
    assert record["python"] and record["nproc"] >= 1
    assert record["seed"] == 3


def test_traced_run_sees_every_layer():
    record = run.run_workload("fusion", seed=1, seconds=0.1, trace=True,
                              size="tiny", spec=SPEC)
    metrics = record["result"]["metrics"]
    for layer in ("scalar", "series", "fock", "characters", "checks"):
        assert metrics[f"{layer}.self_s"]["value"] > 0
    assert metrics["scalar.pmul.term_products"]["value"] > 0
    record = run.run_workload("vertex", seed=1, seconds=0.1, trace=True,
                              size="tiny", spec=SPEC)
    metrics = record["result"]["metrics"]
    assert metrics["macdonald.self_s"]["value"] > 0
    assert metrics["series.rational_reconstruct.candidate_share"][
        "value"] == 1.0


def test_seed_orders_the_tasks():
    w = SIZES["full"]["fusion"]
    assert run.task_order(w, 7) == run.task_order(w, 7)
    assert sorted(run.task_order(w, 7)) == sorted(t.name for t in w.tasks)
    assert len({tuple(run.task_order(w, s)) for s in range(10)}) > 1


def _task(workload, name):
    return SIZES["tiny"][workload].task(name)


def test_oracle_accepts_real_outputs_and_rejects_doctored_ones():
    from hilbvertex import Scalar
    from hilbvertex.checks import VerificationReport

    main = _task("fusion", "main")
    report = worker.execute(main)
    assert worker.check_output(main, report) is None
    doctored = VerificationReport(report.name, report.orders, "mismatch",
                                  report.details)
    assert "exact-match" in worker.check_output(main, doctored)
    wrong_shift = dict(report.details, matches=[
        {"reading": "printed", "shift": "-z*hbar^1*q^1"}])
    doctored = VerificationReport(report.name, report.orders,
                                  report.outcome, wrong_shift)
    assert "matches" in worker.check_output(main, doctored)

    export = _task("fusion", "series_F")
    f = worker.execute(export)
    assert worker.check_output(export, f) is None
    mu = next(mu for mu in f.coeffs if mu)
    f.coeffs[mu] = f.coeffs[mu] * 2
    assert worker.check_output(export, f) is not None

    vertex = _task("vertex", "vertex_n1")
    table = worker.execute(vertex)
    assert worker.check_output(vertex, table) is None
    num, den = table.entries[(1,)]
    table.entries[(1,)] = ({d: c * Scalar.from_int(2)
                            for d, c in num.items()}, den)
    assert "den * series != num" in worker.check_output(vertex, table)


def test_resource_limit_is_recorded_as_stopped(monkeypatch):
    from hilbvertex import ResourceLimitError, checks

    def over_budget(n):
        raise ResourceLimitError(
            "polynomial product of 3318 x 15786 terms exceeds budget")

    monkeypatch.setattr(checks, "capped_vertex_table", over_budget)
    msg = worker.run_task(Task("vertex_n3", "vertex",
                               "capped_vertex_table", (3,)))
    assert msg["status"] == "stopped"
    assert "3318 x 15786" in msg["detail"]
    assert msg["seconds"] >= 0


def _spy_on_workers(monkeypatch):
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def _assert_all_ended(started):
    for proc in started:
        assert proc.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def test_time_limit_stops_the_task_and_the_pass(monkeypatch):
    started = _spy_on_workers(monkeypatch)
    monkeypatch.setattr(run, "TASK_LIMIT_S", 0.5)
    w = SIZES["full"]["fusion"]
    p, = run.run_worker(w, ["main", "slice"],
                        deadline=time.perf_counter() + 60)["passes"]
    first, rest = p["tasks"]
    assert first["status"] == "stopped" and "time limit" in first["detail"]
    assert first["seconds"] >= 0.5
    assert rest["status"] == "stopped" and "not run" in rest["detail"]
    assert run.pass_metrics(p)["ok_frac"] == 0
    # the worker and the pass it forked are both gone
    _assert_all_ended(started)


def test_passes_repeat_from_the_set_up_state(monkeypatch):
    started = _spy_on_workers(monkeypatch)
    w = SIZES["tiny"]["localization"]
    order = run.task_order(w, 1)
    out = run.run_worker(w, order, deadline=time.perf_counter() + 60,
                         size="tiny", seconds=1.0)
    assert out["setup_s"] > 0 and len(out["passes"]) >= 2
    for p in out["passes"]:
        assert [t["task"] for t in p["tasks"]] == order
        assert all(t["status"] == "ok" for t in p["tasks"])
        assert p["done"]["out_terms"] > 0
    _assert_all_ended(started)


def test_tracer_wraps_every_binding():
    from hilbvertex import characters, fock, macdonald, scalar, series
    tracer = Tracer()
    tracer.install()
    try:
        for module in (macdonald, characters):
            assert module.pmul is scalar.pmul
        assert scalar.pmul.__wrapped__ is not None
        assert series.Series.__add__.__wrapped__ is not None
        assert series.Series.__radd__ is series.Series.__add__
        assert fock.FockElement.__eq__.__wrapped__ is not None
        macdonald.euler_hilb((2, 1))
        with tracer.suspended():
            assert not hasattr(macdonald.pmul, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(scalar.pmul, "__wrapped__")
    assert not hasattr(series.Series.__add__, "__wrapped__")
    assert tracer.metrics()["scalar.pmul.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "vertex",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_report_prints_every_metric_and_the_overhead():
    import report
    untraced = run.run_workload("vertex", seed=1, seconds=0.1, trace=False,
                                size="tiny", spec=SPEC)
    traced = run.run_workload("vertex", seed=1, seconds=0.1, trace=True,
                              size="tiny", spec=SPEC)
    text = "\n".join(report.describe_workload("vertex", untraced, traced))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{m['name']} " in text
    assert "tracing overhead" in text
