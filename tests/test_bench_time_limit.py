"""The benchmark harness stops a task that runs past its time limit.

perfbench/selftest.py checks this path on the fusion `main` task with a
0.5 s limit, but `check_main(5, 8)`, decided on the exponents, now ends in
about 0.05 s.  This test drives the same path with the `series_F` export
task (about 0.8 s with its oracle on 2 cores) and a 0.1 s limit.
"""

import os
import subprocess
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
LIMIT_S = 0.1


def test_time_limit_stops_the_task_and_the_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    from workloads import SIZES

    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    monkeypatch.setattr(run, "TASK_LIMIT_S", LIMIT_S)
    p, = run.run_worker(SIZES["full"]["fusion"], ["series_F", "main"],
                        deadline=time.perf_counter() + 60)["passes"]
    first, rest = p["tasks"]
    assert first["status"] == "stopped" and "time limit" in first["detail"]
    assert first["seconds"] >= LIMIT_S
    assert rest["status"] == "stopped" and "not run" in rest["detail"]
    assert run.pass_metrics(p)["ok_frac"] == 0
    # the worker and the pass it forked are both gone
    for proc in started:
        assert proc.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
