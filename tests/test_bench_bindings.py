"""Every benchmark workload runs on the package as it stands.

perfbench/worker.py calls the package by name, and a traced worker wraps the
names in perfbench/tracing.py's LAYERS; a renamed or removed binding makes
its tasks fail.  This runs each workload at size `tiny`, traced and
untraced, and asks every task to end `ok`.
"""

import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["localization", "fusion", "vertex"])
def test_tiny_workload_tasks_end_ok(monkeypatch, name, trace):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    from workloads import SIZES

    workload = SIZES["tiny"][name]
    order = [t.name for t in workload.tasks]
    passes = run.run_worker(workload, order, size="tiny", trace=trace,
                            deadline=time.perf_counter() + 60)["passes"]
    assert len(passes) == 1
    tasks = passes[0]["tasks"]
    assert [t["task"] for t in tasks] == order
    assert {t["task"]: (t["status"], t["detail"]) for t in tasks} == {
        t: ("ok", "") for t in order}
