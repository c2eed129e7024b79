"""Benchmark of hilbvertex: how long an exact verdict takes from a cold start.

    python3 perfbench/run.py --workload {localization,fusion,vertex} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; workloads and metrics are declared in
BENCHMARK.json there.  Load is a closed loop with one client, one task at a
time, as `hilbvertex verify --jobs 1` runs them.

A worker (worker.py) is one fresh process: it imports hilbvertex and builds
the workload's set-up.  A pass runs each task once, in an order drawn from
the seed, in a child the worker forks after set-up, so every pass starts
from the state of a fresh process after set-up and none sees the caches of
another; every output is checked by the oracle outside the timed region.
With --trace 0 up to PASS_WORKERS workers, one after another, share
--seconds of passes: a worker repeats passes while one more fits in its
share, a second worker starts when one more pass fits in --seconds, and
there is always at least one pass.  Each worker gives a set-up sample;
set-up-only processes add samples until there are three, unless they add
up to SETUP_MAX_S already, and more while they add up to less than two
seconds.  End-to-end metrics, medians over passes:

  setup_s        process start to ready (interpreter, import, basis build);
                 median of the set-up samples
  wall_s         the tasks' seconds after set-up; a stopped task counts the
                 time until it stopped
  peak_rss_mb    peak resident memory of the process that ran the pass
  out_max_terms  largest numerator or denominator, in terms, among the
                 workload's outputs
  ok_frac        tasks whose output the oracle accepted / tasks attempted

`failed` counts tasks that raised, ran past their time limit or gave a
wrong output (failed_frac = failed / attempted); `correct` is false when the
oracle rejected an output.  With --trace 1 the run makes one traced pass
(tracing.py), in the worker itself, and reports its per-layer metrics and its wall time,
trace.wall_s; less the untraced wall_s, that is the tracing overhead
(report.py prints it).  Every line but the last describes the run (commit,
Python, cores, seed, each task's outcome); the last is the JSON result.
"""

import argparse
import json
import os
import platform
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_BUDGET_S = 160.0    # every run must end within 180 s
TASK_LIMIT_S = 120.0    # one task and its oracle check
PASS_WORKERS = 2
SETUP_SAMPLES = 3       # set-up samples: at least this many ...
SETUP_MAX_S = 15.0      # ... unless they add up to this much,
SETUP_TOTAL_S = 2.0     # and more while they add up to less than this
SETUP_MAX_SAMPLES = 50


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def task_order(workload, seed):
    names = [t.name for t in workload.tasks]
    random.Random(seed).shuffle(names)
    return names


def run_facts():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# one worker process
# ---------------------------------------------------------------------------

def _pump(stream, lines):
    for line in stream:
        lines.put(line)
    lines.put(None)


def _next_message(lines, until):
    """The next JSON message, "timeout", or None when the worker exited."""
    while True:
        try:
            line = lines.get(timeout=max(0.0, until - time.perf_counter()))
        except queue.Empty:
            return "timeout"
        if line is None:
            return None
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue


def _stop(proc):
    """End a worker and the pass it may have forked, and wait for both."""
    if proc.poll() is None:
        proc.terminate()  # the worker kills and reaps its pass first
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_worker(workload, order, deadline, size="full", trace=False,
               setup_only=False, seconds=0.0):
    """Start a worker, collect its passes, and stop it by `deadline`.

    Returns {"setup_s": s, "passes": [{"tasks": [...], "done": {...}}]}.
    A task that runs past its limit or a worker that dies ends the worker;
    the pass in progress then records that task and the rest as not run.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload.name,
           "--order", ",".join(order), "--size", size,
           "--seconds", repr(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0")
    lines = queue.Queue()
    t_start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines),
                              daemon=True)
    reader.start()
    try:
        msg = _next_message(lines, deadline)
        if not isinstance(msg, dict) or not msg.get("ready"):
            _stop(proc)
            raise BenchError(
                f"{workload.name} worker did not finish set-up "
                f"({'timed out' if msg == 'timeout' else 'exited'}): "
                f"{proc.stderr.read()[-2000:]}")
        result = {"setup_s": time.perf_counter() - t_start, "passes": []}
        if setup_only:
            return result
        tasks = None  # the open pass's tasks; None between passes
        last = time.perf_counter()
        while True:
            msg = _next_message(lines, min(last + TASK_LIMIT_S, deadline))
            now = time.perf_counter()
            if not isinstance(msg, dict):
                if msg == "timeout":
                    _stop(proc)
                    why = f"time limit: stopped after {now - last:.1f} s"
                    status = "stopped"
                else:
                    why = f"worker exited with code {proc.wait()}"
                    status = "error"
                if tasks is None:
                    raise BenchError(f"{workload.name} worker, between "
                                     f"passes: {why}: "
                                     f"{proc.stderr.read()[-2000:]}")
                tasks.append({"task": order[len(tasks)], "status": status,
                              "seconds": now - last, "detail": why})
                tasks += [{"task": rest, "status": status, "seconds": 0.0,
                           "detail": f"not run: {why}"}
                          for rest in order[len(tasks):]]
                result["passes"].append({"tasks": tasks, "done": {}})
                return result
            if tasks is None and msg.get("finished"):
                return result
            if tasks is None and "pass" in msg:
                tasks = []
            elif tasks is not None and "task" in msg:
                tasks.append(msg)
            elif tasks is not None and msg.get("done"):
                result["passes"].append({"tasks": tasks, "done": msg})
                tasks = None
            else:
                _stop(proc)
                raise BenchError(f"{workload.name} worker sent {msg!r} "
                                 f"out of turn")
            last = now
    finally:
        _stop(proc)
        reader.join()
        proc.stdout.close()
        proc.stderr.close()


def pass_metrics(p):
    tasks = p["tasks"]
    ok = sum(t["status"] == "ok" for t in tasks)
    terms = [t.get("out_terms", 0) for t in tasks]
    terms.append(p["done"].get("out_terms", 0))
    return {"wall_s": sum(t["seconds"] for t in tasks),
            "peak_rss_mb": max((t["rss_mb"] for t in tasks if "rss_mb" in t),
                               default=0.0),
            "out_max_terms": max(terms),
            "ok_frac": ok / len(tasks)}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, size="full", spec=None):
    """Run one workload; returns the run record, with the result under
    "result" as the last output line prints it."""
    spec = spec or load_spec()
    workload = SIZES[size][name]
    order = task_order(workload, seed)
    deadline = time.perf_counter() + RUN_BUDGET_S
    record = dict(run_facts(), workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), size=size, order=order)
    if trace:
        passes = run_worker(workload, order, deadline, size,
                            trace=True)["passes"]
    else:
        # up to PASS_WORKERS workers, one after another, share `seconds`
        # of passes; each gives a set-up sample
        setups, passes = [], []
        pass_s = 0.0
        for i in range(PASS_WORKERS):
            w = run_worker(workload, order, deadline, size,
                           seconds=(seconds - pass_s) / (PASS_WORKERS - i))
            setups.append(w["setup_s"])
            passes += w["passes"]
            pass_s = sum(pass_metrics(p)["wall_s"] for p in passes)
            if pass_s + pass_s / len(passes) > seconds:
                break
        # cheap set-ups get more samples, up to SETUP_TOTAL_S of them
        while (len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_TOTAL_S) \
                and sum(setups) < SETUP_MAX_S \
                and len(setups) < SETUP_MAX_SAMPLES \
                and time.perf_counter() + 2 * max(setups) < deadline:
            setups.append(run_worker(workload, [], deadline, size,
                                     setup_only=True)["setup_s"])
        record["setup_samples"] = setups

    record["passes"] = [dict(pass_metrics(p), tasks=p["tasks"])
                        for p in passes]
    tasks = [t for p in passes for t in p["tasks"]]
    result = {"correct": not any(t["status"] == "wrong" for t in tasks),
              "attempted": len(tasks),
              "failed": sum(t["status"] != "ok" for t in tasks)}
    if trace:
        layers = dict(passes[0]["done"].get("layers", {}))
        layers["trace.wall_s"] = record["passes"][0]["wall_s"]
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: statistics.median(
            p[m["name"]] for p in record["passes"])
            for m in wanted if m["name"] != "setup_s"}
        values["setup_s"] = statistics.median(record["setup_samples"])
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    record["result"] = result
    return record


def describe(record):
    """Human-readable lines for a run record."""
    out = [f"hilbvertex benchmark: workload={record['workload']} "
           f"seed={record['seed']} trace={record['trace']} "
           f"commit={record['commit'] or 'unknown'} "
           f"python={record['python']} nproc={record['nproc']}"]
    for i, p in enumerate(record["passes"], 1):
        traced = " (traced)" if record["trace"] else ""
        out.append(f"pass {i}{traced}: wall {p['wall_s']:.3f} s, "
                   f"peak {p['peak_rss_mb']:.1f} MB")
        for t in p["tasks"]:
            out.append(f"  {t['task']:<12} {t['status']:<8} "
                       f"{t['seconds']:9.3f} s  {t.get('detail', '')}")
    if "setup_samples" in record:
        out.append("set-up samples (s): " + " ".join(
            f"{s:.3f}" for s in record["setup_samples"]))
    res = record["result"]
    out.append(f"failed_frac {res['failed']}/{res['attempted']} "
               f"({res['failed'] / res['attempted']:.4f})")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hilbvertex" / "__init__.py").is_file():
        print(f"no hilbvertex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in describe(record):
        print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
