"""One benchmark worker: a fresh interpreter, so module-level caches of
hilbvertex (the default Macdonald basis, `s_in_p`'s memo, the partition
cache of `fock`) start empty, as they do for a user of the command line.

The worker imports hilbvertex and builds the workload's set-up.  Each pass
then runs the named tasks one after another in a child forked from the
worker after set-up (what `hilbvertex verify --jobs 1` does; the process
pool of the command line is never used).  A child starts with exactly the
state a fresh process has after set-up, and no pass sees the caches another
pass filled.  Passes repeat while one more fits in --seconds (there is
always one); a traced worker runs its single pass in-process.  Each task is
timed alone; its output is checked by the oracle after the clock stops.
Messages go to stdout, one JSON object per line:

    {"ready": true}                       set-up finished
    {"task": ..., "status": ..., ...}     one per task, in run order
    {"done": true, ...}                   a pass ended; sizes, trace stats
    {"finished": true}                    no more passes

Started by run.py:
    python3 perfbench/worker.py WORKLOAD --order a,b,c [--seconds S]
        [--size tiny] [--trace] [--setup-only]
"""

import argparse
import itertools
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from workloads import MAIN_MATCH, SIZES

SRC = Path(__file__).resolve().parent.parent / "src"


def emit(**fields):
    print(json.dumps(fields), flush=True)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def max_terms(scalars):
    """Largest numerator or denominator, in terms, among the Scalars."""
    return max((max(len(s.num), len(s.den)) for s in scalars), default=0)


# ---------------------------------------------------------------------------
# tasks and their oracle
# ---------------------------------------------------------------------------

def execute(task):
    """Run one task through the public API; return its output object."""
    from hilbvertex import checks
    output = getattr(checks, task.func)(*task.args)
    # render the result as `hilbvertex series F` and `vertex` do
    if task.kind == "export":
        for c in output.coeffs.values():
            c.render()
    elif task.kind == "vertex":
        output.to_json()
    return output


def _fock_scalars(f):
    for c in f.coeffs.values():
        yield from (c.coeffs.values() if hasattr(c, "coeffs") else (c,))


def output_terms(task, output):
    if task.kind == "export":
        return max_terms(_fock_scalars(output))
    if task.kind == "vertex":
        return max_terms(c for num, den in output.entries.values()
                         for part in (num, den) for c in part.values())
    return 0


def check_output(task, output):
    """None when the output is right, else the reason it is not."""
    if task.kind in ("verdict", "main"):
        if output.outcome != "exact-match":
            return f"outcome {output.outcome!r}, expected 'exact-match'"
        if task.kind == "main" and output.details.get("matches") != [
                MAIN_MATCH]:
            return (f"matches {output.details.get('matches')!r}, "
                    f"expected exactly [{MAIN_MATCH!r}]")
        return None
    if task.kind == "export":
        from hilbvertex import checks, pexp
        ny, nz = task.args
        if output != pexp(checks.ook_argument(nz), ny):
            return "closed_F differs from its plethystic form"
        return None
    if task.kind == "vertex":
        return certify_table(output, task.args[0])
    raise ValueError(f"unknown task kind {task.kind!r}")


def certify_table(table, n):
    """Re-certify a vertex table as acceptance criterion 6 does."""
    from hilbvertex import Series, checks, partitions
    from hilbvertex.macdonald import default_basis, euler_hilb
    if table.n != n or set(table.entries) != set(partitions(n)):
        return f"table for n={table.n} with entries {sorted(table.entries)}"
    budget = n * (n + 1) // 2
    cand = checks.candidate_denominator(n)
    F = checks.closed_F(n, table.certified_order)
    coeffs = default_basis().decompose(F.degree_slice(n), n)
    for lam in partitions(n):
        num, den = table.entries[lam]
        series = coeffs[lam] * euler_hilb(lam)
        den_s = Series({(0, j): c for j, c in den.items()}, 0, series.nz)
        num_s = Series({(0, j): c for j, c in num.items()}, 0, series.nz)
        if den_s * series != num_s:
            return f"{lam}: den * series != num through z^{series.nz}"
        if max(den) > budget or max(num, default=0) > budget:
            return f"{lam}: degrees exceed the budget {budget}"
        if not checks._divides_zpoly(den, cand):
            return f"{lam}: den does not divide the candidate denominator"
    if not table.q_free:
        return "shifted form depends on q"
    return None


def run_task(task, tracer=None):
    """Time one task, then check its output; returns the task message."""
    from hilbvertex import ResourceLimitError
    msg = {"task": task.name}
    t0 = time.perf_counter()
    try:
        output = execute(task)
    except ResourceLimitError as exc:
        msg.update(status="stopped", detail=f"resource limit: {exc}")
    except Exception as exc:  # one failing task must not end the pass
        msg.update(status="error", detail=f"{type(exc).__name__}: {exc}")
    else:
        msg.update(status="ok", detail="")
    msg["seconds"] = time.perf_counter() - t0
    msg["rss_mb"] = peak_rss_mb()
    if msg["status"] == "ok":
        with tracer.suspended() if tracer else nullcontext():
            try:
                problem = check_output(task, output)
            except Exception as exc:
                problem = f"oracle raised {type(exc).__name__}: {exc}"
            msg["out_terms"] = output_terms(task, output)
        if problem:
            msg.update(status="wrong", detail=problem)
    return msg


# ---------------------------------------------------------------------------

def run_pass(workload, order, tracer=None):
    """Run the tasks in `order`, then report the pass's out-of-band sizes."""
    from hilbvertex import macd_H, partitions
    for name in order:
        emit(**run_task(workload.task(name), tracer))
    done = {"done": True}
    if tracer:
        tracer.uninstall()
        done["layers"] = tracer.metrics()
    if workload.basis_is_output:
        done["out_terms"] = max_terms(
            c for n in range(workload.top_degree + 1)
            for lam in partitions(n) for c in macd_H(lam).coeffs.values())
    emit(**done)


_child = None


def _on_terminate(signum, frame):
    """Stop the pass in progress with the worker, so that none outlives it."""
    if _child is not None:
        os.kill(_child, signal.SIGKILL)
        os.waitpid(_child, 0)
    os._exit(1)


def forked_pass(workload, order):
    """run_pass in a child forked from the set-up state; its exit code."""
    global _child
    sys.stdout.flush()
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    pid = os.fork()
    if pid == 0:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        code = 1
        try:
            run_pass(workload, order)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _child = pid
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    status = os.waitpid(pid, 0)[1]
    _child = None
    return os.waitstatus_to_exitcode(status)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--order", default="")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_terminate)
    workload = SIZES[args.size][args.workload]
    order = [name for name in args.order.split(",") if name]

    sys.path.insert(0, str(SRC))
    import hilbvertex  # noqa: F401  (the import is part of set-up)
    from hilbvertex.macdonald import default_basis
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    if workload.top_degree is not None:
        basis = default_basis()
        for n in range(workload.top_degree + 1):
            basis.build_degree(n)
    emit(ready=True)
    if args.setup_only:
        return 0
    if tracer:
        emit(**{"pass": 0})
        run_pass(workload, order, tracer)
    else:
        start = time.perf_counter()
        for i in itertools.count():
            t0 = time.perf_counter()
            emit(**{"pass": i})
            code = forked_pass(workload, order)
            if code:
                print(f"pass exited with code {code}", file=sys.stderr)
                return 1
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    emit(finished=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
