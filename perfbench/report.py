"""Every workload in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--out FILE]

Prints, per workload, every end-to-end metric by name and unit, the share of
tasks that failed, and each stopped task with the reason and the time until
it stopped.  With --trace it adds a traced run per workload: the per-layer
metrics grouped by module, each module's self time, and the tracing
overhead.  --out writes the run records (commit, Python, cores, seed, every
task's outcome) as JSON; baseline.json beside this file was written so.
"""

import argparse
import json
import sys

import run


def describe_workload(name, untraced, traced):
    res = untraced["result"]
    out = [f"== {name} (seed {untraced['seed']}): correct={res['correct']} "
           f"failed_frac={res['failed']}/{res['attempted']}"]
    for metric, v in res["metrics"].items():
        out.append(f"   {metric:<15} {v['value']:>14.6g} {v['unit']}")
    for p in untraced["passes"]:
        for t in p["tasks"]:
            if t["status"] != "ok":
                out.append(f"   {t['status']}: {t['task']} after "
                           f"{t['seconds']:.3f} s: {t['detail']}")
    if traced:
        metrics = traced["result"]["metrics"]
        wall = res["metrics"]["wall_s"]["value"]
        overhead = metrics["trace.wall_s"]["value"] - wall
        out.append(f"   tracing overhead: {overhead:+.3f} s "
                   f"({overhead / wall:+.1%} of the untraced wall_s)")
        out.append("   traced run, per layer:")
        for module in sorted({m.split(".")[0] for m in metrics}):
            out.append(f"     [{module}]")
            out += [f"       {m:<46} {v['value']:>14.6g} {v['unit']}"
                    for m, v in metrics.items() if m.startswith(module + ".")]
    return out


def main(argv=None):
    spec = run.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    records = {}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = run.run_workload(name, args.seed, args.seconds, False,
                                    spec=spec)
        traced = (run.run_workload(name, args.seed, args.seconds, True,
                                   spec=spec) if args.trace else None)
        records[name] = {"untraced": untraced, "traced": traced}
        print("\n".join(describe_workload(name, untraced, traced)),
              flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
