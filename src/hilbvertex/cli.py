"""Command line front end: verification suites, series export, vertex tables.

Exit codes: 0 all requested checks pass, 1 a verification mismatch,
2 usage/configuration error, 3 internal resource limit.

Flags mirror environment variables with the HILBVERTEX_ prefix
(HILBVERTEX_YMAX, HILBVERTEX_ZMAX, HILBVERTEX_N, HILBVERTEX_FORMAT,
HILBVERTEX_OUT, HILBVERTEX_JOBS, HILBVERTEX_CONVENTIONS).  Output files are
byte-identical for identical configurations: wall-clock timing is shown on
the console but never written to files.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .scalar import ResourceLimitError, prender
from . import checks as checks_mod
from .checks import (run_check, calibrate, write_conventions,
                     load_conventions, capped_vertex_table, closed_F,
                     osum_exponential, mellit_exponential, CHECK_NAMES,
                     MIN_ORDERS, HARD_Y_BOUND, HARD_Z_BOUND,
                     DEFAULT_CONVENTIONS)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class ConfigError(Exception):
    pass


def _env(name, cast=str):
    raw = os.environ.get(f"HILBVERTEX_{name}")
    if raw is None:
        return None
    return cast(raw)


def _bounds_check(args):
    y, z = args.ymax, args.zmax
    if y is not None and not 0 <= y <= HARD_Y_BOUND:
        raise ConfigError(f"--ymax must lie in [0, {HARD_Y_BOUND}]")
    if z is not None and not 0 <= z <= HARD_Z_BOUND:
        raise ConfigError(f"--zmax must lie in [0, {HARD_Z_BOUND}]")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_named(args_tuple):
    name, y, z, n, orientation = args_tuple
    rep = run_check(name, y_order=y, z_order=z, n=n, orientation=orientation)
    return name, rep


def cmd_verify(args):
    targets = args.targets or ["all"]
    if "all" in targets:
        targets = list(CHECK_NAMES)
    unknown = [t for t in targets if t not in CHECK_NAMES]
    if unknown:
        raise ConfigError(f"unknown verify targets: {', '.join(unknown)}")
    _bounds_check(args)
    given = {"y": ("--ymax", args.ymax), "z": ("--zmax", args.zmax),
             "n": ("--n", args.n)}
    for t in targets:
        for key, lowest in MIN_ORDERS[t].items():
            flag, value = given[key]
            if value is not None and value < lowest:
                raise ConfigError(f"verify {t} needs {flag} >= {lowest}")
    orientation = DEFAULT_CONVENTIONS["tangent_orientation"]
    if args.conventions:
        orientation = load_conventions(args.conventions).get(
            "tangent_orientation", orientation)
    if args.orientation:
        orientation = args.orientation
    jobs = max(1, args.jobs or 1)
    work = [(t, args.ymax, args.zmax, args.n, orientation) for t in targets]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(_run_named, work))
        reports = [results[t] for t in targets]
    else:
        reports = [_run_named(w)[1] for w in work]
    all_pass = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        all_pass = all_pass and rep.passed
        print(f"{status} {rep.name} orders={rep.orders} "
              f"({rep.seconds:.2f}s)")
        if not rep.passed:
            print(json.dumps(rep.details, indent=2, sort_keys=True))
    payload = [dict(rep.to_dict(), seconds=None) for rep in reports]
    text = _format_reports(payload, args.format)
    if args.out:
        _emit(text, args.out)
    return EXIT_OK if all_pass else EXIT_MISMATCH


def _format_reports(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["check", "outcome", "orders"])
        for row in payload:
            w.writerow([row["check"], row["outcome"],
                        json.dumps(row["orders"], sort_keys=True)])
        return buf.getvalue()
    lines = [f"{row['check']}: {row['outcome']}" for row in payload]
    return "\n".join(lines) + "\n"


def _fock_payload(f):
    rows = []
    for mu in sorted(f.coeffs, key=lambda m: (sum(m), m)):
        c = f.coeffs[mu]
        if hasattr(c, "coeffs"):  # z-series coefficient
            for (iy, iz), v in sorted(c.coeffs.items()):
                rows.append({"y": sum(mu), "z": iz, "p": list(mu),
                             "num": prender(v.num), "den": prender(v.den)})
        else:
            rows.append({"y": sum(mu), "z": 0, "p": list(mu),
                         "num": prender(c.num), "den": prender(c.den)})
    return rows


def cmd_series(args):
    _bounds_check(args)
    y = args.ymax if args.ymax is not None else checks_mod.DEFAULT_Y_ORDER
    z = args.zmax if args.zmax is not None else checks_mod.DEFAULT_Z_ORDER
    if args.target == "F":
        f = closed_F(y, z)
    elif args.target == "osum":
        f = osum_exponential(y)
    elif args.target == "taubar":
        f = mellit_exponential(y)
    else:
        raise ConfigError(f"unknown series target {args.target!r}")
    rows = _fock_payload(f)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["y", "z", "p", "num", "den"])
        for r in rows:
            w.writerow([r["y"], r["z"],
                        ",".join(map(str, r["p"])), r["num"], r["den"]])
        text = buf.getvalue()
    elif args.format == "text":
        text = "\n".join(
            f"y^{r['y']} z^{r['z']} p{r['p']}: ({r['num']}) / ({r['den']})"
            for r in rows) + "\n"
    else:
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_vertex(args):
    n = args.n if args.n is not None else 1
    if not 0 <= n <= 4:
        raise ConfigError("--n must lie in [0, 4] for vertex tables")
    # the table needs z-order n(n+1) + 2 at least, so that is always allowed
    zbound = max(HARD_Z_BOUND, n * (n + 1) + 2)
    if args.zmax is not None and args.zmax > zbound:
        raise ConfigError(f"--zmax must be at most {zbound} for --n {n}")
    table = capped_vertex_table(n, args.zmax)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in table.to_csv_rows():
            w.writerow(row)
        text = buf.getvalue()
    elif args.format == "text":
        lines = [f"n={table.n} certified through z^{table.certified_order} "
                 f"q-free-after-shift={table.q_free}"]
        for row in table.to_dict()["entries"]:
            lines.append(f"  {row['partition']}: num {row['num']} "
                         f"den {row['den']}")
        text = "\n".join(lines) + "\n"
    else:
        text = table.to_json() + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_calibrate(args):
    conventions, evidence = calibrate()
    path = args.out or args.conventions or "conventions.json"
    write_conventions(path, conventions,
                      evidence if args.evidence else None)
    print(f"wrote {path}")
    for key in ("tangent_orientation", "prop1_variant", "prop1_a_power",
                "main_reading", "main_shift_text",
                "main_matches_printed_claim"):
        print(f"  {key}: {conventions[key]}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="hilbvertex",
        description="Exact verification of capped-vertex generating "
                    "function identities for Hilbert schemes of points.")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags its handler reads
    flags = {
        "ymax": dict(type=int, default=_env("YMAX", int)),
        "zmax": dict(type=int, default=_env("ZMAX", int)),
        "n": dict(type=int, default=_env("N", int)),
        "format": dict(choices=("json", "csv", "text"),
                       default=_env("FORMAT") or "json"),
        "out": dict(default=_env("OUT")),
        "jobs": dict(type=int, default=_env("JOBS", int) or 1),
        "conventions": dict(default=_env("CONVENTIONS"),
                            help="path of a frozen-conventions file"),
    }

    def add_flags(sp, *names):
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("targets", nargs="*",
                    help=f"subset of {', '.join(CHECK_NAMES)}, or all")
    sp.add_argument("--orientation", choices=("arms_t1", "arms_t2"),
                    help="override the calibrated tangent orientation "
                         "(negative control)")
    add_flags(sp, "ymax", "zmax", "n", "format", "out", "jobs", "conventions")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("series", help="emit a generating function")
    sp.add_argument("target", choices=("F", "osum", "taubar"))
    add_flags(sp, "ymax", "zmax", "format", "out")
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("vertex", help="write a capped vertex table")
    add_flags(sp, "zmax", "n", "format", "out")
    sp.set_defaults(fn=cmd_vertex)

    sp = sub.add_parser("calibrate", help="re-derive and freeze conventions")
    add_flags(sp, "out", "conventions")
    sp.add_argument("--evidence", action="store_true",
                    help="embed the calibration reports in the file")
    sp.set_defaults(fn=cmd_calibrate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
