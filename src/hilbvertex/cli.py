"""Command line front end: verification suites, series export, vertex tables.

Exit codes: 0 all requested checks pass, 1 a verification mismatch,
2 usage/configuration error, 3 internal resource limit.

Flags mirror environment variables with the HILBVERTEX_ prefix
(HILBVERTEX_YMAX, HILBVERTEX_ZMAX, HILBVERTEX_N, HILBVERTEX_FORMAT,
HILBVERTEX_OUT).  Output files are byte-identical for identical
configurations: wall-clock timing is shown on the console but never written
to files.
"""

import argparse
import csv
import io
import json
import os
import sys

from .scalar import ResourceLimitError
from . import checks as checks_mod
from .checks import (run_check, calibrate, write_conventions,
                     capped_vertex_table, closed_F, osum_exponential,
                     mellit_exponential, VERIFY_TARGETS, HARD_Y_BOUND,
                     HARD_Z_BOUND, VERTEX_N_MAX, DEFAULT_CONVENTIONS)

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


def _bounds_check(args, targets=()):
    y, z = args.ymax, args.zmax
    if y is not None and not 0 <= y <= HARD_Y_BOUND:
        raise ConfigError(f"--ymax must lie in [0, {HARD_Y_BOUND}]")
    if z is not None and not 0 <= z <= HARD_Z_BOUND:
        raise ConfigError(f"--zmax must lie in [0, {HARD_Z_BOUND}]")
    n = args.n if targets else None  # series calls this with no --n
    if n is not None and n > HARD_Y_BOUND:
        raise ConfigError(f"--n must be at most {HARD_Y_BOUND}")
    if "rationality" in targets and n is not None and n > VERTEX_N_MAX:
        raise ConfigError(f"verify rationality needs --n <= {VERTEX_N_MAX}")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args):
    targets = args.targets or ["all"]
    if "all" in targets:
        targets = list(VERIFY_TARGETS)
    unknown = [t for t in targets if t not in VERIFY_TARGETS]
    if unknown:
        raise ConfigError(f"unknown verify targets: {', '.join(unknown)}")
    _bounds_check(args, targets)
    given = {"y": ("--ymax", args.ymax), "z": ("--zmax", args.zmax),
             "n": ("--n", args.n)}
    for t in targets:
        for key, (_, lowest) in VERIFY_TARGETS[t].orders.items():
            flag, value = given[key]
            if value is not None and value < lowest:
                raise ConfigError(f"verify {t} needs {flag} >= {lowest}")
    reports = []
    for t in targets:
        rep = run_check(t, args.ymax, args.zmax, args.n, args.orientation)
        reports.append(rep)
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.name} "
              f"orders={rep.orders} ({rep.seconds:.2f}s)")
        if not rep.passed:
            print(json.dumps(rep.details, indent=2, sort_keys=True))
    payload = [dict(rep.to_dict(), seconds=None) for rep in reports]
    text = _format_reports(payload, args.format)
    if args.out:
        _emit(text, args.out)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_MISMATCH


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
        # a z-series coefficient, or a Scalar at z^0
        terms = sorted(c.coeffs.items()) if hasattr(c, "coeffs") else [
            ((0, 0), c)]
        for (_, iz), v in terms:
            num, den = v.render_parts()
            rows.append({"y": sum(mu), "z": iz, "p": list(mu),
                         "num": num, "den": den})
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
    if not 0 <= n <= VERTEX_N_MAX:
        raise ConfigError(f"--n must lie in [0, {VERTEX_N_MAX}] for vertex "
                          f"tables")
    table = capped_vertex_table(n)
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
    path = args.out or "conventions.json"
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
    }

    def add_flags(sp, *names):
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("targets", nargs="*",
                    help=f"subset of {', '.join(VERIFY_TARGETS)}, or all")
    sp.add_argument("--orientation", choices=("arms_t1", "arms_t2"),
                    default=DEFAULT_CONVENTIONS["tangent_orientation"],
                    help="override the calibrated tangent orientation "
                         "(negative control)")
    add_flags(sp, "ymax", "zmax", "n", "format", "out")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("series", help="emit a generating function")
    sp.add_argument("target", choices=("F", "osum", "taubar"))
    add_flags(sp, "ymax", "zmax", "format", "out")
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("vertex", help="write a capped vertex table")
    add_flags(sp, "n", "format", "out")
    sp.set_defaults(fn=cmd_vertex)

    sp = sub.add_parser("calibrate", help="re-derive and freeze conventions")
    add_flags(sp, "out")
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
