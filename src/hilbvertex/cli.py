"""Command line front end: verification suites, series export, vertex tables.

Exit codes: 0 all requested checks pass, 1 a verification mismatch,
2 usage/configuration error, 3 internal resource limit.

The flags are the only settings; no environment variable is read.  Result
files come in three formats: json (the default), csv and text.  Output files
are byte-identical for identical configurations: wall-clock timing is shown
on the console but never written to files.
"""

import argparse
import csv
import io
import json
import os
import sys

from .scalar import ResourceLimitError
from . import checks as checks_mod
from .checks import (run_check, calibrate, capped_vertex_table, closed_F,
                     osum_exponential, mellit_exponential, VERIFY_TARGETS,
                     HARD_Y_BOUND, HARD_Z_BOUND, VERTEX_N_MAX,
                     DEFAULT_CONVENTIONS)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class ConfigError(Exception):
    pass


def _bounds_check(args):
    """The caps of `series`; `verify` checks its targets' own ranges."""
    y, z = args.ymax, args.zmax
    if y is not None and not 0 <= y <= HARD_Y_BOUND:
        raise ConfigError(f"--ymax must lie in [0, {HARD_Y_BOUND}]")
    if z is not None and not 0 <= z <= HARD_Z_BOUND:
        raise ConfigError(f"--zmax must lie in [0, {HARD_Z_BOUND}]")


def _out_check(path):
    """Refuse an --out whose directory is missing or not a directory, before
    any work runs; _write still catches what cannot be foreseen."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path}: {parent} is not a directory")


def _write(fmt, path, obj, header=(), rows=(), lines=()):
    """Render one result as json (`obj`), csv (`header`, then `rows`) or text
    (`lines`), and write it to `path`, or to stdout when no path is given."""
    if fmt == "json":
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


def cmd_verify(args):
    targets = args.targets or ["all"]
    if "all" in targets:
        targets = list(VERIFY_TARGETS)
    unknown = [t for t in targets if t not in VERIFY_TARGETS]
    if unknown:
        raise ConfigError(f"unknown verify targets: {', '.join(unknown)}")
    if args.format is not None and not args.out:
        raise ConfigError("--format needs --out: the console shows one "
                          "line per check in every format")
    given = {"y": ("--ymax", args.ymax), "z": ("--zmax", args.zmax),
             "n": ("--n", args.n),
             "orientation": ("--orientation", args.orientation)}
    read = {key for t in targets for key in VERIFY_TARGETS[t].orders}
    if any(VERIFY_TARGETS[t].oriented for t in targets):
        read.add("orientation")
    for key, (flag, value) in given.items():
        if value is not None and key not in read:
            raise ConfigError(f"{flag} is read by none of the targets "
                              f"{', '.join(targets)}")
    for t in targets:
        for key, (_, lowest, highest) in VERIFY_TARGETS[t].orders.items():
            flag, value = given[key]
            if value is not None and not lowest <= value <= highest:
                raise ConfigError(f"verify {t} needs {flag} in "
                                  f"[{lowest}, {highest}]")
    orientation = (args.orientation
                   or DEFAULT_CONVENTIONS["tangent_orientation"])
    reports = []
    for t in targets:
        rep = run_check(t, args.ymax, args.zmax, args.n, orientation)
        reports.append(rep)
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.name} "
              f"orders={rep.orders} ({rep.seconds:.2f}s)")
        if not rep.passed:
            print(json.dumps(rep.details, indent=2, sort_keys=True))
    payload = [dict(rep.to_dict(), seconds=None) for rep in reports]
    if args.out:
        _write(args.format or "json", args.out, payload,
               ["check", "outcome", "orders"],
               [[r["check"], r["outcome"],
                 json.dumps(r["orders"], sort_keys=True)] for r in payload],
               [f"{r['check']}: {r['outcome']}" for r in payload])
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_MISMATCH


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


# series target -> (builder of its FockElement, whether it reads a z-order)
SERIES_TARGETS = {"F": (closed_F, True), "osum": (osum_exponential, False),
                  "taubar": (mellit_exponential, False)}


def cmd_series(args):
    _bounds_check(args)
    build, reads_z = SERIES_TARGETS[args.target]
    if args.zmax is not None and not reads_z:
        raise ConfigError(f"--zmax is not read by series {args.target}")
    y = args.ymax if args.ymax is not None else checks_mod.DEFAULT_Y_ORDER
    z = args.zmax if args.zmax is not None else checks_mod.DEFAULT_Z_ORDER
    rows = _fock_payload(build(y, z) if reads_z else build(y))
    _write(args.format, args.out, rows, ["y", "z", "p", "num", "den"],
           [[r["y"], r["z"], ",".join(map(str, r["p"])), r["num"], r["den"]]
            for r in rows],
           [f"y^{r['y']} z^{r['z']} p{r['p']}: ({r['num']}) / ({r['den']})"
            for r in rows])
    return EXIT_OK


def cmd_vertex(args):
    n = args.n if args.n is not None else 1
    if not 0 <= n <= VERTEX_N_MAX:
        raise ConfigError(f"--n must lie in [0, {VERTEX_N_MAX}] for vertex "
                          f"tables")
    table = capped_vertex_table(n).to_dict()
    entries = table["entries"]
    _write(args.format, args.out, table,
           ["partition", "z_degree", "part", "value"],
           [[",".join(map(str, e["partition"])), d, part, c]
            for e in entries for part in ("num", "den")
            for d, c in e[part].items()],
           [f"n={n} certified through z^{table['certified_order']} "
            f"q-free-after-shift={table['q_free_after_shift']}"]
           + [f"  {e['partition']}: num {e['num']} den {e['den']}"
              for e in entries])
    return EXIT_OK


def cmd_calibrate(args):
    conventions, evidence = calibrate()
    path = args.out or "conventions.json"
    payload = {"conventions": conventions}
    if args.evidence:
        payload["evidence"] = evidence
    _write("json", path, payload)
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
        "ymax": dict(type=int),
        "zmax": dict(type=int),
        "n": dict(type=int),
        "format": dict(choices=("json", "csv", "text"), default="json"),
        "out": dict(),
    }

    def add_flags(sp, *names):
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("targets", nargs="*",
                    help=f"subset of {', '.join(VERIFY_TARGETS)}, or all")
    sp.add_argument("--orientation", choices=("arms_t1", "arms_t2"),
                    help="override the calibrated tangent orientation "
                         "(negative control) of the targets that take one")
    add_flags(sp, "ymax", "zmax", "n", "format", "out")
    # no default format, so that a --format given without --out is seen
    sp.set_defaults(fn=cmd_verify, format=None)

    sp = sub.add_parser("series", help="emit a generating function")
    sp.add_argument("target", choices=tuple(SERIES_TARGETS))
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
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
        if args.out:
            _out_check(args.out)
        return args.fn(args)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
