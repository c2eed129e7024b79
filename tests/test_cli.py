import json
import os
import subprocess
import sys

import pytest

import hilbvertex
from hilbvertex.cli import main, EXIT_OK, EXIT_MISMATCH, EXIT_USAGE

# the directory the tests import the package from, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(hilbvertex.__file__))


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("HILBVERTEX_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "hilbvertex.cli"] + args,
                          capture_output=True, text=True, env=env)
    return proc


def test_verify_pass_exit_zero():
    assert main(["verify", "ook", "--ymax", "2", "--zmax", "3"]) == EXIT_OK


def test_verify_bound_error_exit_two():
    assert main(["verify", "main", "--ymax", "9"]) == EXIT_USAGE
    assert main(["verify", "main", "--zmax", "13"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["main", "--ymax", "0"],
    ["main", "--zmax", "1"],
    ["main", "--ymax", "1", "--zmax", "1"],
    ["ook", "main", "--ymax", "0", "--zmax", "0"],
    ["ook", "--ymax", "0"],
    ["kernel", "--ymax", "0"],
    ["rationality", "--n", "0"],
    ["prop4", "--n", "-1"],
    ["--ymax", "0"],
])
def test_verify_rejects_orders_below_the_lowest(argv):
    # below checks.MIN_ORDERS a check compares nothing, or several
    # (reading, shift) pairs satisfy main
    assert main(["verify", *argv]) == EXIT_USAGE


def test_verify_main_at_its_lowest_orders():
    assert main(["verify", "main", "--ymax", "1", "--zmax", "2"]) == EXIT_OK


def test_verify_unknown_target_exit_two():
    assert main(["verify", "nosuch"]) == EXIT_USAGE


def test_vertex_bound_error():
    assert main(["vertex", "--n", "5"]) == EXIT_USAGE
    assert main(["vertex", "--n", "1", "--zmax", "40"]) == EXIT_USAGE


def test_negative_control_exit_one():
    code = main(["verify", "kernel", "--ymax", "2",
                 "--orientation", "arms_t2"])
    assert code == EXIT_MISMATCH


def test_specialize_validation():
    # the flag was never applied to any output, so it is no longer accepted
    assert main(["verify", "ook", "--ymax", "1", "--zmax", "1",
                 "--specialize", "t1=2/3"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["series", "osum", "--jobs", "2"],
    ["vertex", "--ymax", "3"],
    ["calibrate", "--format", "csv"],
])
def test_subcommand_rejects_flags_it_ignores(argv):
    assert main(argv) == EXIT_USAGE


def test_series_taubar_trivial(tmp_path):
    out = tmp_path / "s.json"
    assert main(["series", "taubar", "--ymax", "0",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows == [{"y": 0, "z": 0, "p": [], "num": "1", "den": "1"}]


def test_series_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["series", "F", "--ymax", "2", "--zmax", "2",
                     "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_series_osum_two_orders(tmp_path):
    out = tmp_path / "o.json"
    assert main(["series", "osum", "--ymax", "2",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())
    degrees = sorted(r["y"] for r in rows)
    assert degrees == [0, 1, 2, 2]  # p(), p(1), p(2), p(1,1)


def test_series_formats(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["series", "F", "--ymax", "1", "--zmax", "1",
                 "--format", "csv", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y,z,p,num,den"


def test_vertex_n0_row(tmp_path):
    out = tmp_path / "v.json"
    assert main(["vertex", "--n", "0", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["entries"] == [{"partition": [], "num": {"0": "1"},
                                "den": {"0": "1"}}]


def test_vertex_n1_denominator(tmp_path):
    out = tmp_path / "v1.json"
    assert main(["vertex", "--n", "1", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    den = data["entries"][0]["den"]
    assert den["0"] == "1"
    assert den["1"] == "(-t1*t2) / (q)"


def test_calibrate_idempotent(tmp_path):
    a, b = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["calibrate", "--out", str(a)]) == EXIT_OK
    assert main(["calibrate", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    conv = json.loads(a.read_text())["conventions"]
    assert conv["tangent_orientation"] == "arms_t1"
    assert conv["prop1_a_power"] == "n"
    assert conv["main_matches_printed_claim"] is False


def test_env_override(tmp_path):
    out = tmp_path / "env.json"
    proc = run_cli(["series", "taubar", "--out", str(out)],
                   env_extra={"HILBVERTEX_YMAX": "0"})
    assert proc.returncode == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows[0]["y"] == 0 and len(rows) == 1


def test_usage_error_exit_code():
    proc = run_cli(["verify", "--ymax", "not-a-number"])
    assert proc.returncode == EXIT_USAGE
