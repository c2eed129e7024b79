import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import hilbvertex
from hilbvertex.checks import VerificationReport
from hilbvertex.cli import (main, build_parser, EXIT_OK, EXIT_MISMATCH,
                            EXIT_USAGE, EXIT_LIMIT)

# the directory the tests import the package from, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(hilbvertex.__file__))


def run_cli(args, env_extra=None):
    env = dict(os.environ)
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
    # below its lowest orders in checks.VERIFY_TARGETS a check compares
    # nothing, or several (reading, shift) pairs satisfy main
    assert main(["verify", *argv]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "2"],
    ["prop1", "--ymax", "2"],
    ["rationality", "prop4", "--zmax", "3"],
    ["kernel", "mellit", "--ymax", "2", "--n", "2"],
])
def test_verify_refuses_an_order_no_target_reads(monkeypatch, capsys, argv):
    # the check would run at its default order, not at the one asked for
    ran = []
    monkeypatch.setattr(hilbvertex.cli, "run_check",
                        lambda *a: ran.append(a))
    assert main(["verify", *argv]) == EXIT_USAGE
    assert ran == []
    assert "is read by none of the targets" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ook", "--ymax", "1", "--zmax", "1", "--orientation", "arms_t2"],
    ["prop1", "rationality", "--orientation", "arms_t1"],
])
def test_verify_refuses_an_orientation_no_target_reads(monkeypatch, capsys,
                                                        argv):
    # only the localization targets take the orientation; the calibrated
    # value is refused too, since it would be as unread as the other
    ran = []
    monkeypatch.setattr(hilbvertex.cli, "run_check",
                        lambda *a: ran.append(a))
    assert main(["verify", *argv]) == EXIT_USAGE
    assert ran == []
    assert ("--orientation is read by none of the targets"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, want", [
    ([], "arms_t1"), (["--orientation", "arms_t2"], "arms_t2")])
def test_verify_passes_the_orientation_on(monkeypatch, flag, want):
    # a mix of targets reads it, and the calibrated one is the default
    ran = []
    monkeypatch.setattr(hilbvertex.cli, "run_check",
                        lambda *a: ran.append(a) or VerificationReport(
                            a[0], {}, "exact-match"))
    assert main(["verify", "ook", "kernel", *flag]) == EXIT_OK
    assert [(a[0], a[-1]) for a in ran] == [("ook", want), ("kernel", want)]


def test_verify_rationality_above_the_table_cap_builds_nothing(monkeypatch):
    built = []
    monkeypatch.setattr(hilbvertex.checks, "capped_vertex_table",
                        lambda n, *a, **k: built.append(n))
    n = hilbvertex.checks.VERTEX_N_MAX + 1
    assert main(["verify", "rationality", "--n", str(n)]) == EXIT_USAGE
    assert built == []


def test_verify_n_above_the_rank2_cap_exit_two(monkeypatch):
    # the rank-2 limits build no basis, so their cap is their own, not the
    # basis bound HARD_Y_BOUND
    ran = []
    monkeypatch.setattr(hilbvertex.cli, "run_check",
                        lambda *a: ran.append(a))
    n = hilbvertex.checks.RANK2_N_MAX + 1
    assert n - 1 > hilbvertex.checks.HARD_Y_BOUND
    for target in ("prop1", "prop4"):
        assert main(["verify", target, "--n", str(n)]) == EXIT_USAGE
    assert ran == []


def test_verify_rank2_limits_at_their_cap():
    n = hilbvertex.checks.RANK2_N_MAX
    assert main(["verify", "prop1", "prop4", "--n", str(n)]) == EXIT_OK


def test_verify_main_at_its_lowest_orders():
    assert main(["verify", "main", "--ymax", "1", "--zmax", "2"]) == EXIT_OK


def test_verify_unknown_target_exit_two():
    assert main(["verify", "nosuch"]) == EXIT_USAGE


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_format_without_out_exit_two(monkeypatch, capsys, fmt):
    # without --out no file is written, so the format would have no effect
    ran = []
    monkeypatch.setattr(hilbvertex.cli, "run_check",
                        lambda *a: ran.append(a))
    assert main(["verify", "ook", "--format", fmt]) == EXIT_USAGE
    assert ran == []
    assert "--format needs --out" in capsys.readouterr().err


def test_vertex_bound_error():
    n = hilbvertex.checks.VERTEX_N_MAX + 1
    assert main(["vertex", "--n", str(n)]) == EXIT_USAGE
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
    ["verify", "--jobs", "2"],
    ["verify", "--conventions", "c.json"],
    ["vertex", "--zmax", "8"],
    ["calibrate", "--conventions", "c.json"],
    ["series", "osum", "--zmax", "3"],
    ["series", "taubar", "--ymax", "2", "--zmax", "3"],
])
def test_subcommand_rejects_flags_it_ignores(argv):
    assert main(argv) == EXIT_USAGE


def test_option_surface():
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(opt for action in sp._actions
                          for opt in action.option_strings
                          if opt not in ("-h", "--help"))
             for name, sp in sub.choices.items()}
    assert flags == {
        "verify": ["--format", "--n", "--orientation", "--out", "--ymax",
                   "--zmax"],
        "series": ["--format", "--out", "--ymax", "--zmax"],
        "vertex": ["--format", "--n", "--out"],
        "calibrate": ["--evidence", "--out"],
    }


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


@pytest.mark.parametrize("argv, code, digest", [
    (["vertex", "--n", "3"], EXIT_OK,
     "b5e91ebd91f94bb6749e905be5adf780d3b859c0452c24e960df395315083d96"),
    (["verify", "kernel", "--ymax", "3", "--orientation", "arms_t2"],
     EXIT_MISMATCH,
     "44533867de1fcb02309205aa0648fb927825341eb94e88077a26ee62028461fa"),
    (["series", "F", "--ymax", "5", "--zmax", "8"], EXIT_OK,
     "8aecc6992f83d278d5574344e756513ebe50f913655c78dd21110e268f8e1e07"),
    (["verify", "prop1", "prop4", "--n", "6"], EXIT_OK,
     "bc14146223ff03ddd096d015dbd1c4b7bf75245145211ed36312ad03f33d4b89"),
    (["vertex", "--n", "1"], EXIT_OK,
     "046027eba883b51380f5d30899647250da516d5db7355d69965b6b15a909b761"),
    (["vertex", "--n", "2"], EXIT_OK,
     "f4901dce10849c2aa67c6ddebca65571347b3c5f0ecf202b04f1d6d960d49fe9"),
    (["vertex", "--n", "4"], EXIT_OK,
     "cc057cd3e0dba5059f336ff99a57062311f9c10820c8b69213fe78183058b132"),
    (["vertex", "--n", "5"], EXIT_OK,
     "7d5ccaf7a8733dfcbbf7406fc7daadc37702b45c4b26b7e77fc8cab964607be9"),
    (["vertex", "--n", "6"], EXIT_OK,
     "f5c4c9a606adcbcbf2f43d78cb588f4ef7a512608ab848906ceddc540cb42e17"),
    (["verify"], EXIT_OK,
     "a7f9127232e2c1b2294c36eaf88dc4d5e74c93ecb42156aabf596e838ca94a50"),
    (["verify", "--format", "csv"], EXIT_OK,
     "46172bb1de4af12317beed9fcb48fc8cf77a138817bd1882320f106dafcf5356"),
    (["verify", "--format", "text"], EXIT_OK,
     "d18fee12e75af0b3abb90a6558e004cdfbde6b4db70fd897e7019c7a37e80295"),
    (["verify", "main", "ook", "--ymax", "5", "--zmax", "8"], EXIT_OK,
     "180f7a4cd8cc787e71bcee2ba28a8da0836a9d4b3156f0286d3fb201f77e5797"),
    (["verify", "rationality", "--n", "4"], EXIT_OK,
     "e33e647c4a03737e38801aed87f0d85623bcf7c96a88800227eb30f3e3d2da08"),
    (["verify", "prop4", "--n", "2"], EXIT_OK,
     "d51ed21a968810abe5b0761d5ae5c3629567b86e93dba673c9b7c6cec68ec94a"),
    (["series", "osum", "--ymax", "6"], EXIT_OK,
     "a3c9afcb9e62b76593eaa3c42c2199fc256b517a5aa03d3998d166a95872a7c9"),
    (["series", "taubar", "--ymax", "6"], EXIT_OK,
     "26e1b004f672e0be03bd8cd708fdc26553265c9ae2021cd0792f6a04d54113df"),
    (["vertex", "--n", "3", "--format", "csv"], EXIT_OK,
     "0639da862c7927a9860507f3edc8c94f3a9d9c91ebec9fa0e5e1351f14d3609a"),
    (["vertex", "--n", "3", "--format", "text"], EXIT_OK,
     "c674f24791c000e85cc7a76ac4ffbd8e292a2d79dc92a75d9b4c9083d188d670"),
    (["vertex", "--n", "0", "--format", "csv"], EXIT_OK,
     "6836fd39ad4ebf7943ed18e2317f99622004a994e5192e144957bf2dc4ffb26e"),
    (["vertex", "--n", "0", "--format", "text"], EXIT_OK,
     "07920ab76f3e95b3fadb9b42c12212a86bb6a759fe4edfda645b0a39edaec9c6"),
    (["series", "F", "--ymax", "4", "--zmax", "5", "--format", "csv"],
     EXIT_OK,
     "4fe4726b57a4e56e0a4882afeb898958f87ddebf6bbadb03a476fc316a824f71"),
    (["series", "F", "--ymax", "4", "--zmax", "5", "--format", "text"],
     EXIT_OK,
     "b30bfd4b386367fad45cce2c1066f2bca48194b3a21b03af8cea1a71de050848"),
    (["series", "osum", "--ymax", "3", "--format", "text"], EXIT_OK,
     "1c8143d82ab27b94627f2236968237a52d4ddcf6aa43ae2ff2e24dd7191899b3"),
    (["series", "F", "--ymax", "0", "--zmax", "3"], EXIT_OK,
     "f91a21fa9b6019abd5731b7f64044b1435f759ebf3cf261cccc154302c5395ce"),
    (["verify", "kernel", "--ymax", "3", "--orientation", "arms_t2",
      "--format", "csv"], EXIT_MISMATCH,
     "2c664f3cd87c11654654ef72a6fbbcfa7e81b4e6f8c48f67c453eb0fbca00721"),
    (["verify", "kernel", "--ymax", "3", "--orientation", "arms_t2",
      "--format", "text"], EXIT_MISMATCH,
     "3bf3bbf57b616af8deb8ace2721f4e9f4011e5d3e71578d13147121e47ed729e"),
    (["calibrate"], EXIT_OK,
     "97c83f1d0424edafae0e22524e9c80743191675ec8fd019823ac315d45caad8e"),
    (["calibrate", "--evidence"], EXIT_OK,
     "e2b2391f51fcfbc9c431999277ec4a2f91ff566fdb3e44c1752be8f9adb27201"),
])
def test_printed_output_is_pinned(tmp_path, argv, code, digest):
    # the printed text of a value must not follow its stored form: a change
    # to how Scalars are stored leaves these files byte for byte the same
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_resource_limit_exit_three(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(hilbvertex.scalar, "MAX_TERMS", 0)
    out = tmp_path / "out"
    assert main(["series", "F", "--ymax", "1", "--zmax", "1",
                 "--out", str(out)]) == EXIT_LIMIT
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.parametrize("argv", [
    ["verify", "kernel", "--ymax", "1"],
    ["series", "taubar", "--ymax", "0"],
    ["vertex", "--n", "0"],
    ["calibrate"],
])
def test_unwritable_out_is_a_config_error(monkeypatch, capsys, tmp_path,
                                          argv):
    # exit 1 would read as a failed check; and the path is refused before
    # any check, table, series or calibration runs
    def ran(*args):
        raise AssertionError("work ran before --out was refused")

    cli = hilbvertex.cli
    for name in ("run_check", "capped_vertex_table", "calibrate"):
        monkeypatch.setattr(cli, name, ran)
    monkeypatch.setitem(cli.SERIES_TARGETS, "taubar", (ran, False))
    (tmp_path / "file").write_text("")
    for parent in ("missing", "file"):
        path = str(tmp_path / parent / "out.json")
        assert main([*argv, "--out", path]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"config error: cannot write {path}" in err


def test_calibrate_idempotent(tmp_path):
    for extra in ([], ["--evidence"]):
        a, b = tmp_path / "c1.json", tmp_path / "c2.json"
        assert main(["calibrate", "--out", str(a), *extra]) == EXIT_OK
        assert main(["calibrate", "--out", str(b), *extra]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
    conv = json.loads(a.read_text())["conventions"]
    assert conv["tangent_orientation"] == "arms_t1"
    assert conv["prop1_a_power"] == "n"
    assert conv["main_matches_printed_claim"] is False


def test_environment_does_not_change_the_output():
    # the flags are the only settings
    argv = ["series", "taubar", "--ymax", "2"]
    plain = run_cli(argv)
    env = run_cli(argv, env_extra={"HILBVERTEX_FORMAT": "csv",
                                   "HILBVERTEX_YMAX": "0"})
    assert plain.returncode == env.returncode == EXIT_OK
    assert env.stdout == plain.stdout
    assert json.loads(plain.stdout)[-1]["y"] == 2


def test_usage_error_exit_code():
    proc = run_cli(["verify", "--ymax", "not-a-number"])
    assert proc.returncode == EXIT_USAGE


def test_verify_and_calibrate_build_each_degree_once(monkeypatch, tmp_path):
    # one basis per process, whatever the orientation
    from hilbvertex import macdonald
    built = []
    hhl = macdonald.macd_H_hhl
    monkeypatch.setattr(macdonald, "_DEFAULT_BASIS", None)
    monkeypatch.setattr(macdonald, "macd_H_hhl",
                        lambda n: built.append(n) or hhl(n))
    assert main(["verify", "kernel", "osum", "mellit", "rationality",
                 "--ymax", "3", "--n", "3",
                 "--orientation", "arms_t2"]) == EXIT_MISMATCH
    assert main(["calibrate", "--out", str(tmp_path / "c.json")]) == EXIT_OK
    assert sorted(built) == [0, 1, 2, 3]
