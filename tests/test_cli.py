import hashlib
import io
import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from kwall import cli, stability
from kwall.cli import run
from kwall.exactnum import ExactDomainError
from kwall.pairs import CHART_FAMILIES, parse_curve
from kwall.stability import threshold

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def assert_usage_error(capsys, *argv):
    """The command exits 2 with no stdout and one ``error:`` line on stderr."""
    code, out = invoke(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestWallsCommand:
    def test_csv_rows_f1(self):
        code, text = invoke("walls", "--surface", "f1", "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 12  # header + 11 walls
        assert lines[1].startswith("1/14,")
        assert lines[-1].startswith("2/7,")

    def test_json_sets(self):
        code, text = invoke("walls", "--surface", "all")
        assert code == 0
        data = json.loads(text)
        assert data["walls"]["f1"] == [
            "1/14", "5/58", "1/10", "7/62", "1/8", "5/34", "1/6",
            "7/38", "1/5", "5/22", "2/7"]
        assert data["walls"]["blp114"] == ["29/106", "31/110", "2/7", "35/118"]

    def test_audit_extra_flag(self):
        code, text = invoke("walls", "--surface", "blp114", "--audit-extra")
        data = json.loads(text)
        extras = [row["w"] for row in data["audit_extra"]["blp114"]]
        assert extras == ["41/130", "47/142", "59/166"]
        assert "audit_note" in data

    def test_deterministic_output(self):
        first = invoke("walls", "--surface", "f1", "--format", "md")
        second = invoke("walls", "--surface", "f1", "--format", "md")
        assert first == second

    def test_output_bytes_independent_of_hash_seed(self):
        """One fresh process per ``PYTHONHASHSEED`` prints the same bytes for
        the audited wall lists and a threshold, so no output order follows
        the iteration order of a set or a str-keyed dict."""
        commands = [["walls", "--surface", "all", "--audit-extra", "--format", "json"],
                    ["threshold", "--surface", "blp114", "--curve", "z^3+y^4*x^8"]]
        code = ("import json, sys; from kwall.cli import run\n"
                "sys.exit(max(run(argv) for argv in json.loads(sys.argv[1])))")
        outputs = []
        for seed in ("0", "1"):
            env = {k: v for k, v in os.environ.items() if k != "KWALL_ATLAS"}
            env.update(PYTHONPATH=SRC, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                                  capture_output=True, env=env, timeout=300)
            assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b'"audit_extra"') == 1 and b"blp114" in outputs[0]

    def test_approx_rejected(self, capsys):
        code, out = invoke("walls", "--surface", "f1", "--approx", "3")
        assert code == 2 and out == ""
        assert "--approx" in capsys.readouterr().err


class TestSfunCommand:
    def test_engine_equals_formula(self):
        code, text = invoke("sfun", "--chart", "case2-yv", "--a", "2",
                            "--b", "1", "--c", "0")
        data = json.loads(text)
        assert code == 0
        assert data["engine"] == data["closed_form"] == "41/12"
        assert data["match"] is True

    def test_surd_branch_mismatch_noted(self):
        code, text = invoke("sfun", "--chart", "case3p", "--a", "1",
                            "--b", "1", "--c", "0", "--approx", "6")
        data = json.loads(text)
        assert data["match"] is False
        assert "note" in data and data["closed_form"].endswith("*sqrt(3)")

    def test_approx_columns(self):
        code, text = invoke("sfun", "--chart", "case2-yv", "--a", "2",
                            "--b", "1", "--c", "0", "--approx", "6")
        data = json.loads(text)
        assert code == 0
        assert data["engine_approx"] == data["closed_form_approx"]
        assert data["engine_approx"] == "3.416667"

    @pytest.mark.parametrize("a, b", [("0", "1"), ("1", "-2"), ("2", "4"), ("3", "3")])
    def test_bad_weights_usage(self, capsys, a, b):
        assert_usage_error(capsys, "sfun", "--chart", "case3p", "--a", a, "--b", b)


class TestZariskiCommand:
    def test_decomposition(self):
        code, text = invoke("zariski", "--surface", "f1", "--divisor", "1,1")
        data = json.loads(text)
        assert code == 0
        assert data["positive"] == ["1", "0"]
        assert data["negative_support"] == [{"curve": "E", "coefficient": "1"}]

    def test_weighted_model(self):
        code, text = invoke("zariski", "--surface", "f1-case2", "--a", "2",
                            "--b", "1", "--divisor", "7,2,3")
        assert code == 0

    def test_not_pseudoeffective_fails(self):
        code, text = invoke("zariski", "--surface", "f1", "--divisor=-1,0")
        assert code == 1

    @pytest.mark.parametrize("argv,err", [
        (("--surface", "f1-case2", "--a", "2", "--b", "1", "--divisor=-1,0,0"),
         "check failed: f1-case2(2,1): class not pseudo-effective; nef class "
         "perp(Ebar,Lbar) = (1,1/3,1) pairs negatively\n"),
        (("--surface", "index3m", "--divisor=0,-1,0,0"),
         "check failed: index3m: class not pseudo-effective; nef class "
         "perp(F1,E1,E2) = (1/5,1,1,1) pairs negatively\n"),
    ], ids=["f1-case2", "index3m"])
    def test_rejection_names_its_certificate(self, capsys, argv, err):
        """A class that is not pseudo-effective prints its separating nef
        class, label and vector, as the one stderr line of exit 1."""
        assert invoke("zariski", *argv) == (1, "")
        assert capsys.readouterr().err == err

    def test_usage_error(self):
        code, _ = invoke("zariski", "--surface", "f1")
        assert code == 2

    def test_leading_minus_needs_the_equals_form(self, capsys):
        """argparse reads ``-1,0`` after a space as an option; the help
        names the ``--divisor=-1,0`` form that works."""
        assert invoke("zariski", "--surface", "f1", "--divisor", "-1,0") == (2, "")
        assert "expected one argument" in capsys.readouterr().err
        assert invoke("zariski", "--help")[0] == 0
        assert "--divisor=-1,0" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("divisor", ["1/0,1", "x,1", ",1", "1,", "1,1,1", "1"])
    def test_bad_divisor_usage(self, capsys, divisor):
        assert_usage_error(capsys, "zariski", "--surface", "f1", f"--divisor={divisor}")


MODEL_ERRORS = {
    "unknown-id": ["--surface", "nope"],
    "missing-weights": ["--surface", "f1-case1", "--a", "2"],
    "nonpositive-weights": ["--surface", "f1-case2", "--a", "0", "--b", "1"],
    "noncoprime-weights": ["--surface", "blp114-case3p", "--a", "2", "--b", "4"],
}


@pytest.mark.parametrize("case", sorted(MODEL_ERRORS))
@pytest.mark.parametrize("command", ["zariski", "surfaces", "profile"])
def test_bad_model_usage(capsys, command, case):
    argv = list(MODEL_ERRORS[case])
    if command == "surfaces":
        argv[0] = "--id"
    if command == "zariski":
        argv += ["--divisor", "1,1,1"]
    assert_usage_error(capsys, command, *argv)


def test_profile_unknown_divisor_usage(capsys):
    assert_usage_error(capsys, "profile", "--surface", "index3m", "--divisor", "nope")


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_profile_without_default_divisor_usage(capsys, surface):
    assert_usage_error(capsys, "profile", "--surface", surface)


@pytest.mark.parametrize("argv,tau,raw", [
    (["--surface", "index3m", "--divisor", "F1"], "4/3", "64/9"),
    (["--surface", "index3m", "--divisor", "F2"], "20/3", "176/9"),
    (["--surface", "f1-case2", "--a", "1", "--b", "1", "--divisor", "Ebar"], "2", "28/3"),
    (["--surface", "blp114-quotient-res", "--divisor", "H_y"], "6", "53/3"),
], ids=["index3m-F1", "index3m-F2", "f1-case2-Ebar", "blp114-quotient-res-H_y"])
def test_profile_divisor_ends_rational(argv, tau, raw):
    """Profiles whose first segment needs a support generator at t = 0+."""
    code, text = invoke("profile", *argv)
    data = json.loads(text)
    assert code == 0 and (data["tau"], data["raw_integral"]) == (tau, raw)


IGNORED_FLAGS = {
    "sfun-approx-negative": ["sfun", "--chart", "case2-yv", "--a", "2", "--b", "1",
                             "--approx", "-2"],
    "sfun-approx-zero": ["sfun", "--chart", "case2-yv", "--a", "2", "--b", "1",
                         "--approx", "0"],
    "certify-approx-zero": ["certify", "quotient-point", "--c", "1/4", "--approx", "0"],
    # ``approx_str`` renders digits through ``str(int)``, refused past 4300 digits
    "sfun-approx-4301": ["sfun", "--chart", "case2p", "--a", "2", "--b", "11",
                         "--approx", "4301"],
    "certify-approx-4301": ["certify", "quotient-point", "--c", "1/5", "--approx", "4301"],
    "index3-curve": ["certify", "index3", "--c", "1/4", "--curve", "zzz"],
    "index3-ord": ["certify", "index3", "--c", "1/4", "--ord", "2"],
    "curve-and-ord": ["certify", "quotient-point", "--c", "1/4",
                      "--curve", "z^2*x^4+y^4*x^8", "--ord", "2"],
    "surfaces-a-without-id": ["surfaces", "--a", "2"],
    "surfaces-b-without-id": ["surfaces", "--b", "1"],
    "bound-without-grid": ["threshold", "--surface", "f1", "--curve", "x^3*z^3+x*y^5",
                           "--bound", "20"],
    "emit-with-atlas": ["tables", "--emit", "--atlas", "/nonexistent"],
    "emit-csv": ["tables", "--emit", "--format", "csv"],
    "emit-md": ["tables", "--emit", "--format", "md"],
}


@pytest.mark.parametrize("case", sorted(IGNORED_FLAGS))
def test_ignored_flag_usage(capsys, case):
    """A flag the command would accept and then ignore is a usage error: exit 2,
    no stdout, one ``error:`` line (after the usage, when argparse rejects it)."""
    code, out = invoke(*IGNORED_FLAGS[case])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert [line for line in err if "error:" in line] == err[-1:], err


LONG_DIGITS = "1" * 4400  # past the interpreter's 4300-digit limit of int(str)

LONG_ARGUMENTS = {
    "sfun-approx": ["sfun", "--chart", "case2p", "--a", "2", "--b", "11",
                    "--approx", LONG_DIGITS],
    "certify-ord": ["certify", "quotient-point", "--c", "1/4", "--ord", LONG_DIGITS],
    "threshold-bound": ["threshold", "--surface", "f1", "--curve", "x^3*z^3+x*y^5",
                        "--grid", "--bound", LONG_DIGITS],
    "sfun-c": ["sfun", "--chart", "case1p", "--a", "1", "--b", "2", "--c", LONG_DIGITS],
}


@pytest.mark.parametrize("case", sorted(LONG_ARGUMENTS))
def test_long_argument_quoted_by_prefix(capsys, case):
    """A number too long for the interpreter to read is a usage error whose
    one ``error:`` line quotes a prefix and the length, not the whole text."""
    code, out = invoke(*LONG_ARGUMENTS[case])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert [line for line in err if "error:" in line] == err[-1:], err
    assert err[-1].endswith(f": '{LONG_DIGITS[:40]}'... (4400 characters)"), err[-1]
    assert len(err[-1]) < 150


COEFFICIENT_ARGV = {
    "sfun": ["sfun", "--chart", "case1p", "--a", "1", "--b", "2"],
    "beta": ["beta", "--surface", "f1", "--curve", "x^4*z*y"],
    "profile": ["profile", "--surface", "index3m"],
}


@pytest.mark.parametrize("command", sorted(COEFFICIENT_ARGV))
@pytest.mark.parametrize("c", ["7", "3/4", "1/2", "-1/10"])
def test_coefficient_outside_range_usage(capsys, command, c):
    """A boundary coefficient c outside [0, 1/2) is a usage error: exit 2,
    no stdout, one ``error:`` line after the usage."""
    code, out = invoke(*COEFFICIENT_ARGV[command], f"--c={c}")
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert [line for line in err if "error:" in line] == err[-1:], err
    assert err[-1].endswith(f"argument --c: coefficient must lie in [0, 1/2): '{c}'")


@pytest.mark.parametrize("command", sorted(COEFFICIENT_ARGV))
@pytest.mark.parametrize("c", ["0", "1/5", "49/100"])
def test_coefficient_inside_range_accepted(command, c):
    code, text = invoke(*COEFFICIENT_ARGV[command], "--c", c)
    assert code == 0 and json.loads(text)


@pytest.mark.parametrize("kind", ["index3", "quotient-point"])
@pytest.mark.parametrize("c", ["0", "1/2", "2"])
def test_certify_coefficient_outside_open_range_usage(capsys, kind, c):
    """A certificate needs c in (0, 1/2): anything else is a usage error."""
    code, out = invoke("certify", kind, f"--c={c}")
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert [line for line in err if "error:" in line] == err[-1:], err
    assert err[-1].endswith(f"argument --c: coefficient must lie in (0, 1/2): '{c}'")


def test_hkl_imported_only_by_its_command():
    code = "import sys, kwall.cli; print('kwall.hkl' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "False\n"
    assert invoke("hkl", "cone")[0] == 0


class TestBetaThresholdCommands:
    def test_beta_with_weights(self):
        code, text = invoke("beta", "--surface", "blp114", "--curve",
                            "z^3+z^2*x^4", "--weights", "1,0,4",
                            "--c", "29/106")
        data = json.loads(text)
        assert code == 0
        chart_report = data["reports"][0]
        assert chart_report["valuation"] == "case3p(1,4)"
        assert chart_report["verdict"] == "critical"

    def test_beta_degenerate_weights_note(self):
        code, text = invoke("beta", "--surface", "f1", "--curve", "x^4*z*y",
                            "--weights", "1,0,0", "--c", "1/14")
        data = json.loads(text)
        assert code == 0
        assert "toric divisor" in data["note"]
        assert "ray of H_x" in data["note"]
        assert all(r["verdict"] != "destabilizing" for r in data["reports"])

    def test_threshold_command(self):
        code, text = invoke("threshold", "--surface", "f1", "--curve",
                            "x^3*z^3+x*y^5")
        data = json.loads(text)
        assert code == 0
        assert data["threshold"]["classification"] == "point"
        assert data["threshold"]["lower"] == "2/7"

    def test_curve_error_exit(self, capsys):
        """A curve that does not parse, has multiplicity < 2 at the center or
        the wrong degree is bad input: a usage error."""
        for curve in ("x^^3", "x^5*y", "x^4*y^3"):
            assert_usage_error(capsys, "threshold", "--surface", "f1", "--curve", curve)
            assert_usage_error(capsys, "beta", "--surface", "f1", "--curve", curve, "--c", "1/10")

    def test_grid_on_empty_threshold(self):
        plain = invoke("threshold", "--surface", "f1", "--curve", "x^4*y^2")
        code, text = invoke("threshold", "--surface", "f1", "--curve", "x^4*y^2", "--grid")
        data = json.loads(plain[1])
        assert data["threshold"]["classification"] == "empty"
        data["threshold"]["guarantee"] = "kink-complete+grid(30)"
        assert (code, json.loads(text)) == (0, data)

    def test_arithmetic_error_is_a_check_failure(self, monkeypatch, capsys):
        import kwall.cli as cli

        def fail(curve, grid=None):
            raise ArithmeticError("sweep did not terminate")

        monkeypatch.setattr(cli, "threshold", fail)
        code, out = invoke("threshold", "--surface", "f1", "--curve", "x^4*z*y")
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == "check failed: sweep did not terminate\n"

    def test_missing_curve_file_usage(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        code, out = invoke("beta", "--surface", "f1", "--curve", f"@{missing}",
                           "--c", "1/10")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_curve_file_read(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("x^3*z^3+x*y^5\n", encoding="utf-8")
        assert invoke("threshold", "--surface", "f1", "--curve", f"@{path}") \
            == invoke("threshold", "--surface", "f1", "--curve", "x^3*z^3+x*y^5")

    def test_small_bound_usage(self, capsys):
        code, out = invoke("threshold", "--surface", "f1", "--curve",
                           "x^3*z^3+x*y^5", "--bound", "5")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(
            "argument --bound: grid bound must be at least 12")
        # library callers still get the ValueError
        with pytest.raises(ValueError):
            threshold(parse_curve("x^3*z^3+x*y^5", "f1"), grid=5)


class TestHklCommands:
    def test_map(self):
        code, text = invoke("hkl", "map")
        assert code == 0
        data = json.loads(text)
        assert data["match"] is True

    def test_cone(self):
        code, text = invoke("hkl", "cone", "--format", "csv")
        assert code == 0
        assert "5/7" in text

    def test_audit(self):
        code, text = invoke("hkl", "audit")
        assert code == 0
        data = json.loads(text)
        assert len(data["anomalies"]) == 2


def _rewritten_atlas(tmp_path, curve="x^6"):
    """The bundled atlas with every center curve rewritten to ``curve``."""
    _, text = invoke("tables", "--emit")
    data = json.loads(text)
    for branch in data["branches"]:
        branch["curve"] = curve
    path = tmp_path / "rewritten.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestAtlasFlags:
    def test_walls_json_with_atlas_usage(self, tmp_path, capsys):
        """The atlas feeds only the csv/md rows of ``walls``."""
        _, text = invoke("tables", "--emit")
        path = tmp_path / "atlas.json"
        path.write_text(text, encoding="utf-8")
        assert_usage_error(capsys, "walls", "--surface", "f1", "--atlas", str(path))
        assert_usage_error(capsys, "walls", "--surface", "all", "--format", "json",
                           "--atlas", str(path))

    def test_walls_csv_reads_atlas(self, tmp_path):
        _, text = invoke("tables", "--emit")
        path = tmp_path / "atlas.json"
        path.write_text(text, encoding="utf-8")
        assert invoke("walls", "--surface", "f1", "--format", "csv",
                      "--atlas", str(path)) == invoke("walls", "--surface", "f1",
                                                      "--format", "csv")

    @pytest.mark.parametrize("argv", [
        ("walls", "--surface", "f1", "--format", "csv"),
        ("tables", "--check"),
        ("hkl", "map"),
    ])
    def test_unparsable_center_curves_usage(self, tmp_path, capsys, argv):
        path = _rewritten_atlas(tmp_path)
        code, out = invoke(*argv, "--atlas", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: cannot load atlas: branch 0: center curve 'x^6' on f1")
        assert err.count("\n") == 1, err

    def test_bundled_center_curves_parse(self):
        from kwall.atlas import bundled_atlas

        branches = bundled_atlas().branches
        assert len(branches) == 20
        for branch in branches:
            assert parse_curve(branch.curve, branch.surface).surface == branch.surface


class TestTablesCommands:
    def test_emit_check_round_trip(self, tmp_path):
        code, text = invoke("tables", "--emit")
        assert code == 0
        path = tmp_path / "atlas.json"
        path.write_text(text, encoding="utf-8")
        code2, text2 = invoke("tables", "--check", "--atlas", str(path))
        assert code2 == 0
        assert json.loads(text2)["match"] is True

    def test_check_detects_diff(self, tmp_path):
        _, text = invoke("tables", "--emit")
        data = json.loads(text)
        data["branches"][0]["weight"] = [9, 9, 9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = invoke("tables", "--check", "--atlas", str(path))
        assert code == 1
        assert json.loads(out)["diffs"]

    def test_check_without_atlas_usage(self, capsys, monkeypatch):
        """Without --atlas or KWALL_ATLAS there is nothing to compare the
        bundled atlas with."""
        monkeypatch.delenv("KWALL_ATLAS", raising=False)
        assert_usage_error(capsys, "tables", "--check")

    def test_check_reads_environment_atlas(self, tmp_path, monkeypatch):
        _, text = invoke("tables", "--emit")
        path = tmp_path / "atlas.json"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setenv("KWALL_ATLAS", str(path))
        code, out = invoke("tables", "--check")
        assert code == 0 and json.loads(out)["match"] is True

    @pytest.mark.parametrize("text", ["{}", "{not json", "[]",
                                      '{"branches": [{"wall": "1/x"}]}'])
    def test_check_malformed_atlas_usage(self, tmp_path, capsys, text):
        path = tmp_path / "atlas.json"
        path.write_text(text, encoding="utf-8")
        code, out = invoke("tables", "--check", "--atlas", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCertifyProfileSurfaces:
    def test_certify_quotient(self):
        code, text = invoke("certify", "quotient-point", "--c", "1/4",
                            "--approx", "10")
        data = json.loads(text)
        assert code == 0
        assert data["certified_unstable"] is True
        assert data["S"] == "1/3*sqrt(2)"

    def test_certify_with_curve(self):
        code, text = invoke("certify", "quotient-point", "--c", "1/4",
                            "--curve", "z^2*x^4+y^4*x^8")
        assert code == 0

    def test_certify_order_below_one_usage(self, capsys):
        code, out = invoke("certify", "quotient-point", "--ord", "0", "--c", "1/5")
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        assert [line for line in err if "error:" in line] == err[-1:], err
        assert err[-1].endswith("argument --ord: --ord must be at least 1")

    def test_certify_curve_off_the_quarter_point_usage(self, capsys):
        assert_usage_error(capsys, "certify", "quotient-point", "--curve", "z^3+y^2*x^10",
                           "--c", "1/5")

    def test_certify_curve_internal_error_exits_one(self, capsys, monkeypatch):
        """An exact-arithmetic failure inside the certificate of a curve on
        the quarter point is not a usage error: it exits 1 as a failed
        check."""
        def fail(curve, c):
            raise ExactDomainError("sqrt(2) and sqrt(3) lie in different fields")

        monkeypatch.setattr(cli, "quotient_point_certificate", fail)
        code, out = invoke("certify", "quotient-point", "--curve", "z^2*x^4+y^4*x^8",
                           "--c", "1/5")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err == "check failed: sqrt(2) and sqrt(3) lie in different fields\n"

    def test_violated_invariant_is_a_failed_check(self, capsys, monkeypatch):
        """An ``ExactDomainError`` that reaches ``cli.run`` from a command is
        a violated invariant: one ``check failed:`` line, exit 1, no
        traceback, nothing on stdout."""
        def fail(args, out):
            raise ExactDomainError("f1: profile origin class is not nef")

        monkeypatch.setattr(cli, "_cmd_profile", fail)
        assert invoke("profile", "--surface", "index3m") == (1, "")
        assert capsys.readouterr().err == "check failed: f1: profile origin class is not nef\n"

    @pytest.mark.parametrize("kind", ["index3", "quotient-point"])
    def test_certificate_self_check_failure(self, capsys, monkeypatch, kind):
        """A certificate whose exact self-check fails (here on a wrong profile)
        reports one ``check failed:`` line and exits 1, with no traceback."""
        wrong = types.SimpleNamespace(s0=Fraction(0), tau=Fraction(1))
        monkeypatch.setattr(stability, "volume_profile", lambda model: wrong)
        code, out = invoke("certify", kind, "--c", "1/5")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("check failed: ") and err.count("\n") == 1, err

    def test_certificate_self_check_survives_optimize(self):
        """``python -O`` strips asserts, not the certificate's self-check."""
        code = ("import types, fractions, sys; from kwall import stability, cli; "
                "stability.volume_profile = lambda model: types.SimpleNamespace("
                "s0=fractions.Fraction(0), tau=fractions.Fraction(1)); "
                "sys.exit(cli.run(['certify', 'index3', '--c', '1/5']))")
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("check failed: ") and proc.stderr.count("\n") == 1

    def test_profile_command(self):
        code, text = invoke("profile", "--surface", "index3m", "--c", "0")
        data = json.loads(text)
        assert code == 0
        assert data["tau"] == "4/3"
        assert data["raw_integral"] == "64/9"

    def test_surfaces_emission(self):
        code, text = invoke("surfaces", "--id", "f1-case2", "--a", "2", "--b", "1")
        data = json.loads(text)
        assert code == 0
        gram = data["surfaces"][0]["gram"]
        assert gram[0] == ["-1/2", "1", "1/2"]

    def test_surfaces_all(self):
        code, text = invoke("surfaces", "--format", "csv")
        assert code == 0
        assert "index3m" in text

    def test_unknown_subcommand_usage(self):
        code, _ = invoke("nonsense")
        assert code == 2

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "kwall.cli", "surfaces"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == invoke("surfaces")[1]
        assert "index3m" in proc.stdout


# SHA-256 of stdout and the exit code of CLI outputs that the benchmark's
# digests do not cover; any change to one of these outputs must be deliberate
OUTPUT_DIGESTS = {
    "sfun --chart case1-010 --a 1 --b 1 --c 0 --approx 10":
        (0, "1b737e2374eb28f99d2b55071d738000f0dcc7223ec8a2937340d014bd893d56"),
    "sfun --chart case1-010 --a 1 --b 1 --c 1/7 --approx 10":
        (0, "e610f49dae1a9511d05a7d7240437bde1c1377c47abbf11e28c87c3503052f63"),
    "sfun --chart case1-010 --a 2 --b 1 --c 0 --approx 10":
        (0, "0694dab7cc3e387cf650ef0fef55cd2a0dfce53c063beeec937573f30bb9fcc5"),
    "sfun --chart case1-010 --a 2 --b 1 --c 1/7 --approx 10":
        (0, "a5e65a802c21658be7ff9c9f3843c3e998062d29a2bca482fa1facccf27f771a"),
    "sfun --chart case1-010 --a 1 --b 5 --c 0 --approx 10":
        (0, "35e9514218075664ba3fb5dbcc8be655caa97e13fce51ff23616b19a4179240a"),
    "sfun --chart case1-010 --a 1 --b 5 --c 1/7 --approx 10":
        (0, "ed81a13860ba4e84652ff8bbdf77a7c8c1f6f24fc90b82a94f077550320ca444"),
    "sfun --chart case1-001 --a 1 --b 1 --c 0 --approx 10":
        (0, "59676e5fe5f97a6fed480a79e6fe690f6d3f44ce34fbd15c2b438bc06453de5f"),
    "sfun --chart case1-001 --a 1 --b 1 --c 1/7 --approx 10":
        (0, "1a21d7e344f9e9448fd1a4d3eee862a784788d68d6c0e7ef15a09b89ec965cd4"),
    "sfun --chart case1-001 --a 2 --b 1 --c 0 --approx 10":
        (0, "f09008ed8a94fac27ec0b9c7aea02d4eaecab2d20605087752ae38877473c658"),
    "sfun --chart case1-001 --a 2 --b 1 --c 1/7 --approx 10":
        (0, "5d54e0bcfffdedfaac9acc94b973c95b9a1e06b4f3788f1e867a23be2906979f"),
    "sfun --chart case1-001 --a 1 --b 5 --c 0 --approx 10":
        (0, "d193c543e99cd3eabef392932dc01ccc02116fe45fb97b96d1da188928a04bd4"),
    "sfun --chart case1-001 --a 1 --b 5 --c 1/7 --approx 10":
        (0, "5460734361e43891817b103958c70924704b0befced8a4a87e949abbb01314d6"),
    "sfun --chart case2-zu --a 1 --b 1 --c 0 --approx 10":
        (0, "9c41f30a0efc2323a8ce42d289ca94fb8e5c61f33c66297f9cf768bbd1ad6aaf"),
    "sfun --chart case2-zu --a 1 --b 1 --c 1/7 --approx 10":
        (0, "87266d60f02f87e90c63ae175bd66647b21c09521f50fd12273d2671c8657478"),
    "sfun --chart case2-zu --a 2 --b 1 --c 0 --approx 10":
        (0, "b80cfc959b89d979ea6f4e32b508459328a76ed218fcfe15022d1c454b1f67b9"),
    "sfun --chart case2-zu --a 2 --b 1 --c 1/7 --approx 10":
        (0, "01c8f940242e96cae893f9b74b42a6f6d2dbaf89ed97e84db80af8c7ed2a86d3"),
    "sfun --chart case2-zu --a 1 --b 5 --c 0 --approx 10":
        (0, "bcdfed40a7f05e1448717c8554cd30d740fb7408d899b4aeb10a00416b27372d"),
    "sfun --chart case2-zu --a 1 --b 5 --c 1/7 --approx 10":
        (0, "7584db093a55bccc470d75cfabcb9235cd4dfeeb0921981bd2983f053075400b"),
    "sfun --chart case2-yv --a 1 --b 1 --c 0 --approx 10":
        (0, "9d1bd5bb7fd310e6d6aa78a50940ee4ccad1c6552046d6f2274b6f6993ec7115"),
    "sfun --chart case2-yv --a 1 --b 1 --c 1/7 --approx 10":
        (0, "85865e5ef21311cef8e727f2410c250eff08c0b7898a8fd9612cc23065b31449"),
    "sfun --chart case2-yv --a 2 --b 1 --c 0 --approx 10":
        (0, "a24dcc1d2a4a0ef6a929f7b8d675a9179ccc90ad2fa0d524dcd7a2d12fd5e246"),
    "sfun --chart case2-yv --a 2 --b 1 --c 1/7 --approx 10":
        (0, "db9ae24d09f202a54264ba2959d08e003078f3931220b9193ffaca3d3fb828c3"),
    "sfun --chart case2-yv --a 1 --b 5 --c 0 --approx 10":
        (0, "2995091ca93aa8e7b87e8cd893a00315f63a97a88410f18f3969cdb698125f99"),
    "sfun --chart case2-yv --a 1 --b 5 --c 1/7 --approx 10":
        (0, "6148c23bdb8cb8126b292723cb3f6b45e84e90a40d324e32f2ef3b66906c68fa"),
    "sfun --chart case1p --a 1 --b 1 --c 0 --approx 10":
        (0, "4d8c1dbfc559473aa2fb4c2797963d710499062c648b3edd2898f6bfb384cfef"),
    "sfun --chart case1p --a 1 --b 1 --c 1/7 --approx 10":
        (0, "91261786e029ee682ca9017a05f2cc364f6170dcd197f7d3f936275832c468e6"),
    "sfun --chart case1p --a 2 --b 1 --c 0 --approx 10":
        (0, "dee83369113069d7ed3af942e90fe4bc71d33cd23ac34ae0ba5389b1efbbec91"),
    "sfun --chart case1p --a 2 --b 1 --c 1/7 --approx 10":
        (0, "9a6e9e9dcc1b374be3e304fc27a7e1f238f4275e577a1f7bc9300f9713b6210c"),
    "sfun --chart case1p --a 1 --b 5 --c 0 --approx 10":
        (0, "d593d79972e3c798b671f351af039cda65089704ca2a35aa3331031909b3577f"),
    "sfun --chart case1p --a 1 --b 5 --c 1/7 --approx 10":
        (0, "024d4551f821d4f81c3fa2ca10786225f73f33dd14bd481ebd6859985214e238"),
    "sfun --chart case2p --a 1 --b 1 --c 0 --approx 10":
        (0, "53a661f31b19c0c984f057b60d3754abdabedd9e5fe212923b30d8261255af9b"),
    "sfun --chart case2p --a 1 --b 1 --c 1/7 --approx 10":
        (0, "9157a78c62cebf4e675e1ffec3e3065694b9d7c6ca8f4ebc75e0c607fe1a14b5"),
    "sfun --chart case2p --a 2 --b 1 --c 0 --approx 10":
        (0, "94c307058c4362f1a932cc1fda2aa77bb0d9675314b15a161194d1b5a9eaa7aa"),
    "sfun --chart case2p --a 2 --b 1 --c 1/7 --approx 10":
        (0, "85ad94004c48080f3581007979ad1f8428b39a4114663730a0c91118475228c8"),
    "sfun --chart case2p --a 1 --b 5 --c 0 --approx 10":
        (0, "a0fc366e52ae26d4a2b2cb69378e254be02ab2a075655dfaec9f3adc353d0694"),
    "sfun --chart case2p --a 1 --b 5 --c 1/7 --approx 10":
        (0, "dc6da33a210d8cd01bdb17b52bc15e3a2d59c15c7cac3a561cb94ca59e69b042"),
    "sfun --chart case3p --a 1 --b 1 --c 0 --approx 10":
        (0, "439da27ce72a2a5eeb1856960e5f79eba32c2be05baf73ff19b89a792423a9e6"),
    "sfun --chart case3p --a 1 --b 1 --c 1/7 --approx 10":
        (0, "1fc046916cc031ae7d448f6418f5f508b0b90bf382b95513515bffa5b244e9eb"),
    "sfun --chart case3p --a 2 --b 1 --c 0 --approx 10":
        (0, "082413946f2e95b602c1bb547ec73590be7d214f18118b2a8ccb10faf70cbbc9"),
    "sfun --chart case3p --a 2 --b 1 --c 1/7 --approx 10":
        (0, "78090cf759a173f91cafb33045fee5deb1c45d3c567ad191efe217b3e33f5cf4"),
    "sfun --chart case3p --a 1 --b 5 --c 0 --approx 10":
        (0, "8118faea032f75a4692a813fae60ae768bef753f3a2f6f12e591ba9dbc628642"),
    "sfun --chart case3p --a 1 --b 5 --c 1/7 --approx 10":
        (0, "2de70fcd67273df05fdf47b484af15583be2d7a54fa711af873ca6b1cf58161b"),
    "surfaces":
        (0, "074c81325378f86a65812fd72fe23d9e3c57a10b8d41f80ad674b467cac93ab8"),
    "surfaces --format csv":
        (0, "8f048980ae6119e9582a2b264137c39744908240431c8d18fd007bca25d7a0f9"),
    "profile --surface index3m":
        (0, "60e913ef1d80e6da646a3b1b6cba7d8f7133f4336513ac7d0481e268b48a5988"),
    "profile --surface blp114-quotient-res":
        (0, "f464662ef0680c3ebbcb89e30085ee24183fc0f6417c61220c3bc83d414c6f29"),
    "profile --surface f1 --divisor E --c 1/5":
        (0, "65a5913f5ade9f25b86bca29f7eebf3ad1e113c3349d1253d687090998a96728"),
    "certify index3 --c 1/4":
        (0, "77df1c1bad1e59ad7276d6bad29709863e54d0f3df745beab3af13a293a1b789"),
    "certify quotient-point --c 1/4 --curve z^2*x^4+y^4*x^8":
        (0, "06e83c5640ed2c82afc4c0031d34d73107fc43d613573a10567131d38f03b14f"),
    "zariski --surface f1-case2 --a 2 --b 1 --divisor 7,2,3":
        (0, "bd13b30ae7ae5138bcbb4d10cf26aacb22ee058628d2c1abf04e13cb2447c3e7"),
    "zariski --surface f1-case2 --a 2 --b 1 --divisor 7,4,3":  # negative part 5/3 Ebar
        (0, "178eac5ba14f85e145240e61833aac1afb85b2f1ca60a3e7dbbbf3fe4a9431a7"),
    "zariski --surface f1-case2 --a 2 --b 1 --divisor=-1,0,0":  # not pseudo-effective
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "zariski --surface index3m --divisor=0,-1,0,0":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hkl map":
        (0, "22bf00994ec118f8eb615c3623df60ffa586c310a1d7b2ca194be791dbc20b98"),
    "hkl cone":
        (0, "571b3d1c39320133b53cfe1e3bffeaba03013f458c32aacb867f98580ee90d27"),
    "hkl audit":
        (0, "2dd1ee04fa93bb678bd6d2a23200990b9556c5459708b7f808a7f88f4c9b9cee"),
    "tables --emit":
        (0, "3af06c91732aaff3c835dba4921d43a162142532c3aab4796d5d716d6bc379de"),
    "beta --surface f1 --curve x^4*z^2+x^3*y^3 --weights 0,2,3 --c 5/58":
        (0, "122dcd5af9a52bb1994845a0a439c023dee19695229ca48577ded0a3b63d5f47"),
    "beta --surface blp114 --curve z^3+z^2*x^4 --weights 1,0,4 --c 29/106":
        (0, "1d2e5789a6005f9153375d41f2d36274cdf14dc2a123676d01e8ba603b06a18f"),
}


def _digest_commands():
    for tag in CHART_FAMILIES:
        for a, b in ((1, 1), (2, 1), (1, 5)):
            for c in ("0", "1/7"):
                yield ["sfun", "--chart", tag, "--a", str(a), "--b", str(b),
                       "--c", c, "--approx", "10"]
    yield from (
        ["surfaces"], ["surfaces", "--format", "csv"],
        ["profile", "--surface", "index3m"],
        ["profile", "--surface", "blp114-quotient-res"],
        ["profile", "--surface", "f1", "--divisor", "E", "--c", "1/5"],
        ["certify", "index3", "--c", "1/4"],
        ["certify", "quotient-point", "--c", "1/4", "--curve", "z^2*x^4+y^4*x^8"],
        ["zariski", "--surface", "f1-case2", "--a", "2", "--b", "1", "--divisor", "7,2,3"],
        ["zariski", "--surface", "f1-case2", "--a", "2", "--b", "1", "--divisor", "7,4,3"],
        ["zariski", "--surface", "f1-case2", "--a", "2", "--b", "1", "--divisor=-1,0,0"],
        ["zariski", "--surface", "index3m", "--divisor=0,-1,0,0"],
        ["hkl", "map"], ["hkl", "cone"], ["hkl", "audit"],
        ["tables", "--emit"],
        ["beta", "--surface", "f1", "--curve", "x^4*z^2+x^3*y^3",
         "--weights", "0,2,3", "--c", "5/58"],
        ["beta", "--surface", "blp114", "--curve", "z^3+z^2*x^4",
         "--weights", "1,0,4", "--c", "29/106"])


def test_output_digests():
    """Every pinned command prints the same bytes with the same exit code."""
    seen = {}
    for argv in _digest_commands():
        code, text = invoke(*argv)
        seen[" ".join(argv)] = (code, hashlib.sha256(text.encode()).hexdigest())
    assert seen == OUTPUT_DIGESTS


# ---------------------------------------------------------------------------
# exit-code contract over seeded structured argvs


def _fuzz_argvs(rng, files, count=300):
    """``count`` seeded ``(argv, bad)`` pairs, the ten subcommands in turn.  A
    subcommand is a list of ``(good, bad, required)`` entries, each value a
    list of words that belong together (a surface and its curve, a model and
    its weights).  Two in five argvs take good values only; the rest take one
    entry from its bad pool (``bad`` is then True), or leave it out when that
    pool is empty."""
    def opts(name, values):
        return [[name, v] for v in values]

    curves = {"f1": ["x^4*z^2+x^3*y^3", "x^4*z*y", "x^3*z^3+x*y^5", "@" + files["curve"]],
              "blp114": ["z^3+z^2*x^4", "z^2*x^4+y^4*x^8", "z^2*x^4+z*y^4*x^4+y^4*x^8"]}
    bad_curves = ["zzz", "", "x^", "x^^3", "x^5*y", "x^6", "z^7", "@" + files["missing"]]
    pair = ([["--surface", s, "--curve", c] for s, cs in curves.items() for c in cs],
            [["--surface", "f1", "--curve", c] for c in bad_curves]
            + [["--surface", "blp114", "--curve", "x^6"], ["--surface", "nope", "--curve", "x^6"],
               ["--surface", "f1"], ["--curve", "x^6"]], True)
    weighted = [("f1-case1", 2, 1), ("f1-case2", 1, 3), ("blp114-case3p", 1, 3)]
    fixed = ["f1", "blp114", "index3m", "blp114-quotient-res"]

    def model(flag):
        good = [[flag, m] for m in fixed] + [[flag, m, "--a", str(a), "--b", str(b)]
                                             for m, a, b in weighted]
        bad = [[flag, "nope"], [flag, "f1", "--a", "2"], [flag, "f1-case1"],
               [flag, "f1-case1", "--a", "0", "--b", "1"],
               [flag, "f1-case1", "--a", "x", "--b", "1"],
               [flag, "blp114-case3p", "--a", "2", "--b", "4"]]
        return good, bad, True

    ranked = [(fixed, 2), (["index3m"], 4), (["blp114-quotient-res"], 3)]
    divisors = [[m, f"--divisor={d}"] for ms, n in ranked for m in ms[:2]
                for d in (",".join(["1"] * n), ",".join(["-1"] + ["0"] * (n - 1)))]
    atlas = (opts("--atlas", [files["atlas"], files["short_atlas"]]),
             opts("--atlas", [files["bad_atlas"], files["missing"]]), False)
    approx = (opts("--approx", ["3", "12"]), opts("--approx", ["0", "-1", "1000000", "4301"]),
              False)
    c_good, c_bad = ["0", "1/5", "1/4", "5/58"], ["1/2", "-1/10", "7", "c", "1/0"]
    small = ["1", "2", "3", "5"], ["0", "-1", "x"]
    specs = {
        "walls": [(opts("--surface", ["f1", "blp114", "all"]), opts("--surface", ["k3"]), False),
                  ([["--audit-extra"]], [], False), atlas],
        "sfun": [(opts("--chart", list(CHART_FAMILIES)), opts("--chart", ["nope"]), True),
                 (opts("--a", small[0]), opts("--a", small[1]), True),
                 (opts("--b", small[0]), opts("--b", small[1]), True),
                 (opts("--c", c_good), opts("--c", c_bad), False), approx],
        "zariski": [([["--surface", *d] for d in divisors],
                     [["--surface", "f1", "--divisor=1,2,3"], ["--surface", "f1", "--divisor=x,1"],
                      ["--surface", "nope", "--divisor=1,0"], ["--surface", "f1"]], True)],
        "beta": [pair, (opts("--weights", ["0,2,3", "1,0,4", "1,1,1", "0,0,0"]),
                        opts("--weights", ["1,2", "a,b,c"]), False),
                 (opts("--c", c_good), opts("--c", c_bad), True)],
        "threshold": [pair, ([], opts("--bound", ["12", "11"]), False)],
        "hkl": [([["map"], ["cone"], ["audit"]], [["nope"], []], True), atlas],
        "tables": [([["--emit"], ["--check"]], [[], ["--emit", "--check"]], True), atlas],
        "certify": [([["index3"], ["quotient-point"], ["quotient-point", "--ord", "2"]]
                     + [["quotient-point", "--curve", c] for c in curves["blp114"][1:]],
                     [["nope"], ["index3", "--ord", "2"], ["quotient-point", "--ord", "0"],
                      ["quotient-point", "--ord", "x"]]
                     + [["quotient-point", "--curve", c] for c in [curves["blp114"][0], *bad_curves]],
                     True),
                    (opts("--c", ["1/5", "1/4", "29/106"]), opts("--c", ["0", *c_bad]), True),
                    approx],
        "surfaces": [model("--id")[:2] + (False,)],
        "profile": [model("--surface"),
                    (opts("--divisor", ["E", "F1", "H_y", "Ebar"]), opts("--divisor", ["nope"]),
                     False),
                    (opts("--c", c_good), opts("--c", c_bad), False)],
    }
    formats = (opts("--format", ["json", "csv", "md"]), opts("--format", ["xml"]), False)
    names = sorted(specs)
    for k in range(count):
        name = names[k % len(names)]
        spec = specs[name] + [formats]
        fault = rng.randrange(len(spec)) if rng.random() < 0.6 else None
        argv, faulted = [name], False
        for idx, (good, bad, required) in enumerate(spec):
            if idx == fault:
                faulted = bool(bad)
                argv += rng.choice(bad) if bad else []
            elif good and (required or rng.random() < 0.5):
                argv += rng.choice(good)
        yield argv, faulted


def test_exit_code_contract_fuzz(tmp_path, monkeypatch, capsys):
    """No argv lets an exception escape ``run``; the exit code is 0, 1 or 2,
    and 2 whenever a bad value was drawn; exit 2 prints nothing on stdout.
    A nonzero exit prints exactly one stderr line besides argparse's usage
    block, except a check whose report is its output (``tables --check``,
    ``hkl``): that exits 1 with the report on stdout and a silent stderr."""
    monkeypatch.delenv("KWALL_ATLAS", raising=False)
    files = {name: str(tmp_path / name)
             for name in ("curve", "atlas", "short_atlas", "bad_atlas", "missing")}
    atlas = json.loads(cli.bundled_atlas().dumps())
    with open(files["atlas"], "w", encoding="utf-8") as fh:
        json.dump(atlas, fh)
    atlas["branches"].pop()  # ``tables --check`` reports it missing: exit 1
    with open(files["short_atlas"], "w", encoding="utf-8") as fh:
        json.dump(atlas, fh)
    with open(files["bad_atlas"], "w", encoding="utf-8") as fh:
        fh.write('{"branches": [{"surface": "f1"}]}')
    with open(files["curve"], "w", encoding="utf-8") as fh:
        fh.write("x^4*z^2+x*y^5\n")
    seen = {0: 0, 1: 0, 2: 0}
    for argv, bad in _fuzz_argvs(random.Random(24), files):
        out = io.StringIO()
        code = run(argv, out=out)
        captured = capsys.readouterr()
        assert code in seen and (code == 2 or not bad), (argv, code, captured.err)
        seen[code] += 1
        if code == 2:
            assert out.getvalue() == "" and captured.out == "", argv
        if code:
            err = captured.err.splitlines()
            if err and err[0].startswith("usage: "):
                err = [line for line in err[1:] if not line.startswith(" ")]
            reported = code == 1 and out.getvalue() != ""
            assert len(err) == (0 if reported else 1), (argv, captured.err)
    assert min(seen.values()) > 5, seen
