import io
import json
import os
import subprocess
import sys

import pytest

from kwall.cli import run
from kwall.pairs import parse_curve
from kwall.stability import threshold

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


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

    def test_usage_error(self):
        code, _ = invoke("zariski", "--surface", "f1")
        assert code == 2


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
        assert all(r["verdict"] != "destabilizing" for r in data["reports"])

    def test_threshold_command(self):
        code, text = invoke("threshold", "--surface", "f1", "--curve",
                            "x^3*z^3+x*y^5")
        data = json.loads(text)
        assert code == 0
        assert data["threshold"]["classification"] == "point"
        assert data["threshold"]["lower"] == "2/7"

    def test_curve_error_exit(self):
        code, _ = invoke("threshold", "--surface", "f1", "--curve", "x^5*y")
        assert code == 1

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
            threshold(parse_curve("x^3*z^3+x*y^5", "f1"), bound=5)


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
