import json

import pytest

from canring.cli import canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_235_table(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--alphas", "-1/2,1/3,1/5", "--max-degree", "30", "--json"
        )
        assert code == 0
        report = json.loads(out)
        dims = {row["d"]: row["dim"] for row in report["dims"]}
        assert all(dims[d] == 0 for d in range(1, 6))
        assert dims[6] == 1
        assert dims[30] == 2

    def test_one_point_formula(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--alphas", "13/5", "--max-degree", "5", "--json"
        )
        rows = {r["d"]: r["dim"] for r in json.loads(out)["dims"]}
        assert [rows[d] for d in range(6)] == [1, 3, 6, 8, 11, 14]

    def test_negative_degree_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--alphas", "-1/2,1/4", "--max-degree", "8", "--json"
        )
        rows = {r["d"]: r["dim"] for r in json.loads(out)["dims"]}
        assert rows[0] == 1
        assert all(rows[d] == 0 for d in range(1, 9))


class TestTwopoint:
    def test_13_5_quarter(self, capsys):
        code, out, _ = run(
            capsys, "twopoint", "--alphas", "13/5,-1/4", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["generators"] == [
            [4, 1], [3, 1], [2, 1], [1, 1], [1, 2], [2, 5], [5, 13]
        ]
        assert len(report["relations"]) == 15

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "twopoint", "--alphas", "1/4,-1/2", "--json")
        assert code == 0
        assert json.loads(out)["trivial"] is True

    def test_rejects_three_points(self, capsys):
        code, _, err = run(capsys, "twopoint", "--alphas", "1/2,1/3,1/5")
        assert code == 1
        assert "at most 2" in err


class TestGens:
    def test_235(self, capsys):
        code, out, _ = run(
            capsys, "gens", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert sorted(g["degree"] for g in report["generators"]) == [6, 10, 15]

    def test_pretty_output(self, capsys):
        code, out, _ = run(
            capsys, "gens", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1"
        )
        assert code == 0
        assert "3 generators" in out


class TestRelsAndGroebner:
    def test_rels_235(self, capsys):
        code, out, _ = run(
            capsys, "rels", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1", "--json"
        )
        report = json.loads(out)
        assert report["relations"] == [{"degree": 30, "support_size": 3}]

    def test_rels_pretty_coefficients(self, capsys):
        # rational points: sections keep their rational coordinates, so the
        # printed coefficients are those of the monic factors (t - p_i)
        code, out, _ = run(
            capsys, "rels", "--alphas=-1/2,1/3,1/5", "--points", "1/2,-3/4,5/3"
        )
        assert code == 0
        assert "  degree   30: (-150/203)*x1^5 + (-20/29)*x2^3 + (10/7)*x3^2\n" in out

    def test_groebner_235(self, capsys):
        code, out, _ = run(
            capsys,
            "groebner", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1", "--json",
        )
        report = json.loads(out)
        assert report["groebner"]["leading_terms"] == [[0, 0, 2]]
        assert report["groebner"]["truncation"] == 62


class TestScan:
    def test_stable_scan_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--alphas", "2,0,0", "--configs", "3",
            "--chars", "0,2", "--seed", "5", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["stable"] is True
        assert report["seed"] == 5

    def test_same_seed_identical_reports(self, capsys):
        argv = [
            "scan", "--alphas", "2,0,0,0", "--configs", "2",
            "--chars", "0,3", "--seed", "11", "--json",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert code1 == code2 == 0

    def test_relations_flag_reports_conjecture_data(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--alphas", "-1/2,1/3,1/5", "--configs", "2",
            "--chars", "0", "--seed", "2", "--relations",
            "--truncation", "35", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["relation_degrees_agree"] is True
        for run_entry in report["runs"]:
            if not run_entry["skipped"]:
                assert run_entry["relations"] == [{"degree": 30, "support_size": 3}]

    def test_no_evaluated_configuration_is_an_error(self, capsys):
        # the only configuration collides in characteristic 2
        code, out, err = run(
            capsys,
            "scan", "--alphas=1/2,1/2", "--points", "0,2", "--char", "2",
            "--configs", "0",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_planted_unstable_config_exit_two(self, capsys):
        # chords divisor with its concurrent configuration planted via --points
        code, out, _ = run(
            capsys,
            "scan",
            "--alphas", "-1/2,-1/2,1/3,1/3,1/5,1/5",
            "--points", "0,1,2,3,4,9/5",
            "--configs", "2",
            "--chars", "0",
            "--seed", "3",
            "--json",
        )
        assert code == 2
        report = json.loads(out)
        assert report["stable"] is False


class TestOracle:
    def test_match(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1",
            "--max-degree", "35",
        )
        assert code == 0
        assert out.strip() == "MATCH"

    @pytest.mark.parametrize("window", ["0", "1"])
    def test_window_that_compares_nothing_is_an_error(self, capsys, window):
        code, out, err = run(
            capsys,
            "oracle", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1",
            "--max-degree", window,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestPlumbing:
    def test_json_roundtrip_byte_identical(self, capsys):
        code, out, _ = run(
            capsys, "gens", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1", "--json"
        )
        text = out.strip()
        assert canonical_json(json.loads(text)) == text
        assert "." not in json.dumps(json.loads(text))  # no floats anywhere

    def test_divisor_file_input(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps(
                {"points": ["inf", "0", "1"], "alphas": ["-1/2", "1/3", "1/5"], "char": 7}
            )
        )
        code, out, _ = run(capsys, "gens", "--divisor", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["char"] == 7
        assert sorted(g["degree"] for g in report["generators"]) == [6, 10, 15]

    def test_input_error_exit_one(self, capsys):
        code, _, err = run(capsys, "gens", "--alphas", "1/2", "--points", "0,1")
        assert code == 1
        assert "error" in err

    def test_composite_characteristic_rejected(self, capsys):
        code, _, err = run(capsys, "gens", "--alphas", "1/2", "--char", "6")
        assert code == 1
        assert "prime" in err

    def test_bad_flag_exit_one(self, capsys):
        assert main(["gens", "--bogus"]) == 1

    def test_non_integer_chars_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--alphas=-1/2,1/3,1/5", "--chars", "x")
        assert code == 1
        assert "error:" in err and "--chars" in err

    def test_negative_max_degree_rejected(self, capsys):
        code, out, err = run(capsys, "dims", "--alphas", "1/2", "--max-degree", "-1")
        assert (code, out) == (1, "")
        assert "error:" in err and "--max-degree" in err

    def test_negative_truncation_rejected(self, capsys):
        code, out, err = run(
            capsys, "rels", "--alphas=-1/2,1/3,1/5", "--truncation", "-2", "--json"
        )
        assert (code, out) == (1, "")
        assert "error:" in err and "--truncation" in err

    def test_negative_configs_rejected(self, capsys):
        code, out, err = run(
            capsys, "scan", "--alphas", "2,0,0", "--configs", "-1", "--json"
        )
        assert (code, out) == (1, "")
        assert "error:" in err and "--configs" in err

    def test_missing_divisor_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run(capsys, "gens", "--divisor", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read divisor file") and str(path) in err

    def test_malformed_divisor_file(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "gens", "--divisor", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path} is not a JSON file")

    def test_boolean_coefficient_rejected(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"points": ["0", "1"], "alphas": [true, "1/3"]}')
        code, out, err = run(capsys, "gens", "--divisor", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed point or coefficient")

    def test_unwritable_output(self, capsys, tmp_path):
        path = tmp_path / "absent" / "x"
        code, out, err = run(capsys, "gens", "--alphas=1/2,1/3", "--output", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write report") and str(path) in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "dims", "--alphas", "1/2", "--max-degree", "4",
            "--json", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["dims"][0] == {"d": 0, "dim": 1}
