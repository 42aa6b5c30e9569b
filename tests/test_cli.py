import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import canring
from canring import cli, presentation
from canring.cli import canonical_json, main
from canring.divisor import divisor_to_json


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

    def test_plain_report(self, capsys):
        code, out, err = run(
            capsys, "dims", "--alphas=-1/2,1/3,1/5", "--points", "inf,0,1", "--max-degree", "7"
        )
        assert (code, err) == (0, "")
        assert out == (
            "graded dimensions of QDivisor(-1/2*(inf), 1/3*(0), 1/5*(1))\n"
            + "".join(f"  d={d:4d}  dim={int(d in (0, 6))}\n" for d in range(8))
        )

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

    def test_plain_report(self, capsys):
        code, out, _ = run(capsys, "twopoint", "--alphas", "5/3,-1/2")
        assert code == 0
        assert out == (
            "two-point ring for alpha=5/3, beta=-1/2\n"
            "  4 generators f_-1..f_2 (degree, exponent):\n"
            "    f_-1 = t^1 u^2\n"
            "    f_0 = t^1 u^1\n"
            "    f_1 = t^3 u^2\n"
            "    f_2 = t^5 u^3\n"
            "  3 relations:\n"
            "    f_-1 f_1 = f_0^4\n"
            "    f_-1 f_2 = f_0^3 f_1^1\n"
            "    f_0 f_2 = f_1^2\n"
        )

    def test_plain_trivial(self, capsys):
        code, out, _ = run(capsys, "twopoint", "--alphas", "1/4,-1/2")
        assert (code, out) == (0, "degree -1/4 < 0: the ring is trivial (constants only)\n")

    def test_rejects_three_points(self, capsys):
        code, _, err = run(capsys, "twopoint", "--alphas", "1/2,1/3,1/5")
        assert code == 1
        assert "at most 2" in err

    def test_plain_free_ring(self, capsys):
        code, out, err = run(capsys, "twopoint", "--alphas=1/2")
        assert (code, err) == (0, "")
        assert out == (
            "two-point ring for alpha=1/2, beta=0\n"
            "  2 generators f_0..f_1 (degree, exponent):\n"
            "    f_0 = t^0 u^1\n"
            "    f_1 = t^1 u^2\n"
            "  0 relations:\n"
            "  (free polynomial ring)\n"
        )


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


class TestInputChecks:
    """Malformed coefficients and characteristics are refused with a
    one-line error and exit code 1, before any engine work."""

    @pytest.mark.parametrize("alphas", ["x/2", "1/0"])
    def test_not_a_rational_number(self, capsys, alphas):
        code, out, err = run(capsys, "gens", f"--alphas={alphas}")
        assert (code, out) == (1, "")
        assert err == f"error: not a rational number: '{alphas}'\n"

    @pytest.mark.parametrize(
        "char",
        [
            1,
            2501,  # 41 * 61: no factor <= 37, and 2500 = 2^2 * 625
            3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
        ],
    )
    def test_rejects_composite_characteristic(self, capsys, char):
        code, out, err = run(capsys, "gens", "--alphas=1/2", "--char", str(char))
        assert (code, out) == (1, "")
        assert err == f"error: characteristic must be 0 or prime, got {char}\n"

    def test_accepts_large_prime(self, capsys):
        # 998244353 - 1 = 119 * 2^23: the squaring loop runs before it meets -1
        code, out, err = run(capsys, "gens", "--alphas=1/2", "--char", "998244353")
        assert (code, err) == (0, "")
        assert out.startswith("minimal generators of QDivisor(1/2*(inf)) over GF(998244353)\n")

    def test_no_points(self, capsys):
        code, out, err = run(capsys, "gens", "--alphas=,")
        assert (code, out) == (1, "")
        assert err == "error: a divisor needs at least one point\n"


class TestRelsAndGroebner:
    def test_rels_235(self, capsys):
        code, out, _ = run(
            capsys, "rels", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1", "--json"
        )
        report = json.loads(out)
        assert report["relations"] == [{"degree": 30, "support_size": 3}]

    def test_rels_pretty_coefficients(self, capsys):
        # rational points: sections keep their rational coordinates, so the
        # printed coefficients are those of the monic factors (t - p_i), and
        # a relation has coefficient 1 at its leading term
        code, out, _ = run(
            capsys, "rels", "--alphas=-1/2,1/3,1/5", "--points", "1/2,-3/4,5/3"
        )
        assert code == 0
        assert "  degree   30: (-15/29)*x1^5 + (-14/29)*x2^3 + (1)*x3^2\n" in out

    def test_groebner_plain_report(self, capsys):
        # leading terms are listed in word order, not by degree
        code, out, _ = run(
            capsys, "groebner", "--alphas=-1/3,1/2,1/2", "--points", "inf,0,1"
        )
        assert code == 0
        assert out == (
            "Groebner leading terms of QDivisor(-1/3*(inf), 1/2*(0), 1/2*(1)) over QQ"
            " (truncated at degree 28)\n"
            "  degree    8: x2^4\n"
            "  degree    5: x2^1*x3^1\n"
            "  degree    6: x3^2\n"
            "  degree    6: x3^1*x4^1\n"
            "  (4 minimal leading terms)\n"
        )

    def test_groebner_235(self, capsys):
        code, out, _ = run(
            capsys,
            "groebner", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1", "--json",
        )
        report = json.loads(out)
        assert report["groebner"]["leading_terms"] == [[0, 0, 2]]
        assert report["groebner"]["truncation"] == 62

    @pytest.mark.parametrize("command", ["rels", "groebner"])
    @pytest.mark.parametrize("truncation", [2 * 10**18, 10**19])
    def test_truncation_too_large_for_memory_is_an_error(self, capsys, command, truncation):
        # 2 * 10**18 slots exceed the largest list Python allocates, so the
        # coin-change table is refused before any allocation (MemoryError);
        # 10**19 is no index-sized integer (OverflowError)
        code, out, err = run(
            capsys, command, "--alphas=-1/2,1/3,1/5", "--points", "inf,0,1",
            "--truncation", str(truncation),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: the requested degrees do not fit in memory (")


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

    @pytest.mark.parametrize(
        "alphas, window", [("1/2,1/3", "1"), ("-1/2,1/3,1/5", "5")]
    )
    def test_window_of_zero_pieces_is_an_error(self, capsys, alphas, window):
        # no generator would be compared, so no verdict is printed
        code, out, err = run(
            capsys, "scan", f"--alphas={alphas}", "--configs", "1", "--max-degree", window,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: no degree 1 <= d < {window} has a nonzero graded piece:"
            " the scan compares no generator\n"
        )

    def test_plain_report_with_skipped_runs(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--alphas=-1/2,1/3,1/5", "--configs", "2",
            "--chars", "0,2,3", "--seed", "1",
        )
        assert code == 0
        assert out == (
            "stability scan for alphas ['-1/2', '1/3', '1/5'] (seed 1)\n"
            "  run   0 char   0: degrees [6, 10, 15]\n"
            "  run   1 char   2: degrees [6, 10, 15]\n"
            "  run   2 char   3: skipped (points of QDivisor(-1/2*(-65/19), 1/3*(32), 1/5*(-17/2))"
            " collide in GF(3) (at -17/2))\n"
            "  run   3 char   0: degrees [6, 10, 15]\n"
            "  run   4 char   2: skipped (points of QDivisor(-1/2*(9/5), 1/3*(21/13), 1/5*(-23/2))"
            " collide in GF(2) (at 21/13))\n"
            "  run   5 char   3: skipped (points of QDivisor(-1/2*(9/5), 1/3*(21/13), 1/5*(-23/2))"
            " collide in GF(3) (at 21/13))\n"
            "stable\n"
        )

    def test_plain_report_marks_disagreement(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--alphas=-1/2,-1/2,1/3,1/3,1/5,1/5", "--points", "0,1,2,3,4,9/5",
            "--configs", "2", "--chars", "0", "--seed", "3",
        )
        assert code == 2
        assert out == (
            "stability scan for alphas ['-1/2', '-1/2', '1/3', '1/3', '1/5', '1/5'] (seed 3)\n"
            "  run   0 char   0: degrees [6, 10, 15, 30]  <-- disagrees\n"
            "  run   1 char   0: degrees [6, 10, 15]\n"
            "  run   2 char   0: degrees [6, 10, 15]\n"
            "UNSTABLE configuration detected\n"
        )

    @pytest.mark.parametrize("chars", ["", ","], ids=["empty", "comma"])
    def test_empty_chars_scan_the_given_points_only(self, capsys, chars):
        code, out, _ = run(
            capsys,
            "scan", "--alphas", "1/2,1/3", "--points", "0,1", "--char", "5",
            "--configs", "1", "--chars", chars, "--json",
        )
        assert code == 0
        assert [run_entry["config"] for run_entry in json.loads(out)["runs"]] == [
            {"char": 5, "points": ["0", "1"]}
        ]

    def test_empty_chars_scan_the_divisor_file_only(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"points": ["inf", "0"], "alphas": ["1/2", "1/3"]}')
        code, out, _ = run(
            capsys, "scan", "--divisor", str(path), "--configs", "1", "--chars", "", "--json",
        )
        assert code == 0
        assert [run_entry["config"] for run_entry in json.loads(out)["runs"]] == [
            {"char": 0, "points": ["inf", "0"]}
        ]

    @pytest.mark.parametrize("chars", ["", ","], ids=["empty", "comma"])
    def test_empty_chars_without_points_is_an_error(self, capsys, chars):
        code, out, err = run(
            capsys, "scan", "--alphas", "1/2,1/3", "--configs", "1", "--chars", chars,
        )
        assert (code, out) == (1, "")
        assert err == "error: scan evaluated none of its 0 configurations\n"

    def test_more_points_than_distinct_draws_is_an_error(self, capsys):
        # the generic draws take 2483 distinct values, so 2500 points are never
        # drawn; the child's timeout guards against a draw loop that never ends
        n = 2500
        argv = ["scan", "--alphas=" + ",".join(["1/2"] * n), "--points", ",".join(map(str, range(n)))]
        proc = subprocess.run(
            [sys.executable, "-m", "canring", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: a generic configuration has at most 2483 distinct points, not 2500\n"
        start = time.perf_counter()
        assert run(capsys, *argv) == (1, "", proc.stderr)
        assert time.perf_counter() - start < 1

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

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--alphas=-1/2,1/3,1/5", "--points", "inf,0,1",
            "--max-degree", "31", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "oracle",
            "config": {"alphas": ["-1/2", "1/3", "1/5"], "char": 0, "points": ["inf", "0", "1"]},
            "engine": {"generators": [6, 10, 15], "relations": [30]},
            "oracle": {"generators": [6, 10, 15], "relations": [30]},
            "match": True,
            "window": 31,
        }

    @pytest.mark.parametrize(
        "alphas, window, degrees",
        [
            ("1/2,1/3", 11, ([1, 2, 3], [5])),  # the relation-degree bound
            ("1/2,-1/2", 10, ([2], [])),  # degree 0: max(10, ell + 1)
            ("-1/2,1/4", 10, ([], [])),
            ("1/11,-1/11", 12, ([11], [])),  # ell = 11: the window reaches it
        ],
    )
    def test_default_window(self, capsys, alphas, window, degrees):
        code, out, _ = run(capsys, "oracle", f"--alphas={alphas}", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["window"] == window
        assert report["match"] is True
        assert (report["engine"]["generators"], report["engine"]["relations"]) == degrees
        code, out, _ = run(capsys, "oracle", f"--alphas={alphas}")
        assert (code, out) == (0, "MATCH\n")

    def test_generator_at_the_window_top(self, capsys):
        # 1/2,1/3 has generators in degrees 1, 2 and 3
        code, out, _ = run(capsys, "oracle", "--alphas=1/2,1/3", "--max-degree", "3")
        assert (code, out) == (0, "MATCH\n")
        code, out, _ = run(capsys, "oracle", "--alphas=13/5", "--max-degree", "5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["match"] is True
        assert report["engine"]["generators"] == report["oracle"]["generators"] == [1, 1, 1, 2, 5]

    def test_size_guard_refuses_before_engine_work(self, capsys, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before the oracle's size guard")

        monkeypatch.setattr(cli, "_presentation", engine)
        code, out, err = run(capsys, "oracle", "--alphas=1/2,1/3", "--max-degree", "800")
        assert (code, out) == (1, "")
        assert err == "error: graded pieces exceed dimension 40 at or below 800\n"

    @pytest.mark.parametrize("window", ["0"])
    def test_window_that_compares_nothing_is_an_error(self, capsys, window):
        code, out, err = run(
            capsys,
            "oracle", "--alphas", "-1/2,1/3,1/5", "--points", "inf,0,1",
            "--max-degree", window,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "it must be 1 or more" in err

    @pytest.mark.parametrize(
        "alphas, degrees", [("1/2,1/3", [1]), ("13/5", [1, 1, 1])], ids=["1/2,1/3", "13/5"]
    )
    def test_window_one_compares_the_degree_one_generators(self, capsys, alphas, degrees):
        args = ("oracle", f"--alphas={alphas}", "--max-degree", "1")
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["match"] is True
        assert report["engine"]["generators"] == report["oracle"]["generators"] == degrees
        assert run(capsys, *args)[:2] == (0, "MATCH\n")


class TestPointAtInfinityModP:
    """A one-point divisor whose point reduces to inf in GF(p) reads as the
    divisor at inf: its ghost point moves to 0 instead of colliding."""

    @pytest.mark.parametrize("point", ["1/3", "2/9"])
    @pytest.mark.parametrize("command", ["gens", "rels", "oracle"])
    def test_matches_the_point_at_inf(self, capsys, command, point):
        reports = {}
        for pt in (point, "inf"):
            code, out, err = run(
                capsys, command, "--alphas=5/2", "--points", pt, "--char", "3", "--json"
            )
            assert (code, err) == (0, "")
            reports[pt] = json.loads(out)
            assert reports[pt].pop("config")["points"] == [pt]
        assert reports[point] == reports["inf"]

    @pytest.mark.parametrize("point", ["1/3", "2/9"])
    def test_degrees(self, capsys, point):
        code, out, _ = run(
            capsys, "oracle", "--alphas=5/2", "--points", point, "--char", "3", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["match"] is True
        assert report["oracle"] == {"generators": [1, 1, 1, 2], "relations": [2, 3, 3]}
        assert run(capsys, "gens", "--alphas=5/2", "--points", point, "--char", "3")[:2] == (
            0,
            f"minimal generators of QDivisor(5/2*({point})) over GF(3)\n"
            "  degree    1  u\n"
            "  degree    1  u*t1^-1*t2\n"
            "  degree    1  u*t1^-2*t2^2\n"
            "  degree    2  u^2*t1^-5*t2^5\n"
            "  (4 generators)\n",
        )


class TestWindows:
    def test_generator_window_excludes_its_top_and_the_others_include_it(self, capsys):
        # the 2,3,5 example: generators in degrees 6, 10 and 15, one relation in degree 30
        divisor = ("--alphas=-1/2,1/3,1/5", "--points", "inf,0,1", "--json")

        def report(*argv):
            code, out, err = run(capsys, *argv, *divisor)
            assert (code, err) == (0, "")
            return json.loads(out)

        # gens and scan keep generators of degree < N
        for n, degrees in [("15", [6, 10]), ("16", [6, 10, 15])]:
            gens = report("gens", "--max-degree", n)["generators"]
            assert [g["degree"] for g in gens] == degrees
            (run_,) = report("scan", "--chars", "", "--max-degree", n)["runs"]
            assert [g["degree"] for g in run_["generators"]] == degrees
        # so do rels and groebner: without the degree-15 generator, S_15 is unspanned
        for command in ("rels", "groebner"):
            argv = (command, "--max-degree", "15", "--truncation", "30", *divisor)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == "error: no generator monomials reach degree 15 but dim S_15 = 1\n"
            assert report(command, "--max-degree", "16", "--truncation", "30")
        # --truncation T includes T
        relations = report("rels", "--truncation", "30")["relations"]
        assert relations == [{"degree": 30, "support_size": 3}]
        assert report("rels", "--truncation", "29")["relations"] == []
        assert report("groebner", "--truncation", "30")["groebner"]["leading_terms"] == [[0, 0, 2]]
        assert report("groebner", "--truncation", "29")["groebner"]["leading_terms"] == []
        # dims and oracle include N
        assert [row["d"] for row in report("dims", "--max-degree", "3")["dims"]] == [0, 1, 2, 3]
        for n, relations in [("30", [30]), ("29", [])]:
            oracle = report("oracle", "--max-degree", n)
            assert oracle["engine"] == oracle["oracle"]
            assert oracle["engine"] == {"generators": [6, 10, 15], "relations": relations}


_CHORDS_ARGS = ("--alphas=-1/2,-1/2,1/3,1/3,1/5,1/5", "--points", "0,1,2,3,4,9/5", "--truncation", "120")


class TestOneRealizationPerCommand:
    """Every stage of a command runs on one realization of the divisor in
    its field; the oracle builds its own."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = presentation._Realization.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(presentation._Realization, "__init__", counted)
        return built

    @pytest.mark.parametrize(
        "argv, count",
        [
            (("rels", *_CHORDS_ARGS), 1),
            (("groebner", *_CHORDS_ARGS), 1),
            (("oracle", "--alphas=-1/2,1/3,1/5", "--points", "inf,0,1"), 2),
        ],
        ids=["rels", "groebner", "oracle"],
    )
    def test_realizations(self, capsys, built, argv, count):
        code, _, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert len(built) == count

    @pytest.mark.parametrize("command", ["rels", "groebner"])
    def test_negative_degree_grows_no_generator_window(self, capsys, monkeypatch, built, command):
        degrees = []
        floors = presentation.floor_divisor

        def counted(D, d):
            degrees.append(d)
            return floors(D, d)

        monkeypatch.setattr(presentation, "floor_divisor", counted)
        code, _, err = run(capsys, command, "--alphas=-1/2,1/4", "--max-degree", "100000", "--json")
        assert (code, err) == (0, "")
        assert (len(built), degrees) == (1, [0, 1])  # the default truncation is 1


# every alpha tuple criterion 09 can draw: one to three coefficients a/b,
# |a| <= 2 and 1 <= b <= 4, of total degree at most 1, at the points 0, 1, 2
_CRITERION_09_VALUES = sorted({Fraction(a, b) for a in range(-2, 3) for b in range(1, 5)})
_CRITERION_09_DIVISORS = [
    canring.QDivisor.of(range(n), alphas)
    for n in (1, 2, 3)
    for alphas in itertools.product(_CRITERION_09_VALUES, repeat=n)
    if sum(alphas) <= 1
]


def _criterion_09_window(D):
    if D.degree < 0:
        return 8
    if D.degree == 0:
        return canring.denominator_data(D).ell + 2
    return min(canring.degree_bounds(D)[1], 15)


def _engine_reports(D, field, window):
    """The reports of `rels` and `groebner` with --max-degree window + 1
    --truncation window --json, from the library."""
    gens = canring.minimal_generators(D, field, window + 1)
    rels = canring.relation_ideal(D, field, gens, window)
    gb = canring.groebner_leading_terms(D, field, gens, window)
    config = divisor_to_json(D, field.characteristic)
    return [
        {
            "command": "rels",
            "config": config,
            "generators": [g.to_json() for g in gens],
            "relations": [r.summary() for r in rels],
        },
        {
            "command": "groebner",
            "config": config,
            "groebner": {
                "truncation": gb.truncation_degree,
                "order": gb.order,
                "leading_terms": [list(e) for e in gb.leading_terms],
            },
        },
    ]


class TestByteIdentity:
    def test_rels_and_groebner_reports_are_pinned(self, capsys):
        # the sha256 of the canonical JSON of every criterion-09 divisor's
        # reports in QQ and GF(2^61 - 1), and of the CLI's chords reports to
        # degree 120 in both fields: any change of output shows here
        reports = []
        for char in (0, 2**61 - 1):
            field = canring.FieldSpec(char)
            reports += [
                _engine_reports(D, field, _criterion_09_window(D)) for D in _CRITERION_09_DIVISORS
            ]
        assert len(reports) == 2 * 1795
        # the library layout above is the CLI's
        argv = ("--alphas=1/2,-1/4,2/3", "--points", "0,1,2", "--max-degree", "16", "--truncation", "15")
        cli_reports = [json.loads(run(capsys, command, *argv, "--json")[1]) for command in ("rels", "groebner")]
        D = canring.QDivisor.of(range(3), [Fraction(1, 2), Fraction(-1, 4), Fraction(2, 3)])
        assert cli_reports == _engine_reports(D, canring.FieldSpec(0), 15)
        text = canonical_json(reports)
        for char in ("0", str(2**61 - 1)):
            for command in ("rels", "groebner"):
                code, out, err = run(capsys, command, *_CHORDS_ARGS, "--char", char, "--json")
                assert (code, err) == (0, "")
                text += out
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "b465d50672384801e9e845d96dc4ce9422d00d248c0eca3ea39096a29f609d5f"
        )

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                _CHORDS_ARGS[:3],
                (
                    "58b84e338526296d5e1b66bdaf6785d9908c2283d30ce299f868812d992a808f",
                    "31cb58cd047de1596f5e7322246623a43647261dba1270cfeb4154f04f858feb",
                ),
            ),
            (
                ("--alphas=-1/2,1/3,1/5", "--points", "inf,0,1"),
                (
                    "683439e398e37e28cb1a3856d1a34432f5f8f4f39809affd69dc24824205acdb",
                    "4e75a575476046cfcd4baaf20c577d6c36dc82388a4f126bb8d4553315b95718",
                ),
            ),
        ],
        ids=["chords", "2,3,5"],
    )
    def test_default_window_rels_reports_are_pinned(self, capsys, argv, digests):
        # the sha256 of `rels --json` at the default windows in QQ and
        # GF(2^61 - 1), taken where the pass ran to the paper's relation
        # bound (360 and 62): it now ends at max(B, G) (75 and 30)
        for char, digest in zip(("0", str(2**61 - 1)), digests):
            code, out, err = run(capsys, "rels", *argv, "--char", char, "--json")
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_relations_are_pinned(self):
        # the sha256 of every relation's terms with their exact
        # coefficients, where the reports pin only degrees and support
        # sizes: 2,3,5 in QQ and GF(7), chords to 120 in QQ and
        # GF(2^61 - 1), and a four-point divisor in QQ
        fr = [Fraction(a) for a in ("-1/2", "1/3", "1/5", "-2/3", "1/2", "3/5", "1/4")]
        d235 = canring.QDivisor.of(["inf", 0, 1], fr[:3])
        chords = canring.QDivisor.of([0, 1, 2, 3, 4, Fraction(9, 5)], [fr[0], fr[0], fr[1], fr[1], fr[2], fr[2]])
        four = canring.QDivisor.of(["inf", 0, 1, -1], fr[3:])
        cases = [(d235, 0, None), (d235, 7, None), (chords, 0, 120), (chords, 2**61 - 1, 120), (four, 0, None)]
        relations = []
        for D, char, window in cases:
            field = canring.FieldSpec(char)
            rels = canring.relation_ideal(D, field, canring.minimal_generators(D, field), window)
            relations.append([[r.degree, [[list(e), str(c)] for e, c in sorted(r.terms)]] for r in rels])
        assert [len(rels) for rels in relations] == [1, 1, 2, 2, 10]
        assert hashlib.sha256(canonical_json(relations).encode("utf-8")).hexdigest() == (
            "5b3dc7788ddd499e3218efd57c799f1e8d9755703616b4993e5afd0858e74538"
        )

    def test_deep_and_wide_relations_are_pinned(self):
        # the same record for a divisor whose first generator has degree 1
        # (a chain of x_0 multiples as deep as the relation degree) among 13
        # generators, to truncation 7 in QQ and GF(2^61 - 1)
        D = canring.QDivisor.of(["inf", 0, 1, -1], [Fraction(a) for a in ("4", "3/2", "2/5", "-1/6")])
        relations = []
        for char in (0, 2**61 - 1):
            field = canring.FieldSpec(char)
            gens = canring.minimal_generators(D, field)
            assert (len(gens), gens[0].degree) == (13, 1)
            rels = canring.relation_ideal(D, field, gens, 7)
            relations.append([[r.degree, [[list(e), str(c)] for e, c in sorted(r.terms)]] for r in rels])
        assert [len(rels) for rels in relations] == [55, 55]
        assert hashlib.sha256(canonical_json(relations).encode("utf-8")).hexdigest() == (
            "99f904ad307b706f8809e7042ba89a25b3069a45e5232707938323b706038d3f"
        )

    def test_scan_reports_are_pinned(self):
        # the sha256 of the canonical JSON of stability_scan reports: the
        # n = 5 scan of the benchmark (its anchor configuration and 16
        # seeded ones in five characteristics, window 45) for seeds 1 and
        # 2; the first n = 4 draw of acceptance criterion 08 with Groebner
        # leading terms and relations; and a one-point divisor
        chars = (0, 2, 3, 5, 7)
        n5 = [Fraction(a) for a in ("-2/3", "1/2", "3/5", "1/4", "-1/6")]
        anchor = [(("inf", 0, 1, -1, 2), 0)]
        reports = [
            canring.stability_scan(n5, anchor + canring.generic_configs(5, 16, chars, seed), up_to=45)
            for seed in (1, 2)
        ]
        n4 = [Fraction(a) for a in ("1/4", "1/5", "-1/2", "1/6")]
        configs = canring.generic_configs(4, 20, chars, seed=2000)
        reports.append(
            canring.stability_scan(n4, configs, with_groebner=True, with_relations=True, truncation=34)
        )
        configs = [((0,), 0), (("inf",), 2), ((Fraction(1, 2),), 2), ((Fraction(1, 3),), 3), ((9,), 7)]
        reports.append(
            canring.stability_scan([Fraction(13, 5)], configs, with_groebner=True, with_relations=True)
        )
        assert [sum(r["skipped"] for r in report["runs"]) for report in reports] == [55, 57, 65, 0]
        assert hashlib.sha256(canonical_json(reports).encode("utf-8")).hexdigest() == (
            "c6b9f56ce8f15ce8ef5dab4458e145194b6ab1da50a444e2ec686a19b4aa78f8"
        )


def _child_env():
    """The environment of a `python -m canring` child that imports this checkout."""
    src = str(Path(canring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    def test_char_flag_overrides_divisor_file(self, capsys, tmp_path):
        # 0 and 2 collide in GF(2), the file's field
        path = tmp_path / "d.json"
        path.write_text('{"points": ["0", "2"], "alphas": ["1/2", "1/3"], "char": 2}')
        code, out, err = run(capsys, "gens", "--divisor", str(path))
        assert (code, out) == (1, "")
        assert err == "error: points of QDivisor(1/2*(0), 1/3*(2)) collide in GF(2) (at 2)\n"
        code, out, _ = run(capsys, "gens", "--divisor", str(path), "--char", "0")
        assert code == 0
        assert out == (
            "minimal generators of QDivisor(1/2*(0), 1/3*(2)) over QQ\n"
            "  degree    1  u\n"
            "  degree    2  u^2*t1^-1*t2\n"
            "  degree    3  u^3*t1*t2^-1\n"
            "  (3 generators)\n"
        )
        code, out, _ = run(capsys, "gens", "--divisor", str(path), "--char", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["config"] == {"alphas": ["1/2", "1/3"], "char": 3, "points": ["0", "2"]}
        assert [g["monomial"] for g in report["generators"]] == [
            {"c": [0, 0], "d": 1}, {"c": [-1, 1], "d": 2}, {"c": [1, -1], "d": 3}
        ]

    @pytest.mark.parametrize(
        "flags", [["--alphas", "13/5"], ["--points", "7"], ["--alphas", "13/5", "--points", "7"]]
    )
    def test_divisor_file_with_alphas_or_points(self, capsys, tmp_path, flags):
        # the file's divisor is not silently reported in place of the flags'
        path = tmp_path / "d.json"
        path.write_text('{"points": ["inf", "0", "1"], "alphas": ["-1/2", "1/3", "1/5"]}')
        code, out, err = run(capsys, "gens", "--divisor", str(path), *flags)
        assert (code, out) == (1, "")
        assert err == "error: give --divisor FILE or --alphas CSV [--points CSV], not both\n"

    def test_missing_divisor_input(self, capsys):
        code, out, err = run(capsys, "gens")
        assert (code, out) == (1, "")
        assert err == "error: provide --divisor FILE or --alphas CSV\n"

    def test_too_many_coefficients_for_default_points(self, capsys):
        code, out, err = run(capsys, "dims", "--alphas", ",".join(["1"] * 11))
        assert (code, out) == (1, "")
        assert err == "error: too many coefficients for default points\n"

    def test_internal_assertion_exit_three(self, capsys, monkeypatch):
        def broken(*args):
            raise AssertionError("monomial basis failed to span degree 6")

        monkeypatch.setattr(cli, "minimal_generators", broken)
        code, out, err = run(capsys, "gens", "--alphas=-1/2,1/3,1/5")
        assert (code, out) == (3, "")
        assert err == "internal assertion failed: monomial basis failed to span degree 6\n"

    def test_python_dash_m_runs_main(self, capsys):
        env = _child_env()
        argv = ["gens", "--alphas=-1/2,1/3,1/5", "--points", "inf,0,1", "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "canring", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
        proc = subprocess.run(
            [sys.executable, "-m", "canring", "gens"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: provide --divisor FILE or --alphas CSV\n"

    def test_closed_stdout_exits_one_without_traceback(self):
        # the read end of stdout is closed before the child starts, so its
        # first write fails with a broken pipe, whatever the timing
        env = _child_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "canring", "dims", "--alphas", "1/2,1/3", "--max-degree", "5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize(
        "command, flag",
        [
            *[
                (command, flag)
                for command in ("dims", "twopoint", "gens", "rels", "groebner", "oracle")
                for flag in ("--seed 3", "--configs 2", "--chars 0,2")
            ],
            *[(command, "--truncation 20") for command in ("dims", "twopoint", "gens", "oracle")],
            ("twopoint", "--max-degree 5"),
        ],
    )
    def test_flag_the_command_does_not_read_rejected(self, capsys, command, flag):
        # 23 (command, flag) pairs that used to be accepted and ignored
        code, out, err = run(capsys, command, "--alphas=1/2,1/3", *flag.split())
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err

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

    @pytest.mark.parametrize("argv, exit_code", [
        (["dims", "--alphas", "1/2", "--max-degree", "4"], 0),
        (["twopoint", "--alphas", "1/2,1/3"], 0),
        (["gens", "--alphas", "-1/2,1/3,1/5"], 0),
        (["rels", "--alphas", "-1/2,1/3,1/5", "--truncation", "35"], 0),
        (["groebner", "--alphas", "-1/2,1/3,1/5", "--truncation", "35"], 0),
        (["scan", "--alphas", "-1/2,-1/2,1/3,1/3,1/5,1/5", "--points", "0,1,2,3,4,9/5",
          "--configs", "2", "--chars", "0", "--seed", "3"], 2),
        (["oracle", "--alphas", "1/2,1/3"], 0),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv, exit_code, mode):
        code, out, err = run(capsys, *argv, *mode)
        assert (code, err) == (exit_code, "")
        path = tmp_path / "report"
        assert run(capsys, *argv, *mode, "--output", str(path)) == (exit_code, "", "")
        assert path.read_bytes() == out.encode()
