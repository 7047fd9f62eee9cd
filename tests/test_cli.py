import json

import pytest

from padroot.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, dispatch
from padroot.sparsepoly import parse_poly


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_roots_trinomial(capsys):
    code, out, _ = run(capsys, ["count-roots", "--p", "3",
                                "--poly", "x^20-10*x^2+9"])
    assert code == EXIT_OK
    assert "distinct=6 with_multiplicity=8" in out
    assert "ExactTorsion" in out


def test_count_roots_structured(capsys):
    code, out, _ = run(capsys, ["--format", "structured", "count-roots",
                                "--p", "5", "--poly", "x^4-1"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["totals"] == {
        "distinct": 4, "with_multiplicity": 4,
        "upper_bound_with_multiplicity": 4,
    }
    assert doc["config"]["prec"] == 40


def test_count_roots_partial_exit_code(capsys):
    # irrational double roots stay unresolved: exit 2
    code, out, _ = run(capsys, ["count-roots", "--p", "7",
                                "--poly", "x^4-4*x^2+4"])
    assert code == EXIT_PARTIAL
    assert "unresolved" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["count-roots", "--p", "3", "--poly", "x^+"])
    assert code == EXIT_USAGE
    assert "input error" in err


def test_usage_error(capsys):
    code, _, _ = run(capsys, ["count-roots", "--poly", "x^2-1"])
    assert code == EXIT_USAGE


def test_bounds_command(capsys):
    code, out, _ = run(capsys, ["bounds", "--t", "2", "--p", "5"])
    assert code == EXIT_OK
    assert "upper (t^2-t+1)(q-1): 12" in out


def test_bounds_not_applicable(capsys):
    code, out, _ = run(capsys, ["bounds", "--t", "2", "--p", "3"])
    assert code == EXIT_OK
    assert "not applicable" in out


def test_bounds_beyond_t_6(capsys):
    code, out, err = run(capsys, ["--format", "structured", "bounds", "--t", "7", "--p", "11"])
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["bounds"]["d_t_table"]["7"] == 5040
    assert doc["bounds"]["d_t_table"]["10"] == 2**8 * 3**4 * 5**2 * 7


def test_bounds_threshold_for_large_t(capsys):
    code, out, err = run(capsys, ["bounds", "--t", "50", "--p", "3"])
    assert code == EXIT_OK, err
    assert "lenstra threshold C(p,t,1/e): 54" in out


def test_newton_polygon_command(capsys):
    code, out, _ = run(capsys, ["newton-polygon", "--p", "3",
                                "--poly", "x^20-10*x^2+9"])
    assert code == EXIT_OK
    assert "slope=-1 length=2" in out
    assert "slope=0 length=18" in out
    code, out, _ = run(capsys, ["newton-polygon", "--p", "3",
                                "--poly", "x^5 - 9*x^2 + 1/3*x + 27"])
    assert code == EXIT_OK
    assert "segment slope=-4 length=1 from (0, 3) to (1, -1)" in out


def test_vandermonde_check_command(capsys):
    code, out, _ = run(capsys, ["vandermonde-check", "--t", "2",
                                "--alpha-max", "4"])
    assert code == EXIT_OK
    assert "'failures': 0" in out


def test_search_command(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, [
        "search", "--p", "5", "--t", "1", "--max-exp", "8",
        "--mode", "exhaustive", "--seed", "0", "--out", str(out_file),
    ])
    assert code == EXIT_OK
    assert "max distinct: 4" in out
    assert out_file.exists()
    assert (tmp_path / "sweep.csv.summary.json").exists()


def test_build_extremal_command(capsys):
    code, out, _ = run(capsys, ["build-extremal", "--t", "2", "--q", "3"])
    assert code == EXIT_OK
    assert "target 6" in out


def test_config_file_override(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"prec": 25, "depth": 5}))
    monkeypatch.setenv("PADROOT_CONFIG", str(config))
    code, out, _ = run(capsys, ["count-roots", "--p", "5", "--poly", "x^2-1"])
    assert code == EXIT_OK
    assert "# prec: 25" in out
    # explicit flag wins over the config file
    code, out, _ = run(capsys, ["--prec", "30", "count-roots", "--p", "5",
                                "--poly", "x^2-1"])
    assert "# prec: 30" in out


def test_poly_from_file(capsys, tmp_path):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("x^4 - 1\n")
    code, out, _ = run(capsys, ["count-roots", "--p", "5",
                                "--poly", str(poly_file)])
    assert code == EXIT_OK
    assert "distinct=4" in out
    json_file = tmp_path / "poly.json"
    json_file.write_text(json.dumps({"terms": [[0, "-1/1"], [4, "1/1"]]}))
    code, out, _ = run(capsys, ["count-roots", "--p", "5",
                                "--poly", str(json_file)])
    assert code == EXIT_OK
    assert "distinct=4" in out


def test_long_inline_poly_is_not_a_file_name(capsys):
    # longer than a file name may be, so probing it as a path raises OSError
    text = " + ".join(["1"] + [f"x^{k}" for k in range(1, 59)])
    assert len(text) > 255
    code, out, _ = run(capsys, ["count-roots", "--p", "5", "--poly", text])
    assert code == EXIT_OK
    assert "distinct=0" in out


@pytest.mark.parametrize("flags", [["--prec", "0"], ["--depth", "-1"]])
def test_config_flags_validated(capsys, flags):
    code, _, err = run(capsys, flags + ["count-roots", "--p", "5", "--poly", "x^2-1"])
    assert code == EXIT_USAGE
    assert "input error" in err


@pytest.mark.parametrize("data", [{"prec": 0}, {"depth": -1}, {"prec": "40"}])
def test_config_file_values_validated(capsys, tmp_path, monkeypatch, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    monkeypatch.setenv("PADROOT_CONFIG", str(config))
    code, _, err = run(capsys, ["count-roots", "--p", "5", "--poly", "x^2-1"])
    assert code == EXIT_USAGE
    assert "input error" in err


@pytest.mark.parametrize("content", [None, "dir", "not json{", "[1, 2]",
                                     '{"output": "xml"}', '{"exponent_cap": "many"}'],
                         ids=["missing", "unreadable", "not-json", "not-object",
                              "bad-output", "bad-exponent-cap"])
def test_config_file_errors_exit_1(capsys, tmp_path, monkeypatch, content):
    config = tmp_path / "config.json"
    if content == "dir":
        config.mkdir()
    elif content is not None:
        config.write_text(content)
    monkeypatch.setenv("PADROOT_CONFIG", str(config))
    code, _, err = run(capsys, ["count-roots", "--p", "5", "--poly", "x^2-1"])
    assert code == EXIT_USAGE
    assert "input error" in err


@pytest.mark.parametrize("content", ['{"terms": [[0, "-1/1"], ', '{"terms": [[0, "1/0"]]}',
                                     b"\xff\xfe{", '{"terms": [[0, "-1"], [2.7, "1"]]}',
                                     '{"terms": [[0, "-1"], [2.0, "1"]]}',
                                     '{"terms": [[0, "-1"], [true, "1"]]}',
                                     '{"terms": [[0, "-1"], ["2", "1"]]}',
                                     '{"terms": [[0, -1], [2, 1.5]]}',
                                     '{"terms": [[0, -1], [2, true]]}',
                                     '{"terms": [[0, -1], [2, null]]}'],
                         ids=["malformed", "zero-den", "not-utf8", "float-exponent",
                              "integral-float-exponent", "bool-exponent", "string-exponent",
                              "float-coefficient", "bool-coefficient", "null-coefficient"])
def test_poly_file_errors_exit_1(capsys, tmp_path, content):
    poly_file = tmp_path / "poly.json"
    if isinstance(content, bytes):
        poly_file.write_bytes(content)
    else:
        poly_file.write_text(content)
    code, _, err = run(capsys, ["count-roots", "--p", "5", "--poly", str(poly_file)])
    assert code == EXIT_USAGE
    assert "input error" in err


def test_low_precision_deflation_is_a_cluster(capsys):
    # (x-1)(x-6)(x-2) at p = 5: one digit cannot hold the class of 1 and 6,
    # so the working precision doubles until the class resolves
    code, out, err = run(capsys, ["--prec", "1", "--format", "structured", "count-roots",
                                  "--p", "5", "--poly", "x^3-9*x^2+20*x-12"])
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["totals"] == {"distinct": 3, "with_multiplicity": 3,
                             "upper_bound_with_multiplicity": 3}
    assert sorted(e["rational"] for e in doc["entries"]) == ["1", "2", "6"]


@pytest.mark.parametrize("prec, p, poly, center", [
    (3, 3, "x^9-10", 1), (1, 5, "x^25-32", 2), (2, 5, "x^25-32", 2), (3, 5, "x^25-32", 2)])
def test_low_precision_descent_is_a_cluster(capsys, prec, p, poly, center):
    # x^(p^k) = x mod p puts any root in the class center + pZ_p, a zero of
    # order p^k mod p, which holds none mod p^4: a refinement that runs out
    # of digits is run again at twice the digits, and the count certifies 0
    f = parse_poly(poly)
    assert [x for x in range(p**4) if f.eval_mod(x, p, 4) == 0] == []
    assert [x for x in range(1, p) if f.eval_mod(x, p, 1) == 0] == [center]
    code, out, err = run(capsys, ["--prec", str(prec), "--format", "structured",
                                  "count-roots", "--p", str(p), "--poly", poly])
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["entries"] == doc["unresolved"] == []
    assert doc["totals"]["upper_bound_with_multiplicity"] == 0


@pytest.mark.parametrize("command", [["count-roots", "--poly", "x^2-1"],
                                     ["search", "--t", "1", "--max-exp", "4"]])
def test_unprovable_prime_exits_1(capsys, command):
    # 399165290221 * 798330580441: a strong pseudoprime to the bases 2..37
    code, _, err = run(capsys, command + ["--p", "318665857834031151167461"])
    assert code == EXIT_USAGE
    assert "cannot prove" in err


def test_build_extremal_header_echoes_the_build_cap(capsys):
    # build_family searches under BuildOptions.exponent_cap, not count-roots' cap
    from padroot.extremal import BuildOptions

    code, out, _ = run(capsys, ["--format", "structured", "build-extremal",
                                "--t", "2", "--q", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["exponent_cap"] == BuildOptions().exponent_cap == 10**8
    assert max(e for e, _ in doc["poly"]["terms"]) <= doc["config"]["exponent_cap"]


def test_exactly_accounted_class_is_not_a_cluster(capsys):
    # 1/2 is a double root and the class 3 mod 5 holds exactly two roots:
    # at 8 digits nothing is left to refine, so no zero-bound cluster
    code, out, err = run(capsys, ["--prec", "8", "count-roots", "--p", "5",
                                  "--poly", "4*x^2-4*x+1"])
    assert code == EXIT_OK, err
    assert "unresolved" not in out
    assert "1/2 [mult 2, ExactRational]" in out


def test_descent_without_pth_powers_exits_0(capsys):
    code, out, err = run(capsys, ["count-roots", "--p", "3",
                                  "--poly", "x^12 - 14*x^6 + 49"])
    assert code == EXIT_OK, err
    assert "unresolved" not in out
    assert "distinct=0 with_multiplicity=0 upper_bound=0" in out


@pytest.mark.parametrize("command", [
    ["newton-polygon", "--p", "0", "--poly", "x^2-1"],
    ["newton-polygon", "--p", "1", "--poly", "x^2-1"],
    ["newton-polygon", "--p", "4", "--poly", "x^2-1"],
    ["bounds", "--t", "2", "--p", "4"],
    ["search", "--p", "5", "--t", "3", "--max-exp", "2"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--coeff-bound", "0"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--mode", "exhaustive",
     "--coeff-modulus-exp", "0"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--mode", "exhaustive",
     "--coeff-modulus-exp", "-1"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--candidates", "0"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--candidates", "-3"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--workers", "0"],
    ["search", "--p", "3", "--t", "2", "--max-exp", "5", "--workers", "-2"],
    ["vandermonde-check", "--t", "0", "--alpha-max", "4"],
    ["vandermonde-check", "--t", "-1", "--alpha-max", "4"],
    ["vandermonde-check", "--t", "2", "--alpha-max", "-3"],
    ["build-extremal", "--t", "2", "--q", "3", "--alpha-window", "-1"],
    ["build-extremal", "--t", "2", "--q", "3", "--eps-window", "0"],
], ids=["np-p0", "np-p1", "np-p4", "bounds-p4", "search-max-exp",
        "search-no-random-coeffs", "search-no-exhaustive-coeffs", "search-negative-modulus-exp",
        "search-no-candidates", "search-negative-candidates", "search-no-workers",
        "search-negative-workers", "grid-t0", "grid-negative-t", "grid-negative-alpha-max",
        "extremal-negative-alpha-window", "extremal-zero-eps-window"])
def test_bad_prime_or_exponent_bound_exits_1(capsys, command):
    code, out, err = run(capsys, command)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")


def test_unexpected_exception_is_one_line_exit_1(capsys, monkeypatch):
    def broken(args, config):
        raise ValueError("boom")

    monkeypatch.setattr("padroot.cli._cmd_bounds", broken)
    code, out, err = run(capsys, ["bounds", "--t", "2", "--p", "5"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "internal error: ValueError: boom\n"
