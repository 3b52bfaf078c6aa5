import json
import math
import sys
import time

import pytest

from heightlab.cli import MAX_COUNT, MAX_SUBFIELD_NAMES, load_scenario, main, run_command
from heightlab import numberfield
from heightlab.errors import FieldTooLarge, ReduciblePolynomial, SchemaError
from heightlab.polynomials import Poly
from heightlab.scenario import parse_scenario

DEMO = {
    "v": 1,
    "name": "demo",
    "field": [-2, 0, 1],
    "subfields": {"Q": []},
    "elements": {"a": "1+t", "b": "t"},
}


# -- parse_scenario --------------------------------------------------------


def test_parse_demo_scenario():
    sc = parse_scenario(DEMO)
    assert sc.field.degree == 2
    assert sc.elements["a"] == sc.field.element([1, 1])


def test_parse_from_json_text():
    sc = parse_scenario(json.dumps(DEMO))
    assert sc.name == "demo"


def test_zeta3_field_reports_torsion_six():
    sc = parse_scenario({"v": 1, "field": [1, 1, 1]})
    assert sc.field.torsion_order == 6


def test_reducible_field_rejected():
    with pytest.raises(ReduciblePolynomial):
        parse_scenario({"v": 1, "field": [-4, 0, 1]})


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_scenario({"field": [-2, 0, 1]})  # missing v
    with pytest.raises(SchemaError):
        parse_scenario({"v": 2, "field": [-2, 0, 1]})
    with pytest.raises(SchemaError):
        parse_scenario({"v": 1, "field": [-2, 0, 1], "bogus": 1})
    with pytest.raises(SchemaError):
        parse_scenario({"v": 1})
    with pytest.raises(SchemaError):
        parse_scenario({"v": 1, "field": "x^2-2"})
    with pytest.raises(SchemaError):
        parse_scenario("not json {{")


@pytest.mark.parametrize("doc", [
    {"v": True, "field": [True, False, True]},  # x^2 + 1 if bool were an int
    {"v": 1, "field": [1, False, 1]},
    {"v": True, "field": [1, 0, 1]},
    {"v": 1.0, "field": [1, 0, 1]},
])
def test_booleans_are_not_integers(doc, tmp_path, capsys):
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(doc))
    assert main(["places", "--scenario", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemaError"


# -- run_command -------------------------------------------------------------


@pytest.fixture(scope="module")
def demo():
    return parse_scenario(DEMO)


def test_height_command(demo):
    report = run_command("height", demo, {"element": "a"})
    value = float(report["value"])
    assert abs(value - 0.5 * math.log(1 + math.sqrt(2))) < 1e-12
    assert "abs_error" in report


def test_torsion_command(demo):
    assert run_command("torsion", demo, {"element": "-1"})["is_torsion"] is True
    assert run_command("torsion", demo, {"element": "b"})["is_torsion"] is False


def test_orbit_and_delta_commands(demo):
    rep = run_command("orbit", demo, {"element": "a", "K": "Q"})
    assert rep["delta"] == 2 and rep["conjugate_count"] == 2
    assert run_command("delta", demo, {"element": "b", "K": "Q"})["delta"] == 1


def test_vk_bounds_command(demo):
    rep = run_command("vk-bounds", demo, {"element": "a", "K": "Q"})
    lo = float(rep["lower"]["value"])
    hi = float(rep["upper"]["value"])
    assert abs(lo - 0.4406867935097715) < 1e-9
    assert abs(hi - 0.4406867935097715) < 1e-9
    assert rep["in_kdiv"] is False
    rep2 = run_command("vk-bounds", demo, {"element": "b", "K": "Q"})
    assert rep2["in_kdiv"] is True
    assert rep2["kdiv_witness"]["exponent"] == 2


def test_places_command(demo):
    rep = run_command("places", demo, {})
    assert rep["degree"] == 2
    assert len(rep["archimedean"]) == 2
    assert all(e["kind"] == "real" for e in rep["archimedean"])


def test_fvector_command(demo):
    rep = run_command("fvector", demo, {"element": "b", "scale": "1"})
    assert len(rep["arch"]) == 2 and len(rep["finite"]) == 1
    assert rep["finite"][0]["p"] == 2
    assert abs(float(rep["l1_norm"]) - math.log(2)) < 1e-12
    assert abs(float(rep["integral"])) < 1e-12


def test_member_command_on_biquadratic():
    sc = load_scenario("sqrt2_sqrt3")
    rep = run_command("member", sc, {"element": "sqrt6", "D": "K1,K2"})
    assert rep["is_member"] is True
    assert rep["witness"]["exponent"] >= 1
    rep2 = run_command("member", sc, {"element": "s2s3", "D": "K1,K2"})
    assert rep2["is_member"] is False and rep2["witness"] is None


def test_decompose_command():
    sc = load_scenario("sqrt2_sqrt3")
    rep = run_command("decompose", sc, {"element": "u13", "D": "K1", "E": "K2"})
    assert set(rep) >= {"d_part", "e_part", "is_member", "condition_ok"}


def test_commutes_command():
    sc = load_scenario("sqrt2_sqrt3")
    rep = run_command("commutes", sc,
                      {"field_list": "K1,K2,K3", "count": 5})
    assert len(rep["pairs"]) == 3
    assert all(p["commutes"] and p["galois_condition"] for p in rep["pairs"])


def test_count_only_on_commutes(capsys):
    # --count sizes the commutes sweep; the suites of verify have fixed
    # sizes, so argparse refuses it there
    with pytest.raises(SystemExit) as exc:
        main(["verify", "conjugation", "--count", "3"])
    assert exc.value.code == 2
    code = main(["commutes", "--scenario", "sqrt2_sqrt3", "--field-list",
                 "K1,K2", "--count", "3", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["elements_tested"] == 3


def test_inline_expression_element(demo):
    rep = run_command("height", demo, {"element": "2"})
    assert abs(float(rep["value"]) - math.log(2)) < 1e-12


def test_verify_single_suite():
    sc = load_scenario("zeta3")
    rep = run_command("verify", sc, {"suite": "product-formula"})
    assert rep["passed"] is True
    assert rep["suites"][0]["criterion"] == 2


def test_raising_suite_fails_alone(monkeypatch, capsys):
    import heightlab.verify as verify_mod

    def boom(scenarios, **_):
        raise RuntimeError("suite blew up")

    monkeypatch.setitem(verify_mod.SUITES, "projection-laws", (5, boom))
    code = main(["verify", "all", "--scenario", "zeta3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["passed"] is False
    by_name = {s["name"]: s for s in report["suites"]}
    assert list(by_name) == list(verify_mod.SUITES)
    failed = by_name.pop("projection-laws")
    assert failed["passed"] is False and failed["checks"] == 0
    [failure] = failed["failures"]
    assert failure.startswith("suite raised RuntimeError: suite blew up (in boom, ")
    assert all(s["passed"] for s in by_name.values())
    assert by_name["height-backend"]["checks"] and by_name["orbit-delta"]["checks"]


# -- main() exit codes ----------------------------------------------------------


def run_main(tmp_path, capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_main_success(tmp_path, capsys):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--element", "a", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "height"


def test_main_math_refusal(tmp_path, capsys):
    bad = {"v": 1, "field": [-2, 0, 0, 1]}  # x^3-2: not Galois
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--element", "t")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NotGalois"


def test_main_reducible_refusal(tmp_path, capsys):
    path = tmp_path / "red.json"
    path.write_text(json.dumps({"v": 1, "field": [-4, 0, 1]}))
    code, out = run_main(tmp_path, capsys, "places", "--scenario", str(path))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ReduciblePolynomial"


def _swinnerton_dyer(n):
    """The integer coefficients, lowest degree first, of the product of
    the x - (+-sqrt(2) +- sqrt(3) +- ... +- sqrt(p_n)) over the first n
    primes, sympy's swinnerton_dyer_poly(n), of degree 2^n: each prime p
    turns f(x) into f(x + s) f(x - s) = A^2 - p B^2 for f(x + s) = A + s B,
    s^2 = p."""
    f = Poly([0, 1])
    for p in (2, 3, 5, 7, 11, 13, 17)[:n]:
        a, b = [0] * (f.degree + 1), [0] * (f.degree + 1)
        for i, c in enumerate(f.num):
            for j in range(i + 1):  # c binom(i, j) x^j s^(i - j)
                (a if (i - j) % 2 == 0 else b)[j] += c * math.comb(i, j) * p ** ((i - j) // 2)
        f = Poly(a) * Poly(a) - Poly(b) * Poly(b) * p
    return list(f.num)


def test_field_beyond_the_degree_budget_refused_fast(tmp_path, capsys, monkeypatch):
    # SD(6), of degree 64, is refused before the irreducibility proof, as a
    # FieldTooLarge with exit code 2, as for an input the CLI does not take
    def refuse(poly):
        raise AssertionError("is_irreducible ran")

    monkeypatch.setattr(numberfield, "is_irreducible", refuse)
    coeffs = _swinnerton_dyer(6)
    assert len(coeffs) == 65 and coeffs[0] > 0
    path = tmp_path / "sd6.json"
    path.write_text(json.dumps({"v": 1, "name": "sd6", "field": coeffs}))
    start = time.perf_counter()
    code, out = run_main(tmp_path, capsys, "places", "--scenario", str(path), "--json")
    assert time.perf_counter() - start < 1
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"kind": "FieldTooLarge", "message": (
        "the defining polynomial has degree 64, beyond the budget of 32")}
    with pytest.raises(FieldTooLarge):
        numberfield.make_field([-2] + [0] * 32 + [1])
    # sympy's swinnerton_dyer_poly(3)
    assert _swinnerton_dyer(3) == [576, 0, -960, 0, 352, 0, -40, 0, 1]


def test_main_usage_errors(tmp_path, capsys):
    # parse error in an expression
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--element", "1+")
    assert code == 2
    # missing scenario
    code, _ = run_main(tmp_path, capsys, "height", "--element", "2")
    assert code == 2
    # unknown subfield
    code, out = run_main(tmp_path, capsys, "delta", "--scenario", str(path),
                         "--element", "a", "--K", "nope")
    assert code == 2


def test_main_bad_scale_is_usage_error(tmp_path, capsys):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    for bad in ("abc", "1/0"):
        code, out = run_main(tmp_path, capsys, "fvector", "--scenario",
                             str(path), "--element", "a", "--scale", bad)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SchemaError"


def test_huge_scale_refused_fast(capsys):
    # GElement raises the element to the scale's numerator, so --scale
    # 100000000 would need about 10^8 coefficient bits
    load_scenario("sqrt2")
    start = time.perf_counter()
    code = main(["fvector", "--scenario", "sqrt2", "--element", "1+t",
                 "--scale", "100000000"])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "EvalError"
    for scale in ("2", "-2", "1/2", "-2/3"):
        assert main(["fvector", "--scenario", "sqrt2", "--element", "1+t",
                     f"--scale={scale}"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("cmd, subfields", [
    ("fvector", []), ("project", ["--K", "Q"]), ("member", ["--D", "Q"]),
    ("decompose", ["--D", "Q"]),
])
def test_scale_past_the_digit_limit_refused(cmd, subfields, capsys):
    # the numerator of 1e5000 has 5001 digits, more than Python converts
    # to a string, so the budget's message names its digit count
    code = main([cmd, "--scenario", "sqrt2", "--element", "1+t", "--scale", "1e5000",
                 "--json"] + subfields)
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "EvalError"
    assert error["message"].startswith("power with 5001 digits in --scale '1e5000'")


@pytest.mark.parametrize("cmd, subfields", [("fvector", []), ("project", ["--K", "Q"])])
def test_unprintable_scale_refused(cmd, subfields, capsys):
    # the denominator of 1e-5000 has 5001 digits: both reports refuse to
    # print it, through the one formatter of exact rationals
    code = main([cmd, "--scenario", "sqrt2", "--element", "1+t", "--scale", "1e-5000",
                 "--json"] + subfields)
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "InputError"
    assert str(sys.get_int_max_str_digits()) in error["message"]


def test_power_budget_error_names_the_element(capsys):
    # with no --scale, an element over the budget is named, not "--scale None"
    n = "9" * 4000
    text = f"({n}+t)/({n}-t^3)"
    assert main(["fvector", "--scenario", "cbrt2_split", "--element", text]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "EvalError"
    assert error["message"] == \
        f"power 1 in --element {text!r} exceeds the 65536-bit coefficient budget"
    assert main(["fvector", "--scenario", "cbrt2_split", "--element", text,
                 "--scale", "1"]) == 2
    assert "in --scale '1' exceeds" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_unfactorable_norm_refused_fast(capsys):
    # the product of two 25-digit primes has no factor within the budget
    load_scenario("rationals")
    start = time.perf_counter()
    code = main(["fvector", "--scenario", "rationals", "--element",
                 "10000000000000000000000083000000000000000000000091"])
    assert time.perf_counter() - start < 2
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "FactorizationExhausted"


def test_large_unfactorable_norm_refused_fast(capsys):
    # the norm leaves a 4 555-bit composite after trial division; the p - 1
    # bound and rho iterations shrink with its size, so the refusal takes
    # about 3 s on a 2-core x86-64 host, where sympy's factorint took 19 s
    n = 10 ** 40 - 1
    load_scenario("cbrt2_split")
    start = time.perf_counter()
    code = main(["fvector", "--scenario", "cbrt2_split", "--element",
                 f"({n}+t)/({n}-t^3)"])
    assert time.perf_counter() - start < 10
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "FactorizationExhausted"


@pytest.mark.parametrize("cmd, subfields", [
    ("project", ["--K", "Q"]), ("member", ["--D", "Q"]), ("decompose", ["--D", "Q"]),
])
def test_unprintable_report_refused(cmd, subfields, capsys):
    # (1+t)^15000 is within the power budget, but its coordinates have more
    # decimal digits than Python converts to a string
    code = main([cmd, "--scenario", "sqrt2", "--element", "(1+t)^15000", "--json"]
                + subfields)
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "InputError"
    assert str(sys.get_int_max_str_digits()) in error["message"]


def test_large_printable_report_unchanged(capsys):
    code = main(["project", "--scenario", "sqrt2", "--element", "(1+t)^100",
                 "--K", "Q", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"command":"project","scenario":"sqrt2","element":"(1+t)^100","K":"Q",'
        '"op":"s","input":{"scale":"1","base":["9474112514963693341787307992090001'
        '7937","66992092050551637663438906713182313772"]},"image":{"scale":"1",'
        '"base":["1","0"]},"is_zero":true}\n')


def test_main_zero_element_refused(tmp_path, capsys):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--element", "t-t")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ZeroElement"


def test_determinism(tmp_path, capsys):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    argv = ["fvector", "--scenario", str(path), "--element", "a", "--json"]
    code1, out1 = run_main(tmp_path, capsys, *argv)
    code2, out2 = run_main(tmp_path, capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_determinism_across_processes(tmp_path):
    import subprocess
    import sys
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    cmd = [sys.executable, "-m", "heightlab.cli", "orbit",
           "--scenario", str(path), "--element", "a", "--K", "Q", "--json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["delta"] == 2


def test_bundled_scenario_lookup():
    sc = load_scenario("sqrt2")
    assert sc.name == "sqrt2"
    with pytest.raises(SchemaError):
        load_scenario("no_such_scenario")


def test_directory_scenario_is_a_schema_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_main(tmp_path, capsys, "height", "--scenario", ".", "--element", "1")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "SchemaError"


def test_directory_named_like_a_bundled_scenario_loads_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sqrt2").mkdir()
    assert load_scenario("sqrt2").name == "sqrt2"
    code, out = run_main(tmp_path, capsys, "height", "--scenario", "sqrt2",
                         "--element", "u", "--json")
    assert code == 0
    assert json.loads(out)["scenario"] == "sqrt2"


def test_scenario_file_not_utf8_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(DEMO).replace("demo", "d\xe9mo").encode("latin-1"))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--element", "a")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "SchemaError"


def test_main_strict_condition_refusal(capsys):
    # the two cube-root fields violate the pairwise Galois condition; the
    # strict mode turns the warning into a refusal
    code = main(["member", "--scenario", "cbrt2_split", "--element", "cbrt2",
                 "--D", "K1,K2", "--strict-condition"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ConditionViolated"
    # without strict mode the same run succeeds with a warning flag
    code = main(["member", "--scenario", "cbrt2_split", "--element", "cbrt2",
                 "--D", "K1,K2"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["condition_ok"] is False


def test_main_index_divisor_refusal(tmp_path, capsys):
    # the classic sqrt2+sqrt3 generator has power-basis index 8: place data
    # at p = 2 is refused with exit code 1
    doc = {"v": 1, "field": [1, 0, -10, 0, 1],
           "elements": {"a": "(t^3-9*t)/2"}}
    path = tmp_path / "classic.json"
    path.write_text(json.dumps(doc))
    code, out = run_main(tmp_path, capsys, "fvector", "--scenario", str(path),
                         "--element", "a")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "IndexDivisor"


@pytest.mark.parametrize("bits", [1100, 2048])
def test_places_beyond_float_range(capsys, bits):
    # root radii near 2^-bits lie below the smallest positive float; they
    # must still read > 0, or pairing the complex embeddings of zeta8 fails
    code = main(["places", "--scenario", "zeta8", "--precision", str(bits)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["archimedean"]) == 2
    field = load_scenario("zeta8", bits).field
    assert all(r.radius > 0 for r in field.embeddings)


def test_precision_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HEIGHTLAB_PRECISION", "128")
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--element", "a", "--json")
    assert code == 0
    report = json.loads(out)
    assert abs(float(report["value"]) - 0.4406867935097715) < 1e-12


# -- hostile numbers and per-command options ---------------------------------


def _main_error(tmp_path, capsys, doc, *argv):
    """Exit code and error report of `height` on a scenario file."""
    path = tmp_path / "hostile.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out = run_main(tmp_path, capsys, "height", "--scenario", str(path),
                         "--json", *argv)
    return code, json.loads(out)["error"]


@pytest.mark.parametrize("element", [
    "t\u00b2", "\u0661+t", "1" * 5000, "(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t",
], ids=["superscript-two", "arabic-indic-one", "5000-digits", "3000-parentheses",
        "3000-minus-signs"])
def test_hostile_element_is_a_parse_error(element, tmp_path, capsys):
    start = time.perf_counter()
    code, error = _main_error(tmp_path, capsys, DEMO, f"--element={element}")
    assert (code, error["kind"]) == (2, "ParseError")
    doc = dict(DEMO, elements={"a": element})
    code, error = _main_error(tmp_path, capsys, doc, "--element", "t")
    assert (code, error["kind"]) == (2, "ParseError")
    assert time.perf_counter() - start < 1


def test_scenario_values_python_cannot_read_are_schema_errors(tmp_path, capsys):
    # json.loads refuses an integer of more digits than Python converts
    text = json.dumps(DEMO).replace("[-2, 0, 1]", "[-" + "1" * 5000 + ", 0, 1]")
    code, error = _main_error(tmp_path, capsys, text, "--element", "t")
    assert (code, error["kind"]) == (2, "SchemaError")
    code, error = _main_error(tmp_path, capsys, "[" * 100000 + "]" * 100000,
                              "--element", "t")
    assert (code, error["kind"]) == (2, "SchemaError")


@pytest.mark.parametrize("key, value, name", [
    ("elements", {"a": 5}, "element 'a'"),
    ("elements", {"a": ["t"]}, "element 'a'"),
    ("subfields", {"K1": [2]}, "subfield 'K1'"),
    ("subfields", {"K1": "t"}, "subfield 'K1'"),
])
def test_non_string_expression_is_a_schema_error(key, value, name, tmp_path, capsys):
    code, error = _main_error(tmp_path, capsys, dict(DEMO, **{key: value}),
                              "--element", "t")
    assert (code, error["kind"]) == (2, "SchemaError")
    assert name in error["message"]


def _usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_nonnegative(value, capsys):
    # NaN or inf would pass every numeric check; a negative one fails them all
    assert _usage_error(["verify", "product-formula", "--scenario", "sqrt2",
                         f"--tolerance={value}"])
    assert main(["verify", "product-formula", "--scenario", "sqrt2",
                 "--tolerance", "0", "--json"]) == 0


@pytest.mark.parametrize("value", ["0", "-5", "16385", "100000000"])
def test_precision_outside_its_range_refused(value, capsys):
    start = time.perf_counter()
    assert _usage_error(["places", "--scenario", "sqrt2", f"--precision={value}"])
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("value", ["-3", "0", "16385"])
def test_precision_env_outside_its_range_refused(value, monkeypatch, capsys):
    monkeypatch.setenv("HEIGHTLAB_PRECISION", value)
    assert main(["places", "--scenario", "sqrt2", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemaError"


def test_lowest_precision_is_a_typed_refusal(capsys):
    # 1 bit is accepted, and refused by the root certification, not a crash
    code = main(["places", "--scenario", "cbrt2_split", "--precision", "1", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "PrecisionExhausted"


def test_verify_precision_needs_scenario(capsys):
    # the bundled corpus is built at the default precision, so without
    # --scenario the flag would be ignored
    assert _usage_error(["verify", "product-formula", "--precision", "300"])


@pytest.mark.parametrize("value", ["-1", "0"])
def test_count_must_be_positive(value, capsys):
    assert _usage_error(["commutes", "--scenario", "sqrt2_sqrt3", "--field-list",
                         "K1,K2", f"--count={value}"])


def test_count_above_its_cap_refused(capsys):
    # commutes builds the whole test set before it checks a pair
    start = time.perf_counter()
    assert _usage_error(["commutes", "--scenario", "sqrt2_sqrt3", "--field-list",
                         "K1,K2", f"--count={MAX_COUNT + 1}"])
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("value", [-1, 0, MAX_COUNT + 1, 2.5, True, "many"])
def test_run_command_checks_the_count(value):
    # the dict entry applies the command line's check: -1 used to report
    # "commutes": true over no elements, and 0 used to become 50
    sc = load_scenario("sqrt2_sqrt3")
    with pytest.raises(SchemaError):
        run_command("commutes", sc, {"field_list": "K1,K2", "count": value})


@pytest.mark.parametrize("argv, flag", [
    # 12 names of --D took about 90 s, and 14 more than 600 s
    (["member", "--element", "3", "--D", ",".join(["K1", "K2", "K3", "Q"] * 3)],
     "--D and --E"),
    (["decompose", "--element", "3", "--D", "K1,K2,K3,Q,K1", "--E", "K2,K3,Q,K1"],
     "--D and --E"),
    # 32 names made 496 pairs, which took about 8 s
    (["commutes", "--field-list", ",".join(["K1", "K2", "K3", "Q"] * 8)],
     "--field-list"),
])
def test_long_subfield_lists_refused_fast(argv, flag, capsys):
    load_scenario("cbrt2_split")
    start = time.perf_counter()
    assert main([*argv, "--scenario", "cbrt2_split"]) == 2
    assert time.perf_counter() - start < 0.5
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "SchemaError"
    assert error["message"].startswith(flag)
    assert f"at most {MAX_SUBFIELD_NAMES} subfields" in error["message"]


def test_subfield_lists_at_the_cap_run():
    sc = load_scenario("cbrt2_split")
    names = ",".join(["K1", "K2", "K3", "Q"] * 2)
    assert len(names.split(",")) == MAX_SUBFIELD_NAMES
    assert run_command("member", sc, {"element": "3", "D": names})["is_member"]
    assert len(run_command("commutes", sc, {"field_list": names})["pairs"]) == 28


def test_verify_precision_env_needs_scenario(monkeypatch, capsys):
    # like --precision, HEIGHTLAB_PRECISION would be ignored by the corpus
    monkeypatch.setenv("HEIGHTLAB_PRECISION", "64")
    assert main(["verify", "product-formula", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemaError"


# the options each command reads, with a value that works on sqrt2_sqrt3
_COMMON = {"--scenario": "sqrt2_sqrt3", "--precision": "256", "--json": None}
_READS = {
    "height": {"--element": "u12"},
    "torsion": {"--element": "u12"},
    "orbit": {"--element": "u12", "--K": "K1"},
    "delta": {"--element": "u12", "--K": "K1"},
    "width": {"--element": "u12", "--K": "K1"},
    "vk-bounds": {"--element": "u12", "--K": "K1"},
    "places": {},
    "fvector": {"--element": "u12", "--scale": "1/2"},
    "project": {"--element": "u12", "--scale": "1/2", "--K": "K2", "--op": "t"},
    "member": {"--element": "sqrt6", "--scale": "1/2", "--D": "K1,K2", "--E": "K3",
               "--strict-condition": None},
    "decompose": {"--element": "sqrt6", "--scale": "1/2", "--D": "K1,K2",
                  "--E": "K3", "--strict-condition": None},
    "commutes": {"--field-list": "K1,K2", "--count": "2"},
    "verify": {"--tolerance": "1e-9"},
}
# report fields that show the options took effect
_SHOWS = {
    "fvector": lambda r: r["element"]["scale"] == "1/2",
    "project": lambda r: (r["input"]["scale"], r["K"], r["op"]) == ("1/2", "K2", "t"),
    "member": lambda r: (r["D"], r["E"]) == (["K1", "K2"], ["K3"]),
    "decompose": lambda r: (r["D"], r["E"]) == (["K1", "K2"], ["K3"]),
    "commutes": lambda r: r["elements_tested"] == 2,
    "verify": lambda r: r["scenario"] == "sqrt2_sqrt3" and r["passed"],
}
_ALL_FLAGS = {flag: value for reads in [_COMMON, *_READS.values()]
              for flag, value in reads.items()}


def _argv(options):
    out = []
    for flag, value in options.items():
        out += [flag] if value is None else [f"{flag}={value}"]
    return out


@pytest.mark.parametrize("cmd", list(_READS))
def test_each_command_takes_only_the_options_it_reads(cmd, capsys):
    reads = {**_COMMON, **_READS[cmd]}
    for flag in _ALL_FLAGS.keys() - reads.keys():
        assert _usage_error([cmd, *_argv(_COMMON), *_argv({flag: _ALL_FLAGS[flag]})]), flag
    capsys.readouterr()
    suite = ["product-formula"] if cmd == "verify" else []
    assert main([cmd, *suite, *_argv(reads)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == cmd
    assert _SHOWS.get(cmd, lambda r: True)(report)
