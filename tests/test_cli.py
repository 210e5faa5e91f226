"""CLI exit codes, JSON report determinism, and file outputs."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from beltrami_jets import HomogeneousPolynomial, SigmaTriple, TruncatedFactor
from beltrami_jets.cli import main
from beltrami_jets.golden import SuiteConfig, run_suite
from beltrami_jets.polynomials import poly_to_json

P = HomogeneousPolynomial


def _write_factor(path, factor):
    path.write_text(json.dumps(factor.to_json()), encoding="utf-8")
    return str(path)


def _counterexample():
    return TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1), {3: P(3, {(1, 1, 1): 2})})


def test_classify_resonant(capsys):
    assert main(["classify", "--sigma", "1,1,-4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "classify"
    assert report["results"]["risky_degrees"] == [4]
    assert report["results"]["resonant_pair_degree"] == 4
    assert report["inputs"]["sigma"] == ["1", "1", "-4"]


def test_classify_same_sign(capsys):
    assert main(["classify", "--sigma", "1,2,3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["risky_degrees"] == []


def test_classify_degenerate_sigma_exits_2(capsys):
    assert main(["classify", "--sigma", "0,1,2"]) == 2
    assert "degenerate Hessian" in capsys.readouterr().err


def test_classify_unparsable_sigma_exits_2(capsys):
    assert main(["classify", "--sigma", "1,2"]) == 2
    assert main(["classify", "--sigma", "a,b,c"]) == 2
    assert main(["classify", "--sigma", "1e3,1,1"]) == 2


def test_kernel_resonant_dimension(capsys):
    assert main(["kernel", "-i", "3", "--sigma", "1,1,-3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["dimension"] == 2
    assert len(report["results"]["basis"]) == 2
    for field in report["results"]["basis"]:
        assert field["degree"] == 3


def test_kernel_nonresonant_dimensions(capsys):
    assert main(["kernel", "-i", "3", "--sigma", "1,1,-2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dimension"] == 0
    assert main(["kernel", "-i", "1", "--sigma", "1,-1,7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dimension"] == 1


def test_kernel_degree_cap(capsys):
    assert main(["kernel", "-i", "17", "--sigma", "1,2,3"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["kernel", "-i", "17", "--sigma", "1,2,3", "--cap", "18", "--json"]) == 0
    capsys.readouterr()


def test_report_determinism(capsys):
    assert main(["kernel", "-i", "2", "--sigma", "1,1,-2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["kernel", "-i", "2", "--sigma", "1,1,-2", "--json"]) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify", "--sigma", "1,1,-5", "--json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == stdout


def test_cascade_trivial_factor_exits_0(tmp_path, capsys):
    factor = TruncatedFactor.diagonal(1, SigmaTriple(1, 2, 3))
    path = _write_factor(tmp_path / "f.json", factor)
    assert main(["cascade", "--factor", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdict"] == "TrivialOnly"


def test_cascade_counterexample_exits_1(tmp_path, capsys):
    path = _write_factor(tmp_path / "f.json", _counterexample())
    report_path = tmp_path / "out.json"
    assert main(["cascade", "--factor", path, "--json", "--report", str(report_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdict"] == "ObstructionInconclusive"
    assert json.loads(report_path.read_text(encoding="utf-8")) == report


def test_cascade_quartic_factor_exits_0(tmp_path, capsys):
    f4 = P(4, {(2, 2, 0): 1, (0, 0, 4): Fraction(1, 3)})
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), {4: f4})
    path = _write_factor(tmp_path / "f.json", factor)
    assert main(["cascade", "--factor", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdict"] == "TrivialOnly"
    assert report["results"]["risky"][0]["degree"] == 3


def test_cascade_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["cascade", "--factor", str(path)]) == 2
    assert "bad factor file" in capsys.readouterr().err


def _factor_text(f0='"1"', key="3", degree="3", k="[1, 1, 1]", c='"2"'):
    """The counterexample factor file, with raw JSON for f0 and the cubic component."""
    quadric = json.dumps(poly_to_json(P(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})))
    cubic = f'{{"degree": {degree}, "terms": [{{"k": {k}, "c": {c}}}]}}'
    return f'{{"f0": {f0}, "components": {{"2": {quadric}, "{key}": {cubic}}}}}'


@pytest.mark.parametrize(
    "text, code",
    [
        (_factor_text(), 1),
        (_factor_text(k="[1.9, 1, 1]"), 2),
        (_factor_text(k="[true, 1, 1]"), 2),
        (_factor_text(c="2e-400"), 2),
        (_factor_text(c="2"), 2),
        (_factor_text(f0="1.0"), 2),
        (_factor_text(key="03"), 2),
        (_factor_text(key=" 3"), 2),
        (_factor_text(degree='"3"'), 2),
        (_factor_text().replace('"3": ', '"3": {"degree": 3, "terms": []}, "3": '), 2),
        (_factor_text().replace('"f0"', '"f_0"'), 2),
        ("[]", 2),
        ('{"components": []}', 2),
        ("[" * 200000, 2),
        (_factor_text(c='"1e3"'), 2),
        (_factor_text(f0='"0.5"'), 2),
        (_factor_text().replace('"c": "2"}', '"c": "2"}, {"k": [1, 1, 1], "c": "-2"}'), 2),
    ],
    ids=[
        "as_documented", "float_exponent", "bool_exponent", "float_coefficient",
        "int_coefficient", "float_f0", "zero_padded_key", "space_padded_key",
        "string_degree", "duplicate_key", "unknown_key", "factor_not_object",
        "components_not_object", "nested_too_deeply", "exponent_coefficient",
        "decimal_f0", "repeated_monomial",
    ],
)
def test_cascade_factor_file_boundary(tmp_path, capsys, text, code):
    path = tmp_path / "f.json"
    path.write_text(text, encoding="utf-8")
    assert main(["cascade", "--factor", str(path)]) == code
    if code == 2:
        assert "bad factor file" in capsys.readouterr().err


def test_cascade_window_over_degree_cap_exits_2(tmp_path, capsys):
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -15))
    path = _write_factor(tmp_path / "f.json", factor)
    assert main(["cascade", "--factor", path]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["cascade", "--factor", path, "--cap", "18", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdict"] == "TrivialOnly"
    assert report["results"]["risky"][0]["degree"] == 15


def test_cascade_non_diagonal_quadric_exits_2(tmp_path, capsys):
    data = {
        "f0": "1",
        "components": {"2": poly_to_json(P(2, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): -1}))},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["cascade", "--factor", str(path)]) == 2
    assert "diagonal Hessian" in capsys.readouterr().err


def test_cascade_eps_requires_cubic(tmp_path, capsys):
    factor = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1))
    path = _write_factor(tmp_path / "f.json", factor)
    assert main(["cascade", "--factor", path, "--eps", "1/10"]) == 2
    capsys.readouterr()
    path2 = _write_factor(tmp_path / "g.json", _counterexample())
    assert main(["cascade", "--factor", path2, "--eps", "1/10", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["eps"] == "1/10"
    assert report["results"]["verdict"] == "TrivialOnly"


@pytest.mark.parametrize("eps_args", [["--eps", "1/10"], ["--eps", "0"], ["--eps=-3/2"]])
def test_cascade_eps_analyzes_the_factor_with_scaled_cubic(tmp_path, capsys, eps_args):
    eps = eps_args[-1].removeprefix("--eps=")
    cubic = P(3, {(1, 1, 1): 2 * Fraction(eps)})
    scaled = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1), {3: cubic})
    code = main(["cascade", "--factor", _write_factor(tmp_path / "f.json", _counterexample()),
                 "--json", *eps_args])
    with_eps = json.loads(capsys.readouterr().out)["results"]
    assert with_eps.pop("eps") == eps
    assert main(["cascade", "--factor", _write_factor(tmp_path / "g.json", scaled), "--json"]) == code
    assert json.loads(capsys.readouterr().out)["results"] == with_eps


def test_verify_harmonic(capsys):
    assert main(["verify-harmonic", "--max-degree", "6", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {
        "max_degree": 6,
        "planar_ok": True,
        "lifted_ok": True,
        "span_ok": True,
    }


@pytest.mark.parametrize("degree", ["-5", "0"])
def test_verify_harmonic_rejects_empty_degree_range(capsys, degree):
    assert main(["verify-harmonic", "--max-degree", degree]) == 2
    assert "max degree" in capsys.readouterr().err


def test_verify_bessel(capsys):
    assert main(["verify-bessel", "--order", "12", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["results"]) == {
        "order",
        "recurrence_ok",
        "bessel_match_ok",
        "cartesian_ok",
    }
    assert all(report["results"][k] for k in ("recurrence_ok", "bessel_match_ok", "cartesian_ok"))
    assert main(["verify-bessel", "--order", "3"]) == 2
    capsys.readouterr()


def test_suite_runs_with_small_config(tmp_path, capsys):
    config = {
        "resonance_table": [[3, "1,1,-3"]],
        "same_sign_samples": 2,
        "mixed_samples": 2,
        "sample_max_degree": 3,
        "window_zero_range": [3],
        "window_nonzero_range": [3],
        "series_order": 8,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["verify-paper-suite", "--config", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = report["results"]["checks"]
    assert len(checks) >= 10
    assert all(c["passed"] for c in checks)
    assert report["results"]["all_passed"] is True


@pytest.mark.parametrize(
    "override",
    [
        {"same_sign_samples": -3},
        {"mixed_samples": 0},
        {"sample_max_degree": 0},
        {"same_sign_samples": True},
        {"series_order": 5},
        {"resonance_table": []},
        {"pair_sigmas": []},
        {"traceless_sigmas": []},
        {"window_zero_range": []},
        {"window_nonzero_range": []},
        {"resonance_table": [[3.7, "1,1,-3"]]},
        {"resonance_table": [[True, "1,1,-3"]]},
        {"resonance_table": [[3, 5]]},
        {"resonance_table": [[3, "1,1,-3", 4]]},
        {"resonance_table": [3]},
        {"window_zero_range": [True]},
        {"window_nonzero_range": [4.0]},
        {"seed": True},
        {"seed": 1.5},
        {"pair_sigmas": [1]},
        {"pair_sigmas": "1,-1,1"},
        {"traceless_sigmas": [None]},
    ],
    ids=lambda override: next(iter(override)) + "=" + json.dumps(next(iter(override.values()))),
)
def test_suite_config_that_would_pass_vacuously_exits_2(tmp_path, capsys, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override), encoding="utf-8")
    assert main(["verify-paper-suite", "--config", str(path)]) == 2
    assert "bad suite config" in capsys.readouterr().err
    with pytest.raises(ValueError):
        SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in override.items()})


def test_crashed_checks_keep_their_names():
    class Unreadable:
        def __getattr__(self, name):
            raise RuntimeError("unreadable config")

    results = run_suite(Unreadable())
    # the names verify-paper-suite publishes, in order
    assert [r.name for r in results] == [
        "reference_rows_degree_one", "reference_rows_degree_two", "planar_harmonics_basis",
        "lifted_fields_span_resonant_kernels", "same_sign_spectra_trivial",
        "mixed_unflagged_spectra_trivial", "derived_kernel_dimensions", "resonance_relation_search",
        "coupled_window_zero_constant", "coupled_window_nonzero_constant",
        "pinned_leading_term_infeasible", "counterexample_window_reproduced",
        "epsilon_scaling_reductions", "axisymmetric_series_verified", "quartic_tail_cascade_trivial",
    ]
    crashed = [r.name for r in results if r.detail == "error: unreadable config"]
    assert crashed == [
        "lifted_fields_span_resonant_kernels", "same_sign_spectra_trivial",
        "mixed_unflagged_spectra_trivial", "coupled_window_zero_constant",
        "coupled_window_nonzero_constant", "axisymmetric_series_verified",
    ]
    assert all(r.passed for r in results if r.name not in crashed)


def test_degenerate_sigma_string_is_a_named_failure(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    config = {
        "pair_sigmas": ["1,0,1"],
        "same_sign_samples": 2,
        "mixed_samples": 2,
        "sample_max_degree": 3,
        "window_zero_range": [3],
        "window_nonzero_range": [3],
        "series_order": 8,
    }
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["verify-paper-suite", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL coupled_window_nonzero_constant: error: degenerate Hessian" in out
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 1


def test_suite_config_with_duplicate_key_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"same_sign_samples": 2, "same_sign_samples": 3}', encoding="utf-8")
    assert main(["verify-paper-suite", "--config", str(path)]) == 2
    assert "duplicate key" in capsys.readouterr().err


def test_suite_config_nested_too_deeply_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 200000, encoding="utf-8")
    assert main(["verify-paper-suite", "--config", str(path)]) == 2
    assert "bad suite config" in capsys.readouterr().err


def test_suite_fault_injection_names_the_failure(tmp_path, capsys):
    config = {
        "resonance_table": [[3, "1,1,-3"], [4, "1,2,-4"]],
        "same_sign_samples": 2,
        "mixed_samples": 2,
        "sample_max_degree": 3,
        "window_zero_range": [3],
        "window_nonzero_range": [3],
        "series_order": 8,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["verify-paper-suite", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL lifted_fields_span_resonant_kernels" in out


def test_suite_fault_injection_via_library():
    cfg = SuiteConfig(
        resonance_table=((3, "1,1,-3"), (4, "1,2,-4")),
        same_sign_samples=2,
        mixed_samples=2,
        sample_max_degree=3,
        window_zero_range=(3,),
        window_nonzero_range=(3,),
        series_order=8,
    )
    results = run_suite(cfg)
    failing = [r.name for r in results if not r.passed]
    assert failing == ["lifted_fields_span_resonant_kernels"]
