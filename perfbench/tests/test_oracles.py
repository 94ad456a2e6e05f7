"""The output oracles pass on recorded outputs and fail on perturbed ones."""

import copy
import json

import oracles


def _report(cmd_id, expected, extra_results=None):
    """A report holding the recorded numbers of a command (two-level key paths only)."""
    report = {"results": {}, "diagnostics": {}}
    for path, value in expected[cmd_id].items():
        section, key = path.split(".")
        report[section][key] = value
    report["results"].update(extra_results or {})
    return report


def _failed(checks):
    return [name for name, ok, _ in checks.items if not ok]


def test_recorded_spectrum_passes_and_perturbed_gap_fails():
    expected = oracles.load_expected()
    report = _report("spectrum", expected, {"converged": True})
    assert _failed(oracles.check_command("spectrum", report, expected, {})) == []

    bad = copy.deepcopy(report)
    bad["results"]["gap"] *= 1 + 1e-9  # outside the 1e-10 relative gate
    assert _failed(oracles.check_command("spectrum", bad, expected, {})) == ["spectrum.results.gap"]

    unconverged = copy.deepcopy(report)
    unconverged["results"]["converged"] = False
    assert _failed(oracles.check_command("spectrum", unconverged, expected, {})) == ["spectrum.converged"]


def test_dissipation_and_criterion_10():
    expected = oracles.load_expected()
    report = _report("dissipation", expected, {"r_norm_ok": True})
    assert _failed(oracles.check_command("dissipation", report, expected, {})) == []
    report["results"]["r_norm_ok"] = False
    assert _failed(oracles.check_command("dissipation", report, expected, {})) == ["dissipation.r_norm_ok"]

    poisson = _report("poisson_langevin", expected)
    assert _failed(oracles.check_command("poisson_langevin", poisson, expected, {})) == []


def test_variance_against_closed_form(tmp_path):
    context = {"ar1_rows": 1_000_000, "ar1_sigma2": 6.25}
    report = {"results": {"method": "acf_ips", "sigma2": 6.3, "window_or_batches": 131},
              "diagnostics": {"n_samples": 1_000_000}}
    assert _failed(oracles.check_command("variance_acf", report, {}, context)) == []
    report["results"]["sigma2"] = 7.5  # about 9 standard errors off
    assert _failed(oracles.check_command("variance_acf", report, {}, context)) == [
        "variance_acf.sigma2_vs_closed_form"]


def test_check_pass_counts_failed_commands_and_missing_reports(tmp_path):
    expected = oracles.load_expected()
    (tmp_path / "poincare.json").write_text(json.dumps(_report("poincare", expected)))
    commands = [
        {"id": "poincare", "rc": 0},
        {"id": "bounds", "rc": 2, "error": None},
        {"id": "ode", "rc": 0},  # exit 0 but no report written
    ]
    checks = oracles.check_pass(commands, str(tmp_path), expected, {})
    assert _failed(checks) == ["bounds.exit", "ode.report"]
    assert len(checks.items) == 5  # three exits, poincare's pinned r_nu, ode's missing report
