"""Scenario schema validation and the batch command-line front end."""

import csv
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
import yaml

from twintrap import cli, dynamics, meanfield, model, pipeline
from twintrap.model import ConfigError
from twintrap.scenario import (RATE_MAX, SCHEMA_VERSION, Scenario,
                               load_scenario, parse_scenario, shipped_scenario)

from conftest import with_numerics

SHIPPED = ("fig1_cw", "fig2_sum", "fig2_half", "fig3_nanosphere")


def base_doc():
    with open(shipped_scenario("fig1_cw")) as fh:
        return yaml.safe_load(fh)


# ---------------------------------------------------------------- schema

@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_load(name):
    scenario = load_scenario(shipped_scenario(name))
    system = scenario.system()
    assert system.params.omega_mech[0] > 0


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_drive_scalars_are_python_floats(name):
    # The mean-field loop runs on Python floats; a NumPy scalar here (one
    # taken from the omega_mech array, say) keeps every value but turns
    # each step that reads it into NumPy scalar arithmetic.
    drive = load_scenario(shipped_scenario(name)).drive
    for f in dataclasses.fields(drive):
        value = getattr(drive, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            assert type(x) is float, (f.name, type(x).__name__)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_parse_alike_with_both_loaders(name):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    text = shipped_scenario(name).read_text()
    assert (yaml.load(text, Loader=yaml.CSafeLoader)
            == yaml.load(text, Loader=yaml.SafeLoader))


def test_yaml_syntax_error_exits_2(tmp_path, capsys):
    # An unclosed flow sequence; the message names the line it opens on.
    lines = shipped_scenario("fig1_cw").read_text().splitlines()
    row = lines.index("  control_fractions: [0.1, 0.1]")
    lines[row] = "  control_fractions: [0.1, 0.1"
    path = tmp_path / "broken.yaml"
    path.write_text("\n".join(lines))
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "malformed scenario file" in err and f"line {row + 1}," in err


def test_unknown_top_level_key_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_scenario(doc)


def test_unknown_nested_key_rejected():
    for section, key, value in (("cavity", "colour", "red"),
                                ("environment", "air_molecular_mass", 4.8e-26)):
        doc = base_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(doc)


def test_schema_version_enforced():
    doc = base_doc()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ConfigError, match="schema_version"):
        parse_scenario(doc)


def test_missing_section_rejected():
    doc = base_doc()
    del doc["environment"]
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_power_and_amplitude_are_exclusive():
    doc = base_doc()
    doc["drive"]["trap_amplitude_rad_s"] = 1e11
    with pytest.raises(ConfigError, match="exactly one"):
        parse_scenario(doc)


def test_modulation_frequency_requires_modulation():
    doc = base_doc()
    doc["drive"]["modulation_frequency_sum_units"] = 1.0
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_relative_detunings_resolve_against_trap_frequency():
    scenario = load_scenario(shipped_scenario("fig1_cw"))
    system = scenario.system()
    assert np.allclose(system.drive.detunings, system.params.omega_mech[0],
                       rtol=1e-12)


def test_relative_mod_frequency_resolves_to_sum(fig2_sum_scenario):
    system = fig2_sum_scenario.system()
    assert math.isclose(system.drive.mod_frequency,
                        float(system.params.omega_mech.sum()), rel_tol=1e-12)


def test_recoil_scale_override(fig3_scenario):
    sc = fig3_scenario
    assert sc.objects[0].recoil_scale == 0.1
    system = sc.system(recoil_scale=1.0)
    base = sc.system()
    assert math.isclose(system.params.recoil[0], 10 * base.params.recoil[0],
                        rel_tol=1e-12)
    # The overridden scenario's parameters are those of its own objects.
    assert [o.recoil_scale for o in system.objects] == [1.0, 1.0]
    expect = model.derive_params(system.objects, sc.geometry, sc.environment,
                                 sc.drive.trap_amplitude)
    for f in dataclasses.fields(expect):
        assert np.array_equal(getattr(system.params, f.name),
                              getattr(expect, f.name)), f.name


def test_single_object_entry_duplicates(fig1_scenario):
    assert fig1_scenario.objects[0] == fig1_scenario.objects[1]


def test_system_params_equal_derivation_with_final_drive(fig2_sum_scenario):
    sc = fig2_sum_scenario
    system = sc.system(detuning=0.7)
    expect = model.derive_params(sc.objects, sc.geometry, sc.environment,
                                 system.drive.trap_amplitude)
    for f in dataclasses.fields(expect):
        assert np.array_equal(getattr(system.params, f.name),
                              getattr(expect, f.name)), f.name


@pytest.mark.parametrize("axis,key", [
    ("detuning", "detunings_omega1_units"),
    ("control_fraction", "control_fractions"),
])
def test_override_equals_scenario_written_with_it(axis, key):
    doc = base_doc()
    overridden = parse_scenario(doc).system(**{axis: 0.7})
    doc["drive"][key] = [0.7, 0.7]
    assert overridden.drive == parse_scenario(doc).system().drive


@pytest.mark.parametrize("axis", ["detuning", "control_fraction"])
def test_drive_stack_rows_are_the_override_drives(axis):
    # Two unlike disks, so that Omega_1 != Omega_2 and the unit of the
    # detuning axis is told apart.
    doc = base_doc()
    doc["objects"].append(dict(doc["objects"][0]))
    doc["objects"][1]["density"] *= 1.2
    scenario = parse_scenario(doc)
    assert scenario.params.omega_mech[0] != scenario.params.omega_mech[1]
    values = [0.0, 0.3, 0.7, 1.0 / 3.0, 1.9]
    cw, detunings = scenario.drive_stack(axis, values)
    assert cw.shape == detunings.shape == (len(values), 2)
    for k, value in enumerate(values):
        drive = scenario.system(**{axis: value}).drive
        assert cw[k].tolist() == list(drive.cw_amplitudes)
        assert detunings[k].tolist() == list(drive.detunings)


def test_si_drive_keys_match_relative_keys(fig2_sum_scenario):
    sc = fig2_sum_scenario
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["drive"] = {
        "trap_amplitude_rad_s": sc.drive.trap_amplitude,
        "control_amplitudes_rad_s": list(sc.drive.cw_amplitudes),
        "modulation_amplitudes_rad_s": list(sc.drive.mod_amplitudes),
        "modulation_frequency_rad_s": sc.drive.mod_frequency,
        "detunings_rad_s": list(sc.drive.detunings),
    }
    si = parse_scenario(doc)
    assert si.drive == sc.drive
    for f in dataclasses.fields(sc.params):
        assert np.array_equal(getattr(si.params, f.name),
                              getattr(sc.params, f.name)), f.name


# ------------------------------------------------------------------- CLI

def write_scenario(tmp_path, doc, name="case.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_validate_ok(capsys):
    code = cli.main(["validate", "--scenario",
                     str(shipped_scenario("fig1_cw"))])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_validate_rejects_malformed(tmp_path, capsys):
    doc = base_doc()
    doc["drive"]["typo_key"] = 1
    path = write_scenario(tmp_path, doc)
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_CONFIG
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("name,drive,message", [
    ("fig2_sum", {"modulation_fractions": [0.0, 0.2]}, "below the CW"),
    ("fig1_cw", {"trap_input_power_w": 1e-30}, "Lamb-Dicke"),
    ("fig1_cw", {"trap_input_power_w": -1.0}, "trap mode must be driven"),
], ids=["modulation_above_cw", "lamb_dicke", "negative_trap_power"])
def test_validate_checks_physical_invariants(tmp_path, capsys, name, drive,
                                             message):
    with open(shipped_scenario(name)) as fh:
        doc = yaml.safe_load(fh)
    doc["drive"].update(drive)
    path = write_scenario(tmp_path, doc)
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("steps_per_period", 0), ("store_per_period", 0),
    ("steps_per_period", -64), ("t_max_tau", -5),
])
def test_non_positive_numerics_rejected(tmp_path, capsys, key, value):
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["numerics"][key] = value
    path = write_scenario(tmp_path, doc)
    for verb in ("validate", "evolve"):
        assert cli.main([verb, "--scenario", str(path)]) == cli.EXIT_CONFIG
        assert f"numerics.{key} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("name,section,key,value,message", [
    ("fig2_sum", "numerics", "t_max_tau", "long",
     "numerics.t_max_tau must be a number, not 'long'"),
    ("fig1_cw", "drive", "control_fractions", ["a", 0.1],
     "drive.control_fractions must be a number, not 'a'"),
    ("fig1_cw", "cavity", "antinode_offsets", 3,
     "cavity.antinode_offsets must be a pair"),
    ("fig2_sum", "numerics", "steps_per_period", 204.5,
     "numerics.steps_per_period must be a whole number, not 204.5"),
    ("fig2_sum", "numerics", "t_max_tau", math.inf,
     "numerics.t_max_tau must be a finite number, not inf"),
    ("fig1_cw", "environment", "temperature", math.inf,
     "environment.temperature must be a finite number, not inf"),
    ("fig2_sum", "numerics", "store_per_period", True,
     "numerics.store_per_period must be a number, not True"),
], ids=["word_horizon", "word_in_pair", "scalar_offsets", "fractional_steps",
        "infinite_horizon", "infinite_temperature", "boolean_store"])
def test_malformed_scalars_are_config_errors(tmp_path, capsys, name, section,
                                             key, value, message):
    with open(shipped_scenario(name)) as fh:
        doc = yaml.safe_load(fh)
    doc[section][key] = value
    path = write_scenario(tmp_path, doc)
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert cli.main(["validate", "--scenario",
                     str(tmp_path / "nope.yaml")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("section,value,message", [
    ("cavity", 5, "cavity must be a mapping"),
    ("environment", 5, "environment must be a mapping"),
    ("numerics", 5, "numerics must be a mapping"),
    ("sweep", 5, "sweep must be a mapping"),
    ("sweep", None, "sweep must be a mapping"),
    ("drive", [1.0], "drive must be a mapping"),
    ("objects", [5], "objects[0] must be a mapping"),
    (None, None, "malformed scenario file: 'utf-8' codec can't decode"),
], ids=["scalar_cavity", "scalar_environment", "scalar_numerics",
        "scalar_sweep", "null_sweep", "list_drive", "scalar_object",
        "not_utf8"])
def test_malformed_sections_are_config_errors(tmp_path, capsys, section,
                                              value, message):
    doc = base_doc()
    path = tmp_path / "case.yaml"
    if section is None:   # a Latin-1 comment, then the document
        path.write_bytes("# \u00c5ngstr\u00f6m\n".encode("latin-1")
                         + yaml.safe_dump(doc).encode())
    else:
        doc[section] = value
        path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_boolean_quality_is_not_a_number(tmp_path, capsys):
    doc = base_doc()
    doc["objects"][0]["mechanical_quality"] = True
    path = write_scenario(tmp_path, doc)
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_CONFIG
    assert ("objects[0].mechanical_quality must be a number, not True"
            in capsys.readouterr().err)


def test_out_naming_a_file_is_an_argument_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["validate", "--scenario",
                     str(shipped_scenario("fig1_cw")),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


VERBS = ("validate", "steady", "evolve", "sweep", "effective")
UNREAD_OPTIONS = [
    ("steady", ["--format", "csv"]),
    ("sweep", ["--format", "report"]),
    ("effective", ["--format", "csv"]),
] + [(verb, ["--meanfield", "ode"]) for verb in VERBS] \
  + [(verb, ["--diffusion", "high-t"]) for verb in VERBS]   # deleted options


@pytest.mark.parametrize("verb,option", UNREAD_OPTIONS,
                         ids=[f"{verb}{option[0]}"
                              for verb, option in UNREAD_OPTIONS])
def test_verb_rejects_options_it_does_not_read(verb, option, capsys):
    # An option a verb would ignore is an argument error (argparse exits 2).
    with pytest.raises(SystemExit) as err:
        cli.main([verb, "--scenario", str(shipped_scenario("fig1_cw")),
                  *option])
    assert err.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name,drive", [
    ("fig1_cw", {"control_fractions": [0.1, 1e300]}),
    ("fig1_cw", {"detunings_omega1_units": [1e301, 1.0]}),
    ("fig2_sum", {"modulation_frequency_sum_units": 1e305}),
], ids=["control_fraction", "detuning", "modulation_frequency"])
def test_drive_overflowing_to_infinity_is_refused(tmp_path, capsys, name,
                                                  drive):
    # Each value is finite, but not once it is scaled to rad/s.
    with open(shipped_scenario(name)) as fh:
        doc = yaml.safe_load(fh)
    doc["drive"].update(drive)
    path = write_scenario(tmp_path, doc)
    for verb in VERBS:
        assert cli.main([verb, "--scenario", str(path)]) == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("verb", VERBS)
def test_rate_whose_square_overflows_is_refused(tmp_path, capsys, verb):
    # 1e300 Omega_1 is finite in rad/s, 6.9e307, but its square (the
    # cavity response) and 200 times it (the time step) are not; at 1e100
    # Omega_1 the Routh-Hurwitz table's powers of the drift overflow.  Every
    # verb refuses both where it loads the scenario, with no warning.
    for detuning, exponent in ((1e300, 307), (1e100, 107)):
        doc = base_doc()
        doc["drive"]["detunings_omega1_units"] = [detuning, 1.0]
        path = write_scenario(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([verb, "--scenario", str(path)]) == \
                cli.EXIT_CONFIG
        assert re.search(
            rf"detuning 6\.9\d*e\+{exponent} rad/s is out of range",
            capsys.readouterr().err)


def test_scenario_built_with_a_rate_out_of_range_is_refused():
    # The library path meets the same check as a loaded file: a scenario
    # is refused where it is built, at any rate above RATE_MAX.
    scenario = load_scenario(shipped_scenario("fig1_cw"))
    for rate, refused in ((RATE_MAX, False), (1.0000001 * RATE_MAX, True)):
        drive = dataclasses.replace(scenario.drive, detunings=(1.0, -rate))
        if refused:
            with pytest.raises(ConfigError, match=r"detuning 4\.25\d*e\+37 "
                                                  "rad/s is out of range"):
                dataclasses.replace(scenario, drive=drive)
        else:
            assert dataclasses.replace(scenario, drive=drive).fastest_rate() \
                == ("detuning", RATE_MAX)


@pytest.mark.parametrize("axis,value,message", [
    ("detuning", 1e305, "detuning 1e+305 is not finite in rad/s"),
    ("control_fraction", 1e305, "control_fraction 1e+305 is not finite in "
                                "rad/s"),
    ("detuning", 1e100, "detuning 1e+100 Omega_1 = 6.9115e+107 rad/s is out "
                        "of range"),
], ids=["detuning", "control_fraction", "detuning_out_of_range"])
def test_sweep_value_overflowing_to_infinity_is_refused(tmp_path, capsys,
                                                        axis, value, message):
    # The value is finite but its rate is not, or is out of range; with
    # warnings made errors here, an overflow warning would fail the run
    # rather than print.  ``validate`` refuses it as ``sweep`` does.
    doc = base_doc()
    doc["sweep"] = {"axis": axis, "values": [0.1, value, 0.2]}
    path = write_scenario(tmp_path, doc)
    for verb in ("validate", "sweep"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([verb, "--scenario", str(path)]) == \
                cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_steady_report(tmp_path):
    code = cli.main(["steady", "--scenario", str(shipped_scenario("fig1_cw")),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "steady.json").read_text())
    assert doc["stable"] is True
    assert 0.5 <= doc["eta_min"] <= 0.75
    cov = np.array(doc["covariance"])
    assert cov.shape == (8, 8)
    assert np.allclose(cov, cov.T)


def test_steady_unstable_exit_code(tmp_path, capsys):
    doc = base_doc()
    doc["drive"]["detunings_omega1_units"] = [-1.0, -1.0]
    path = write_scenario(tmp_path, doc)
    assert cli.main(["steady", "--scenario", str(path)]) == cli.EXIT_UNSTABLE


def test_steady_at_zero_detuning_names_the_residual(tmp_path, capsys):
    doc = base_doc()
    doc["drive"]["detunings_omega1_units"] = [0.0, 0.0]
    path = write_scenario(tmp_path, doc)
    assert cli.main(["steady", "--scenario", str(path)]) == cli.EXIT_NOCONV
    assert "Lyapunov residual 3.4" in capsys.readouterr().err


def test_evolve_csv_unmodulated_is_flat(tmp_path):
    # Without modulation the covariance starts at the CW steady state and
    # stays there: a flat series at the steady eta_min.
    doc = base_doc()
    doc["numerics"] = {"t_max_tau": 3.0}
    del doc["sweep"]
    path = write_scenario(tmp_path, doc)
    code = cli.main(["evolve", "--scenario", str(path), "--format", "csv",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    with open(tmp_path / "evolve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.SERIES_COLUMNS)
    eta = np.array([float(r[1]) for r in rows[1:]])
    assert np.ptp(eta) < 1e-6
    report, _ = pipeline.steady_state(load_scenario(path).system())
    assert abs(eta[0] - report.eta_min) < 1e-6


def test_library_evolve_runs_on_the_scenario_numerics(tmp_path):
    # The library reads the step and store grids from the scenario's
    # numerics, as the CLI does: 64 steps and 16 stored samples a period,
    # so the final period holds 17 samples, and the rows are the CLI's.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["numerics"] = {"t_max_tau": 2.0, "steps_per_period": 64,
                       "store_per_period": 16}
    path = write_scenario(tmp_path, doc)
    result = pipeline.evolve(load_scenario(path).system())
    assert len(result.orbit.t) == 17
    code = cli.main(["evolve", "--scenario", str(path), "--format", "csv",
                     "--out", str(tmp_path)])
    assert code == (cli.EXIT_OK if result.orbit.converged else cli.EXIT_NOCONV)
    table = np.column_stack([result.t_over_tau, result.eta_min,
                             result.log_neg, result.nbar1, result.nbar2])
    assert (tmp_path / "evolve.csv").read_text().splitlines() == (
        [",".join(cli.SERIES_COLUMNS)]
        + [cli.ROW_FORMAT.format(*row) for row in table.tolist()])


def test_effective_steps_on_the_scenario_grid(tmp_path, monkeypatch):
    # effective takes the scenario's steps per period, as evolve does.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["numerics"]["steps_per_period"] = 64
    path = write_scenario(tmp_path, doc)
    passed = []
    orbit = dynamics.periodic_orbit

    def spy(params, drive, steps):
        passed.append(steps)
        return orbit(params, drive, steps)

    monkeypatch.setattr(dynamics, "periodic_orbit", spy)
    pipeline.effective_report(load_scenario(path).system())
    assert passed == [64]


def test_period_grid_of_the_shipped_scenarios(fig2_sum_scenario):
    # 204 steps and 34 stored samples a period on every shipped drive, and
    # on fig1_cw's tau; evolve stores the final period on evolve_grid's grid.
    for name in SHIPPED:
        scenario = load_scenario(shipped_scenario(name))
        omega_d = scenario.drive.mod_frequency
        period = (2 * math.pi / omega_d if omega_d > 0 else
                  4 * math.pi / float(scenario.params.omega_mech.sum()))
        assert pipeline.period_grid(scenario) == (period, 204, 6), name
    scenario = with_numerics(fig2_sum_scenario, t_max_tau=2.0)
    period, steps, stride, _, _ = pipeline.evolve_grid(scenario)
    orbit = pipeline.evolve(scenario).orbit
    assert len(orbit.t) == steps // stride + 1
    assert math.isclose(orbit.t[-1] - orbit.t[0], period)


@pytest.mark.parametrize("name, steps", [("fig2_sum", 64), ("fig2_half", 192),
                                         ("fig3_nanosphere", 64)])
def test_evolve_grid_of_the_shipped_scenarios(name, steps):
    # The fewest steps, a multiple of the 32 stored samples a period, whose
    # estimated step error of V_0 is within STEP_RTOL.
    scenario = load_scenario(shipped_scenario(name))
    grid = pipeline.evolve_grid(scenario)
    assert (grid.period, grid.steps, grid.stride) == (
        pipeline.period_grid(scenario)[0], steps, steps // 32)
    assert grid.step_error <= pipeline.STEP_RTOL
    if steps > 64:
        assert grid.step_error * (steps / (steps - 32)) ** 4 > pipeline.STEP_RTOL


def test_evolve_grid_takes_the_period_grid_with_no_estimate(fig1_scenario,
                                                            fig2_sum_scenario):
    for scenario in (fig1_scenario,
                     with_numerics(fig2_sum_scenario, steps_per_period=96),
                     with_numerics(fig2_sum_scenario, store_per_period=102)):
        assert pipeline.evolve_grid(scenario) == (
            *pipeline.period_grid(scenario), None, None)


def evolve_summary(tmp_path, name, **numerics):
    """(exit code, JSON summary) of ``evolve --format csv`` on a shipped
    scenario with the given numerics."""
    doc = yaml.safe_load(shipped_scenario(name).read_text())
    doc["numerics"].update(numerics)
    path = write_scenario(tmp_path, doc)
    code = cli.main(["evolve", "--scenario", str(path), "--format", "csv",
                     "--out", str(tmp_path)])
    return code, json.loads((tmp_path / "evolve_summary.json").read_text())


def test_explicit_steps_per_period_writes_no_estimate(tmp_path):
    code, summary = evolve_summary(tmp_path, "fig2_sum", t_max_tau=2.0,
                                   steps_per_period=96)
    assert code == cli.EXIT_NOCONV
    assert summary["steps_per_period"] == 96
    assert summary["step_error_estimate"] is None


@pytest.mark.parametrize("error", [meanfield.ConvergenceError("stalled", 1.0),
                                   meanfield.UnstableSystemError("unstable")],
                         ids=["stalls", "unstable"])
def test_failed_probe_falls_back_to_the_period_grid(tmp_path, monkeypatch,
                                                    error):
    # Ten tau of fig3_nanosphere (rho ~ 0.61) converge: exit 0 on either
    # grid, with the probe's failure shown only as a null estimate.
    code, summary = evolve_summary(tmp_path, "fig3_nanosphere", t_max_tau=10.0)
    assert (code, summary["steps_per_period"]) == (cli.EXIT_OK, 64)
    assert summary["step_error_estimate"] > 0

    def failing(params, drive, steps):
        raise error

    monkeypatch.setattr(dynamics, "periodic_orbit", failing)
    scenario = load_scenario(shipped_scenario("fig3_nanosphere"))
    assert pipeline.evolve_grid(scenario) == (
        *pipeline.period_grid(scenario), None, None)
    code, summary = evolve_summary(tmp_path, "fig3_nanosphere", t_max_tau=10.0)
    assert (code, summary["steps_per_period"]) == (cli.EXIT_OK, 204)
    assert summary["step_error_estimate"] is None


@pytest.mark.slow
def test_evolve_short_of_the_orbit_writes_no_estimate(fig2_sum_scenario,
                                                      fig2_sum_run):
    # After 20 tau the means are still more than 1e-2 from the periodic
    # orbit (rho ~ 0.985), so the estimate made on it is not reported; the
    # 200 tau run reaches it.
    grid = pipeline.evolve_grid(fig2_sum_scenario)
    short = pipeline.evolve(with_numerics(fig2_sum_scenario, t_max_tau=20.0))
    assert short.steps_per_period == fig2_sum_run.steps_per_period == grid.steps
    assert short.step_error_estimate is None
    assert fig2_sum_run.step_error_estimate == grid.step_error


@pytest.mark.parametrize("name", ["fig2_sum", "fig2_half"])
def test_step_error_estimate_is_within_twice_the_true_error(name):
    # The true error is against the periodic covariance on 2048 steps.
    scenario = load_scenario(shipped_scenario(name))
    grid = pipeline.evolve_grid(scenario)
    v0, _ = pipeline._periodic_start(scenario, grid.steps)
    reference, _ = pipeline._periodic_start(scenario, 2048)
    true = np.linalg.norm(v0 - reference) / np.linalg.norm(reference)
    assert true / 2 <= grid.step_error <= 2 * true


@pytest.mark.parametrize("sum_units", [None, 0.05, 0.1, 0.25, 0.45, 0.5,
                                       1.0, 2.0, 5.0, 20.0])
def test_default_grid_resolves_every_drive_period(fig2_sum_scenario,
                                                  sum_units):
    # timestep counts omega_D, and for tau max Omega >= (Omega1 + Omega2)/2,
    # so the default grid never falls below STEPS_PER_CYCLE steps a period.
    drive = fig2_sum_scenario.drive
    if sum_units is None:
        drive = drive.unmodulated()
    else:
        drive = dataclasses.replace(drive, mod_frequency=sum_units * float(
            fig2_sum_scenario.params.omega_mech.sum()))
    _, steps, _ = pipeline.period_grid(
        dataclasses.replace(fig2_sum_scenario, drive=drive))
    assert steps >= pipeline.STEPS_PER_CYCLE


def _refuse_non_finite(token):
    raise ValueError(f"non-finite JSON constant {token}")


@pytest.mark.parametrize("fmt,name", [("csv", "evolve_summary.json"),
                                      ("report", "evolve.json")])
def test_short_evolve_writes_strict_json(tmp_path, fmt, name):
    # Half a tau is less than two drive periods: the period-to-period
    # change cannot be measured, the orbit is not converged (exit 4), and
    # the change is written as null, not as a bare Infinity.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["numerics"]["t_max_tau"] = 0.5
    path = write_scenario(tmp_path, doc)
    code = cli.main(["evolve", "--scenario", str(path), "--format", fmt,
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_NOCONV
    summary = json.loads((tmp_path / name).read_text(),
                         parse_constant=_refuse_non_finite)
    assert summary["period_change"] is None
    assert summary["quasi_steady_converged"] is False


def test_sweep_deterministic(tmp_path):
    scenario_path = str(shipped_scenario("fig1_cw"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli.main(["sweep", "--scenario", scenario_path,
                         "--out", str(out)])
        assert code == cli.EXIT_OK
    text1 = (out1 / "sweep.csv").read_text()
    assert text1 == (out2 / "sweep.csv").read_text()   # byte-identical
    rows = list(csv.DictReader(text1.splitlines()))
    assert [float(r["detuning"]) for r in rows] == \
        list(load_scenario(scenario_path).sweep.values)


def test_sweep_minimum_occupancy_near_resonance(tmp_path):
    cli.main(["sweep", "--scenario", str(shipped_scenario("fig1_cw")),
              "--out", str(tmp_path)])
    rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text()
                               .splitlines()))
    best = min(rows, key=lambda r: float(r["nbar1"]))
    assert 0.8 <= float(best["detuning"]) <= 1.2


def test_sweep_keeps_unstable_rows_in_place(tmp_path, capsys):
    # Blue-detuned points have no steady state; the stacked pass must
    # leave them as ``unstable`` rows at their input positions.
    doc = base_doc()
    values = [-1.0, 1.0, -0.5, 0.5]
    doc["sweep"] = {"axis": "detuning", "values": values}
    path = write_scenario(tmp_path, doc)
    assert cli.main(["sweep", "--scenario", str(path)]) == cli.EXIT_UNSTABLE
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["stability"] for r in rows] == ["unstable", "stable"] * 2
    for value, row in zip(values[1::2], rows[1::2]):
        report, _ = pipeline.steady_state(load_scenario(path).system(
            detuning=value))
        assert math.isclose(float(row["eta_min"]), report.eta_min,
                            rel_tol=1e-10)


def test_control_fraction_sweep_rows_are_each_points_steady_state(tmp_path,
                                                                 capsys):
    doc = base_doc()
    values = [0.0, 0.01, 0.02, 0.05, 0.1]
    doc["sweep"] = {"axis": "control_fraction", "values": values}
    path = write_scenario(tmp_path, doc)
    assert cli.main(["sweep", "--scenario", str(path)]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "control_fraction,eta_min,E_N,nbar1,nbar2,stability"
    scenario = load_scenario(path)
    for value, row in zip(values, rows[1:], strict=True):
        report, _ = pipeline.steady_state(
            scenario.system(control_fraction=value))
        numbers = (value, report.eta_min, report.log_neg, report.nbar1,
                   report.nbar2)
        assert row == ",".join(f"{x:.12g}" for x in numbers) + ",stable"


def sweep_rows(tmp_path, capsys, values, code, axis="detuning"):
    doc = base_doc()
    doc["sweep"] = {"axis": axis, "values": values}
    path = write_scenario(tmp_path, doc)
    assert cli.main(["sweep", "--scenario", str(path)]) == code
    return capsys.readouterr().out.splitlines()[1:]


def test_sweep_marks_a_lyapunov_miss_unconverged(tmp_path, capsys):
    # Detuning 0 is stable but its Lyapunov residual misses the bound:
    # only its own row fails, and the sweep exits 4.
    rows = sweep_rows(tmp_path, capsys, [0.5, 0.0, 1.0], cli.EXIT_NOCONV)
    assert [row.split(",")[-1] for row in rows] == \
        ["stable", "unconverged", "stable"]
    assert rows[1] == "0,,,,,unconverged"
    assert [rows[0], rows[2]] == sweep_rows(tmp_path, capsys, [0.5, 1.0],
                                            cli.EXIT_OK)


def test_sweep_marks_a_drift_that_overflows_unconverged(tmp_path, capsys):
    # At a control fraction of 1e100 the drive is finite but the Frobenius
    # norm of its drift is not: that row alone fails, and no warning
    # escapes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_rows(tmp_path, capsys, [0.1, 1e100, 0.2],
                          cli.EXIT_NOCONV, axis="control_fraction")
    assert rows[1] == "1e+100,,,,,unconverged"
    assert [rows[0], rows[2]] == sweep_rows(
        tmp_path, capsys, [0.1, 0.2], cli.EXIT_OK, axis="control_fraction")


def test_steady_on_a_drift_that_overflows_exits_4(tmp_path, capsys):
    doc = base_doc()
    doc["drive"]["control_fractions"] = [0.1, 1e100]
    path = write_scenario(tmp_path, doc)
    assert cli.main(["steady", "--scenario", str(path)]) == cli.EXIT_NOCONV
    assert "drift is not finite" in capsys.readouterr().err


def test_sweep_exit_4_wins_over_3(tmp_path, capsys):
    # The unconverged row is neither the first nor the last failed row.
    rows = sweep_rows(tmp_path, capsys, [-1.0, 0.0, -0.5, 1.0],
                      cli.EXIT_NOCONV)
    assert [row.split(",")[-1] for row in rows] == \
        ["unstable", "unconverged", "unstable", "stable"]


def test_sweep_derives_parameters_once(tmp_path, monkeypatch):
    # Detuning overrides change only the drive, so the parameters derived
    # at load serve every sweep point.
    doc = base_doc()
    doc["sweep"] = {"axis": "detuning", "values": [0.5, 0.8, 1.0, 1.2]}
    path = write_scenario(tmp_path, doc)
    calls = []
    derive = model.derive_params
    monkeypatch.setattr(model, "derive_params",
                        lambda *args: calls.append(args) or derive(*args))
    assert cli.main(["sweep", "--scenario", str(path),
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) == 1


def test_sweep_stacks_each_parameter_set_once(tmp_path, monkeypatch):
    # The steady path solves the working points once per parameter set,
    # not once per sweep point.
    doc = base_doc()
    doc["sweep"] = {"axis": "detuning", "values": [0.5, 0.8, 1.0, 1.2]}
    path = write_scenario(tmp_path, doc)
    calls, systems = [], []
    solve = meanfield.cw_working_points
    monkeypatch.setattr(meanfield, "cw_working_points",
                        lambda *args: calls.append(args) or solve(*args))
    system = Scenario.system
    monkeypatch.setattr(Scenario, "system", lambda *args, **kwargs:
                        systems.append(kwargs) or system(*args, **kwargs))
    assert cli.main(["sweep", "--scenario", str(path),
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 5
    assert len(calls) == 1
    # The sweep drives are built as arrays, with no System per point.
    assert systems == []


def test_sweep_requires_sweep_section(tmp_path, capsys):
    doc = base_doc()
    del doc["sweep"]
    path = write_scenario(tmp_path, doc)
    assert cli.main(["sweep", "--scenario", str(path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("verb", ["validate", "sweep"])
def test_mod_frequency_sweep_axis_rejected(tmp_path, capsys, verb):
    # A steady-state sweep drops the modulation, so every row of a
    # modulation-frequency scan would be the CW state; the message points
    # at evolve instead.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["sweep"] = {"axis": "mod_frequency", "values": [0.5, 1.0, 2.0]}
    path = write_scenario(tmp_path, doc)
    assert cli.main([verb, "--scenario", str(path)]) == cli.EXIT_CONFIG
    assert "evolve" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["steady", "sweep"])
def test_steady_path_refuses_a_modulated_drive(tmp_path, capsys, verb):
    # The CW steady state of a modulated drive is not its long-time state,
    # so the steady path refuses it instead of dropping the modulation.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["sweep"] = {"axis": "detuning", "values": [0.8, 1.0]}
    path = write_scenario(tmp_path, doc)
    assert cli.main([verb, "--scenario", str(path),
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "modulated" in err and "evolve" in err
    assert not list(tmp_path.glob("*.json")) + list(tmp_path.glob("*.csv"))


def test_validate_refuses_a_sweep_section_on_a_modulated_drive(tmp_path,
                                                              capsys):
    # validate predicts sweep; evolve ignores the sweep section.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["numerics"]["t_max_tau"] = 2.0
    plain = tmp_path / "plain"
    codes = [cli.main(["evolve", "--scenario",
                       str(write_scenario(tmp_path, doc, "plain.yaml")),
                       "--format", "csv", "--out", str(plain)])]
    doc["sweep"] = {"axis": "detuning", "values": [0.8, 1.0]}
    path = str(write_scenario(tmp_path, doc))
    for verb in ("validate", "sweep"):
        assert cli.main([verb, "--scenario", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "modulated" in err and "evolve" in err
    codes.append(cli.main(["evolve", "--scenario", path, "--format", "csv",
                           "--out", str(tmp_path)]))
    # Two tau are too short to settle; the run still writes its series.
    assert codes == [cli.EXIT_NOCONV, cli.EXIT_NOCONV]
    assert ((tmp_path / "evolve.csv").read_bytes()
            == (plain / "evolve.csv").read_bytes())


def test_validate_refuses_a_negative_control_fraction_sweep(tmp_path,
                                                           capsys):
    # validate predicts sweep: both refuse a negative drive amplitude.
    doc = base_doc()
    doc["sweep"] = {"axis": "control_fraction", "values": [0.02, -0.01]}
    path = str(write_scenario(tmp_path, doc))
    for verb in ("validate", "sweep"):
        assert cli.main([verb, "--scenario", path]) == cli.EXIT_CONFIG
        assert "sweep.values" in capsys.readouterr().err


def test_effective_report_json(tmp_path):
    code = cli.main(["effective", "--scenario",
                     str(shipped_scenario("fig2_sum")), "--out",
                     str(tmp_path)])
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "effective.json").read_text())
    for key in ("j_dc", "j_first", "j_second", "omega_sum", "omega_half",
                "weak_coupling", "process_tags"):
        assert key in doc
    assert abs(doc["j_first"][0][1]) > abs(doc["j_second"][0][1])
