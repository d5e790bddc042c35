"""Scenario schema validation and the batch command-line front end."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
import yaml

from twintrap import cli, model, pipeline
from twintrap.model import ConfigError
from twintrap.scenario import (SCHEMA_VERSION, load_scenario, parse_scenario,
                               shipped_scenario)

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


def test_unknown_top_level_key_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_scenario(doc)


def test_unknown_nested_key_rejected():
    doc = base_doc()
    doc["cavity"]["colour"] = "red"
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
    assert fig3_scenario.objects[0].recoil_scale == 0.1
    system = fig3_scenario.system(recoil_scale=1.0)
    base = fig3_scenario.system()
    assert math.isclose(system.params.recoil[0], 10 * base.params.recoil[0],
                        rel_tol=1e-12)


def test_single_object_entry_duplicates(fig1_scenario):
    assert fig1_scenario.objects[0] == fig1_scenario.objects[1]


def test_system_params_equal_derivation_with_final_drive(fig2_sum_scenario):
    sc = fig2_sum_scenario
    system = sc.system(detuning=0.7)
    expect = model.derive_params(sc.objects, sc.geometry, sc.environment,
                                 system.drive)
    for f in dataclasses.fields(expect):
        assert np.array_equal(getattr(system.params, f.name),
                              getattr(expect, f.name)), f.name


def test_rescaled_divides_exactly_the_declared_rates(fig1_scenario):
    system = fig1_scenario.system()
    rates = {f.name for f in dataclasses.fields(system.params)
             if f.metadata.get("rate")}
    assert rates == {"omega_mech", "gamma", "recoil", "kappa", "g_bare",
                     "g_lin", "g_quad"}
    scale = 3.7
    scaled = system.rescaled(scale).params
    for f in dataclasses.fields(system.params):
        before = getattr(system.params, f.name)
        after = getattr(scaled, f.name)
        if f.name in rates:
            assert np.array_equal(after, before / scale), f.name
        else:
            assert after is before, f.name


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


def test_missing_file_is_config_error(tmp_path, capsys):
    assert cli.main(["validate", "--scenario",
                     str(tmp_path / "nope.yaml")]) == cli.EXIT_CONFIG


VERBS = ("validate", "steady", "evolve", "sweep", "effective")
UNREAD_OPTIONS = [
    ("steady", ["--format", "csv"]),
    ("sweep", ["--format", "report"]),
    ("validate", ["--diffusion", "high-t"]),
    ("effective", ["--diffusion", "high-t"]),
    ("effective", ["--format", "csv"]),
] + [(verb, ["--meanfield", "ode"]) for verb in VERBS]   # a deleted option


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


def test_mod_frequency_override_still_applies(fig2_sum_scenario):
    w1, w2 = fig2_sum_scenario.system().params.omega_mech
    system = fig2_sum_scenario.system(mod_frequency=0.5)
    assert math.isclose(system.drive.mod_frequency, 0.5 * (w1 + w2))


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
