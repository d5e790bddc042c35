"""The benchmark's traced runs: ``perfbench/child.py run RECORD 1 VERB ...``
wraps the package's public functions and reads counter values off their
arguments and results (``child.COUNTERS``).  A refactor that renames those
functions or changes what they return breaks the bench's per-layer record,
so each traced verb is run here once, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from twintrap import cli
from twintrap.scenario import shipped_scenario

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def traced_run(tmp_path, *argv):
    """Run ``argv`` traced through child.py; the record and the output
    directory."""
    record, out = tmp_path / "record.json", tmp_path / "out"
    subprocess.run([sys.executable, str(CHILD), "run", str(record), "1",
                    *argv, "--out", str(out)], check=True, timeout=120,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    return json.loads(record.read_text()), out


def values(record, name):
    """The counter values of every traced call of ``name``."""
    span = record["spans"][name]
    assert len(span["values"]) == span["calls"] > 0, name
    return span["values"]


@pytest.fixture(scope="module")
def traced_effective(tmp_path_factory):
    return traced_run(tmp_path_factory.mktemp("effective"), "effective",
                      "--scenario", str(shipped_scenario("fig2_half")))


@pytest.fixture(scope="module")
def traced_evolve(tmp_path_factory):
    # Two tau of fig2_sum: four drive periods, too few for the quasi-steady
    # orbit to converge, so the run exits 4 with its output written.
    tmp = tmp_path_factory.mktemp("evolve")
    doc = yaml.safe_load(shipped_scenario("fig2_sum").read_text())
    doc["numerics"]["t_max_tau"] = 2.0
    path = tmp / "fig2_sum_2tau.yaml"
    path.write_text(yaml.safe_dump(doc))
    return traced_run(tmp, "evolve", "--format", "csv", "--scenario",
                      str(path))


@pytest.mark.parametrize("run", ["traced_effective", "traced_evolve"])
def test_traced_run_writes_its_record(run, request):
    record, out = request.getfixturevalue(run)
    assert record["verb_cpu_s"] > 0 and record["wrapper_cost_s"] >= 0
    assert record["spans"]["scenario.system"]["calls"] == 1
    assert any(out.iterdir())


def test_traced_effective_counts_mean_steps(traced_effective):
    record, out = traced_effective
    assert record["rc"] == cli.EXIT_OK
    assert (out / "effective.json").is_file()
    steps = values(record, "meanfield.integrate_means")
    assert all(isinstance(n, int) and n > 0 for n in steps)


def test_traced_evolve_counts_samples_and_steps(traced_evolve):
    record, out = traced_evolve
    assert record["rc"] == cli.EXIT_NOCONV
    rows = (out / "evolve.csv").read_text().splitlines()[1:]
    [[orbit, samples]] = values(record, "pipeline.evolve")
    assert samples == len(rows) and 1 < orbit < samples
    # The run's pass, then the final period's again at every step.
    [steps, cycle] = values(record, "dynamics.evolve_covariance")
    assert steps > 0 and steps % (samples - 1) == 0
    assert cycle * (samples - 1) == steps * (orbit - 1)
