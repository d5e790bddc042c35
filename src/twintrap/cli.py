"""Command-line front end: run scenario files in batch.

Verbs:

* ``steady``    — CW steady state: entanglement report and covariance dump.
* ``evolve``    — time evolution under modulated driving; CSV time series
  with columns ``t_over_tau, eta_min, E_N, nbar1, nbar2`` plus a
  quasi-steady summary report.
* ``sweep``     — steady-state scan along the scenario's sweep axis;
  long-format CSV ordered as the values appear in the file.
* ``effective`` — adiabatically eliminated coupling constants J and the
  resonance advisor frequencies.
* ``validate``  — schema check only.

Exit codes: 0 success, 2 invalid scenario/arguments, 3 unstable system,
4 non-converged computation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .dynamics import BlowupError, UnstableSystemError
from .meanfield import ConvergenceError
from .model import ConfigError
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_NOCONV = 4

SERIES_COLUMNS = ("t_over_tau", "eta_min", "E_N", "nbar1", "nbar2")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twintrap",
        description="Gaussian dynamics of two optically trapped objects "
                    "coupled to a driven cavity.")
    sub = parser.add_subparsers(dest="verb", required=True)
    cmds = {}
    for verb, doc in (("steady", "CW steady-state report"),
                      ("evolve", "time evolution under modulation"),
                      ("sweep", "steady-state scan along the sweep axis"),
                      ("effective", "reduced-model coupling constants"),
                      ("validate", "schema check only")):
        cmd = cmds[verb] = sub.add_parser(verb, help=doc)
        cmd.add_argument("--scenario", required=True, type=Path,
                         help="scenario file (YAML)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output directory (default: stdout)")
    # Each verb takes only the options it reads.
    for verb in ("steady", "evolve", "sweep"):
        cmds[verb].add_argument(
            "--diffusion", choices=("exact", "high-t"), default="exact",
            help="mechanical noise strength: exact Bose factor "
                 "or high-temperature 2kT/(hbar W)")
    cmds["evolve"].add_argument("--format", choices=("csv", "report"),
                                default="report",
                                help="tabular CSV or structured JSON report")
    return parser


def _system(scenario: Scenario, args, **overrides):
    return scenario.system(diffusion_high_t=(args.diffusion == "high-t"),
                           **overrides)


def _emit(args, name: str, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / name).write_text(text)


def _report_json(report, extra: dict | None = None) -> str:
    doc = report.as_dict()
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True)


def _csv_text(columns, rows) -> str:
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_validate(scenario: Scenario, args) -> int:
    _emit(args, "validate.json", json.dumps({"valid": True}))
    return EXIT_OK


def cmd_steady(scenario: Scenario, args) -> int:
    report, cov = pipeline.steady_state(_system(scenario, args))
    extra = {"covariance": cov.tolist()}
    _emit(args, "steady.json", _report_json(report, extra))
    return EXIT_OK


def cmd_evolve(scenario: Scenario, args) -> int:
    system = _system(scenario, args)
    num = scenario.numerics
    result = pipeline.evolve(system, t_max_tau=num.t_max_tau,
                             steps_per_period=num.steps_per_period,
                             store_per_period=num.store_per_period)
    rows = zip(result.t_over_tau, result.eta_min, result.log_neg,
               result.nbar1, result.nbar2)
    series = _csv_text(SERIES_COLUMNS,
                       ([f"{v:.12g}" for v in row] for row in rows))
    final = slice(-len(result.orbit.t), None)
    summary = {
        "tau_seconds": result.tau,
        "quasi_steady_converged": bool(result.orbit.converged),
        "period_change": float(result.orbit.period_change),
        "eta_min_final_period": float(result.eta_min[final].min()),
        "log_neg_final_period": float(result.log_neg[final].max()),
    }
    if args.format == "csv":
        _emit(args, "evolve.csv", series)
        if args.out is not None:
            _emit(args, "evolve_summary.json",
                  json.dumps(summary, indent=2, sort_keys=True))
    else:
        summary["series"] = [dict(zip(SERIES_COLUMNS, map(float, row)))
                             for row in zip(result.t_over_tau, result.eta_min,
                                            result.log_neg, result.nbar1,
                                            result.nbar2)]
        _emit(args, "evolve.json",
              json.dumps(summary, indent=2, sort_keys=True))
    if not result.orbit.converged:
        return EXIT_NOCONV
    return EXIT_OK


def cmd_sweep(scenario: Scenario, args) -> int:
    if scenario.sweep is None:
        raise ConfigError("scenario has no sweep section")
    axis = scenario.sweep.axis

    rows = []
    any_unstable = False
    for value in scenario.sweep.values:   # input order: deterministic output
        system = _system(scenario, args, **{axis: value})
        try:
            report, _ = pipeline.steady_state(system)
        except UnstableSystemError:
            any_unstable = True
            rows.append([f"{value:.12g}", "", "", "", "", "unstable"])
        else:
            rows.append([f"{value:.12g}", f"{report.eta_min:.12g}",
                         f"{report.log_neg:.12g}", f"{report.nbar1:.12g}",
                         f"{report.nbar2:.12g}", "stable"])
    text = _csv_text((axis,) + SERIES_COLUMNS[1:] + ("stability",), rows)
    _emit(args, "sweep.csv", text)
    return EXIT_UNSTABLE if any_unstable else EXIT_OK


def cmd_effective(scenario: Scenario, args) -> int:
    report = pipeline.effective_report(scenario.system())
    doc = dataclasses.asdict(report)
    for key in ("j_dc", "j_first", "j_second"):
        doc[key] = np.asarray(doc[key]).tolist()
    _emit(args, "effective.json", json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


VERBS = {
    "validate": cmd_validate,
    "steady": cmd_steady,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "effective": cmd_effective,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return VERBS[args.verb](scenario, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnstableSystemError, BlowupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
