"""Command-line front end: run scenario files in batch.

Verbs:

* ``steady``    — CW steady state: entanglement report and covariance dump;
  a modulated drive is refused (exit 2), since ``evolve`` gives its state.
* ``evolve``    — time evolution under modulated driving; CSV time series
  with columns ``t_over_tau, eta_min, E_N, nbar1, nbar2`` plus a
  quasi-steady summary report.
* ``sweep``     — steady-state scan along the scenario's sweep axis;
  long-format CSV, one row per value in file order.  A point with no steady
  state reads ``unstable`` and one whose Lyapunov residual misses its bound
  ``unconverged``, with empty numbers; the exit code is the largest among
  the rows.  Refuses a modulated drive as ``steady`` does.
* ``effective`` — adiabatically eliminated coupling constants J and the
  resonance advisor frequencies.
* ``validate``  — schema and physical invariants, as loading checks them,
  and a sweep section refused as ``sweep`` refuses it: on a modulated drive,
  or with a value whose rate is not finite or out of range; no dynamics.

Exit codes (``EXIT_CODES``): 0 success, 2 invalid scenario/arguments, 3
unstable system, 4 non-converged computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Iterator
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

#: The five numbers of a CSV row of either table: a ``sweep`` row (axis
#: value and the four measures, then its stability) or an ``evolve`` row.
ROW_FORMAT = ",".join(["{:.12g}"] * 5)
#: Table rows turned into Python floats at a time while a CSV is written.
ROW_CHUNK = 1024

#: Exit code of each error a verb may end with.
EXIT_CODES = {ConfigError: EXIT_CONFIG, OSError: EXIT_CONFIG,
              UnstableSystemError: EXIT_UNSTABLE, BlowupError: EXIT_UNSTABLE,
              ConvergenceError: EXIT_NOCONV}
#: Status of a failed ``sweep`` row, from the exit code of its error.
ROW_STATUS = {EXIT_UNSTABLE: "unstable", EXIT_NOCONV: "unconverged"}


def exit_code(exc: Exception) -> int:
    """The exit code of an error, from ``EXIT_CODES``."""
    return next(code for kind, code in EXIT_CODES.items()
                if isinstance(exc, kind))


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
                      ("validate", "schema and physical invariants")):
        cmd = cmds[verb] = sub.add_parser(verb, help=doc)
        cmd.add_argument("--scenario", required=True, type=Path,
                         help="scenario file (YAML)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output directory (default: stdout)")
    # Each verb takes only the options it reads.
    cmds["evolve"].add_argument("--format", choices=("csv", "report"),
                                default="report",
                                help="tabular CSV or structured JSON report")
    return parser


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


def _csv_rows(table: np.ndarray, suffix: str = "") -> Iterator[str]:
    """Each row of a (n, 5) table as one CSV line: ``ROW_FORMAT``, then
    ``suffix``, then a newline; ``ROW_CHUNK`` rows are turned into floats
    at a time."""
    line = (ROW_FORMAT + suffix + "\n").format
    for start in range(0, len(table), ROW_CHUNK):
        for row in table[start:start + ROW_CHUNK].tolist():
            yield line(*row)


def _write_csv(args, name: str, columns, lines) -> None:
    """Write the header ``columns`` and then ``lines`` (CSV lines ending in
    a newline) to ``args.out / name``, or to stdout, as they come."""
    header = ",".join(columns) + "\n"
    if args.out is None:
        sys.stdout.write(header)
        sys.stdout.writelines(lines)
        return
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / name, "w") as fh:
        fh.write(header)
        fh.writelines(lines)


def cmd_validate(scenario: Scenario, args) -> int:
    if scenario.sweep is not None:
        pipeline.require_cw(scenario.drive)
        scenario.drive_stack(scenario.sweep.axis, scenario.sweep.values)
    _emit(args, "validate.json", json.dumps({"valid": True}))
    return EXIT_OK


def cmd_steady(scenario: Scenario, args) -> int:
    report, cov = pipeline.steady_state(scenario.system())
    extra = {"covariance": cov.tolist()}
    _emit(args, "steady.json", _report_json(report, extra))
    return EXIT_OK


def cmd_evolve(scenario: Scenario, args) -> int:
    result = pipeline.evolve(scenario.system())
    table = np.column_stack([result.t_over_tau, result.eta_min,
                             result.log_neg, result.nbar1, result.nbar2])
    # A run shorter than two periods cannot measure the change between
    # them; JSON has no infinity, so that change is written as null.
    change = float(result.orbit.period_change)
    summary = {
        "tau_seconds": result.tau,
        "quasi_steady_converged": bool(result.orbit.converged),
        "period_change": change if math.isfinite(change) else None,
        "eta_min_final_period": result.eta_min_final_period,
        "log_neg_final_period": result.log_neg_final_period,
        "steps_per_period": result.steps_per_period,
        "step_error_estimate": result.step_error_estimate,
    }
    if args.format == "csv":
        _write_csv(args, "evolve.csv", SERIES_COLUMNS, _csv_rows(table))
        if args.out is not None:
            _emit(args, "evolve_summary.json",
                  json.dumps(summary, indent=2, sort_keys=True))
    else:
        summary["series"] = [dict(zip(SERIES_COLUMNS, row))
                             for row in table.tolist()]
        _emit(args, "evolve.json",
              json.dumps(summary, indent=2, sort_keys=True))
    if not result.orbit.converged:
        return EXIT_NOCONV
    return EXIT_OK


def cmd_sweep(scenario: Scenario, args) -> int:
    if scenario.sweep is None:
        raise ConfigError("scenario has no sweep section")
    pipeline.require_cw(scenario.drive)
    axis, values = scenario.sweep.axis, scenario.sweep.values
    states = pipeline.steady_states(scenario.params,
                                    *scenario.drive_stack(axis, values))
    lines = list(_csv_rows(np.column_stack(
        [values, states.eta_min, states.log_neg, states.nbar1,
         states.nbar2]), ",stable"))
    codes = {k: exit_code(error) for k, error in states.failures.items()}
    for k, code in codes.items():
        lines[k] = f"{values[k]:.12g},,,,,{ROW_STATUS[code]}\n"
    _write_csv(args, "sweep.csv",
               (axis,) + SERIES_COLUMNS[1:] + ("stability",), lines)
    return max(codes.values(), default=EXIT_OK)


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
        return VERBS[args.verb](load_scenario(args.scenario), args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
