"""twintrap benchmark: runs the public CLI on three workloads.

    python3 perfbench/run.py --workload cw_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  One client runs one CLI verb at a
time, each in a fresh interpreter (a closed loop), for ``--seconds`` seconds,
the first of which go to ``SETUP_PROBES`` fresh set-ups: it starts no CLI run
that would end past that time, and always makes at least one.  The client
and its children share one CPU; while a child runs, the client times short
bursts of a fixed reference kernel on that CPU, and the child's CPU time is
scaled to the kernel's nominal speed.  Every output is checked.
``--trace 1`` instead makes one traced CLI run and reports per-layer self
times and counts.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep, thread_time

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "src" / "twintrap" / "scenarios"
WORK = HERE / "_work"

#: Fresh-process set-ups timed per untraced run, after one untimed warm-up
#: that writes the bytecode cache; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Sweep points per ``cw_sweep`` CLI run: enough for a p99 with ten points
#: beyond it in the traced run.
SWEEP_POINTS = 1500
#: The stable detuning band of ``fig1_cw``, in units of Omega_1.
DETUNING_BAND = (0.2, 2.0)
#: Horizon of ``mod_evolve`` in tau: ``fig2_sum`` reports
#: ``quasi_steady_converged`` with period_change 9.7e-5, ten times below the
#: 1e-3 tolerance; at 100 tau it misses (1.6e-3) and the CLI exits 4.
EVOLVE_HORIZON_TAU = 160.0
#: Kill a CLI run that takes longer than this.
CHILD_TIMEOUT_S = 150.0
#: Steps of one reference burst (small NumPy steps, then scalar Python
#: steps), and the pause after each.  A burst takes about 1 ms, so the
#: reference takes some 5% of the shared CPU.
REF_NUMPY_STEPS = 200
REF_PYTHON_STEPS = 1500
REF_PAUSE_S = 0.02
#: Reference bursts per CPU second that define the nominal speed.  Beside
#: the CLI, a 2-vCPU shared VM (Intel Xeon, Python 3.11, NumPy 2.4) ran 750
#: to 1740 as other tenants came and went.
REF_NOMINAL_RATE = 1000.0
#: One thread per child: the client and the child share one CPU.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

_REF_MATRIX = 0.2 * np.eye(4) + 0.05
_REF_VECTOR = np.arange(1.0, 5.0)

SERIES_COLUMNS = ["t_over_tau", "eta_min", "E_N", "nbar1", "nbar2"]


# Workloads pass only the flags ``--scenario``, ``--out`` and ``--format``:
# later work is expected to keep them, while ``--threads``, ``--meanfield``,
# ``--diffusion`` and ``--jformula`` may go.
class Workload:
    """One scenario and verb, with the checks on its output.

    ``prepare`` writes the inputs and returns the CLI arguments (without
    ``--out``); ``check`` reads one run's output directory and returns
    (operations attempted, operations failed, output rows, info).
    """

    name = ""
    verb = ""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, work: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[int, int, int, dict]:
        raise NotImplementedError

    def operations(self) -> int:
        return 1


class CwSweep(Workload):
    """``sweep`` over a seeded detuning grid of ``fig1_cw``.

    The grid is drawn in the stable band, one point in each of
    ``SWEEP_POINTS`` equal slices of it, so every seed covers the band
    alike and costs the same work; it is shuffled, so the input-order check
    means something.  Only the detuning axis is swept: the
    ``mod_frequency`` axis runs the CW steady state and silently drops the
    modulation.
    """

    name, verb = "cw_sweep", "sweep"

    def prepare(self, work: Path) -> list[str]:
        rng = random.Random(self.seed)
        lo, hi = DETUNING_BAND
        width = (hi - lo) / SWEEP_POINTS
        self.values = [lo + (i + rng.random()) * width
                       for i in range(SWEEP_POINTS)]
        rng.shuffle(self.values)
        doc = yaml.safe_load((SCENARIOS / "fig1_cw.yaml").read_text())
        doc["sweep"] = {"axis": "detuning", "values": self.values}
        path = work / "cw_sweep.yaml"
        path.write_text(yaml.safe_dump(doc))
        return [self.verb, "--scenario", str(path)]

    def operations(self) -> int:
        return SWEEP_POINTS

    def check(self, out: Path) -> tuple[int, int, int, dict]:
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["detuning"] + SERIES_COLUMNS[1:] + ["stability"]:
            return SWEEP_POINTS, SWEEP_POINTS, 0, {}
        rows = rows[1:]
        failed = abs(len(rows) - SWEEP_POINTS)
        etas = []
        for value, row in zip(self.values, rows):
            numbers = [float(x) for x in row[:5]]
            eta, _, nbar1, nbar2 = numbers[1:]
            ok = (row[5] == "stable" and all(map(math.isfinite, numbers))
                  and math.isclose(numbers[0], value, rel_tol=1e-11)
                  and eta > 0 and nbar1 >= 0 and nbar2 >= 0)
            failed += not ok
            etas.append(eta)
        info = {"eta_min_lowest": min(etas), "eta_min_highest": max(etas)}
        return SWEEP_POINTS, failed, len(rows), info


class ModEvolve(Workload):
    """``evolve --format csv`` on ``fig2_sum`` at ``EVOLVE_HORIZON_TAU``.

    The physics is the shipped scenario's; only the horizon is set.  The
    final-period window is found from the time column, not from the
    summary's ``eta_min_final_period``, whose window misses part of a period.
    """

    name, verb = "mod_evolve", "evolve"

    def prepare(self, work: Path) -> list[str]:
        doc = yaml.safe_load((SCENARIOS / "fig2_sum.yaml").read_text())
        doc["numerics"]["t_max_tau"] = EVOLVE_HORIZON_TAU
        # The drive period in tau units: tau = 4 pi / (W1 + W2).
        self.period_tau = 0.5 / doc["drive"]["modulation_frequency_sum_units"]
        path = work / "mod_evolve.yaml"
        path.write_text(yaml.safe_dump(doc))
        return [self.verb, "--scenario", str(path), "--format", "csv"]

    def check(self, out: Path) -> tuple[int, int, int, dict]:
        summary = json.loads((out / "evolve_summary.json").read_text())
        with open(out / "evolve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != SERIES_COLUMNS or len(rows) < 3:
            return 1, 1, 0, {}
        series = [[float(x) for x in row] for row in rows[1:]]
        t = [s[0] for s in series]
        ok = (summary["quasi_steady_converged"] is True
              and all(math.isfinite(v) for v in summary.values()
                      if not isinstance(v, bool))
              and all(math.isfinite(x) for s in series for x in s)
              and all(s[1] > 0 and s[3] >= 0 and s[4] >= 0 for s in series)
              and all(b > a for a, b in zip(t, t[1:])))
        start = t[-1] - self.period_tau * (1 + 1e-9)
        final = [s[1] for s in series if s[0] >= start]
        info = {"eta_min_final_period": min(final),
                "period_change": summary["period_change"]}
        return 1, int(not ok), len(series), info


class EffectiveHalf(Workload):
    """``effective`` on the shipped ``fig2_half`` (omega_D = Omega_1)."""

    name, verb = "effective_half", "effective"

    def prepare(self, work: Path) -> list[str]:
        return [self.verb, "--scenario", str(SCENARIOS / "fig2_half.yaml")]

    def check(self, out: Path) -> tuple[int, int, int, dict]:
        doc = json.loads((out / "effective.json").read_text())
        numbers = [x for key in ("j_dc", "j_first", "j_second")
                   for row in doc[key] for x in row]
        numbers += [doc["harmonic_residual"], doc["omega_sum"],
                    doc["omega_half"]]
        ok = (len(numbers) == 15 and all(map(math.isfinite, numbers))
              and doc["omega_sum"] > 0 and doc["omega_half"] > 0
              and isinstance(doc["process_tags"], list))
        info = {"j_dc_12": doc["j_dc"][0][1], "j_second_12": doc["j_second"][0][1]}
        return 1, int(not ok), 1, info


WORKLOADS = {w.name: w for w in (CwSweep, ModEvolve, EffectiveHalf)}


def _reference_burst() -> float:
    """A fixed stretch of small NumPy steps and scalar math in Python loops,
    like the program's integrators, so it slows down with the CPU as they
    do."""
    x = _REF_VECTOR
    for _ in range(REF_NUMPY_STEPS):
        x = _REF_MATRIX @ x * 0.5 + _REF_VECTOR
    total = 0.0
    for i in range(REF_PYTHON_STEPS):
        total += math.sin(i * 0.1) * 0.5
    return total + x[0]


def _pin_to_one_cpu() -> None:
    """Keep the client and its children on one CPU, so that the reference
    bursts see the speed the child sees."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _child(args: list[str], importtime: bool = False,
           reference: bool = False) -> dict:
    """Run child.py to its end.

    Returns its record (None if it failed), wall seconds, stderr, and with
    ``reference`` the CPU seconds of the reference bursts run meanwhile and
    ``speed``: their rate over the nominal rate.
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), *args]
    record_path = Path(args[1])
    err_path = record_path.with_suffix(".stderr")
    bursts, ref_cpu, timed_out = 0, 0.0, False
    t0 = perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            while True:
                if reference:
                    c = thread_time()
                    _reference_burst()
                    ref_cpu += thread_time() - c
                    bursts += 1
                if proc.poll() is not None:
                    break
                if perf_counter() - t0 > CHILD_TIMEOUT_S:
                    timed_out = True
                    break
                sleep(REF_PAUSE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    wall = perf_counter() - t0
    stderr = "timeout" if timed_out else err_path.read_text()
    result = {"record": None, "wall_s": wall, "stderr": stderr,
              "ref_cpu_s": ref_cpu,
              "speed": (bursts / ref_cpu / REF_NOMINAL_RATE
                        if ref_cpu > 0 else None)}
    if not timed_out and proc.returncode == 0 and record_path.exists():
        result["record"] = json.loads(record_path.read_text())
    return result


def _cli_run(workload: Workload, argv: list[str], work: Path, trace: bool):
    """One CLI run plus its checks; untraced runs are timed against the
    reference."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    result = _child(["run", str(record_path), "1" if trace else "0",
                     *argv, "--out", str(out)],
                    importtime=trace, reference=not trace)
    record = result["record"]
    ops = workload.operations()
    result.update(attempted=ops, failed=ops, rows=0, info={})
    if record is None or record["rc"] != 0 or record["verb_cpu_s"] is None:
        sys.stderr.write(f"run failed: {result['stderr'][-2000:]}\n")
        return result
    try:
        attempted, failed, rows, info = workload.check(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        sys.stderr.write(f"output check failed: {exc!r}\n")
        return result
    if result["speed"] is not None:
        info["speed"] = result["speed"]
    result.update(attempted=attempted, failed=failed, rows=rows, info=info)
    result["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return result


def _setup_probe(work: Path, scenario: str) -> float | None:
    """CPU seconds of one fresh set-up at the nominal speed."""
    record_path = work / "setup.json"
    record_path.unlink(missing_ok=True)
    result = _child(["setup", str(record_path), scenario], reference=True)
    if result["record"] is None or result["speed"] is None:
        sys.stderr.write(f"setup probe failed: {result['stderr'][-2000:]}\n")
        return None
    return result["record"]["setup_cpu_s"] * result["speed"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, argv: list[str], work: Path,
            seconds: float) -> tuple[int, int, dict, list]:
    """Untraced runs: end-to-end metrics."""
    scenario = argv[argv.index("--scenario") + 1]
    start = perf_counter()
    # The first set-up writes the bytecode cache and is not in the median.
    setups = [_setup_probe(work, scenario) for _ in range(SETUP_PROBES + 1)]
    runs = []
    while True:
        runs.append(_cli_run(workload, argv, work, trace=False))
        elapsed = perf_counter() - start
        if elapsed + runs[-1]["wall_s"] > seconds:
            break
    # A failed set-up counts as one more failed operation.
    attempted = sum(r["attempted"] for r in runs) + setups.count(None)
    failed = sum(r["failed"] for r in runs) + setups.count(None)
    good = [r for r in runs if r["record"] is not None and r["rows"] > 0
            and r["speed"] is not None]
    if not good or None in setups:
        return attempted, max(failed, 1), {}, runs
    # Times at the nominal speed: CPU seconds scaled by the reference speed.
    # The wall time leaves out the CPU the reference bursts took from it.
    solve = [r["record"]["verb_cpu_s"] * r["speed"] for r in good]
    wall = [(r["wall_s"] - r["ref_cpu_s"]) * r["speed"] for r in good]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setups[1:]), "s"),
        "solve_s": _metric(statistics.median(solve), "s"),
        "wall_s": _metric(statistics.median(wall), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MiB"),
        "points_per_s": _metric(statistics.median(
            r["rows"] / t for r, t in zip(good, solve)), "1/s"),
    }
    return attempted, failed, metrics, runs


def _import_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output.

    A package loaded through a lazy attribute (``from scipy import
    constants``) has no line of its own, so the outermost lines of the
    package and its submodules are summed.
    """
    found = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2].rstrip()
        if name.strip() == module or name.strip().startswith(module + "."):
            depth = len(name) - len(name.lstrip())
            found.append((depth, int(parts[1]) / 1e6))
    if not found:
        return 0.0
    top = min(depth for depth, _ in found)
    return sum(s for depth, s in found if depth == top)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of one traced run."""
    record, spans = run["record"], run["record"]["spans"]

    def fn(name: str) -> dict:
        return spans.get(name, {"calls": 0, "self_s": 0.0, "values": []})

    def layer_self(layer: str) -> float:
        return sum((v["self_s"] for k, v in spans.items()
                    if k.split(".")[0] == layer), 0.0)

    def per_step_us(name: str) -> float:
        steps = sum(fn(name)["values"])
        return fn(name)["self_s"] / steps * 1e6 if steps else 0.0

    integrated = sum(fn("meanfield.integrate_means")["values"])
    projected = sum(fn("effective.effective_J_series")["values"])
    orbit = fn("pipeline.evolve")["values"]
    steady_ms = [1e3 * d for d in fn("pipeline.steady_state").get("durations_s", [])]
    calls = sum(v["calls"] for v in spans.values())
    overhead = calls * record["wrapper_cost_s"]
    traced_s = record["import_s"] + record["cli_import_s"] + record["main_s"]

    values = {
        "startup.import_s": (record["import_s"], "s"),
        "startup.modules_loaded": (record["modules_loaded"], "count"),
        "startup.scipy_optimize_s": (
            _import_cumulative_s(run["stderr"], "scipy.optimize"), "s"),
        "startup.scipy_constants_s": (
            _import_cumulative_s(run["stderr"], "scipy.constants"), "s"),
        "scenario.self_s": (layer_self("scenario"), "s"),
        "scenario.load_scenario.self_s": (fn("scenario.load_scenario")["self_s"], "s"),
        "scenario.system.calls": (fn("scenario.system")["calls"], "count"),
        "scenario.system.self_s": (fn("scenario.system")["self_s"], "s"),
        "model.self_s": (layer_self("model"), "s"),
        "model.derive_params.calls": (fn("model.derive_params")["calls"], "count"),
        "model.derive_params.self_s": (fn("model.derive_params")["self_s"], "s"),
        "meanfield.self_s": (layer_self("meanfield"), "s"),
        "meanfield.steady_means.calls": (fn("meanfield.steady_means")["calls"], "count"),
        "meanfield.steady_means.self_s": (fn("meanfield.steady_means")["self_s"], "s"),
        "meanfield.integrate_means.self_s": (fn("meanfield.integrate_means")["self_s"], "s"),
        "meanfield.integrate_means.steps": (integrated, "count"),
        "meanfield.integrate_means.us_per_step": (
            per_step_us("meanfield.integrate_means"), "us"),
        "dynamics.self_s": (layer_self("dynamics"), "s"),
        "dynamics.stability_check.calls": (fn("dynamics.stability_check")["calls"], "count"),
        "dynamics.stability_check.self_s": (fn("dynamics.stability_check")["self_s"], "s"),
        "dynamics.lyapunov_steady.self_s": (fn("dynamics.lyapunov_steady")["self_s"], "s"),
        "dynamics.drift_samples.self_s": (fn("dynamics.drift_samples")["self_s"], "s"),
        "dynamics.drift_samples.bytes_computed": (
            sum(fn("dynamics.drift_samples")["values"]), "bytes"),
        "dynamics.evolve_covariance.self_s": (fn("dynamics.evolve_covariance")["self_s"], "s"),
        "dynamics.evolve_covariance.steps": (
            sum(fn("dynamics.evolve_covariance")["values"]), "count"),
        "dynamics.evolve_covariance.us_per_step": (
            per_step_us("dynamics.evolve_covariance"), "us"),
        "gaussian.self_s": (layer_self("gaussian"), "s"),
        "gaussian.eta_min.calls": (fn("gaussian.eta_min")["calls"], "count"),
        "effective.self_s": (layer_self("effective"), "s"),
        "effective.useful_step_frac": (
            projected / integrated if projected else 0.0, "ratio"),
        "pipeline.self_s": (layer_self("pipeline"), "s"),
        "pipeline.steady_state.p50_ms": (_percentile(steady_ms, 0.50), "ms"),
        "pipeline.steady_state.p99_ms": (_percentile(steady_ms, 0.99), "ms"),
        "pipeline.evolve.useful_sample_frac": (
            sum(o[0] for o in orbit) / sum(o[1] for o in orbit) if orbit else 0.0,
            "ratio"),
        "cli.self_s": (layer_self("cli") + record["cli_import_s"], "s"),
        "cli.output_bytes": (run["output_bytes"], "bytes"),
        "cli.output_rows": (run["rows"], "count"),
        "trace.overhead_frac": (overhead / (record["main_s"] - overhead), "ratio"),
        "trace.uncovered_frac": (1 - traced_s / run["wall_s"], "ratio"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twintrap" / "__init__.py").is_file():
        print(f"error: no twintrap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli_argv = workload.prepare(work)

    if args.trace:
        run = _cli_run(workload, cli_argv, work, trace=True)
        attempted, failed = run["attempted"], run["failed"]
        metrics = layer_metrics(run) if failed == 0 else {}
        infos = [run["info"]]
    else:
        attempted, failed, metrics, runs = measure(workload, cli_argv, work,
                                                   args.seconds)
        infos = [r["info"] for r in runs]
    for info in infos:
        if info:
            print(f"info {workload.name}: " + json.dumps(info))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
