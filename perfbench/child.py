"""One fresh interpreter of the twintrap benchmark.

    python child.py setup RECORD SCENARIO
    python child.py run RECORD TRACE VERB --scenario ... --out ...

``setup`` times ``import twintrap``, ``load_scenario`` and
``Scenario.system`` as a user's first call pays for them, in CPU time of
this process.

``run`` does what ``python -m twintrap.cli VERB ...`` does: it imports the
package, then calls ``twintrap.cli.main`` with the arguments.  It times the
import, and the verb call in CPU time of this process.  With TRACE 1 it
first wraps every public module-level function of the layers below, plus
``Scenario.system``, at each attribute a caller looks it up by; each call
keeps one span (name, parent, start, end) in memory, and the self times and
counts derived from the spans are added to the record.  Per-step callables
(``DriveSpec.amplitude``, ``meanfield._mean_rhs``) are methods or private
and stay unwrapped, so the tracing overhead stays small.

Both modes write one JSON object to RECORD.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules of ``twintrap`` whose public functions are traced; ``readout`` is
#: reached by no CLI verb.
LAYERS = ("scenario", "model", "meanfield", "dynamics", "gaussian",
          "effective", "pipeline", "cli")

#: Span values computed from arguments or returned values, not from timers,
#: so that they repeat exactly between runs.
COUNTERS = {
    "meanfield.integrate_means": lambda args, out: len(out) - 1,
    "dynamics.evolve_covariance":
        lambda args, out: (args["a_half"].shape[0] - 1) // 2,
    "dynamics.drift_samples": lambda args, out: out.nbytes,
    "effective.effective_J_series": lambda args, out: len(args["traj"]) - 1,
    "pipeline.evolve":
        lambda args, out: [len(out.orbit.t), len(out.t_over_tau)],
}

#: Functions whose per-call durations are kept for percentiles.
DURATIONS = ("pipeline.steady_state",)


class Tracer:
    """Spans of wrapped calls, held in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []    # [name, parent index, start, end, value]
        self.stack: list[int] = [-1]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = [name, stack[-1], perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span[4] = counter(bound, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the layers' public functions and rebind every name for them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        scenario_cls = package.scenario.Scenario
        wrappers[scenario_cls.system] = self.wrap("scenario.system",
                                                  scenario_cls.system)
        scenario_cls.system = wrappers[scenario_cls.system]
        # Rebind every name a caller looks the function up by, including the
        # names imported with ``from ... import`` (``cli.load_scenario``).
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        verbs = package.cli.VERBS
        for verb, fn in verbs.items():
            verbs[verb] = wrappers.get(fn, fn)

    def summary(self) -> dict:
        """Per-function calls, self time and counter values."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for (name, _, start, end, value), inner in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "values": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
            if value is not None:
                entry["values"].append(value)
            if name in DURATIONS:
                entry.setdefault("durations_s", []).append(end - start)
        return out


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _use_checkout_source() -> None:
    if not (SRC / "twintrap" / "__init__.py").is_file():
        sys.exit(f"error: no twintrap package under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(scenario: str) -> dict:
    c0 = process_time()
    import twintrap
    twintrap.load_scenario(scenario).system()
    return {"setup_cpu_s": process_time() - c0}


def run(trace: bool, argv: list[str]) -> dict:
    before = len(sys.modules)
    t0 = perf_counter()
    import twintrap
    t1 = perf_counter()
    loaded = len(sys.modules) - before
    from twintrap import cli
    t2 = perf_counter()

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(twintrap)
    verb_cpu_s: list[float] = []
    verb_fn = cli.VERBS[argv[0]]

    def timed_verb(*args, **kwargs):
        c = process_time()
        try:
            return verb_fn(*args, **kwargs)
        finally:
            verb_cpu_s.append(process_time() - c)

    cli.VERBS[argv[0]] = timed_verb
    t3 = perf_counter()
    rc = cli.main(argv)
    t4 = perf_counter()
    record = {"rc": rc, "import_s": t1 - t0, "cli_import_s": t2 - t1,
              "main_s": t4 - t3,
              "verb_cpu_s": verb_cpu_s[0] if verb_cpu_s else None,
              "modules_loaded": loaded}
    if tracer:
        record["spans"] = tracer.summary()
        record["wrapper_cost_s"] = wrapper_cost_s()
    return record


def main() -> int:
    mode, record_path = sys.argv[1], Path(sys.argv[2])
    _use_checkout_source()
    if mode == "setup":
        record = setup(sys.argv[3])
    elif mode == "run":
        record = run(sys.argv[3] == "1", sys.argv[4:])
    else:
        sys.exit(f"error: unknown mode {mode!r}")
    record_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
