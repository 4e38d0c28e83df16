"""eufinterp benchmark: seeded workloads through the three routes, every output checked.

    python3 bench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory.  One process, closed loop, one instance at a time, no threads.  A
run repeats whole passes (every instance of the workload once, in order)
until ``--seconds`` have gone by.  Per instance it times three routes:

* ``interp``: ``core.parse_problem`` then ``interpolate.interpolate`` (greedy);
* ``verify``: ``verify.check_interpolant`` on that interpolant;
* ``bridge``: ``game.euf_bridge``, ``normalize_root``, ``coloring_cut``,
  ``run_from_cut``, ``game_interpolant``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with spans around each module's public functions,
prints the per-layer metrics and writes the spans to ``bench/out/``.  The
last line of standard output is one JSON object; see ``bench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MODULES = ("core", "congruence", "coloring", "interpolate", "verify", "game", "generate")
SETUP_REPEATS = 5

# Workloads on which the bridge fails today by a documented defect.  There the
# listed errors are tallied as known limits, not as failed operations, and the
# time to failure stands in for bridge_ms.p50.  Any other outcome is checked
# and counted as usual.
BRIDGE_PROBES = {"wide-class": ("InvalidCutError", "RecursionError")}

END_TO_END = {
    "interp_ms.p50": "ms",
    "interp_ms.p90": "ms",
    "verify_ms.p50": "ms",
    "bridge_ms.p50": "ms",
    "solve_per_s": "1/s",
    "clauses": "count",
    "atoms": "count",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_library() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, afresh each call."""
    src = ROOT / "src"
    if not (src / "eufinterp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no eufinterp package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "eufinterp" or m.startswith("eufinterp.")]:
        del sys.modules[name]
    # Package attributes are shadowed (eufinterp.interpolate is the function),
    # so each module is reached by its import path.
    lib = SimpleNamespace(**{m: importlib.import_module(f"eufinterp.{m}") for m in MODULES})
    if Path(lib.core.__file__).resolve().parent != src / "eufinterp":
        raise SystemExit(f"bench: imported eufinterp from {lib.core.__file__}, not {src}")
    return lib


def route_interp(lib, text):
    problem = lib.core.parse_problem(text)
    return problem, lib.interpolate.interpolate(problem)


def route_verify(lib, problem, result):
    return lib.verify.check_interpolant(problem, result.interpolant)


def route_bridge(lib, problem, stages: dict):
    game = lib.game
    stages["tree"] = tree = game.normalize_root(game.euf_bridge(problem))
    stages["cut"] = cut = game.coloring_cut(tree)
    stages["run"] = run = game.run_from_cut(tree, *cut)
    stages["interpolant"] = formulas = game.game_interpolant(run)
    return formulas


ROUTES = {"interp": route_interp, "verify": route_verify, "bridge": route_bridge}


def set_up(workload: str, seed: int):
    """Import, generate, prove every instance unsatisfiable, warm up."""
    start = perf_counter()
    lib = load_library()
    instances = workloads.build(workload, seed, lib.generate)
    for index, inst in enumerate(instances):
        problem = lib.core.parse_problem(inst.text)
        if not lib.verify.literal_set_unsat(problem.a_literals + problem.b_literals):
            raise SystemExit(f"bench: {workload} instance {index} is satisfiable")
    problem, result = route_interp(lib, instances[0].text)
    route_verify(lib, problem, result)
    try:
        route_bridge(lib, problem, {})
    except Exception:  # the loop counts or probes the same failure
        pass
    return lib, instances, perf_counter() - start


class Runner:
    """Runs passes over the instances, times routes, checks and counts."""

    def __init__(self, lib, workload: str, seed: int, instances) -> None:
        self.lib, self.workload, self.seed = lib, workload, seed
        self.instances = instances
        self.routes = dict(ROUTES)
        self.known = BRIDGE_PROBES.get(workload, ())
        # route -> instance index -> calibrated seconds of each successful
        # attempt; "probe" holds the bridge's known-limit failures.
        self.times: dict[str, dict[int, list[float]]] = {r: {} for r in (*ROUTES, "probe")}
        self.probes: Counter = Counter()
        self.clock = calibrate.Calibrated()
        self.pass_scale: dict[int, float] = {}
        self.attempted = self.failed = 0
        self.clauses = self.atoms = 0
        self._texts: dict[tuple[str, int], str] = {}
        self.layer_passes: list[Counter] = []  # trace counters, one per traced pass

    def _fail(self, index: int, route: str, why: str) -> None:
        self.failed += 1
        print(
            f"bench: FAIL workload={self.workload} seed={self.seed} instance={index} "
            f"route={route} error={why}",
            file=sys.stderr,
        )

    def _call(self, route: str, *args):
        start = perf_counter()
        try:
            value = self.routes[route](self.lib, *args)
        except Exception as exc:  # a failing route is counted, never fatal
            return None, perf_counter() - start, exc
        return value, perf_counter() - start, None

    def _same_as_first(self, route: str, index: int, text: str) -> bool:
        return self._texts.setdefault((route, index), text) == text

    def _check_interp(self, index: int, inst, result) -> str | None:
        clauses = result.interpolant.clauses
        if ("interp", index) not in self._texts:
            self.clauses += len(clauses)
            self.atoms += result.atom_count
        text = self.lib.interpolate.format_conjunction(result.interpolant)
        if not self._same_as_first("interp", index, text):
            return "check:text-differs-from-first"
        if inst.family == "chain" and len(clauses) != inst.meta["a_factors"]:
            return "check:chain-clauses"
        if inst.family == "crossing" and len(result.repair_vertices) != inst.size:
            return "check:repair-vertices"
        if inst.family == "wide-class" and len(clauses) != 1:
            return "check:wide-class-clauses"
        return None

    def _check_bridge(self, index: int, problem, formulas) -> str | None:
        lib = self.lib
        text = lib.game.format_game_interpolant(formulas)
        if ("bridge", index) not in self._texts:
            horn = lib.interpolate.parse_conjunction(text, problem.table, problem.symbols)
            if not lib.verify.check_interpolant(problem, horn).accepted:
                return "check:game-interpolant-rejected"
        if not self._same_as_first("bridge", index, text):
            return "check:text-differs-from-first"
        return None

    def _checked(self, check, *args) -> str | None:
        try:
            return check(*args)
        except Exception as exc:  # a crashing check is a failed check
            return f"check:{type(exc).__name__}"

    def _timed(self, route: str, index: int, secs: float) -> None:
        self.clock.add((route, index), secs)

    def _release(self, samples) -> None:
        for (route, index), secs in samples:
            self.times[route].setdefault(index, []).append(secs)

    def run_instance(self, index: int, inst):
        """All routes on one instance; returns what the trace counters read."""
        stages: dict = {}
        self.attempted += 1
        out, secs, exc = self._call("interp", inst.text)
        if exc is not None:
            self._fail(index, "interp", type(exc).__name__)
            return None, None, stages
        problem, result = out
        why = self._checked(self._check_interp, index, inst, result)
        if why:
            self._fail(index, "interp", why)
        else:
            self._timed("interp", index, secs)

        self.attempted += 1
        report, secs, exc = self._call("verify", problem, result)
        why = type(exc).__name__ if exc else None if report.accepted else "check:rejected"
        if why:
            self._fail(index, "verify", why)
        else:
            self._timed("verify", index, secs)

        formulas, secs, exc = self._call("bridge", problem, stages)
        if exc is not None and type(exc).__name__ in self.known:
            self.probes[type(exc).__name__] += 1
            self._timed("probe", index, secs)
            return problem, result, stages
        self.attempted += 1
        why = type(exc).__name__ if exc else self._checked(
            self._check_bridge, index, problem, formulas
        )
        if why:
            self._fail(index, "bridge", why)
        else:
            self._timed("bridge", index, secs)
        return problem, result, stages

    def run_pass(self, number: int, tracer=None) -> float:
        """One pass over every instance; returns its calibrated time.

        The time leaves out trace counting and the calibration probes.
        """
        counted = 0.0
        counts: Counter = Counter()
        gc.collect()  # every pass starts from the same collector state
        windows, spent = len(self.clock.scales), self.clock.spent
        start = perf_counter()
        for index, inst in enumerate(self.instances):
            if tracer is not None:
                tracer.begin_instance(number * len(self.instances) + index)
            problem, result, stages = self.run_instance(index, inst)
            if tracer is not None:
                mark = perf_counter()
                counts.update(tracing.count_instance(tracer, self.lib, problem, result, stages))
                counted += perf_counter() - mark
            self._release(self.clock.tick())
        self._release(self.clock.tick(force=True))
        raw = perf_counter() - start - counted - (self.clock.spent - spent)
        scale = statistics.mean(self.clock.scales[windows:])
        self.pass_scale[number] = scale
        if tracer is not None:
            self.layer_passes.append(counts)
        return raw * scale


def pooled(times: dict[int, list[float]]) -> list[float]:
    return [secs for per_instance in times.values() for secs in per_instance]


def percentile_ms(values: list[float], q: int, route: str) -> float:
    if len(values) < 2:
        raise SystemExit(f"bench: {len(values)} successful {route} attempts, too few to report")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    interp, verify = pooled(runner.times["interp"]), pooled(runner.times["verify"])
    # Where the bridge fails by a known limit on every instance, its time to
    # failure is the only bridge time there is.
    bridge = pooled(runner.times["bridge"] or runner.times["probe"])
    return {
        "interp_ms.p50": percentile_ms(interp, 50, "interp"),
        "interp_ms.p90": percentile_ms(interp, 90, "interp"),
        "verify_ms.p50": percentile_ms(verify, 50, "verify"),
        "bridge_ms.p50": percentile_ms(bridge, 50, "bridge"),
        "solve_per_s": 1 / (statistics.fmean(interp) + statistics.fmean(verify)),
        "clauses": runner.clauses,
        "atoms": runner.atoms,
        "ok_frac": 1 - runner.failed / runner.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, tracer: tracing.Tracer, seconds: float) -> dict[str, float]:
    """Untraced and traced passes in turn; per-pass medians of the traced ones.

    Pass 0 also runs the full output checks, so it is neither traced nor part
    of the untraced baseline the tracing overhead is measured against.
    """
    size = len(runner.instances)
    runner.run_pass(0)
    untraced: list[float] = []
    traced: dict[int, float] = {}
    deadline = perf_counter() + seconds
    number = 1
    while len(traced) < 2 or perf_counter() < deadline:
        untraced.append(runner.run_pass(number))
        tracer.install(runner.lib)
        runner.routes = {name: tracer.wrap(f"route.{name}", fn) for name, fn in ROUTES.items()}
        try:
            traced[number + 1] = runner.run_pass(number + 1, tracer)
        finally:
            tracer.uninstall()
            runner.routes = dict(ROUTES)
        number += 2
    slot = {pass_no: k for k, pass_no in enumerate(traced)}
    times = tracing.self_times(tracer.spans, lambda instance: slot[instance // size])
    values = [
        tracing.layer_values(t, c, size, runner.pass_scale[pass_no])
        for t, c, pass_no in zip(times, runner.layer_passes, traced)
    ]
    metrics = tracing.medians(values)
    base, with_trace = statistics.median(untraced), statistics.median(traced.values())
    metrics["trace.overhead_ms"] = (with_trace - base) * 1e3
    metrics["trace.overhead_frac"] = (with_trace - base) / base
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.reference_s()
        lib, instances, secs = set_up(args.workload, args.seed)
        setups.append(secs * calibrate.NOMINAL_S * 2 / (before + calibrate.reference_s()))
    runner = Runner(lib, args.workload, args.seed, instances)
    gc.collect()
    if args.trace:
        tracer = tracing.Tracer()
        metrics = per_layer(runner, tracer, args.seconds)
        units = tracing.PER_LAYER
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
        print("wait time: none; one thread, so no layer waits for another")
    else:
        deadline = perf_counter() + args.seconds
        number = 0
        while number < 2 or perf_counter() < deadline:
            runner.run_pass(number)
            number += 1
        metrics = end_to_end(runner, statistics.median(setups))
        units = END_TO_END
    counts = " ".join(
        f"{route}={sum(map(len, t.values()))}/{len(t)}" for route, t in runner.times.items()
    )
    print(f"workload={args.workload} seed={args.seed} instances={len(instances)}")
    print(f"successful attempts/instances: {counts}")
    for kind, n in sorted(runner.probes.items()):
        print(f"known limit: bridge raised {kind} on {n} attempts (not counted as failed)")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
