"""Spans around the package's public functions, for the traced run only.

Each wrapper is installed at the name its callers look up, records a span
(name, start, end, parent span, instance id) in memory and is removed again
after the traced passes.  A layer's self time is its span's duration minus
the durations of its direct child spans.  Everything runs in one thread, so
no layer ever waits: there is no wait time to report.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module key, attribute, span name).  ``build_colored_graph`` looks up close,
# make_colorable and color in ``eufinterp.interpolate``, both when
# ``interpolate`` calls it and when ``game.euf_bridge`` does; the benchmark's
# routes look up everything else through the module objects.
PATCHES = (
    ("core", "parse_problem", "core.parse_problem"),
    ("interpolate", "interpolate", "interpolate.interpolate"),
    ("interpolate", "close", "congruence.close"),
    ("interpolate", "make_colorable", "coloring.make_colorable"),
    ("interpolate", "color", "coloring.color"),
    ("verify", "check_interpolant", "verify.check_interpolant"),
    ("verify", "euf_entails", "verify.euf_entails"),
    ("verify", "literal_set_unsat", "verify.literal_set_unsat"),
    ("verify", "unsat_with_horn", "verify.unsat_with_horn"),
    ("game", "euf_bridge", "game.euf_bridge"),
    ("game", "coloring_cut", "game.coloring_cut"),
    ("game", "run_from_cut", "game.run_from_cut"),
    ("game", "game_interpolant", "game.game_interpolant"),
)

# Spans whose outputs the per-instance counters read after the routes end.
CAPTURED = {"congruence.close": "result", "coloring.make_colorable": "graph"}

INTERP, BRIDGE = "interpolate.interpolate", "game.euf_bridge"

# name -> unit, in report order.
PER_LAYER = {
    "core.parse_ms": "ms",
    "core.terms": "count",
    "congruence.close_ms": "ms",
    "congruence.close_bridge_ms": "ms",
    "congruence.close_calls": "count",
    "congruence.path_ms": "ms",
    "congruence.path_calls": "count",
    "congruence.path_distinct_ratio": "ratio",
    "congruence.vertices": "count",
    "congruence.derived_edges": "count",
    "coloring.repair_ms": "ms",
    "coloring.repair_bridge_ms": "ms",
    "coloring.color_ms": "ms",
    "coloring.color_bridge_ms": "ms",
    "coloring.uncolorable_edges": "count",
    "coloring.repair_vertices": "count",
    "coloring.factors": "count",
    "interpolate.extract_ms": "ms",
    "verify.a_entails_ms": "ms",
    "verify.b_unsat_ms": "ms",
    "verify.entails_calls": "count",
    "game.euf_bridge_ms": "ms",
    "game.cut_ms": "ms",
    "game.run_ms": "ms",
    "game.proof_nodes": "count",
    "game.cut_nodes": "count",
    "game.rounds": "count",
    "game.local_ratio": "ratio",
    "game.bridge_failed": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span log plus the per-instance captures the counters need."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, instance]
        self.instance = -1
        self.captures: list[tuple[str, str | None, object]] = []
        self.path_keys: set[tuple[int, int, int]] = set()
        self._graphs: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_instance(self, instance: int) -> None:
        self.instance = instance
        self._stack.clear()
        self.captures.clear()
        self.path_keys.clear()
        self._graphs.clear()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        capture = CAPTURED.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf_counter_ns(), 0, parent, self.instance]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                # Pop first: at the recursion limit the clock call itself can
                # raise, which leaves the span open (end 0) and so ignored.
                del stack[-1]
                span[2] = perf_counter_ns()
            if capture is not None:
                parent_name = spans[parent][0] if parent >= 0 else None
                value = result if capture == "result" else args[0]
                self.captures.append((name, parent_name, value))
            return result

        return traced

    def _wrap_path(self, fn):
        traced = self.wrap("congruence.path", fn)
        keys, graphs = self.path_keys, self._graphs

        def path(graph, u, v):
            # Holding the graph keeps its id unique for the instance.
            graphs[id(graph)] = graph
            keys.add((id(graph), min(u.id, v.id), max(u.id, v.id)))
            return traced(graph, u, v)

        return path

    def install(self, lib) -> None:
        for module, attr, name in PATCHES:
            owner = getattr(lib, module)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        graph_cls = lib.congruence.CongruenceGraph
        self._patch(graph_cls, "path", self._wrap_path(graph_cls.path))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start and end in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, instance in self.spans:
                out.write(json.dumps([name, start - origin, end - origin, parent, instance]))
                out.write("\n")


def self_times(spans: list[list], pass_of) -> list[dict]:
    """Per pass: {(span name, parent name): [self ns, calls]}."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0 and end:
            child_ns[parent] += end - start
    passes: dict[int, dict] = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for i, (name, start, end, parent, instance) in enumerate(spans):
        if not end:
            continue
        parent_name = spans[parent][0] if parent >= 0 else None
        cell = passes[pass_of(instance)][(name, parent_name)]
        cell[0] += end - start - child_ns[i]
        cell[1] += 1
    return [passes[p] for p in sorted(passes)]


def layer_values(
    times: dict, counts: Counter, instances: int, scale: float
) -> dict[str, float]:
    """One pass's per-layer metrics from its self times and counters.

    Times are multiplied by the pass's calibration ``scale``.
    """

    def ms(name: str, parent: str | None = "*") -> float:
        return scale * sum(
            cell[0] for (n, p), cell in times.items() if n == name and parent in ("*", p)
        ) / 1e6

    def calls(name: str) -> int:
        return sum(cell[1] for (n, _), cell in times.items() if n == name)

    path_calls = calls("congruence.path")
    return {
        "core.parse_ms": ms("core.parse_problem"),
        "core.terms": counts["terms"],
        "congruence.close_ms": ms("congruence.close", INTERP),
        "congruence.close_bridge_ms": ms("congruence.close", BRIDGE),
        "congruence.close_calls": calls("congruence.close") / instances,
        "congruence.path_ms": ms("congruence.path"),
        "congruence.path_calls": path_calls,
        "congruence.path_distinct_ratio": counts["path_distinct"] / max(path_calls, 1),
        "congruence.vertices": counts["vertices"],
        "congruence.derived_edges": counts["derived_edges"],
        "coloring.repair_ms": ms("coloring.make_colorable", INTERP),
        "coloring.repair_bridge_ms": ms("coloring.make_colorable", BRIDGE),
        "coloring.color_ms": ms("coloring.color", INTERP),
        "coloring.color_bridge_ms": ms("coloring.color", BRIDGE),
        "coloring.uncolorable_edges": counts["uncolorable_edges"],
        "coloring.repair_vertices": counts["repair_vertices"],
        "coloring.factors": counts["factors"],
        "interpolate.extract_ms": ms(INTERP),
        "verify.a_entails_ms": ms("verify.euf_entails") + ms("verify.literal_set_unsat"),
        "verify.b_unsat_ms": ms("verify.unsat_with_horn"),
        "verify.entails_calls": calls("verify.euf_entails") + calls("verify.literal_set_unsat"),
        "game.euf_bridge_ms": ms(BRIDGE),
        "game.cut_ms": ms("game.coloring_cut"),
        "game.run_ms": ms("game.run_from_cut") + ms("game.game_interpolant"),
        "game.proof_nodes": counts["proof_nodes"],
        "game.cut_nodes": counts["cut_nodes"],
        "game.rounds": counts["rounds"],
        "game.local_ratio": counts["local"] / max(counts["bridged"], 1),
        "game.bridge_failed": counts["bridge_failed"],
    }


def count_instance(tracer: Tracer, lib, problem, result, bridge: dict) -> Counter:
    """Size counters of one traced instance, read from the route outputs."""
    counts: Counter = Counter()
    if problem is not None:
        counts["terms"] = len(problem.table)
    none = lib.core.Colorability.NONE
    for name, parent, value in tracer.captures:
        if parent != INTERP or problem is None:
            continue
        if name == "congruence.close":
            counts["vertices"] += len(value.vertices)
            counts["derived_edges"] += sum(e.is_derived for e in value.edges)
        else:
            counts["uncolorable_edges"] += sum(
                lib.core.edge_colorability(e.u, e.v, problem.symbols) == none
                for e in value.edges
            )
    counts["path_distinct"] = len(tracer.path_keys)
    if result is not None:
        counts["repair_vertices"] = len(result.repair_vertices)
        counts["factors"] = result.factor_count
    tree = bridge.get("tree")
    if tree is not None:
        counts["bridged"] = 1
        counts["proof_nodes"] = len(tree.nodes)
        counts["local"] = int(lib.game.check_local(tree))
    if "cut" in bridge:
        counts["cut_nodes"] = sum(len(side) for side in bridge["cut"])
    if "run" in bridge:
        counts["rounds"] = bridge["run"].rounds()
    # Without a parsed problem the bridge was never attempted.
    counts["bridge_failed"] = int(problem is not None and "interpolant" not in bridge)
    return counts


def medians(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
