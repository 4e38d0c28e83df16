"""Colorable repair of congruence graphs, edge coloring, path factorization.

A derived edge both of whose endpoints mention symbols private to opposite
sides cannot be assigned to either prover.  The repair splits such an edge at
a freshly built application over split vertices picked from its parent paths;
the new application mentions only shared symbols, so both halves become
colorable.  Coloring then fixes every forced edge and spends the remaining
freedom (derived edges whose endpoints are expressible on both sides) per
strategy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .congruence import CongruenceGraph, Edge, Path
from .core import Colorability, Side, SymbolTable, Term, TermTable, edge_colorability


class Strategy(Enum):
    GREEDY = "greedy"
    ALL_A = "all-a"
    ALL_B = "all-b"


class ColoringError(RuntimeError):
    """Internal invariant failure during repair or coloring."""


def choose_splitter(path: Path, symbols: SymbolTable) -> Term:
    """First shared-signature vertex scanning from the path's start."""
    for vertex in path.vertices():
        if symbols.colorability(vertex) == Colorability.AB:
            return vertex
    raise ColoringError(f"no shared-signature vertex on {path!r}")


def make_colorable(
    graph: CongruenceGraph, symbols: SymbolTable, table: TermTable
) -> tuple[CongruenceGraph, list[Term]]:
    """Split uncolorable derived edges until every edge is colorable.

    Works on a private copy; returns it with the list of vertices added.
    Uncolorable edges are processed in creation order, so each one's parent
    paths are already fully colorable when it is split.  An edge's
    colorability never changes and new edges take the largest sequence
    numbers, so one scan plus appending any uncolorable new edge keeps the
    queue in that order.  When the split application already exists as a
    vertex it is reused: it is then already connected to one endpoint, and a
    single replacement edge to the other endpoint keeps the graph acyclic.
    """
    g = graph.clone()
    added: list[Term] = []
    queue = deque(
        e for e in g.edges if edge_colorability(e.u, e.v, symbols) == Colorability.NONE
    )
    while queue:
        edge = queue.popleft()
        if not edge.is_derived:
            raise ColoringError(f"basic edge {edge!r} is uncolorable")
        splitters = []
        for p, q in edge.parents:
            splitters.append(choose_splitter(g.path(p, q), symbols))
        new_term = table.make(edge.u.head, splitters)
        left_pairs = tuple(zip((p for p, _ in edge.parents), splitters))
        right_pairs = tuple(zip(splitters, (q for _, q in edge.parents)))
        if new_term.id not in g.vertex_ids:
            added.append(new_term)
        for new in g.split_edge(edge, new_term, left_pairs, right_pairs):
            if edge_colorability(new.u, new.v, symbols) == Colorability.NONE:
                queue.append(new)
    return g, added


@dataclass(frozen=True)
class Factor:
    """Maximal same-colored subpath."""

    side: Side
    path: Path


@dataclass
class ColoredGraph:
    """A congruence graph plus a total edge-color assignment."""

    graph: CongruenceGraph
    symbols: SymbolTable
    colors: dict[int, Side]

    def edge_color(self, edge: Edge) -> Side:
        return self.colors[edge.seq]

    def path(self, u: Term, v: Term) -> Path:
        return self.graph.path(u, v)

    def factors(self, path: Path) -> list[Factor]:
        out: list[Factor] = []
        verts = path.vertices()
        lo = 0
        current: Side | None = None
        for i, step in enumerate(path.steps):
            side = self.edge_color(step.edge)
            if current is None:
                current = side
            elif side is not current:
                out.append(Factor(current, path.slice(lo, i)))
                lo = i
                current = side
        if current is not None:
            out.append(Factor(current, path.slice(lo, len(verts) - 1)))
        return out


def _forced_color(edge: Edge, symbols: SymbolTable) -> Side | None:
    """Color an edge must take, or None when both colors are available."""
    if edge.is_basic:
        if edge.side is None:
            raise ColoringError(f"basic edge {edge!r} has no originating side")
        return edge.side
    fit = edge_colorability(edge.u, edge.v, symbols)
    if fit == Colorability.AB:
        return None
    if fit == Colorability.A:
        return Side.A
    if fit == Colorability.B:
        return Side.B
    raise ColoringError(f"uncolorable edge {edge!r}; repair must run first")


def color(
    graph: CongruenceGraph,
    symbols: SymbolTable,
    strategy: Strategy = Strategy.GREEDY,
    relevant: tuple[Term, Term] | None = None,
) -> ColoredGraph:
    """Assign every edge a side.

    Forced edges are colored by necessity.  Free edges are colored A or B
    wholesale under those strategies; the greedy strategy walks the relevant
    path and, recursively, the parent paths of its derived edges, coloring
    each free edge like an adjacent already-colored edge of the walked path
    (default A) to keep the number of color switches locally small.
    """
    colors: dict[int, Side] = {}
    free: list[Edge] = []
    for edge in graph.edges:
        forced = _forced_color(edge, symbols)
        if forced is None:
            free.append(edge)
        else:
            colors[edge.seq] = forced

    if strategy is Strategy.ALL_A:
        for edge in free:
            colors[edge.seq] = Side.A
    elif strategy is Strategy.ALL_B:
        for edge in free:
            colors[edge.seq] = Side.B
    else:
        if relevant is not None and free:
            _greedy_assign(graph, colors, relevant)
        for edge in free:
            colors.setdefault(edge.seq, Side.A)

    colored = ColoredGraph(graph, symbols, colors)
    _validate(colored)
    return colored


def _greedy_assign(
    graph: CongruenceGraph, colors: dict[int, Side], relevant: tuple[Term, Term]
) -> None:
    seen_paths: set[tuple[int, int]] = set()
    queue: deque[Path] = deque([graph.path(*relevant)])
    while queue:
        path = queue.popleft()
        ends = (path.start.id, path.end.id)
        key = (min(ends), max(ends))
        if key in seen_paths or path.is_empty:
            continue
        seen_paths.add(key)
        steps = path.steps
        for i, step in enumerate(steps):
            edge = step.edge
            if edge.seq not in colors:
                prev = colors.get(steps[i - 1].edge.seq) if i > 0 else None
                nxt = colors.get(steps[i + 1].edge.seq) if i + 1 < len(steps) else None
                colors[edge.seq] = prev or nxt or Side.A
        for step in steps:
            if step.edge.is_derived:
                for p, q in step.edge.parents:
                    if p is not q:
                        queue.append(graph.path(p, q))


def _validate(colored: ColoredGraph) -> None:
    for edge in colored.graph.edges:
        side = colored.colors[edge.seq]
        if edge.is_basic and side is not edge.side:
            raise ColoringError(f"basic edge {edge!r} recolored to {side}")
        want = Colorability.A if side is Side.A else Colorability.B
        if not (edge_colorability(edge.u, edge.v, colored.symbols) & want):
            raise ColoringError(f"edge {edge!r} colored {side} but not {side}-colorable")
