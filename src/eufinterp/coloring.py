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
    for vertex in path.vertices:
        if symbols.colorability(vertex) is Colorability.AB:
            return vertex
    raise ColoringError(f"no shared-signature vertex on {path!r}")


def make_colorable(
    graph: CongruenceGraph, symbols: SymbolTable, table: TermTable
) -> tuple[CongruenceGraph, list[Term]]:
    """Split uncolorable derived edges until every edge is colorable.

    Copies the graph only when it splits: returns the input itself and no
    vertices when every edge is colorable, else a repaired copy and the list
    of vertices added.  Uncolorable edges are processed in creation order,
    so each one's parent paths are already fully colorable when it is split.
    An edge's colorability never changes and new edges take the largest
    sequence numbers, so one scan plus appending any uncolorable new edge
    keeps the queue in that order.  When the split application already
    exists as a vertex it is reused: it is then already connected to one
    endpoint, and a single replacement edge to the other endpoint keeps the
    graph acyclic.
    """
    none = Colorability.NONE
    queue = deque(
        e for e in graph.edges if edge_colorability(e.u, e.v, symbols) is none
    )
    if not queue:
        return graph, []
    g = graph.clone()
    added: list[Term] = []
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
        if new_term not in g:
            added.append(new_term)
        for new in g.split_edge(edge, new_term, left_pairs, right_pairs):
            if edge_colorability(new.u, new.v, symbols) is none:
                queue.append(new)
    return g, added


@dataclass(slots=True)
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

    def factors(self, path: Path) -> list[Factor]:
        sides = [self.colors[edge.seq] for edge in path.edges]
        out: list[Factor] = []
        lo = 0
        for i in range(1, len(sides) + 1):
            if i == len(sides) or sides[i] is not sides[lo]:
                out.append(Factor(sides[lo], path.slice(lo, i)))
                lo = i
        return out


def _forced_color(edge: Edge, fit: Colorability) -> Side | None:
    """Color an edge of fit ``fit`` must take, or None when both are available."""
    if edge.is_basic:
        if edge.side is None:
            raise ColoringError(f"basic edge {edge!r} has no originating side")
        return edge.side
    if fit is Colorability.AB:
        return None
    if fit is Colorability.A:
        return Side.A
    if fit is Colorability.B:
        return Side.B
    raise ColoringError(f"uncolorable edge {edge!r}; repair must run first")


def color(
    graph: CongruenceGraph,
    symbols: SymbolTable,
    strategy: Strategy = Strategy.GREEDY,
    *,
    relevant: tuple[Term, Term],
) -> ColoredGraph:
    """Assign every edge a side.

    Forced edges are colored by necessity.  Free edges are colored A or B
    wholesale under those strategies; the greedy strategy walks the relevant
    path and, recursively, the parent paths of its derived edges, coloring
    each free edge like an adjacent already-colored edge of the walked path
    (default A) to keep the number of color switches locally small.  Each
    edge's fit to the signatures is computed once, for both the forced
    colors and the final check.
    """
    colors: dict[int, Side] = {}
    free: list[Edge] = []
    fits = [(edge, edge_colorability(edge.u, edge.v, symbols)) for edge in graph.edges]
    for edge, fit in fits:
        forced = _forced_color(edge, fit)
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
        if free:
            _greedy_assign(graph, colors, relevant)
        for edge in free:
            colors.setdefault(edge.seq, Side.A)

    _validate(fits, colors)
    return ColoredGraph(graph, symbols, colors)


def _greedy_assign(
    graph: CongruenceGraph, colors: dict[int, Side], relevant: tuple[Term, Term]
) -> None:
    # Paths are queued as endpoint pairs; each pair's path is built and
    # colored once, at its first pop, in FIFO order.
    seen_paths: set[frozenset[Term]] = set()
    queue: deque[tuple[Term, Term]] = deque([relevant])
    while queue:
        p, q = queue.popleft()
        ends = frozenset((p, q))
        if ends in seen_paths:
            continue
        seen_paths.add(ends)
        edges = graph.path(p, q).edges
        for i, edge in enumerate(edges):
            if edge.seq not in colors:
                prev = colors.get(edges[i - 1].seq) if i > 0 else None
                nxt = colors.get(edges[i + 1].seq) if i + 1 < len(edges) else None
                colors[edge.seq] = prev or nxt or Side.A
        for edge in edges:
            if edge.is_derived:
                for s, t in edge.parents:
                    if s is not t:
                        queue.append((s, t))


def _validate(fits: list[tuple[Edge, Colorability]], colors: dict[int, Side]) -> None:
    for edge, fit in fits:
        side = colors[edge.seq]
        if edge.is_basic and side is not edge.side:
            raise ColoringError(f"basic edge {edge!r} recolored to {side}")
        want = Colorability.A if side is Side.A else Colorability.B
        if fit is not Colorability.AB and fit is not want:
            raise ColoringError(f"edge {edge!r} colored {side} but not {side}-colorable")
