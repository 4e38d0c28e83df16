"""Colorable repair of congruence graphs, edge coloring, path factorization.

A derived edge whose endpoints mention symbols private to opposite sides
cannot be assigned to either prover.  Repair splits it at a fresh application
over split vertices picked from its parent paths, which mentions only shared
symbols, so both halves become colorable.  Coloring fixes every forced edge
and spends the remaining freedom (derived edges whose endpoints both sides
can express) per strategy.  Both read each edge's fit once, off the symbol
table's covering list.  A colored graph reads a path's one-color runs off
its colors on each call; the premise sets and the game's unfolding use them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .congruence import CongruenceGraph, Edge, Path
from .core import Side, SymbolTable, Term, TermTable, _A, _B


class Strategy(Enum):
    GREEDY = "greedy"
    ALL_A = "all-a"
    ALL_B = "all-b"


class ColoringError(RuntimeError):
    """Internal invariant failure during repair or coloring."""


def choose_splitter(path: Path, symbols: SymbolTable) -> Term:
    """First shared-signature vertex scanning from the path's start: the
    first whose covering bits hold both sides."""
    bits = symbols.covering()
    for vertex in path.vertices:
        if bits[vertex.id] == 3:
            return vertex
    raise ColoringError(f"no shared-signature vertex on {path!r}")


def make_colorable(
    graph: CongruenceGraph, symbols: SymbolTable, table: TermTable
) -> tuple[CongruenceGraph, list[Term]]:
    """Split each uncolorable derived edge once, so every edge is colorable.

    Copies the graph only when it splits: returns the input itself and no
    vertices when every edge is colorable, else a repaired copy and the
    vertices added, which are the copy's vertices past the input's.  An edge
    is uncolorable when one endpoint's covering bits are A-only and the
    other's B-only.  Both are applications of the edge's head, so the head
    occurs in A and in B; the split term applies it to splitters whose bits
    hold both sides, so its bits do too, and every edge a split adds fits a
    side.  So the uncolorable edges of the closed graph are split once each,
    in creation order, each one's parent paths already colorable.  A split
    application that is already a vertex is reused: it is connected to one
    endpoint, and one replacement edge to the other endpoint keeps the graph
    acyclic.
    """
    bits = symbols.covering()
    uncolorable = [e for e in graph.edges if not bits[e.u.id] & bits[e.v.id]]
    if not uncolorable:
        return graph, []
    g = graph.clone()
    for edge in uncolorable:
        if not edge.is_derived:
            raise ColoringError(f"basic edge {edge!r} is uncolorable")
        splitters = [choose_splitter(g.path(p, q), symbols) for p, q in edge.parents]
        new_term = table.make(edge.u.head, splitters)
        left_pairs = tuple(zip((p for p, _ in edge.parents), splitters))
        right_pairs = tuple(zip(splitters, (q for _, q in edge.parents)))
        g.split_edge(edge, new_term, left_pairs, right_pairs)
    return g, g.vertices[len(graph.vertices):]


@dataclass
class ColoredGraph:
    """A congruence graph plus a total edge-color assignment, by edge ``seq``.

    A path's color factorization is its runs: maximal one-color stretches
    ``(side, lo, hi)`` of ``edges[lo:hi]``, from ``vertices[lo]`` to
    ``vertices[hi]``, read off the colors on each call.
    """

    graph: CongruenceGraph
    symbols: SymbolTable
    colors: dict[int, Side]

    def runs(self, path: Path) -> list[tuple[Side, int, int]]:
        sides = [self.colors[edge.seq] for edge in path.edges]
        out, lo = [], 0
        for hi in range(1, len(sides) + 1):
            if hi == len(sides) or sides[hi] is not sides[lo]:
                out.append((sides[lo], lo, hi))
                lo = hi
        return out


def color(
    graph: CongruenceGraph,
    symbols: SymbolTable,
    strategy: Strategy = Strategy.GREEDY,
    *,
    relevant: tuple[Term, Term],
) -> ColoredGraph:
    """Assign every edge a side.

    One loop over the edges reads each edge's fit off the symbol table's
    covering list.  A basic edge takes its originating side, which it must
    fit; a derived edge that fits one side only is forced to it, one that
    fits both is free, and one that fits neither has not been repaired.
    The greedy strategy first walks the relevant path and, recursively, the
    parent paths of its derived edges, coloring each free edge like an
    adjacent already-colored edge of the walked path (default A) to keep the
    number of color switches locally small.  Then every free edge still
    uncolored takes the strategy's default side: B under ``ALL_B``, else A.
    No strategy recolors a forced edge, and a free edge fits either side, so
    every color fits its edge.
    """
    bits = symbols.covering()
    colors: dict[int, Side] = {}
    free: list[Edge] = []
    for edge in graph.edges:
        fit = bits[edge.u.id] & bits[edge.v.id]  # bit 1: A, bit 2: B
        if edge.parents is None:
            side = edge.side
            if side is None:
                raise ColoringError(f"basic edge {edge!r} has no originating side")
            if not fit & (1 if side is _A else 2):
                raise ColoringError(
                    f"edge {edge!r} colored {side} but not {side}-colorable"
                )
            colors[edge.seq] = side
        elif fit == 3:
            free.append(edge)
        elif fit:
            colors[edge.seq] = _A if fit == 1 else _B
        else:
            raise ColoringError(f"uncolorable edge {edge!r}; repair must run first")

    if free and strategy is Strategy.GREEDY:
        _greedy_assign(graph, colors, relevant)
    default = _B if strategy is Strategy.ALL_B else _A
    for edge in free:
        colors.setdefault(edge.seq, default)
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
                colors[edge.seq] = prev or nxt or _A
        for edge in edges:
            if edge.is_derived:
                for s, t in edge.parents:
                    if s is not t:
                        queue.append((s, t))

