"""Colorable repair of congruence graphs, edge coloring, path factorization.

A derived edge whose endpoints mention symbols private to opposite sides
cannot be assigned to either prover.  Repair splits it at a fresh application
over split vertices picked from its parent paths, which mentions only shared
symbols, so both halves become colorable.  Coloring fixes every forced edge
and spends the remaining freedom (derived edges whose endpoints both sides
can express) per strategy.  Both read each edge's fit once, off the symbol
table's covering list.  A colored graph factors each path once, into
one-color runs that the premise sets and the game unfold share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .congruence import CongruenceGraph, Edge, Path
from .core import Colorability, Side, SymbolTable, Term, TermTable


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
    of vertices added.  An edge is uncolorable when its endpoints' covering
    bits share no side.  Uncolorable edges are processed in creation order,
    so each one's parent paths are already fully colorable when it is split.
    An edge's colorability never changes and new edges take the largest
    sequence numbers, so one scan plus appending any uncolorable new edge
    keeps the queue in that order.  When the split application already
    exists as a vertex it is reused: it is then already connected to one
    endpoint, and a single replacement edge to the other endpoint keeps the
    graph acyclic.
    """
    bits = symbols.covering()
    queue = deque(e for e in graph.edges if not bits[e.u.id] & bits[e.v.id])
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
        bits = symbols.covering()  # the split term may be new to the table
        for new in g.split_edge(edge, new_term, left_pairs, right_pairs):
            if not bits[new.u.id] & bits[new.v.id]:
                queue.append(new)
    return g, added


@dataclass
class ColoredGraph:
    """A congruence graph plus a total edge-color assignment.

    A path's color factorization is its runs: maximal one-color stretches
    ``(side, lo, hi)`` of ``edges[lo:hi]``, from ``vertices[lo]`` to
    ``vertices[hi]``.  Each path is factored once, cached by :attr:`Path.key`;
    a path met in the other direction reads its runs reversed.
    """

    graph: CongruenceGraph
    symbols: SymbolTable
    colors: dict[int, Side]
    _runs: dict = field(default_factory=dict, repr=False, compare=False)

    def edge_color(self, edge: Edge) -> Side:
        return self.colors[edge.seq]

    def runs(self, path: Path) -> list[tuple[Side, int, int]]:
        key, start = path.key, path.vertices[0]
        first, out = self._runs.get(key, (start, None))
        if out is None:
            sides = [self.colors[edge.seq] for edge in path.edges]
            out, lo = [], 0
            for hi in range(1, len(sides) + 1):
                if hi == len(sides) or sides[hi] is not sides[lo]:
                    out.append((sides[lo], lo, hi))
                    lo = hi
            self._runs[key] = start, out
        if first is start:
            return out
        n = len(path.edges)
        return [(side, n - hi, n - lo) for side, lo, hi in reversed(out)]


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
    Free edges are colored A or B wholesale under those strategies; the
    greedy strategy walks the relevant path and, recursively, the parent
    paths of its derived edges, coloring each free edge like an adjacent
    already-colored edge of the walked path (default A) to keep the number
    of color switches locally small.  No strategy recolors a forced edge,
    and a free edge fits either side, so every color fits its edge.
    """
    bits = symbols.covering()
    colors: dict[int, Side] = {}
    free: list[Edge] = []
    for edge in graph.edges:
        fit = bits[edge.u.id] & bits[edge.v.id]  # bit 1: A, bit 2: B
        if edge.origin is not None:
            side = edge.side
            if side is None:
                raise ColoringError(f"basic edge {edge!r} has no originating side")
            if not fit & (1 if side is Side.A else 2):
                raise ColoringError(
                    f"edge {edge!r} colored {side} but not {side}-colorable"
                )
            colors[edge.seq] = side
        elif fit == 3:
            free.append(edge)
        elif fit:
            colors[edge.seq] = Side.A if fit == 1 else Side.B
        else:
            raise ColoringError(f"uncolorable edge {edge!r}; repair must run first")

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

