"""Proof-producing congruence closure over a proof forest.

The closure state is an acyclic undirected graph over a subterm-closed term
set.  Edges record why two terms were merged: basic edges come from input
equalities, derived edges from congruence and carry the endpoint pairs of
their parent paths.  Since an edge is only ever added between terms that are
not yet connected, every component is a tree and paths are unique.

Each tree is stored rooted, as a proof forest (Nieuwenhuis & Oliveras,
*Proof-producing congruence closure*, RTA 2005): every vertex keeps the edge
to its parent.  Adding an edge reroots the smaller tree at its endpoint and
hangs it below the other endpoint.  A path query climbs from both ends to
the lowest common ancestor, so it costs O(|path|).  A union-find over the
same partition answers ``find`` and ``connected``; the smaller term id
represents.  The closure re-signatures only the applications over the
absorbed class (Downey, Sethi & Tarjan, JACM 1980).  Colorability repair
replaces an edge by a two-edge path through a split vertex with
:meth:`CongruenceGraph.split_edge`, which never changes the partition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Literal, Side, Term


@dataclass(frozen=True, eq=False)
class Edge:
    """One merge step.  Exactly one of ``origin`` / ``parents`` is set."""

    u: Term
    v: Term
    seq: int
    origin: Literal | None = None
    side: Side | None = None
    parents: tuple[tuple[Term, Term], ...] | None = None

    @property
    def is_basic(self) -> bool:
        return self.origin is not None

    @property
    def is_derived(self) -> bool:
        return self.parents is not None

    def other(self, t: Term) -> Term:
        return self.v if t is self.u else self.u


@dataclass(frozen=True)
class PathStep:
    edge: Edge
    forward: bool

    @property
    def start(self) -> Term:
        return self.edge.u if self.forward else self.edge.v

    @property
    def end(self) -> Term:
        return self.edge.v if self.forward else self.edge.u


@dataclass(frozen=True)
class Path:
    """The unique simple path between two connected vertices; empty iff u = v."""

    start: Term
    end: Term
    steps: tuple[PathStep, ...]

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def vertices(self) -> list[Term]:
        out = [self.start]
        out.extend(step.end for step in self.steps)
        return out

    def slice(self, lo: int, hi: int) -> "Path":
        """Subpath between vertex positions ``lo`` and ``hi`` (inclusive)."""
        verts = self.vertices()
        return Path(verts[lo], verts[hi], self.steps[lo:hi])


class ClosureInputError(ValueError):
    """A closure input term lies outside the supplied term set."""


class NotConnectedError(ValueError):
    pass


class CongruenceGraph:
    """Mutable while a closure or repair runs, then used read-only."""

    def __init__(self, vertices: Iterable[Term]):
        self.vertices: list[Term] = sorted(vertices, key=lambda t: t.id)
        self.vertex_ids: set[int] = {t.id for t in self.vertices}
        self.edges: list[Edge] = []
        # Proof forest: vertex -> (edge to its parent, parent); None at a root.
        self._up: dict[Term, tuple[Edge, Term] | None] = dict.fromkeys(self.vertices)
        # Union-find over the same partition; the smaller term id represents.
        self._parent: dict[int, int] = {t.id: t.id for t in self.vertices}
        self._size: dict[int, int] = {t.id: 1 for t in self.vertices}
        self._next_seq = 0

    def clone(self) -> "CongruenceGraph":
        g = CongruenceGraph(self.vertices)
        g.edges = list(self.edges)
        g._up = dict(self._up)
        g._parent = dict(self._parent)
        g._size = dict(self._size)
        g._next_seq = self._next_seq
        return g

    def find(self, tid: int) -> int:
        parent = self._parent
        while parent[tid] != tid:
            parent[tid] = parent[parent[tid]]
            tid = parent[tid]
        return tid

    def connected(self, s: Term, t: Term) -> bool:
        return self.find(s.id) == self.find(t.id)

    def _join(self, ra: int, rb: int) -> None:
        keep, absorbed = (ra, rb) if ra < rb else (rb, ra)
        self._parent[absorbed] = keep
        self._size[keep] += self._size.pop(absorbed)

    def _new_edge(self, u: Term, v: Term, **why) -> Edge:
        edge = Edge(u, v, self._next_seq, **why)
        self._next_seq += 1
        self.edges.append(edge)
        return edge

    def _reroot(self, x: Term) -> None:
        """Make ``x`` the root of its tree by reversing its ancestor links."""
        up = self._up
        link, up[x] = up[x], None
        child = x
        while link is not None:
            edge, parent = link
            link, up[parent] = up[parent], (edge, child)
            child = parent

    def add_edge(
        self,
        u: Term,
        v: Term,
        *,
        origin: Literal | None = None,
        side: Side | None = None,
        parents: tuple[tuple[Term, Term], ...] | None = None,
    ) -> Edge:
        ru, rv = self.find(u.id), self.find(v.id)
        if ru == rv:
            raise ValueError(f"edge would close a cycle: {u!r} -- {v!r}")
        edge = self._new_edge(u, v, origin=origin, side=side, parents=parents)
        # Hang the smaller tree below the other endpoint.
        low, high = (u, v) if self._size[ru] <= self._size[rv] else (v, u)
        self._reroot(low)
        self._up[low] = (edge, high)
        self._join(ru, rv)
        return edge

    def split_edge(
        self,
        edge: Edge,
        mid: Term,
        left: tuple[tuple[Term, Term], ...],
        right: tuple[tuple[Term, Term], ...],
    ) -> list[Edge]:
        """Replace derived ``edge`` u--v by u--mid (``left``) and mid--v (``right``).

        A fresh ``mid`` becomes a vertex and is spliced in with both edges.
        A ``mid`` that is already a vertex lies on one side of ``edge`` once
        the edge is gone, so only the edge to the other endpoint is added.
        Returns the new edges; they take the next sequence numbers.
        """
        up = self._up
        self.edges.remove(edge)
        # The forest stores the edge at its lower endpoint.
        low = edge.u if up[edge.u] is not None and up[edge.u][0] is edge else edge.v
        high = edge.other(low)
        up[low] = None
        if mid.id not in self.vertex_ids:
            self.vertices.append(mid)
            self.vertex_ids.add(mid.id)
            self._parent[mid.id] = mid.id
            self._size[mid.id] = 1
            self._join(self.find(low.id), mid.id)
            first = self._new_edge(edge.u, mid, parents=left)
            second = self._new_edge(mid, edge.v, parents=right)
            below, above = (first, second) if low is edge.u else (second, first)
            up[low] = (below, mid)
            up[mid] = (above, high)
            return [first, second]
        x = mid
        while x is not low and up[x] is not None:
            x = up[x][1]
        below_low = x is low
        if below_low == (low is edge.u):
            new = self._new_edge(mid, edge.v, parents=right)
        else:
            new = self._new_edge(edge.u, mid, parents=left)
        if below_low:
            self._reroot(mid)
            up[mid] = (new, high)
        else:
            up[low] = (new, mid)
        return [new]

    def components(self) -> list[list[Term]]:
        """Partition of the vertex set, ordered by smallest member id."""
        blocks: dict[int, list[Term]] = {}
        for t in sorted(self.vertices, key=lambda t: t.id):
            blocks.setdefault(self.find(t.id), []).append(t)
        return list(blocks.values())

    def path(self, u: Term, v: Term) -> Path:
        if u.id not in self.vertex_ids or v.id not in self.vertex_ids:
            raise NotConnectedError(f"{u!r} or {v!r} is not a vertex")
        if u is v:
            return Path(u, u, ())
        if self.find(u.id) != self.find(v.id):
            raise NotConnectedError(f"no path between {u!r} and {v!r}")
        # Climb from both ends in turn until one climb reaches a vertex the
        # other has passed: that vertex is the lowest common ancestor.
        up = self._up
        rise, fall = [u], [v]
        on_rise, on_fall = {u: 0}, {v: 0}
        x, y = u, v
        while True:
            if x is not None:
                link = up[x]
                x = link[1] if link is not None else None
                if x is not None:
                    at = on_fall.get(x)
                    if at is not None:
                        rise.append(x)
                        del fall[at + 1 :]
                        break
                    on_rise[x] = len(rise)
                    rise.append(x)
            if y is not None:
                link = up[y]
                y = link[1] if link is not None else None
                if y is not None:
                    at = on_rise.get(y)
                    if at is not None:
                        fall.append(y)
                        del rise[at + 1 :]
                        break
                    on_fall[y] = len(fall)
                    fall.append(y)
        steps = []
        for x in rise[:-1]:
            edge = up[x][0]
            steps.append(PathStep(edge, edge.u is x))
        for x in reversed(fall[:-1]):
            edge = up[x][0]
            steps.append(PathStep(edge, edge.v is x))
        return Path(u, v, tuple(steps))


def close(
    equalities: Sequence[tuple[Literal, Side | None]],
    terms: Sequence[Term],
) -> CongruenceGraph:
    """Run congruence closure over the given equalities and term set.

    Input equalities are seeded in order before congruence merges; pending
    congruences are processed through one FIFO queue keyed by a signature
    table, so the resulting graph is deterministic.  Terms connected in the
    result are exactly those entailed equal by the input equalities.
    """
    term_ids = {t.id for t in terms}
    for t in terms:
        for arg in t.args:
            if arg.id not in term_ids:
                raise ClosureInputError(f"term set not subterm-closed at {t!r}")
    for lit, _ in equalities:
        if lit.lhs.id not in term_ids or lit.rhs.id not in term_ids:
            raise ClosureInputError(f"equality {lit!r} mentions a term outside T")

    graph = CongruenceGraph(terms)

    use: dict[int, list[Term]] = {t.id: [] for t in graph.vertices}
    for t in graph.vertices:
        for arg in dict.fromkeys(t.args):
            use[arg.id].append(t)

    find = graph.find
    sig_table: dict[tuple, Term] = {}
    # Before any merge every term represents its own class.
    for t in graph.vertices:
        if t.args:
            sig_table[(t.head, tuple(a.id for a in t.args))] = t

    pending: deque[tuple] = deque()
    for lit, side in equalities:
        pending.append(("basic", lit, side))

    members: dict[int, list[int]] = {t.id: [t.id] for t in graph.vertices}
    while pending:
        item = pending.popleft()
        if item[0] == "basic":
            _, lit, side = item
            s, t = lit.lhs, lit.rhs
        else:
            _, s, t = item
        rs, rt = find(s.id), find(t.id)
        if rs == rt:
            continue
        if item[0] == "basic":
            graph.add_edge(s, t, origin=lit, side=side)
        else:
            graph.add_edge(s, t, parents=tuple(zip(s.args, t.args)))
        keep, absorbed = (rs, rt) if rs < rt else (rt, rs)
        moved = members.pop(absorbed)
        members[keep].extend(moved)
        # Only applications over the absorbed class change signature; the
        # others keep a signature whose pairs are connected or already queued.
        # Rescan them in the order a pass over the merged class sorted by id
        # would first reach them: by smallest argument in the class, then id.
        rescan = []
        for app in {app.id: app for member in moved for app in use[member]}.values():
            reps = tuple([find(a.id) for a in app.args])
            first = min([a.id for a, r in zip(app.args, reps) if r == keep])
            rescan.append((first, app.id, (app.head, reps), app))
        rescan.sort()
        for _, _, sig, app in rescan:
            known = sig_table.get(sig)
            if known is None:
                sig_table[sig] = app
            elif not graph.connected(app, known):
                pending.append(("derived", app, known))
    return graph


def find_refuted_disequality(
    graph: CongruenceGraph, diseqs: Sequence[tuple[Literal, Side]]
) -> Literal | None:
    """First disequality whose endpoints are connected; B-side ones win."""
    for want in (Side.B, Side.A):
        for lit, side in diseqs:
            if side is want and graph.connected(lit.lhs, lit.rhs):
                return lit
    return None
