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
the lowest common ancestor, so it costs O(|path|).  A :class:`Path` is a
vertex tuple and an edge tuple, ``edges[i]`` joining ``vertices[i]`` and
``vertices[i + 1]``, so slicing out a subpath is two tuple slices.

Per-vertex state is kept in lists indexed by the table's dense term ids:
``_rep`` holds the class handle (-1 off the vertex set), ``_up`` the forest
link, and ``_label``, indexed by handle, the class's smallest id, which
``find`` returns.  A handle is the id of the term its class started from;
``classes`` maps it to the members in merge order.  A merge is by size
(Downey, Sethi & Tarjan, JACM 1980): the class with fewer members, or on a
tie the larger label, is relabelled into the other.  So a term is relabelled
O(log n) times, and so is the closure's rescan of the applications over it,
whose signatures are tuples of handles.  The merge loop relabels inline.

Repair replaces an edge by a two-edge path through a split vertex with
``split_edge``, which never changes the partition of the existing vertices.
``edges`` is a dict in creation order, so the replaced edge leaves it in
O(1).  Edges hash and compare by identity, paths by their fields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from .core import Literal, Side, Term


@dataclass(slots=True, eq=False)
class Edge:
    """One merge step.  Exactly one of ``origin`` / ``parents`` is set.

    Hashed and compared by identity; nothing changes an edge once it is made.
    """

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


@dataclass(slots=True)
class Path:
    """The unique simple path between two connected vertices; empty iff u = v.

    ``edges[i]`` joins ``vertices[i]`` and ``vertices[i + 1]``, in either
    orientation, so there is one more vertex than edges.
    """

    vertices: tuple[Term, ...]
    edges: tuple[Edge, ...]
    # The endpoint ids, smaller first; in a forest they fix the path.
    key: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        a, b = self.vertices[0].id, self.vertices[-1].id
        self.key = (a, b) if a <= b else (b, a)

    @property
    def start(self) -> Term:
        return self.vertices[0]

    @property
    def end(self) -> Term:
        return self.vertices[-1]

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def slice(self, lo: int, hi: int) -> "Path":
        """Subpath between vertex positions ``lo`` and ``hi`` (inclusive)."""
        return Path(self.vertices[lo : hi + 1], self.edges[lo:hi])


class ClosureInputError(ValueError):
    """A closure input term lies outside the supplied term set."""


class NotConnectedError(ValueError):
    pass


class CongruenceGraph:
    """Built by :func:`close`; mutable while a repair runs, then read-only."""

    def __init__(self, size: int = 0):
        # The vertices in id order, then the repair vertices as added.
        self.vertices: list[Term] = []
        # The edges in creation order; a dict, so a split removes one in O(1).
        self.edges: dict[Edge, None] = {}
        # Class handle -> the class's members in merge order.
        self.classes: dict[int, list[Term]] = {}
        # By id: class handle or -1, label (at handles), and forest link
        # (edge to the parent, parent), None at a root.  A split grows them.
        self._rep: list[int] = [-1] * size
        self._label: list[int] = [-1] * size
        self._up: list[tuple[Edge, Term] | None] = [None] * size
        self._next_seq = 0
        self.moved = 0  # members relabelled by the closure's merges

    def clone(self) -> "CongruenceGraph":
        g = CongruenceGraph()
        g.vertices = self.vertices.copy()
        g.edges = self.edges.copy()
        g.classes = {rep: members.copy() for rep, members in self.classes.items()}
        g._rep, g._label, g._up = self._rep.copy(), self._label.copy(), self._up.copy()
        g._next_seq, g.moved = self._next_seq, self.moved
        return g

    def __contains__(self, t: Term) -> bool:
        return t.id < len(self._rep) and self._rep[t.id] >= 0

    def find(self, tid: int) -> int:
        """The smallest id in the class of ``tid``; LookupError off the vertices."""
        rep = self._rep
        if tid < len(rep) and rep[tid] >= 0:
            return self._label[rep[tid]]
        raise LookupError(f"term id {tid} is not a vertex")

    def connected(self, s: Term, t: Term) -> bool:
        return self.find(s.id) == self.find(t.id)

    def _new_edge(self, u: Term, v: Term, parents: tuple[tuple[Term, Term], ...]) -> Edge:
        """A derived edge u--v with the next sequence number, added last."""
        edge = Edge(u, v, self._next_seq, None, None, parents)
        self._next_seq += 1
        self.edges[edge] = None
        return edge

    def _reroot(self, x: Term) -> None:
        """Make ``x`` the root of its tree by reversing its ancestor links."""
        up = self._up
        link, up[x.id] = up[x.id], None
        child = x
        while link is not None:
            edge, parent = link
            link, up[parent.id] = up[parent.id], (edge, child)
            child = parent

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
        del self.edges[edge]
        # The forest stores the edge at its lower endpoint.
        u_link = up[edge.u.id]
        low = edge.u if u_link is not None and u_link[0] is edge else edge.v
        high = edge.other(low)
        up[low.id] = None
        if mid not in self:
            rep, tid = self._rep, mid.id
            if tid >= len(rep):
                rep += [-1] * (tid + 1 - len(rep))
                up += [None] * (tid + 1 - len(up))
            # The edge's class has two members or more, so by size mid joins it.
            handle = rep[tid] = rep[low.id]
            self.classes[handle].append(mid)
            self._label[handle] = min(self._label[handle], tid)
            self.vertices.append(mid)
            first = self._new_edge(edge.u, mid, left)
            second = self._new_edge(mid, edge.v, right)
            below, above = (first, second) if low is edge.u else (second, first)
            up[low.id] = (below, mid)
            up[tid] = (above, high)
            return [first, second]
        x = mid
        while x is not low and up[x.id] is not None:
            x = up[x.id][1]
        below_low = x is low
        if below_low == (low is edge.u):
            new = self._new_edge(mid, edge.v, right)
        else:
            new = self._new_edge(edge.u, mid, left)
        if below_low:
            self._reroot(mid)
            up[mid.id] = (new, high)
        else:
            up[low.id] = (new, mid)
        return [new]

    def components(self) -> list[list[Term]]:
        """Partition of the vertex set, ordered by smallest member id."""
        by_id, classes = attrgetter("id"), self.classes
        return [
            sorted(classes[rep], key=by_id)
            for rep in sorted(classes, key=self._label.__getitem__)
        ]

    def path(self, u: Term, v: Term) -> Path:
        rep = self._rep
        ru = rep[u.id] if u.id < len(rep) else -1
        rv = rep[v.id] if v.id < len(rep) else -1
        if ru < 0 or rv < 0:
            raise NotConnectedError(f"{u!r} or {v!r} is not a vertex")
        if u is v:
            return Path((u,), ())
        if ru != rv:
            raise NotConnectedError(f"no path between {u!r} and {v!r}")
        # Climb from both ends in turn until one climb reaches a vertex the
        # other has passed: that vertex is the lowest common ancestor.
        up = self._up
        rise, fall = [u], [v]
        on_rise, on_fall = {u: 0}, {v: 0}
        x, y = u, v
        while True:
            if x is not None:
                link = up[x.id]
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
                link = up[y.id]
                y = link[1] if link is not None else None
                if y is not None:
                    at = on_rise.get(y)
                    if at is not None:
                        fall.append(y)
                        del rise[at + 1 :]
                        break
                    on_fall[y] = len(fall)
                    fall.append(y)
        # rise runs from u up to the ancestor, fall from v up to it.
        fall.pop()
        fall.reverse()
        return Path(tuple(rise + fall), tuple([up[x.id][0] for x in rise[:-1] + fall]))


def close(
    equalities: Sequence[tuple[Literal, Side | None]],
    terms: Sequence[Term],
) -> CongruenceGraph:
    """Run congruence closure over the given equalities and term set.

    Input equalities are seeded in order before congruence merges; pending
    congruences are processed through one FIFO queue keyed by a signature
    table, so the resulting graph is deterministic.  Terms connected in the
    result are exactly those entailed equal by the input equalities.

    Each merge moves the smaller class and rescans only the applications over
    it, so a term moves, and its applications are rescanned, at most log2 n
    times for n terms.  The graph's ``moved`` counts the members moved.

    One loop over the terms in id order fills the graph's lists, the use
    lists and the signature table; a term given twice finds its slot filled.
    Arguments are older than their applications, so an argument with no use
    list yet is outside the set.  Equality endpoints are checked as queued.
    """
    terms = sorted(terms, key=attrgetter("id"))
    size = terms[-1].id + 1 if terms else 0
    graph = CongruenceGraph(size)
    vertices, edges, classes = graph.vertices, graph.edges, graph.classes
    rep, label, up, reroot = graph._rep, graph._label, graph._up, graph._reroot
    use: list[list[Term] | None] = [None] * size
    sig_table: dict[tuple, Term] = {}
    for t in terms:
        tid = t.id
        if rep[tid] >= 0:
            continue
        rep[tid] = label[tid] = tid
        classes[tid] = [t]
        vertices.append(t)
        use[tid] = []
        if t.args:
            ids = []
            for arg in t.args:
                apps = use[arg.id] if arg.id < tid else None
                if apps is None:
                    raise ClosureInputError(f"term set not subterm-closed at {t!r}")
                apps.append(t)
                ids.append(arg.id)
            # Before any merge every term is its own class's handle.
            sig_table[(t.head, tuple(ids))] = t

    # Pending merges (s, t, input literal or None for a congruence, side).
    pending = deque()
    for lit, side in equalities:
        s, t = lit.lhs.id, lit.rhs.id
        if s >= size or t >= size or rep[s] < 0 or rep[t] < 0:
            raise ClosureInputError(f"equality {lit!r} mentions a term outside T")
        pending.append((lit.lhs, lit.rhs, lit, side))
    seq = moved = 0
    while pending:
        s, t, lit, side = pending.popleft()
        keep, gone = rep[s.id], rep[t.id]
        if keep == gone:
            continue
        parents = tuple(zip(s.args, t.args)) if lit is None else None
        edge = Edge(s, t, seq, lit, side, parents)
        seq += 1
        edges[edge] = None
        kept, members = classes[keep], classes[gone]
        n, m = len(kept), len(members)
        # Hang the smaller tree below the other endpoint.
        low, high = (s, t) if n <= m else (t, s)
        reroot(low)
        up[low.id] = (edge, high)
        # The class with fewer members moves; on a tie the larger label does.
        if n < m or n == m and label[gone] < label[keep]:
            keep, gone, kept, members, m = gone, keep, members, kept, n
        del classes[gone]
        if label[gone] < label[keep]:
            label[keep] = label[gone]
        for member in members:
            rep[member.id] = keep
        kept += members
        moved += m
        # Only applications over the moved class change signature.  Rescan
        # them as a pass over the merged class in id order first reaches
        # them: by smallest argument in the class (older than the app), then id.
        rescan = []
        seen = set()
        for member in members:
            for app in use[member.id]:
                aid = app.id
                if aid in seen:
                    continue
                seen.add(aid)
                first = aid
                reps = []
                for a in app.args:
                    r = rep[a.id]
                    reps.append(r)
                    if r == keep and a.id < first:
                        first = a.id
                rescan.append((first, aid, (app.head, tuple(reps)), app))
        rescan.sort()
        for _, _, sig, app in rescan:
            known = sig_table.get(sig)
            if known is None:
                sig_table[sig] = app
            elif rep[app.id] != rep[known.id]:
                pending.append((app, known, None, None))
    graph._next_seq, graph.moved = seq, moved
    return graph


def find_refuted_disequality(
    graph: CongruenceGraph, diseqs: Sequence[tuple[Literal, Side]]
) -> tuple[Literal, Side] | None:
    """The first ``(disequality, side)`` pair whose endpoints are connected.

    B-side disequalities win; None when no disequality is refuted.
    """
    for want in (Side.B, Side.A):
        for lit, side in diseqs:
            if side is want and graph.connected(lit.lhs, lit.rhs):
                return lit, side
    return None
