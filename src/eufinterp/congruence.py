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

The partition is one member list per class, keyed by a class handle, a map
from each term id to its class's handle, and a map from each handle to the
class's label, its smallest id; ``find`` returns the label.  A merge is by
size (Downey, Sethi & Tarjan, JACM 1980): the class with fewer members is
relabelled into the other, which keeps its handle, and on a tie the class
with the smaller label is kept.  The kept label becomes the smaller of the
two, in O(1).  So a term is relabelled O(log n) times, and the closure's
rescan of the applications over the moved class costs the same.  Signatures
are tuples of handles: only the moved class changes handle, so only the
applications over it change signature.  The merge loop reads and writes the
graph's maps directly, with no method call per merge beyond the reroot walk
and the relabelling, which :meth:`CongruenceGraph.split_edge` shares.

Colorability repair replaces an edge by a two-edge path through a split
vertex with ``split_edge``, which never changes the partition of the existing
vertices.  ``edges`` is a dict in creation order, so the replaced edge leaves
it in O(1) and the order stays that of the sequence numbers.  Edges and paths
are slotted records: edges hash and compare by identity, paths by their
fields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

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
    """Mutable while a closure or repair runs, then used read-only."""

    def __init__(self, vertices: Iterable[Term]):
        self.vertices: list[Term] = sorted(vertices, key=attrgetter("id"))
        # The edges in creation order; a dict, so a split removes one in O(1).
        self.edges: dict[Edge, None] = {}
        # Proof forest: vertex -> (edge to its parent, parent); None at a root.
        self._up: dict[Term, tuple[Edge, Term] | None] = dict.fromkeys(self.vertices)
        # The partition: term id -> class handle, handle -> the class's
        # members in merge order, and handle -> label, the smallest member id.
        # A class's handle is the id of the term it started from.
        self._rep: dict[int, int] = {t.id: t.id for t in self.vertices}
        self.classes: dict[int, list[Term]] = {t.id: [t] for t in self.vertices}
        self._label: dict[int, int] = dict(self._rep)
        self._next_seq = 0

    def clone(self) -> "CongruenceGraph":
        g = CongruenceGraph.__new__(CongruenceGraph)
        g.vertices = list(self.vertices)
        g.edges = dict(self.edges)
        g._up = dict(self._up)
        g._rep = dict(self._rep)
        g.classes = {rep: list(members) for rep, members in self.classes.items()}
        g._label = dict(self._label)
        g._next_seq = self._next_seq
        return g

    def __contains__(self, t: Term) -> bool:
        return t.id in self._rep

    def find(self, tid: int) -> int:
        """The smallest id in the class of ``tid``."""
        return self._label[self._rep[tid]]

    def connected(self, s: Term, t: Term) -> bool:
        return self._rep[s.id] == self._rep[t.id]

    def _join(self, ra: int, rb: int) -> tuple[int, list[Term]]:
        """Merge the classes of handles ``ra`` and ``rb`` by size.

        The class with fewer members moves into the other; on a tie the one
        with the smaller label stays.  Returns the kept handle and the moved
        members.
        """
        classes, label = self.classes, self._label
        kept, moved = classes[ra], classes[rb]
        la, lb = label[ra], label[rb]
        if len(kept) < len(moved) or (len(kept) == len(moved) and lb < la):
            ra, rb, kept, moved, la, lb = rb, ra, moved, kept, lb, la
        del classes[rb], label[rb]
        if lb < la:
            label[ra] = lb
        rep = self._rep
        for t in moved:
            rep[t.id] = ra
        kept.extend(moved)
        return ra, moved

    def _new_edge(self, u: Term, v: Term, parents: tuple[tuple[Term, Term], ...]) -> Edge:
        """A derived edge u--v with the next sequence number, added last."""
        edge = Edge(u, v, self._next_seq, None, None, parents)
        self._next_seq += 1
        self.edges[edge] = None
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
        low = edge.u if up[edge.u] is not None and up[edge.u][0] is edge else edge.v
        high = edge.other(low)
        up[low] = None
        if mid not in self:
            self.vertices.append(mid)
            self._rep[mid.id] = self._label[mid.id] = mid.id
            self.classes[mid.id] = [mid]
            self._join(self._rep[low.id], mid.id)
            first = self._new_edge(edge.u, mid, left)
            second = self._new_edge(mid, edge.v, right)
            below, above = (first, second) if low is edge.u else (second, first)
            up[low] = (below, mid)
            up[mid] = (above, high)
            return [first, second]
        x = mid
        while x is not low and up[x] is not None:
            x = up[x][1]
        below_low = x is low
        if below_low == (low is edge.u):
            new = self._new_edge(mid, edge.v, right)
        else:
            new = self._new_edge(edge.u, mid, left)
        if below_low:
            self._reroot(mid)
            up[mid] = (new, high)
        else:
            up[low] = (new, mid)
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
        ru, rv = rep.get(u.id), rep.get(v.id)
        if ru is None or rv is None:
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
        # rise runs from u up to the ancestor, fall from v up to it.
        fall.pop()
        fall.reverse()
        return Path(tuple(rise + fall), tuple([up[x][0] for x in rise[:-1] + fall]))


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
    times for n terms.

    One loop over the vertices in id order builds the use lists and initial
    signatures and checks subterm closure: arguments are older than their
    applications, so a missing use list is an argument outside the set.
    Equality endpoints are checked against the graph's id map as queued.
    """
    graph = CongruenceGraph(terms)
    edges, up, rep, classes = graph.edges, graph._up, graph._rep, graph.classes
    reroot, join = graph._reroot, graph._join

    use: dict[int, list[Term]] = {}
    sig_table: dict[tuple, Term] = {}
    for t in graph.vertices:
        use[t.id] = []
        if t.args:
            for arg in dict.fromkeys(t.args):
                apps = use.get(arg.id)
                if apps is None:
                    raise ClosureInputError(f"term set not subterm-closed at {t!r}")
                apps.append(t)
            # Before any merge every term represents its own class.
            sig_table[(t.head, tuple([a.id for a in t.args]))] = t

    # Pending merges (s, t, input literal or None for a congruence, side).
    pending = deque()
    for lit, side in equalities:
        if lit.lhs.id not in rep or lit.rhs.id not in rep:
            raise ClosureInputError(f"equality {lit!r} mentions a term outside T")
        pending.append((lit.lhs, lit.rhs, lit, side))
    seq = 0
    while pending:
        s, t, lit, side = pending.popleft()
        rs, rt = rep[s.id], rep[t.id]
        if rs == rt:
            continue
        if lit is None:
            edge = Edge(s, t, seq, None, None, tuple(zip(s.args, t.args)))
        else:
            edge = Edge(s, t, seq, lit, side, None)
        seq += 1
        edges[edge] = None
        # Hang the smaller tree below the other endpoint.
        low, high = (s, t) if len(classes[rs]) <= len(classes[rt]) else (t, s)
        reroot(low)
        up[low] = (edge, high)
        keep, moved = join(rs, rt)
        # Only applications over the moved class change signature; the
        # others keep a signature whose pairs are connected or already queued.
        # Rescan them in the order a pass over the merged class sorted by id
        # would first reach them: by smallest argument in the class, then id.
        # Arguments are older than their applications, so that id is smaller
        # than the application's.
        rescan = []
        seen = set()
        for member in moved:
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
    graph._next_seq = seq
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
