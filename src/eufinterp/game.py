"""Interpolation runs extracted from local refutations, for any theory.

A proof is a labelled tree whose inference steps each stay inside one side's
signature.  Cutting it at well-placed shared-signature nodes decomposes it
into single-side subproofs; the cut nodes, with the opposite-side cut leaves
of each piece as premises, form a run of the two-prover interpolation game,
and the interpolant falls out of the run's premise bookkeeping.

Formulas here are opaque: each label is a hash-consed ``Term`` of a
``TermTable`` that the proof owns, so labels are hashed and compared by
identity, and only symbol occurrences matter.  A proof is index arrays, one
entry per label: the unfolding, the cut and the run work on node indices,
and only their results are labels again.  Sets of symbols and sets of labels
are ints: symbol masks over one index per term table, and label masks over
the proof's node order.  Ground equality problems can be bridged in: a
colored congruence graph unfolds into a local refutation whose inference
steps are the factor summaries and derived-edge congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable

from .coloring import ColoredGraph, Strategy
from .congruence import Edge, Path
from .core import (
    Literal, ParseError, ProblemInstance, Reader, Side, Term, TermTable, _A, _post_order,
    format_term,
)
from .interpolate import build_colored_graph

LOGICAL_TOKENS = frozenset(
    {"true", "false", "false'", "and", "or", "not", "=>", "<=>", "=", "!=",
     "forall", "exists"}
)


class SymbolMasks:
    """Free symbols of one term table's terms, as bitmasks over one index.

    ``bits`` gives each symbol a single-bit mask, in first-use order.
    ``masks[i]`` is the free-symbol mask of the table's term of id ``i``;
    ``cover`` extends it over the terms it lacks, in id order, so an
    argument's entry is made before its application's.  Logical tokens are
    not symbols, and ``(forall v BODY)`` and ``(exists v BODY)`` bind ``v``.
    A caller that makes terms whose arguments belong to another table appends
    their masks itself, as it makes them.
    """

    def __init__(self) -> None:
        self.bits: dict[str, int] = {}
        self.masks: list[int] = []

    def bit(self, name: str) -> int:
        bit = self.bits.get(name)
        if bit is None:
            bit = self.bits[name] = 1 << len(self.bits)
        return bit

    def decode(self, mask: int) -> frozenset[str]:
        return frozenset(name for name, bit in self.bits.items() if mask & bit)

    def cover(self, table: TermTable) -> None:
        masks = self.masks
        for term in table.terms[len(masks):]:
            head, args = term.head, term.args
            if head in ("forall", "exists") and len(args) == 2 and not args[0].args:
                mask = masks[args[1].id] & ~self.bit(args[0].head)
            else:
                mask = 0 if head in LOGICAL_TOKENS else self.bit(head)
                for arg in args:
                    mask |= masks[arg.id]
            masks.append(mask)


class ProofError(ValueError):
    pass


class NonLocalProofError(ProofError):
    """An inference step mixes A-local and B-local symbols."""

    def __init__(self, step: Term):
        self.step = step
        super().__init__(f"inference step at {format_term(step)} is not local")


class InvalidCutError(ValueError):
    pass


class ProofTree:
    """A local-refutation candidate, collapsed to one node per label.

    The tree is index arrays, in the order ``add`` appends nodes: node ``i``
    has the label ``labels[i]``, a term of ``table``, premise indices
    ``premises[i]``, origin ``origins[i]`` ("A" | "B" | "axiom" for a leaf,
    None for an inference) and symbol mask ``masks[i]``.  Premises come before
    their conclusions: every index in ``premises[i]`` is below ``i``, so no
    tree is cyclic.  ``nodes`` maps each label to its node index;
    ``root_index`` is false's node, and ``relay_index`` the relay's that
    ``normalize_root`` put in the old root's slot.

    ``symbols`` holds the free-symbol mask of every term of ``table``, and
    trees over one table share it.  ``sides`` maps each origin to the union of
    its nodes' masks, joined as nodes are added; "A" and "B" also hold the
    theory symbols, and are the side signatures.  A label fits a side when its
    mask lies inside that signature; ``fits`` holds that per node.  ``reach()``
    gives every node the mask of the nodes strictly below it, bit ``j``
    standing for node ``j``.
    """

    def __init__(
        self,
        theory_symbols: frozenset[str],
        table: TermTable,
        symbols: SymbolMasks | None = None,
    ):
        self.theory_symbols = theory_symbols
        self.table = table
        self.symbols = symbols = SymbolMasks() if symbols is None else symbols
        symbols.cover(table)
        theory = 0
        for name in theory_symbols:
            theory |= symbols.bit(name)
        self.sides: dict[str | None, int] = {"A": theory, "B": theory, "axiom": 0, None: 0}
        self.labels: list[Term] = []
        self.premises: list[tuple[int, ...]] = []
        self.origins: list[str | None] = []
        self.masks: list[int] = []
        self.nodes: dict[Term, int] = {}
        self.root_index = 0
        self.relay_index: int | None = None
        self._below: list[int] | None = None

    def add(self, label: Term, premises: tuple = (), origin: str | None = None) -> int:
        """The node of ``label``; a new one is appended with ``premises`` and
        ``origin``, and a new leaf's mask joins its side's signature.  Raises
        ``ProofError`` when a premise of a new node is not a node yet."""
        i = self.nodes.get(label)
        if i is None:
            i = len(self.labels)
            if any(not 0 <= prem < i for prem in premises):
                raise ProofError(f"premise of {format_term(label)} is not a node yet")
            self.nodes[label] = i
            mask = self.symbols.masks[label.id]
            self.labels.append(label)
            self.premises.append(premises)
            self.origins.append(origin)
            self.masks.append(mask)
            self.sides[origin] |= mask
        return i

    @property
    def root(self) -> Term:
        return self.labels[self.root_index]

    @cached_property
    def fits(self) -> list[int]:
        """Per node, bit 1: its label fits A's signature; bit 2: B's."""
        a, b = self.sides["A"], self.sides["B"]
        return [(mask & a == mask) | (mask & b == mask) << 1 for mask in self.masks]

    def reach(self) -> list[int]:
        """Per node, the mask of the nodes strictly below it, in one forward
        pass over the node order."""
        if self._below is None:
            below: list[int] = []
            for prems in self.premises:
                mask = 0
                for prem in prems:
                    mask |= below[prem] | 1 << prem
                below.append(mask)
            self._below = below
        return self._below


def parse_proof(text: str) -> ProofTree:
    """Parse a proof file: a theory-symbols header, then node forms.

    Leaves carry ``(from A|B|axiom)``; inferences carry ``(premises ID+)``.
    Formulas are read by ``core.Reader`` into the tree's own term table, with
    no arity check.  The root is the unique node no other node uses, and must
    be labelled false.  Nodes sharing a label must root structurally
    identical subtrees.  Once no id cycle is reachable from a node, that is a
    local check: in an acyclic proof, nodes sharing a label root identical
    subtrees exactly when every such node has the same origin and premise
    labels (by induction on the sum of the two heights).  So each node is
    compared with the first node of its label as ids collapse to labels.
    Labels become nodes in the order the id-level cycle check finishes them,
    so a file that lists premises before their conclusions keeps its order.
    """
    table = TermTable()
    reader = Reader(text, table, None)
    toks, close = reader.toks, reader.close
    if not toks:
        raise ParseError("empty proof")
    if toks[0] != "(" or toks[1] != "theory-symbols":
        raise reader.error("expected (theory-symbols SYMBOL*)", 0)
    theory = []
    for k in reader.items(2, close[0]):
        if toks[k] == "(":
            raise reader.error("theory symbols must be atoms", k)
        theory.append(toks[k])

    # node id -> label, token indices of the premise ids, origin
    raw: dict[str, tuple[Term, tuple[int, ...], str | None]] = {}
    i = close[0] + 1
    while i < len(toks):
        if (
            toks[i] != "("
            or toks[i + 1] != "node"
            or reader.count(i) != 4
            or toks[i + 2] == "("
        ):
            raise reader.error("expected (node ID FORMULA (from ...)|(premises ...))", i)
        node_id = toks[i + 2]
        if node_id in raw:
            raise reader.error(f"node id {node_id!r} redefined", i)
        formula, tail = reader.term(i + 3, None)
        if toks[tail] != "(" or toks[tail + 1] in ("(", ")"):
            raise reader.error("malformed node tail", i)
        kind = toks[tail + 1]
        if kind == "from":
            if reader.count(tail) != 2 or toks[tail + 2] not in ("A", "B", "axiom"):
                raise reader.error("expected (from A|B|axiom)", tail)
            raw[node_id] = (formula, (), toks[tail + 2])
        elif kind == "premises":
            ids = tuple(reader.items(tail + 2, close[tail]))
            if not ids or any(toks[k] == "(" for k in ids):
                raise reader.error("expected (premises ID+)", tail)
            raw[node_id] = (formula, ids, None)
        else:
            raise reader.error(f"unexpected node tail {kind!r}", tail)
        i = close[i] + 1

    referenced: set[str] = set()
    for node_id, (_, premises, _) in raw.items():
        for k in premises:
            if toks[k] not in raw:
                raise reader.error(
                    f"unknown premise id {toks[k]!r} in node {node_id!r}", k
                )
            referenced.add(toks[k])
    roots = [nid for nid in raw if nid not in referenced]
    if len(roots) != 1:
        raise ProofError(f"expected one root node, found {len(roots)}")
    false = table.make("false")
    if raw[roots[0]][0] is not false:
        raise ProofError("root node must be labelled false")

    tree = ProofTree(frozenset(theory), table)
    first: dict[Term, tuple] = {}  # label -> premise labels, origin of its first node
    checked: dict[str, int] = {}  # node id -> its label's node
    for node_id, (formula, premises, origin) in raw.items():
        _post_order(
            node_id,
            lambda nid: [toks[k] for k in raw[nid][1]],
            lambda nid: tree.add(
                raw[nid][0], tuple(checked[toks[k]] for k in raw[nid][1]), raw[nid][2]
            ),
            checked,
            lambda nid: ProofError(f"cyclic proof through node {nid!r}"),
        )
        node = (tuple(raw[toks[k]][0] for k in premises), origin)
        if first.setdefault(formula, node) != node:
            raise ProofError(
                f"nodes labelled {format_term(formula)} root different subtrees"
            )
    tree.root_index = tree.nodes[false]
    return tree


def first_nonlocal_step(tree: ProofTree) -> Term | None:
    """Conclusion of the first inference step that fits neither signature."""
    fits = tree.fits
    for i, premises in enumerate(tree.premises):
        if premises:
            fit = fits[i]
            for prem in premises:
                fit &= fits[prem]
            if not fit:
                return tree.labels[i]
    return None


def check_local(tree: ProofTree) -> bool:
    """Every inference step lies wholly inside one side's signature."""
    return first_nonlocal_step(tree) is None


def normalize_root(tree: ProofTree) -> ProofTree:
    """Ensure false is no A leaf and has B-colorable parents, via a relay.

    When some premise of the root is not B-colorable, or the root is itself an
    A leaf, the root's node moves to a relay node and a final inference relay
    |- false is appended (a step among logical constants only, hence
    B-colorable).  The relay is false', or, when the tree already has a node
    of that label, the first of (and false'), (and (and false')), ... that it
    lacks; each denotes falsity.  It is interned in the tree's table, takes
    the root's slot in copies of the arrays, and the new root is appended.
    Idempotent.
    """
    r, fits = tree.root_index, tree.fits
    if tree.origins[r] != "A" and all(fits[p] & 2 for p in tree.premises[r]):
        return tree
    root, table = tree.root, tree.table
    relay = table.make("false'")
    while relay in tree.nodes:
        relay = table.make("and", (relay,))
    fixed = ProofTree(tree.theory_symbols, table, tree.symbols)
    for name in ("labels", "premises", "origins", "masks", "nodes", "sides"):
        setattr(fixed, name, getattr(tree, name).copy())
    del fixed.nodes[root]
    fixed.labels[r], fixed.masks[r] = relay, tree.symbols.masks[relay.id]
    fixed.nodes[relay] = fixed.relay_index = r
    fixed.root_index = fixed.add(root, (r,))
    return fixed


def coloring_cut(tree: ProofTree) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """Inductive cut: alternately add maximal candidates below cut nodes.

    Candidates are AB-colorable labels the opposite prover cannot reach on
    its own: for T_A, A leaves and inferences with a premise that does not
    fit B; for T_B, the same with the sides swapped.  Both candidate masks
    come from one scan over the labels' fits.

    Starting from the root false in T_B, each B-sweep adds to T_A the maximal
    A-candidates below T_B nodes, and each A-sweep adds to T_B the maximal
    B-candidates below T_A nodes, until a round adds nothing.  Each anchor
    is expanded exactly once, in B-then-A layers: its maximal candidates
    depend only on the anchor and membership only grows, so a sweep expands
    just the anchors added since the last sweep of its kind.  This keeps the
    insertion order of re-expanding every anchor each round to a fixpoint.

    Sets of labels are bitmasks over ``tree.reach()``: an anchor's eligible
    candidates are its below-mask masked by the candidates, and the maximal
    ones are those outside every eligible member's below-mask.  A member
    below another adds nothing to that union, so eligible members are taken
    from the highest bit down, skipping those already covered; as premises
    come before their conclusions, one mask often covers the rest.
    Candidates come in node order, which is bit order, so new cut nodes are
    emitted in candidate order.
    """
    below, premises, origins, fits = tree.reach(), tree.premises, tree.origins, tree.fits
    cand_a = cand_b = 0
    for i, fit in enumerate(fits):
        if fit != 3:
            continue
        if premises[i]:
            for prem in premises[i]:
                fit &= fits[prem]
            if not fit & 2:
                cand_a |= 1 << i
            if not fit & 1:
                cand_b |= 1 << i
        elif origins[i] == "A":
            cand_a |= 1 << i
        elif origins[i] == "B":
            cand_b |= 1 << i
    t_a: list[int] = []
    t_b: list[int] = [tree.root_index]
    cut = 1 << t_b[0]

    def sweep(anchors: list[int], start: int, candidates: int, into: list[int]) -> int:
        nonlocal cut
        end = len(anchors)
        for anchor in anchors[start:end]:
            eligible = below[anchor] & candidates
            covered = 0
            rest = eligible
            while rest:
                top = rest.bit_length() - 1
                covered |= below[top]
                rest = (rest ^ 1 << top) & ~below[top]
            fresh = eligible & ~(covered | cut)
            cut |= fresh
            while fresh:
                low = fresh & -fresh
                into.append(low.bit_length() - 1)
                fresh ^= low
        return end

    done_a = done_b = 0
    while done_b < len(t_b) or done_a < len(t_a):
        done_b = sweep(t_b, done_b, cand_a, t_a)
        done_a = sweep(t_a, done_a, cand_b, t_b)
    return tuple(tree.labels[i] for i in t_a), tuple(tree.labels[i] for i in t_b)


def _premise_cycle(phi: Term) -> RuntimeError:
    return RuntimeError(f"premise cycle through {format_term(phi)}")


@dataclass
class InterpolationRun:
    """The (S_A, S_B, order, premise-maps) structure of a finished game.

    Its formulas are terms of ``table``, the table of the proof it came from.
    ``relay`` is the label that stood in for false at the proof's root, if any.
    """

    s_a: tuple[Term, ...]
    s_b: tuple[Term, ...]
    pr_b: dict[Term, tuple[Term, ...]]  # premises the B-prover supplied
    pr_a: dict[Term, tuple[Term, ...]]  # premises the A-prover supplied
    table: TermTable
    relay: Term | None = None

    @property
    def false(self) -> Term:
        return self.table.make("false")

    @property
    def successful(self) -> bool:
        return self.false in self.s_b

    def rounds(self) -> int:
        """Length of the longest premise chain, in prover turns."""
        memo: dict[Term, int] = {}
        in_a = set(self.s_a)

        def premises(phi: Term) -> tuple[Term, ...]:
            return self.pr_b[phi] if phi in in_a else self.pr_a[phi]

        def depth(phi: Term) -> int:
            return 1 + max((memo[p] for p in premises(phi)), default=0)

        return max(
            (
                _post_order(phi, premises, depth, memo, _premise_cycle)
                for phi in self.s_a + self.s_b
            ),
            default=0,
        )


def run_from_cut(
    tree: ProofTree, t_a: Iterable[Term], t_b: Iterable[Term]
) -> InterpolationRun:
    """Decompose the proof at the cut and read off the premise maps.

    Each piece rooted at a cut node may only reach leaves of its own input
    set, axioms, or opposite-side cut nodes; anything else means the cut was
    invalid.  Pieces are walked over the premise lists, with the cut as one
    byte of side bits per node, so every premise a piece finds lies below its
    cut node.
    """
    t_a, t_b = tuple(t_a), tuple(t_b)
    nodes, labels, premises, origins = tree.nodes, tree.labels, tree.premises, tree.origins
    cut = bytearray(len(labels))  # per node, bit 1: in T_A; bit 2: in T_B
    for label in t_a:
        cut[nodes[label]] |= 1
    for label in t_b:
        cut[nodes[label]] |= 2
    seen = [0] * len(labels)  # per node, the last piece that met it
    pieces = count(1)

    def piece_premises(chi: Term, own_origin: str, opposite: int) -> tuple:
        c, piece = nodes[chi], next(pieces)
        found: list[int] = []
        stack = list(reversed(premises[c]))
        while stack:
            i = stack.pop()
            if seen[i] == piece:
                continue
            seen[i] = piece
            if cut[i]:
                if not cut[i] & opposite:
                    raise InvalidCutError(
                        f"cut node {format_term(labels[i])} on the wrong side of "
                        f"{format_term(chi)}"
                    )
                found.append(i)
            elif premises[i]:
                stack.extend(reversed(premises[i]))
            elif origins[i] not in (own_origin, "axiom"):
                raise InvalidCutError(
                    f"piece at {format_term(chi)} reaches foreign leaf "
                    f"{format_term(labels[i])}"
                )
        return tuple([labels[i] for i in found])

    pr_b = {alpha: piece_premises(alpha, "A", 2) for alpha in t_a}
    pr_a = {beta: piece_premises(beta, "B", 1) for beta in t_b}
    relay = None if tree.relay_index is None else labels[tree.relay_index]
    return InterpolationRun(t_a, t_b, pr_b, pr_a, tree.table, relay)


def game_interpolant(
    run: InterpolationRun, target: Term | None = None
) -> tuple[Term, ...]:
    """Implications justifying every A-contribution feeding ``target``.

    With the default target, false, this is the interpolant of a successful
    run.  Implications ``(=> (and β…) α)`` are interned in the run's table.
    The run's relay denotes falsity and is written false.
    """
    if target is None:
        target = run.false
    if not run.successful:
        raise ValueError("run is not successful: false was never derived")
    if target not in run.pr_a:
        raise ValueError("target must belong to the B-prover's set")
    alphas: dict[Term, None] = {}

    def below(beta: Term) -> list[Term]:
        # Called once per B-formula, at its first visit: in pre-order.
        alphas.update(dict.fromkeys(run.pr_a[beta]))
        return [beta2 for alpha in run.pr_a[beta] for beta2 in run.pr_b[alpha]]

    _post_order(target, below, lambda beta: None, {}, _premise_cycle)
    make = run.table.make
    implications: dict[Term, None] = {}
    for alpha in alphas:
        premises = run.pr_b[alpha]
        conclusion = run.false if alpha is run.relay else alpha
        if premises:
            implications[make("=>", (make("and", premises), conclusion))] = None
        else:
            implications[conclusion] = None
    return tuple(implications)


def format_game_interpolant(formulas: tuple[Term, ...]) -> str:
    if not formulas:
        return "true"
    return "(and " + " ".join(format_term(f) for f in formulas) + ")"


def euf_bridge(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> ProofTree:
    """Close, repair and color ``problem``, then unfold its refutation.

    A caller that already holds the colored graph, such as an
    ``InterpolationResult``, calls ``unfold_refutation`` on it instead.
    """
    colored, refuted, side, _ = build_colored_graph(problem, strategy)
    return unfold_refutation(colored, refuted, side)


def unfold_refutation(colored: ColoredGraph, refuted: Literal, side: Side) -> ProofTree:
    """Unfold a colored congruence graph into a local ground refutation.

    Every factor summary and every derived-edge congruence becomes one
    inference step; the final step derives false from the refuted
    disequality, a leaf of ``side``, and the summary of the path connecting
    its endpoints.

    Labels are interned in a table of the tree's own; an ``(= s t)`` label
    takes the graph's vertex terms as its arguments, and its mask, the OR of
    its endpoints' masks, is appended to the tree's ``SymbolMasks`` as the
    label is made.  Vertex masks are built in one pass over the vertices in
    graph order, arguments first, into a list indexed by term id.  Every
    head counts as a symbol, so a symbol spelled like a logical token stays
    a symbol.

    The unfolding is one flat pass on an explicit stack, in the order a
    recursive one would take, from a bottom frame holding the refuted path.
    Its items are edges, paths and runs ``(u, v, edges)``, told apart by
    class.  Each edge is derived once, by ``Edge.seq``, and each path or run
    once, by its endpoints' ids as in ``Path.key``, in the direction it is
    first met in; its label is interned when its step is opened.  A path of
    one edge is that edge, and a path of one run (``colored.runs``) derives
    from its edges.  A basic edge is a leaf, finished where it is met.  Nodes
    are appended as they are finished, so premises come before conclusions.
    The side unions are kept in locals, and ``nodes`` is filled once, after
    the pass; the disequality leaf and the root come last.
    """
    graph = colored.graph
    path, runs_of = graph.path, colored.runs
    table = TermTable()
    tree = ProofTree(frozenset(), table)
    labels, premises_of, origins = tree.labels, tree.premises, tree.origins
    node_masks, bits, masks = tree.masks, tree.symbols.bits, tree.symbols.masks
    # Repair makes its vertices in the table the colors were read against.
    vertex_masks = [0] * len(colored.symbols.table)
    for t in graph.vertices:
        mask = bits.get(t.head)
        if mask is None:
            mask = bits[t.head] = 1 << len(bits)
        for a in t.args:
            mask |= vertex_masks[a.id]
        vertex_masks[t.id] = mask
    make = table.make
    u, v = refuted.lhs, refuted.rhs
    if v.id < u.id:
        u, v = v, u
    masks.append(vertex_masks[u.id] | vertex_masks[v.id])
    diseq_label = make("not", (make("=", (u, v)),))
    false = make("false")
    tree.symbols.cover(table)  # before labels append their masks by id again
    a_side = b_side = inferred = 0
    done_at: dict = {}  # edge seq or path key -> node of its step, -1 while open
    root_premises: list[int] = []
    items = () if refuted.trivial else (path(refuted.lhs, refuted.rhs),)
    stack = [(None, None, iter(items), root_premises)]  # key, label, items, premises
    while stack:
        key, label, pending, premises = stack[-1]
        for item in pending:
            cls = item.__class__
            if cls is Path and len(item.edges) == 1:
                item, cls = item.edges[0], Edge
            if cls is Edge:
                sub_key, u, v = item.seq, item.u, item.v
            elif cls is Path:
                sub_key, u, v = item.key, item.vertices[0], item.vertices[-1]
            else:
                u, v, subs = item  # a run of two or more edges
                sub_key = (u.id, v.id) if u.id < v.id else (v.id, u.id)
            done = done_at.get(sub_key)
            if done is not None:
                if done < 0:
                    raise RuntimeError(f"unfolding revisits {sub_key}")
                premises.append(done)
                continue
            if v.id < u.id:
                u, v = v, u
            sub_label = make("=", (u, v))
            if sub_label.id == len(masks):
                masks.append(vertex_masks[u.id] | vertex_masks[v.id])
            if cls is Edge:
                if item.origin is not None:  # a leaf, finished here
                    done_at[sub_key] = done = len(labels)
                    premises.append(done)
                    mask = masks[sub_label.id]
                    if item.side is _A:
                        a_side |= mask
                        origins.append("A")
                    else:
                        b_side |= mask
                        origins.append("B")
                    labels.append(sub_label)
                    premises_of.append(())
                    node_masks.append(mask)
                    continue
                subs = [path(p, q) for p, q in item.parents if p is not q]
            elif cls is Path:
                verts, edges = item.vertices, item.edges
                runs = runs_of(item)
                subs = edges if len(runs) == 1 else [
                    edges[lo] if hi - lo == 1 else (verts[lo], verts[hi], edges[lo:hi])
                    for _, lo, hi in runs
                ]
            done_at[sub_key] = -1
            stack.append((sub_key, sub_label, iter(subs), []))
            break
        else:
            stack.pop()
            if stack:
                done_at[key] = done = len(labels)
                stack[-1][3].append(done)
                mask = masks[label.id]
                inferred |= mask
                labels.append(label)
                premises_of.append(tuple(premises))
                origins.append(None)
                node_masks.append(mask)
    tree.nodes = nodes = dict(zip(labels, range(len(labels))))
    if len(nodes) != len(labels):
        raise RuntimeError("unfolding repeats a label")
    tree.sides.update({"A": a_side, "B": b_side, None: inferred})  # no theory symbols
    root_premises.append(tree.add(diseq_label, (), side.value))
    tree.root_index = tree.add(false, tuple(root_premises))
    return tree


def local_cut(tree: ProofTree) -> tuple[ProofTree, tuple, tuple]:
    """Check locality, normalize the root and cut: ``(tree, T_A, T_B)``.

    Raises ``NonLocalProofError`` naming the first non-local step.
    """
    step = first_nonlocal_step(tree)
    if step is not None:
        raise NonLocalProofError(step)
    tree = normalize_root(tree)
    return (tree, *coloring_cut(tree))
