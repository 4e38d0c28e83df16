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
and only their results are labels again.  Each node holds its fit, two
bits telling which sides' signatures its label lies in; the builders work
the fits out once.  The cut walks each piece once, down the proof's tree of
occurrences, and keeps the premises it meets for the run.  Ground equality
problems can be bridged in: a colored congruence graph unfolds into a local
refutation whose inference steps are the factor summaries and derived-edge
congruences, and whose fits are its terms' colorability in the problem.  So a
side's signature is the problem's symbols on that side for a bridged proof,
and the symbols of its leaves for a parsed one, which carries no problem.
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
    None for an inference) and fit ``fits[i]``.  Premises come before their
    conclusions: every index in ``premises[i]`` is below ``i``, so no tree is
    cyclic.  ``nodes`` maps each label to its node index; ``root_index`` is
    false's node, and ``relay_index`` the relay's that ``normalize_root`` put
    in the old root's slot.  All occurrences of a label root the same
    subtree, so a walk meets each node once.

    A fit has bit 1 when the label's free symbols lie inside A's signature
    and bit 2 when inside B's; the builder fills ``fits`` in.  For a parsed
    proof a side's signature is the theory symbols and the symbols of its
    leaves; for an EUF bridge it is the problem's symbols on that side.
    ``steps`` holds the fit of each node's inference step, its own fit ANDed
    with its premises'.
    """

    def __init__(self, theory_symbols: frozenset[str], table: TermTable):
        self.theory_symbols = theory_symbols
        self.table = table
        self.labels: list[Term] = []
        self.premises: list[tuple[int, ...]] = []
        self.origins: list[str | None] = []
        self.fits: list[int] = []
        self.nodes: dict[Term, int] = {}
        self.root_index = 0
        self.relay_index: int | None = None

    def add(self, label: Term, premises: tuple = (), origin: str | None = None) -> int:
        """The node of ``label``; a new one is appended with ``premises`` and
        ``origin``.  Raises ``ProofError`` when a premise of a new node is not
        a node yet."""
        i = self.nodes.get(label)
        if i is None:
            i = len(self.labels)
            if any(not 0 <= prem < i for prem in premises):
                raise ProofError(f"premise of {format_term(label)} is not a node yet")
            self.nodes[label] = i
            self.labels.append(label)
            self.premises.append(premises)
            self.origins.append(origin)
        return i

    @property
    def root(self) -> Term:
        return self.labels[self.root_index]

    @cached_property
    def steps(self) -> list[int]:
        """Per node, the fit of its step: its fit ANDed with its premises'."""
        fits = self.fits
        steps = fits.copy()
        for i, prems in enumerate(self.premises):
            if prems:
                fit = fits[i]
                for prem in prems:
                    fit &= fits[prem]
                steps[i] = fit
        return steps

    @cached_property
    def _coloring(self) -> tuple[tuple[Term, ...], tuple[Term, ...], dict[int, list[int]]]:
        """``coloring_cut``'s T_A and T_B, and per cut node the premise
        nodes its piece's walk met."""
        return _coloring_walk(self)


def _symbol_masks(table: TermTable, bits: dict[str, int]) -> list[int]:
    """Free-symbol masks of ``table``'s terms, by id, one bit per symbol in
    ``bits``; a symbol new to ``bits`` takes the next bit.  Logical tokens are
    not symbols, and ``(forall v BODY)`` and ``(exists v BODY)`` bind ``v``."""
    masks: list[int] = []
    for term in table:
        head, args = term.head, term.args
        if head in ("forall", "exists") and len(args) == 2 and not args[0].args:
            bound = bits.setdefault(args[0].head, 1 << len(bits))
            mask = masks[args[1].id] & ~bound
        else:
            mask = 0 if head in LOGICAL_TOKENS else bits.setdefault(head, 1 << len(bits))
            for arg in args:
                mask |= masks[arg.id]
        masks.append(mask)
    return masks


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
    Formulas bind variables, so fits come from free-symbol masks.
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
    bits = {name: 1 << k for k, name in enumerate(tree.theory_symbols)}
    theory_mask = (1 << len(bits)) - 1
    free = _symbol_masks(table, bits)
    masks = [free[label.id] for label in tree.labels]
    sides = {"A": theory_mask, "B": theory_mask, "axiom": 0}
    for mask, origin in zip(masks, tree.origins):
        if origin is not None:
            sides[origin] |= mask
    a, b = sides["A"], sides["B"]
    tree.fits = [(mask & a == mask) | (mask & b == mask) << 1 for mask in masks]
    return tree


def first_nonlocal_step(tree: ProofTree) -> Term | None:
    """Conclusion of the first inference step that fits neither signature."""
    premises = tree.premises
    for i, step in enumerate(tree.steps):
        if not step and premises[i]:
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
    Both are logical constants, so both fit either side.  Idempotent.
    """
    r, fits = tree.root_index, tree.fits
    if tree.origins[r] != "A" and all(fits[p] & 2 for p in tree.premises[r]):
        return tree
    root, table = tree.root, tree.table
    relay = table.make("false'")
    while relay in tree.nodes:
        relay = table.make("and", (relay,))
    fixed = ProofTree(tree.theory_symbols, table)
    for name in ("labels", "premises", "origins", "fits", "nodes"):
        setattr(fixed, name, getattr(tree, name).copy())
    del fixed.nodes[root]
    fixed.labels[r], fixed.fits[r] = relay, 3
    fixed.nodes[relay] = fixed.relay_index = r
    fixed.root_index = fixed.add(root, (r,))
    fixed.fits.append(3)
    return fixed


def coloring_cut(tree: ProofTree) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """Inductive cut: each piece's walk stops at the opposite side's candidates.

    Candidates are AB-colorable labels the opposite prover cannot reach on
    its own: for T_A, A leaves and inferences with a premise that does not
    fit B; for T_B, the same with the sides swapped.

    Starting from the root false in T_B, the piece of each cut node is
    walked once, in B-then-A layers.  A B-piece stops at the A-candidates it
    meets: they are its premises, and those not cut yet join T_A, in node
    order per cut node.  A-pieces stop at B-candidates in the same way.  The
    walk follows the proof's tree of occurrences, so a candidate below
    another one on some path still stops a piece that meets it on another.
    ``run_from_cut`` of this cut takes the premise lists the walk kept with
    the tree.  On a local tree with a normalized root no walk raises.
    """
    return tree._coloring[:2]


# Per step fit, the candidate bits of an AB-colorable inference: bit 1 (for
# T_A) when a premise does not fit B, bit 2 (for T_B) when one does not fit A.
_CANDIDATE = (3, 1, 2, 0)
_LEAF_CANDIDATE = {"A": 1, "B": 2, "axiom": 0}


def _coloring_walk(tree: ProofTree) -> tuple[tuple, tuple, dict[int, list[int]]]:
    candidates = bytes([
        (_CANDIDATE[step] if origin is None else _LEAF_CANDIDATE[origin]) if fit == 3 else 0
        for fit, step, origin in zip(tree.fits, tree.steps, tree.origins)
    ])
    walk = _piece_walk(tree, candidates)
    cut = bytearray(len(candidates))  # per cut node, its side's bit
    order = [tree.root_index]  # cut nodes, layer by layer
    cut[order[0]] = 2
    found: dict[int, list[int]] = {}
    for chi in order:
        bit = cut[chi]
        found[chi] = stops = walk(chi, bit)
        fresh = [i for i in stops if not cut[i]]
        if fresh:
            fresh.sort()
            order += fresh
            for i in fresh:
                cut[i] = 3 - bit
    labels = tree.labels
    t_a = tuple([labels[i] for i in order if cut[i] == 1])
    return t_a, tuple([labels[i] for i in order if cut[i] == 2]), found


def _piece_walk(tree: ProofTree, stops: bytes):
    """``walk(chi, bit)`` lists the premises of the piece at node ``chi`` on
    side ``bit`` (1: A, 2: B): the nodes other than ``chi`` whose ``stops``
    byte holds the other side's bit, in the pre-order met.  The walk meets
    each node once, and raises ``InvalidCutError`` at the first other
    inference that does not fit the side, or leaf neither the side's own nor
    an axiom.
    """
    labels, premises, origins, steps = tree.labels, tree.premises, tree.origins, tree.steps
    seen = [0] * len(labels)  # per node, the last piece that met it
    pieces = count(1)

    def walk(chi: int, bit: int) -> list[int]:
        piece, other, own = next(pieces), 3 - bit, "A" if bit == 1 else "B"
        found: list[int] = []
        stack = [chi]
        while stack:
            i = stack.pop()
            if seen[i] == piece:
                continue
            seen[i] = piece
            if stops[i] & other and i != chi:
                found.append(i)
            elif premises[i]:
                if not steps[i] & bit:
                    raise InvalidCutError(
                        f"piece at {format_term(labels[chi])} walks through "
                        f"{format_term(labels[i])}, a step outside side {own}"
                    )
                stack += premises[i][::-1]
            elif origins[i] != own and origins[i] != "axiom":
                raise InvalidCutError(
                    f"piece at {format_term(labels[chi])} reaches foreign leaf "
                    f"{format_term(labels[i])}"
                )
        return found

    return walk


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

    Each piece walks down from its cut node as in ``coloring_cut`` and stops
    at the opposite side's cut nodes, its premises.  It may walk only through
    steps that fit its side, and reach only leaves of its own input set or
    axioms; anything else means the cut was invalid.  For the cut
    ``coloring_cut`` gave, the premise lists its walk kept are read instead.
    """
    t_a, t_b = tuple(t_a), tuple(t_b)
    nodes, label = tree.nodes, tree.labels.__getitem__
    kept = vars(tree).get("_coloring")
    if kept is not None and kept[:2] == (t_a, t_b):
        found = kept[2]
        premises = lambda chi, bit: found[chi]
    else:
        cut = bytearray(len(tree.labels))  # per node, bit 1: in T_A; bit 2: in T_B
        for alpha in t_a:
            cut[nodes[alpha]] |= 1
        for beta in t_b:
            cut[nodes[beta]] |= 2
        premises = _piece_walk(tree, cut)
    pr_b = {alpha: tuple(map(label, premises(nodes[alpha], 1))) for alpha in t_a}
    pr_a = {beta: tuple(map(label, premises(nodes[beta], 2))) for beta in t_b}
    relay = None if tree.relay_index is None else label(tree.relay_index)
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
    takes the graph's vertex terms as its arguments.  A side's signature is
    the problem's symbols on that side, so a label's fit is ``bits[s] &
    bits[t]``, its endpoints' colorability bits from
    ``colored.symbols.covering()``, which cover the repair vertices too.  A
    trivially refuted ``s != s`` unfolds to one node: false, as a leaf of
    ``side``.

    The unfolding is one flat pass on an explicit stack, in the order a
    recursive one would take, from a bottom frame holding the refuted path.
    Its items are edges, paths and runs ``(u, v, edges)``, told apart by
    class.  Each edge is derived once, by ``Edge.seq``, and each path or run
    once, by its endpoints' ids as in ``Path.key``, in the direction it is
    first met in; its label is interned when its step is opened.  A path of
    one edge is that edge, and a path of one run (``colored.runs``) derives
    from its edges.  A basic edge is a leaf, finished where it is met.  Nodes
    are appended as they are finished, so premises come before conclusions.
    ``nodes`` is filled once, after the pass; the disequality leaf and the
    root come last.
    """
    table = TermTable()
    tree = ProofTree(frozenset(), table)
    if refuted.trivial:
        tree.root_index = tree.add(table.make("false"), (), side.value)
        tree.fits = [3]
        return tree
    graph = colored.graph
    path, runs_of = graph.path, colored.runs
    labels, premises_of, origins = tree.labels, tree.premises, tree.origins
    make = table.make
    lhs, rhs = refuted.lhs, refuted.rhs
    if rhs.id < lhs.id:
        lhs, rhs = rhs, lhs
    diseq_label = make("not", (make("=", (lhs, rhs)),))
    false = make("false")
    done_at: dict = {}  # edge seq or path key -> node of its step, -1 while open
    root_premises: list[int] = []
    items = (path(refuted.lhs, refuted.rhs),)
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
            if cls is Edge:
                if item.origin is not None:  # a leaf, finished here
                    done_at[sub_key] = done = len(labels)
                    premises.append(done)
                    labels.append(sub_label)
                    premises_of.append(())
                    origins.append("A" if item.side is _A else "B")
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
                labels.append(label)
                premises_of.append(tuple(premises))
                origins.append(None)
    tree.nodes = nodes = dict(zip(labels, range(len(labels))))
    if len(nodes) != len(labels):
        raise RuntimeError("unfolding repeats a label")
    root_premises.append(tree.add(diseq_label, (), side.value))
    tree.root_index = tree.add(false, tuple(root_premises))
    bits = colored.symbols.covering()
    tree.fits = [bits[s.id] & bits[t.id] for s, t in (label.args for label in labels[:-2])]
    tree.fits += (bits[lhs.id] & bits[rhs.id], 3)
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
