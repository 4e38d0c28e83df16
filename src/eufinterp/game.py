"""Interpolation runs extracted from local refutations, for any theory.

A proof is a labelled tree whose inference steps each stay inside one side's
signature.  Cutting it at well-placed shared-signature nodes decomposes it
into single-side subproofs; the cut nodes, with the opposite-side cut leaves
of each piece as premises, form a run of the two-prover interpolation game,
and the interpolant falls out of the run's premise bookkeeping.

Formulas here are opaque: each label is a hash-consed ``Term`` of a
``TermTable`` that the proof owns, so labels are hashed and compared by
identity, and only symbol occurrences matter.  Sets of symbols and sets of
labels are ints: symbol masks over one index per term table, and label masks
over the proof's node order.  Ground equality problems can be bridged in: a
colored congruence graph unfolds into a local refutation whose inference
steps are the factor summaries and derived-edge congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .coloring import ColoredGraph, Factor, Strategy
from .congruence import Edge, Path
from .core import (
    Literal, ParseError, ProblemInstance, Reader, Side, Term, TermTable, format_term,
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


@dataclass
class LabelNode:
    formula: Term
    premises: tuple[Term, ...]
    origin: str | None  # "A" | "B" | "axiom" for leaves, None for inferences

    @property
    def is_leaf(self) -> bool:
        return not self.premises


class ProofError(ValueError):
    pass


class NonLocalProofError(ProofError):
    """An inference step mixes A-local and B-local symbols."""

    def __init__(self, step: Term):
        self.step = step
        super().__init__(f"inference step at {format_term(step)} is not local")


class InvalidCutError(ValueError):
    pass


def _post_order(root, children, value, memo: dict, cycle: Callable[..., Exception]):
    """``memo[root]``, filling ``memo`` children first on an explicit stack.

    ``value(x)`` may read ``memo`` at every node of ``children(x)``.  Values
    reach ``memo`` in the order a recursive evaluation would finish them.
    Meeting a node that is still open closes a cycle: ``cycle(node)`` is
    raised.
    """
    if root not in memo:
        open_nodes = {root}
        stack = [(root, iter(children(root)))]
        while stack:
            top, pending = stack[-1]
            for child in pending:
                if child in open_nodes:
                    raise cycle(child)
                if child not in memo:
                    open_nodes.add(child)
                    stack.append((child, iter(children(child))))
                    break
            else:
                stack.pop()
                open_nodes.discard(top)
                memo[top] = value(top)
    return memo[root]


class ProofTree:
    """A local-refutation candidate, collapsed to one node per label.

    Labels are terms of ``table``, and the root is the term ``false``.
    ``symbols`` holds the free-symbol mask of every term of ``table``; it is
    completed at construction, and trees over one table share it.  The
    side signatures are masks too: a side's is the union of its leaves'
    masks, and a label fits a side when its mask lies inside that union and
    the theory symbols.  ``sigma_a`` and ``sigma_b`` decode the side masks,
    less the theory symbols, into names on first use.

    Reachability comes from one post-order pass over the DAG, made on first
    use: every label gets a bitmask of the labels strictly below it, bit
    ``i`` standing for the ``i``-th label of ``nodes``.  The pass runs on an
    explicit stack over lists of premise indices, and a label reachable from
    itself raises ``ProofError``.
    """

    def __init__(
        self,
        theory_symbols: frozenset[str],
        nodes: dict[Term, LabelNode],
        root: Term,
        table: TermTable,
        symbols: SymbolMasks | None = None,
    ):
        self.theory_symbols = theory_symbols
        self.nodes = nodes
        self.root = root
        self.table = table
        self.symbols = symbols = SymbolMasks() if symbols is None else symbols
        symbols.cover(table)
        masks = symbols.masks
        theory = 0
        for name in theory_symbols:
            theory |= symbols.bit(name)
        a_symbols = b_symbols = theory
        for node in nodes.values():
            if node.origin == "A":
                a_symbols |= masks[node.formula.id]
            elif node.origin == "B":
                b_symbols |= masks[node.formula.id]
        self._a_symbols, self._b_symbols = a_symbols, b_symbols
        self._reach: tuple[dict[Term, int], list[list[int]], list[int]] | None = None

    @cached_property
    def sigma_a(self) -> frozenset[str]:
        return self.symbols.decode(self._a_symbols) - self.theory_symbols

    @cached_property
    def sigma_b(self) -> frozenset[str]:
        return self.symbols.decode(self._b_symbols) - self.theory_symbols

    def _fit(self, label: Term) -> int:
        """Bit 1: ``label`` fits A's signature; bit 2: it fits B's."""
        mask = self.symbols.masks[label.id]
        return (mask & self._a_symbols == mask) | (mask & self._b_symbols == mask) << 1

    def a_colorable(self, label: Term) -> bool:
        return self._fit(label) & 1 == 1

    def b_colorable(self, label: Term) -> bool:
        return self._fit(label) & 2 == 2

    def ab_colorable(self, label: Term) -> bool:
        return self._fit(label) == 3

    def reach(self) -> tuple[dict[Term, int], list[list[int]], list[int]]:
        """``(index, premises, below)``: each label's bit, and per bit the
        premises' bits and the strict-below mask.

        Labels are finished depth first from each label in node order, premises
        in order, as a recursive evaluation would; the first premise met that is
        still open names the cycle.
        """
        if self._reach is None:
            nodes = self.nodes
            index = {label: i for i, label in enumerate(nodes)}
            premises = [[index[p] for p in node.premises] for node in nodes.values()]
            below = [0] * len(premises)
            state = bytearray(len(premises))  # 0 new, 1 open, 2 finished
            for root in range(len(premises)):
                if state[root]:
                    continue
                state[root] = 1
                stack = [(root, iter(premises[root]))]
                while stack:
                    top, pending = stack[-1]
                    for prem in pending:
                        if state[prem] == 1:
                            label = list(nodes)[prem]
                            raise ProofError(f"cyclic proof through {format_term(label)}")
                        if not state[prem]:
                            state[prem] = 1
                            stack.append((prem, iter(premises[prem])))
                            break
                    else:
                        stack.pop()
                        mask = 0
                        for prem in premises[top]:
                            mask |= below[prem] | 1 << prem
                        below[top] = mask
                        state[top] = 2
            self._reach = index, premises, below
        return self._reach

    def precedes(self, phi: Term, psi: Term) -> bool:
        """``phi`` lies strictly below ``psi``."""
        index, _, below = self.reach()
        return below[index[psi]] >> index[phi] & 1 == 1


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

    nodes: dict[Term, LabelNode] = {}
    checked: dict[str, None] = {}
    for node_id, (formula, premises, origin) in raw.items():
        _post_order(
            node_id,
            lambda nid: [toks[k] for k in raw[nid][1]],
            lambda nid: None,
            checked,
            lambda nid: ProofError(f"cyclic proof through node {nid!r}"),
        )
        node = LabelNode(formula, tuple(raw[toks[k]][0] for k in premises), origin)
        if nodes.setdefault(formula, node) != node:
            raise ProofError(
                f"nodes labelled {format_term(formula)} root different subtrees"
            )
    return ProofTree(frozenset(theory), nodes, false, table)


def first_nonlocal_step(tree: ProofTree) -> Term | None:
    """Conclusion of the first inference step that fits neither signature."""
    for label, node in tree.nodes.items():
        if node.is_leaf:
            continue
        step = (label,) + node.premises
        if not (
            all(tree.a_colorable(f) for f in step)
            or all(tree.b_colorable(f) for f in step)
        ):
            return label
    return None


def check_local(tree: ProofTree) -> bool:
    """Every inference step lies wholly inside one side's signature."""
    return first_nonlocal_step(tree) is None


def normalize_root(tree: ProofTree) -> ProofTree:
    """Ensure the parents of false are B-colorable, via a relay constant.

    When some premise of the root is not B-colorable, the root's step is
    moved to a relay node and a final inference relay |- false is appended (a
    step among logical constants only, hence B-colorable).  The relay is
    false', or, when the tree already has a node of that label, the first of
    (and false'), (and (and false')), ... that it lacks; each denotes falsity.
    It is interned in the tree's table.  Idempotent.
    """
    root = tree.root
    if all(tree.b_colorable(p) for p in tree.nodes[root].premises):
        return tree
    relay = tree.table.make("false'")
    while relay in tree.nodes:
        relay = tree.table.make("and", (relay,))
    nodes: dict[Term, LabelNode] = {}
    for label, node in tree.nodes.items():
        if label is root:
            nodes[relay] = LabelNode(relay, node.premises, node.origin)
        else:
            nodes[label] = node
    nodes[root] = LabelNode(root, (relay,), None)
    return ProofTree(tree.theory_symbols, nodes, root, tree.table, tree.symbols)


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
    from the highest bit down, skipping those already covered; when premises
    come before their conclusions in node order, one mask often covers the
    rest.  Candidates come in node order, which is bit order, so new cut
    nodes are emitted in candidate order.
    """
    index, premises, below = tree.reach()
    labels = list(tree.nodes)
    fits = [tree._fit(label) for label in labels]
    cand_a = cand_b = 0
    for i, node in enumerate(tree.nodes.values()):
        if fits[i] != 3:
            continue
        if premises[i]:
            fit = 3
            for prem in premises[i]:
                fit &= fits[prem]
            if not fit & 2:
                cand_a |= 1 << i
            if not fit & 1:
                cand_b |= 1 << i
        elif node.origin == "A":
            cand_a |= 1 << i
        elif node.origin == "B":
            cand_b |= 1 << i
    t_a: list[int] = []
    t_b: list[int] = [index[tree.root]]
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
    return tuple(labels[i] for i in t_a), tuple(labels[i] for i in t_b)


def _premise_cycle(phi: Term) -> RuntimeError:
    return RuntimeError(f"premise cycle through {format_term(phi)}")


@dataclass
class InterpolationRun:
    """The (S_A, S_B, order, premise-maps) structure of a finished game.

    Its formulas are terms of ``table``, the table of the proof it came from.
    """

    s_a: tuple[Term, ...]
    s_b: tuple[Term, ...]
    pr_b: dict[Term, tuple[Term, ...]]  # premises the B-prover supplied
    pr_a: dict[Term, tuple[Term, ...]]  # premises the A-prover supplied
    table: TermTable

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
    invalid.  Every premise found must lie below its cut node, which is read
    off the node's below-mask from ``tree.reach()``.
    """
    t_a, t_b = tuple(t_a), tuple(t_b)
    cutset = set(t_a) | set(t_b)
    index, _, below = tree.reach()

    def piece_premises(chi: Term, own_origin: str, opposite: set) -> tuple:
        found: dict[Term, None] = {}
        seen: set[Term] = set()
        stack = list(reversed(tree.nodes[chi].premises))
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            if label in cutset:
                if label not in opposite:
                    raise InvalidCutError(
                        f"cut node {format_term(label)} on the wrong side of "
                        f"{format_term(chi)}"
                    )
                found[label] = None
                continue
            node = tree.nodes[label]
            if node.is_leaf:
                if node.origin not in (own_origin, "axiom"):
                    raise InvalidCutError(
                        f"piece at {format_term(chi)} reaches foreign leaf "
                        f"{format_term(label)}"
                    )
                continue
            stack.extend(reversed(node.premises))
        chi_below = below[index[chi]]
        for label in found:
            if not chi_below >> index[label] & 1:
                raise InvalidCutError("premise does not precede its conclusion")
        return tuple(found)

    pr_b = {alpha: piece_premises(alpha, "A", set(t_b)) for alpha in t_a}
    pr_a = {beta: piece_premises(beta, "B", set(t_a)) for beta in t_b}
    return InterpolationRun(t_a, t_b, pr_b, pr_a, tree.table)


def game_interpolant(
    run: InterpolationRun, target: Term | None = None
) -> tuple[Term, ...]:
    """Implications justifying every A-contribution feeding ``target``.

    With the default target, false, this is the interpolant of a successful
    run.  Implications ``(=> (and β…) α)`` are interned in the run's table.
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
        if premises:
            implications[make("=>", (make("and", premises), alpha))] = None
        else:
            implications[alpha] = None
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
    takes the graph's vertex terms as its arguments.  Every vertex's symbol
    mask is built once, in one pass over the vertices in graph order, where
    a vertex's arguments come before it.  Every head counts as a symbol,
    so a symbol spelled like a logical token stays a symbol.  An equality
    label's mask is the OR of its endpoints' masks, appended to the tree's
    ``SymbolMasks`` as the label is made.  The unfolding runs on an explicit
    stack, in the order a recursive one would take: each edge is derived
    once, by ``Edge.seq``, and each path or factor once, by ``Path.key``, in
    the direction it is first met in; a path or factor of one edge is that
    edge.  A basic edge is a leaf, finished where it is met.
    """
    graph = colored.graph
    symbols = SymbolMasks()
    bits, masks = symbols.bits, symbols.masks
    vertex_masks: dict[Term, int] = {}
    for t in graph.vertices:
        mask = bits.get(t.head) or symbols.bit(t.head)
        for a in t.args:
            mask |= vertex_masks[a]
        vertex_masks[t] = mask
    table = TermTable()
    nodes: dict[Term, LabelNode] = {}
    labels: dict = {}  # edge seq or path key -> label of its step

    def eq_label(u: Term, v: Term) -> Term:
        if v.id < u.id:
            u, v = v, u
        label = table.make("=", (u, v))
        if label.id == len(masks):
            masks.append(vertex_masks[u] | vertex_masks[v])
        return label

    def add(label: Term, premises: tuple = (), origin: str | None = None) -> Term:
        if label not in nodes:
            nodes[label] = LabelNode(label, premises, origin)
        return label

    def keyed(item: Edge | Factor | Path) -> tuple:
        if isinstance(item, Edge):
            return item.seq, item
        path = item if isinstance(item, Path) else item.path
        if len(path.edges) == 1:
            return path.edges[0].seq, path.edges[0]
        return path.key, item

    def step(key, item: Edge | Factor | Path) -> list:
        """A stack frame: key, label, origin, premise items, premise labels."""
        if isinstance(item, Edge):
            label = eq_label(item.u, item.v)
            if item.is_basic:
                return [key, label, item.side.value, iter(()), []]
            subs = (graph.path(p, q) for p, q in item.parents if p is not q)
            return [key, label, None, subs, []]
        if isinstance(item, Path):
            factors = colored.factors(item)
            if len(factors) > 1:
                return [key, eq_label(item.start, item.end), None, iter(factors), []]
            item = factors[0]
        path = item.path
        return [key, eq_label(path.start, path.end), None, iter(path.edges), []]

    def unfold(item: Path) -> Term:
        key, item = keyed(item)
        open_keys = {key}
        stack = [step(key, item)]
        while stack:
            key, label, origin, pending, premises = stack[-1]
            for sub in pending:
                sub_key, sub = keyed(sub)
                done = labels.get(sub_key)
                if done is None and isinstance(sub, Edge) and sub.is_basic:
                    labels[sub_key] = done = add(eq_label(sub.u, sub.v), (), sub.side.value)
                elif done is None:
                    if sub_key in open_keys:
                        raise RuntimeError(f"unfolding revisits {sub_key}")
                    open_keys.add(sub_key)
                    stack.append(step(sub_key, sub))
                    break
                premises.append(done)
            else:
                stack.pop()
                open_keys.discard(key)
                labels[key] = done = add(label, tuple(premises), origin)
                if stack:
                    stack[-1][4].append(done)
        return done

    diseq_label = table.make("not", (eq_label(refuted.lhs, refuted.rhs),))
    symbols.cover(table)  # before eq_label appends masks by id again
    root_premises: list[Term] = []
    if not refuted.trivial:
        root_premises.append(unfold(graph.path(refuted.lhs, refuted.rhs)))
    add(diseq_label, origin=side.value)
    root_premises.append(diseq_label)
    false = add(table.make("false"), tuple(root_premises))
    return ProofTree(frozenset(), nodes, false, table, symbols)


def local_cut(tree: ProofTree) -> tuple[ProofTree, tuple, tuple]:
    """Check locality, normalize the root and cut: ``(tree, T_A, T_B)``.

    Raises ``NonLocalProofError`` naming the first non-local step.
    """
    step = first_nonlocal_step(tree)
    if step is not None:
        raise NonLocalProofError(step)
    tree = normalize_root(tree)
    return (tree, *coloring_cut(tree))


def bridge_run(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> tuple[ProofTree, InterpolationRun]:
    """Bridge, cut the local proof, and extract the induced run."""
    tree, t_a, t_b = local_cut(euf_bridge(problem, strategy))
    return tree, run_from_cut(tree, t_a, t_b)
