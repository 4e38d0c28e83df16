"""Interpolation runs extracted from local refutations, for any theory.

A proof is a labelled tree whose inference steps each stay inside one side's
signature.  Cutting it at well-placed shared-signature nodes decomposes it
into single-side subproofs; the cut nodes, with the opposite-side cut leaves
of each piece as premises, form a run of the two-prover interpolation game,
and the interpolant falls out of the run's premise bookkeeping.

Formulas here are opaque symbol trees; only symbol occurrences matter.
Ground equality problems can be bridged in: a colored congruence graph
unfolds into a local refutation whose inference steps are the factor
summaries and derived-edge congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .coloring import Strategy
from .core import (
    Literal,
    ParseError,
    ProblemInstance,
    SAtom,
    SList,
    Side,
    Term,
    head_of,
    read_sexprs,
)
from .interpolate import build_colored_graph

Formula = Union[str, tuple]

LOGICAL_TOKENS = frozenset(
    {"true", "false", "false'", "and", "or", "not", "=>", "<=>", "=", "!=",
     "forall", "exists"}
)

FALSE: Formula = "false"


def formula_from_sexpr(sx: SAtom | SList) -> Formula:
    if isinstance(sx, SAtom):
        return sx.text
    if not sx.items:
        raise ParseError("empty formula", sx.line, sx.col)
    return tuple(formula_from_sexpr(item) for item in sx.items)


def format_formula(f: Formula) -> str:
    if isinstance(f, str):
        return f
    return "(" + " ".join(format_formula(item) for item in f) + ")"


def free_symbols(f: Formula, bound: frozenset[str] = frozenset()) -> frozenset[str]:
    """Non-logical symbols of a formula; quantified variables are bound."""
    if isinstance(f, str):
        if f in LOGICAL_TOKENS or f in bound:
            return frozenset()
        return frozenset((f,))
    if len(f) == 3 and f[0] in ("forall", "exists") and isinstance(f[1], str):
        return free_symbols(f[2], bound | {f[1]})
    out: frozenset[str] = frozenset()
    for item in f:
        out |= free_symbols(item, bound)
    return out


@dataclass
class LabelNode:
    formula: Formula
    premises: tuple[Formula, ...]
    origin: str | None  # "A" | "B" | "axiom" for leaves, None for inferences

    @property
    def is_leaf(self) -> bool:
        return not self.premises


class ProofError(ValueError):
    pass


class NonLocalProofError(ProofError):
    """An inference step mixes A-local and B-local symbols."""

    def __init__(self, step: Formula):
        self.step = step
        super().__init__(f"inference step at {format_formula(step)} is not local")


class InvalidCutError(ValueError):
    pass


class ProofTree:
    """A local-refutation candidate, collapsed to one node per label."""

    def __init__(
        self,
        theory_symbols: frozenset[str],
        nodes: dict[Formula, LabelNode],
        root: Formula,
    ):
        self.theory_symbols = theory_symbols
        self.nodes = nodes
        self.root = root
        self.sigma_a, self.sigma_b = (
            frozenset().union(
                *(free_symbols(n.formula) for n in nodes.values() if n.origin == side)
            )
            - theory_symbols
            for side in ("A", "B")
        )
        self._a_symbols = theory_symbols | self.sigma_a
        self._b_symbols = theory_symbols | self.sigma_b
        self._ab_symbols = theory_symbols | (self.sigma_a & self.sigma_b)
        self._below: dict[Formula, frozenset[Formula]] = {}
        self._frees: dict[Formula, frozenset[str]] = {}

    def _free(self, label: Formula) -> frozenset[str]:
        cached = self._frees.get(label)
        if cached is None:
            cached = free_symbols(label)
            self._frees[label] = cached
        return cached

    def a_colorable(self, label: Formula) -> bool:
        return self._free(label) <= self._a_symbols

    def b_colorable(self, label: Formula) -> bool:
        return self._free(label) <= self._b_symbols

    def ab_colorable(self, label: Formula) -> bool:
        return self._free(label) <= self._ab_symbols

    def strictly_below(self, label: Formula) -> frozenset[Formula]:
        """Labels in the strict premise closure of ``label``.

        A depth-first search on an explicit stack.  It takes in the memoized
        closure of any label it meets and memoizes only the labels asked
        for, so a deep chain costs neither recursion nor one closure per
        interior node.  Reaching a label that is still open closes a cycle,
        which raises ``ProofError``.
        """
        below = self._below
        hit = below.get(label)
        if hit is not None:
            return hit
        nodes = self.nodes
        out: set[Formula] = set()
        open_labels = {label}
        stack = [(label, iter(nodes[label].premises))]
        while stack:
            top, pending = stack[-1]
            for prem in pending:
                if prem in open_labels:
                    raise ProofError(f"cyclic proof through {format_formula(prem)}")
                if prem in out:
                    continue
                out.add(prem)
                closed = below.get(prem)
                if closed is not None:
                    out |= closed
                    continue
                open_labels.add(prem)
                stack.append((prem, iter(nodes[prem].premises)))
                break
            else:
                stack.pop()
                open_labels.discard(top)
        result = below[label] = frozenset(out)
        return result

    def precedes(self, phi: Formula, psi: Formula) -> bool:
        return phi in self.strictly_below(psi)


def parse_proof(text: str) -> ProofTree:
    """Parse a proof file: a theory-symbols header, then node forms.

    Leaves carry ``(from A|B|axiom)``; inferences carry ``(premises ID+)``.
    The root is the unique node no other node uses, and must be labelled
    false.  Nodes sharing a label must root structurally identical subtrees.
    """
    forms = read_sexprs(text)
    if not forms:
        raise ParseError("empty proof")
    header = forms[0]
    if head_of(header) != "theory-symbols":
        raise ParseError("expected (theory-symbols SYMBOL*)", header.line, 1)
    theory = []
    for item in header.items[1:]:
        if not isinstance(item, SAtom):
            raise ParseError("theory symbols must be atoms", item.line, item.col)
        theory.append(item.text)

    raw: dict[str, tuple[Formula, tuple[str, ...] | None, str | None]] = {}
    order: list[str] = []
    for form in forms[1:]:
        if (
            head_of(form) != "node"
            or len(form.items) != 4
            or not isinstance(form.items[1], SAtom)
        ):
            raise ParseError(
                "expected (node ID FORMULA (from ...)|(premises ...))",
                form.line,
                form.col,
            )
        node_id = form.items[1].text
        if node_id in raw:
            raise ParseError(f"node id {node_id!r} redefined", form.line, form.col)
        formula = formula_from_sexpr(form.items[2])
        tail = form.items[3]
        kind = head_of(tail)
        if kind is None:
            raise ParseError("malformed node tail", form.line, form.col)
        if kind == "from":
            if len(tail.items) != 2 or not isinstance(tail.items[1], SAtom) or tail.items[
                1
            ].text not in ("A", "B", "axiom"):
                raise ParseError("expected (from A|B|axiom)", tail.line, tail.col)
            raw[node_id] = (formula, None, tail.items[1].text)
        elif kind == "premises":
            if len(tail.items) < 2 or not all(
                isinstance(i, SAtom) for i in tail.items[1:]
            ):
                raise ParseError("expected (premises ID+)", tail.line, tail.col)
            raw[node_id] = (formula, tuple(i.text for i in tail.items[1:]), None)
        else:
            raise ParseError(f"unexpected node tail {kind!r}", tail.line, tail.col)
        order.append(node_id)

    referenced: set[str] = set()
    for node_id in order:
        _, premises, _ = raw[node_id]
        for pid in premises or ():
            if pid not in raw:
                raise ParseError(f"unknown premise id {pid!r} in node {node_id!r}")
            referenced.add(pid)
    roots = [nid for nid in order if nid not in referenced]
    if len(roots) != 1:
        raise ProofError(f"expected one root node, found {len(roots)}")
    root_id = roots[0]
    if raw[root_id][0] != FALSE:
        raise ProofError("root node must be labelled false")

    # Collapse to labels, checking that equal labels root identical subtrees.
    # A subtree's signature is a number: structurally equal subtrees, and only
    # they, share one.  Post-order on an explicit stack; a premise still open
    # when reached again closes a cycle.
    signature: dict[str, int] = {}
    numbering: dict[tuple, int] = {}

    def sig(node_id: str) -> int:
        hit = signature.get(node_id)
        if hit is not None:
            return hit
        open_ids = {node_id}
        stack = [(node_id, iter(raw[node_id][1] or ()))]
        while stack:
            top, pending = stack[-1]
            for pid in pending:
                if pid in open_ids:
                    raise ProofError(f"cyclic proof through node {pid!r}")
                if pid not in signature:
                    open_ids.add(pid)
                    stack.append((pid, iter(raw[pid][1] or ())))
                    break
            else:
                stack.pop()
                open_ids.discard(top)
                formula, premises, origin = raw[top]
                key = (formula, origin, tuple(signature[p] for p in premises or ()))
                signature[top] = numbering.setdefault(key, len(numbering))
        return signature[node_id]

    nodes: dict[Formula, LabelNode] = {}
    by_label_sig: dict[Formula, int] = {}
    for node_id in order:
        formula, premises, origin = raw[node_id]
        node_sig = sig(node_id)
        previous = by_label_sig.get(formula)
        if previous is None:
            by_label_sig[formula] = node_sig
            premise_labels = tuple(raw[p][0] for p in premises or ())
            nodes[formula] = LabelNode(formula, premise_labels, origin)
        elif previous != node_sig:
            raise ProofError(
                f"nodes labelled {format_formula(formula)} root different subtrees"
            )
    return ProofTree(frozenset(theory), nodes, FALSE)


def first_nonlocal_step(tree: ProofTree) -> Formula | None:
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

    When some premise of the root is not B-colorable, the root is relabelled
    false' and a final inference false' |- false is appended (a step among
    logical constants only, hence B-colorable).  Idempotent.
    """
    root_node = tree.nodes[tree.root]
    if all(tree.b_colorable(p) for p in root_node.premises):
        return tree
    relay: Formula = "false'"
    nodes: dict[Formula, LabelNode] = {}
    for label, node in tree.nodes.items():
        if label == tree.root:
            nodes[relay] = LabelNode(relay, node.premises, node.origin)
        else:
            nodes[label] = node
    nodes[FALSE] = LabelNode(FALSE, (relay,), None)
    return ProofTree(tree.theory_symbols, nodes, FALSE)


def _cut_candidates(tree: ProofTree, for_side: Side) -> list[Formula]:
    """AB-colorable labels the opposite prover cannot reach on its own."""
    other_colorable = tree.b_colorable if for_side is Side.A else tree.a_colorable
    origin = for_side.value
    out = []
    for label, node in tree.nodes.items():
        if not tree.ab_colorable(label):
            continue
        if node.is_leaf:
            if node.origin == origin:
                out.append(label)
        elif any(not other_colorable(p) for p in node.premises):
            out.append(label)
    return out


def coloring_cut(tree: ProofTree) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
    """Inductive cut: alternately add maximal candidates below cut nodes.

    Starting from false in T_B, each B-sweep adds to T_A the maximal
    A-candidates below T_B nodes, and each A-sweep adds to T_B the maximal
    B-candidates below T_A nodes, until a round adds nothing.  Each anchor
    is expanded exactly once, in B-then-A layers: its maximal candidates
    depend only on the anchor and membership only grows, so a sweep expands
    just the anchors added since the last sweep of its kind.  This keeps the
    insertion order of re-expanding every anchor each round to a fixpoint.
    """
    cand_a = _cut_candidates(tree, Side.A)
    cand_b = _cut_candidates(tree, Side.B)
    t_a: list[Formula] = []
    t_b: list[Formula] = [FALSE]
    cut = {FALSE}

    def sweep(
        anchors: list[Formula], start: int, candidates: list[Formula], into: list
    ) -> int:
        end = len(anchors)
        for anchor in anchors[start:end]:
            below = tree.strictly_below(anchor)
            eligible = [c for c in candidates if c in below]
            covered = frozenset().union(*(tree.strictly_below(c) for c in eligible))
            for phi in eligible:
                if phi not in covered and phi not in cut:
                    cut.add(phi)
                    into.append(phi)
        return end

    done_a = done_b = 0
    while done_b < len(t_b) or done_a < len(t_a):
        done_b = sweep(t_b, done_b, cand_a, t_a)
        done_a = sweep(t_a, done_a, cand_b, t_b)
    return tuple(t_a), tuple(t_b)


@dataclass
class InterpolationRun:
    """The (S_A, S_B, order, premise-maps) structure of a finished game."""

    s_a: tuple[Formula, ...]
    s_b: tuple[Formula, ...]
    pr_b: dict[Formula, tuple[Formula, ...]]  # premises the B-prover supplied
    pr_a: dict[Formula, tuple[Formula, ...]]  # premises the A-prover supplied

    @property
    def successful(self) -> bool:
        return FALSE in self.s_b

    def rounds(self) -> int:
        """Length of the longest premise chain, in prover turns."""
        memo: dict[Formula, int] = {}
        in_a = set(self.s_a)

        def depth(phi: Formula) -> int:
            hit = memo.get(phi)
            if hit is not None:
                return hit
            premises = self.pr_b[phi] if phi in in_a else self.pr_a[phi]
            value = 1 + max((depth(p) for p in premises), default=0)
            memo[phi] = value
            return value

        return max((depth(phi) for phi in self.s_a + self.s_b), default=0)


def run_from_cut(
    tree: ProofTree, t_a: Iterable[Formula], t_b: Iterable[Formula]
) -> InterpolationRun:
    """Decompose the proof at the cut and read off the premise maps.

    Each piece rooted at a cut node may only reach leaves of its own input
    set, axioms, or opposite-side cut nodes; anything else means the cut was
    invalid.
    """
    t_a, t_b = tuple(t_a), tuple(t_b)
    cutset = set(t_a) | set(t_b)

    def piece_premises(chi: Formula, own_origin: str, opposite: set) -> tuple:
        found: dict[Formula, None] = {}
        seen: set[Formula] = set()
        stack = list(reversed(tree.nodes[chi].premises))
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            if label in cutset:
                if label not in opposite:
                    raise InvalidCutError(
                        f"cut node {format_formula(label)} on the wrong side of "
                        f"{format_formula(chi)}"
                    )
                found[label] = None
                continue
            node = tree.nodes[label]
            if node.is_leaf:
                if node.origin not in (own_origin, "axiom"):
                    raise InvalidCutError(
                        f"piece at {format_formula(chi)} reaches foreign leaf "
                        f"{format_formula(label)}"
                    )
                continue
            stack.extend(reversed(node.premises))
        for label in found:
            if not tree.precedes(label, chi):
                raise InvalidCutError("premise does not precede its conclusion")
        return tuple(found)

    pr_b = {alpha: piece_premises(alpha, "A", set(t_b)) for alpha in t_a}
    pr_a = {beta: piece_premises(beta, "B", set(t_a)) for beta in t_b}
    return InterpolationRun(t_a, t_b, pr_b, pr_a)


def game_interpolant(
    run: InterpolationRun, target: Formula = FALSE
) -> tuple[Formula, ...]:
    """Implications justifying every A-contribution feeding ``target``.

    With the default target this is the interpolant of a successful run.
    """
    if not run.successful:
        raise ValueError("run is not successful: false was never derived")
    if target not in run.pr_a:
        raise ValueError("target must belong to the B-prover's set")
    limit = len(run.s_a) + len(run.s_b)
    memo: dict[Formula, tuple[Formula, ...]] = {}

    def cumulative(beta: Formula, depth: int = 0) -> tuple[Formula, ...]:
        if depth > limit:
            raise RuntimeError("premise recursion exceeded the run size")
        hit = memo.get(beta)
        if hit is not None:
            return hit
        out: dict[Formula, None] = {beta: None}
        for alpha in run.pr_a[beta]:
            for beta2 in run.pr_b[alpha]:
                for b in cumulative(beta2, depth + 1):
                    out[b] = None
        result = tuple(out)
        memo[beta] = result
        return result

    alphas: dict[Formula, None] = {}
    for beta in cumulative(target):
        for alpha in run.pr_a[beta]:
            alphas[alpha] = None
    implications: dict[Formula, None] = {}
    for alpha in alphas:
        premises = run.pr_b[alpha]
        if premises:
            implications[("=>", ("and",) + premises, alpha)] = None
        else:
            implications[alpha] = None
    return tuple(implications)


def format_game_interpolant(formulas: tuple[Formula, ...]) -> str:
    if not formulas:
        return "true"
    return "(and " + " ".join(format_formula(f) for f in formulas) + ")"


def _term_formula(t: Term) -> Formula:
    if not t.args:
        return t.head
    return (t.head,) + tuple(_term_formula(a) for a in t.args)


def euf_bridge(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> ProofTree:
    """Unfold a colored congruence graph into a local ground refutation.

    Every factor summary and every derived-edge congruence becomes one
    inference step; the final step derives false from the refuted
    disequality and the summary of the path connecting its endpoints.
    """
    colored, refuted, side, _ = build_colored_graph(problem, strategy)
    nodes: dict[Formula, LabelNode] = {}

    def eq_label(u: Term, v: Term) -> Formula:
        lit = Literal.make(u, v)
        return ("=", _term_formula(lit.lhs), _term_formula(lit.rhs))

    def add(label: Formula, premises: tuple = (), origin: str | None = None) -> Formula:
        if label not in nodes:
            nodes[label] = LabelNode(label, premises, origin)
        return label

    def derive_edge(edge) -> Formula:
        label = eq_label(edge.u, edge.v)
        if label in nodes:
            return label
        if edge.is_basic:
            return add(label, origin=edge.side.value)
        premises = tuple(
            derive_path(colored.path(p, q)) for p, q in edge.parents if p is not q
        )
        return add(label, premises)

    def derive_factor(factor) -> Formula:
        if len(factor.path.steps) == 1:
            return derive_edge(factor.path.steps[0].edge)
        label = eq_label(factor.path.start, factor.path.end)
        if label in nodes:
            return label
        premises = tuple(derive_edge(step.edge) for step in factor.path.steps)
        return add(label, premises)

    def derive_path(path) -> Formula:
        factors = colored.factors(path)
        if len(factors) == 1:
            return derive_factor(factors[0])
        label = eq_label(path.start, path.end)
        if label in nodes:
            return label
        premises = tuple(derive_factor(f) for f in factors)
        return add(label, premises)

    diseq_label: Formula = ("not", eq_label(refuted.lhs, refuted.rhs))
    root_premises: list[Formula] = []
    if not refuted.trivial:
        path = colored.path(refuted.lhs, refuted.rhs)
        root_premises.append(derive_path(path))
    add(diseq_label, origin=side.value)
    root_premises.append(diseq_label)
    add(FALSE, tuple(root_premises))
    return ProofTree(frozenset(), nodes, FALSE)


def bridge_run(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> tuple[ProofTree, InterpolationRun]:
    """Bridge, check locality, normalize, cut, and extract the induced run.

    Raises ``NonLocalProofError`` naming the first non-local step when the
    bridged refutation is not local.
    """
    tree = euf_bridge(problem, strategy)
    step = first_nonlocal_step(tree)
    if step is not None:
        raise NonLocalProofError(step)
    tree = normalize_root(tree)
    t_a, t_b = coloring_cut(tree)
    return tree, run_from_cut(tree, t_a, t_b)
