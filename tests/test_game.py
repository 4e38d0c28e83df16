from __future__ import annotations

import random
import re
from functools import partial

import pytest

from eufinterp import game
from eufinterp.cli import main
from eufinterp.coloring import ColoredGraph, Strategy
from eufinterp.congruence import Edge
from eufinterp.core import (
    Literal, Reader, Side, SymbolTable, TermTable, format_term, parse_problem,
)
from eufinterp.game import (
    LOGICAL_TOKENS,
    InterpolationRun,
    InvalidCutError,
    NonLocalProofError,
    ProofError,
    ProofTree,
    check_local,
    coloring_cut,
    euf_bridge,
    format_game_interpolant,
    game_interpolant,
    local_cut,
    normalize_root,
    parse_proof,
    run_from_cut,
    unfold_refutation,
)
from eufinterp.generate import generate
from eufinterp.interpolate import (
    build_colored_graph, format_conjunction, interpolate, parse_conjunction,
)
from eufinterp.verify import check_interpolant, euf_entails, unsat_with_horn

from test_core import bench_workload_texts

from conftest import (
    DATA,
    MALFORMED,
    LabelNode,
    alternating_proof,
    assert_proof_readers_agree,
    bridge_outcome,
    bridge_run,
    format_proof,
    game_outcome,
    label_fit,
    label_nodes,
    load_problem,
    load_text,
    occurrence_cut,
    occurrence_run,
    premise_first,
    problem_sides,
    reference_first_nonlocal_step,
    reference_format_formula,
    reference_formula,
    reference_frees,
    reference_normalize_root,
    reference_read_sexprs,
    reference_unfold,
    sigma,
    singleton_graph,
    tree_from_nodes,
    uncut_copy,
    unfold_record,
)

T_FA = "(t (f a))"
NOT_RB = "(not (r b))"
RULE = "(forall x (=> (r x) (t (f x))))"


def formula(table: TermTable, text: str):
    """The label ``text``, interned in ``table``: a proof's own labels are
    found again, and hand-built trees and runs are built from text."""
    return Reader(text, table, None).term(0, None)[0]


def printed(labels) -> tuple[str, ...]:
    return tuple(format_term(label) for label in labels)


def fig_tree():
    return parse_proof(load_text("forward_chain.proof"))


class Reach:
    """Strict premise closures of a ``{label: LabelNode}`` dict by depth-first
    search, in any node order: the tests' one node-precedence helper.

    The search runs on an explicit stack, takes in the memoized closure of
    any label it meets and memoizes only the labels asked for.
    """

    def __init__(self, nodes: dict):
        self.nodes = nodes
        self._below: dict = {}

    def strictly_below(self, label) -> frozenset:
        below = self._below
        hit = below.get(label)
        if hit is not None:
            return hit
        nodes = self.nodes
        out: set = set()
        stack = [iter(nodes[label].premises)]
        while stack:
            for prem in stack[-1]:
                if prem in out:
                    continue
                out.add(prem)
                closed = below.get(prem)
                if closed is not None:
                    out |= closed
                    continue
                stack.append(iter(nodes[prem].premises))
                break
            else:
                stack.pop()
        below[label] = result = frozenset(out)
        return result

    def precedes(self, phi, psi) -> bool:
        return phi in self.strictly_below(psi)


def symbol_scan(table: TermTable) -> dict:
    """``parse_proof``'s free-symbol masks of ``table``'s terms, decoded."""
    bits: dict = {}
    masks = game._symbol_masks(table, bits)
    return {
        term: frozenset(name for name, bit in bits.items() if masks[term.id] & bit)
        for term in table
    }


def check_cut(tree, t_a, t_b, sides=None) -> bool:
    """Literal evaluation of the four coloring-cut conditions, against the
    side signatures ``sides`` or else the leaves' (``label_fit``)."""
    reach = Reach(label_nodes(tree))
    set_a, set_b = set(t_a), set(t_b)
    if not all(label_fit(tree, lab, sides) == 3 for lab in set_a | set_b):
        return False
    if set_a & set_b or tree.root not in set_b:
        return False
    nodes = label_nodes(tree)
    a_inputs = {lab for lab, n in nodes.items() if n.origin == "A"}
    b_inputs = {lab for lab, n in nodes.items() if n.origin == "B"}

    def interleaved(upper: set, own: set, other_inputs: set, lower: set) -> bool:
        # Between any member of `upper` and any offending label strictly below
        # it there must be a member of `lower`.
        for anchor in upper:
            below_anchor = reach.strictly_below(anchor)
            for psi in (own | other_inputs) & below_anchor:
                if psi == anchor:
                    continue
                if not any(
                    reach.precedes(psi, beta) and reach.precedes(beta, anchor)
                    for beta in lower
                ):
                    return False
        return True

    if not interleaved(set_a, set_a, b_inputs - set_b, set_b):
        return False
    if not interleaved(set_b, set_b, a_inputs - set_a, set_a):
        return False
    return True


def random_proof(rng: random.Random, size: int) -> str:
    """A proof DAG with shared subproofs, repeated leaves and theory symbols.

    Labels are random atoms over a few predicates, functions and constants,
    r and t being theory symbols; a symbol's side follows from the leaves it
    occurs in.  Every inference takes its premises from earlier nodes, and
    false uses every node nothing else does.
    """
    preds = ("p", "s", "e", "r", "t")
    args = ("a", "b", "c", "x", "y", ("f", "a"), ("g", "b"), ("f", "y"), ("t", "c"))
    labels: list = []
    seen: set = set()
    lines = ["(theory-symbols r t)"]
    used: set[int] = set()
    for k in range(size):
        if labels and rng.random() < 0.1:
            # A second id for an earlier leaf: collapses onto the same label.
            j = rng.randrange(len(labels))
            label, origin = labels[j]
            if origin is not None:
                lines.append(
                    f"(node n{k} {reference_format_formula(label)} (from {origin}))"
                )
                labels.append((label, origin))
                continue
        while True:
            label = (rng.choice(preds), rng.choice(args), rng.choice(args))
            if rng.random() < 0.2:
                label = ("not", label)
            if label not in seen:
                break
        seen.add(label)
        if k < 3 or rng.random() < 0.35:
            origin = rng.choice(("A", "A", "B", "B", "axiom"))
            lines.append(f"(node n{k} {reference_format_formula(label)} (from {origin}))")
        else:
            origin = None
            premises = rng.sample(range(k), rng.randint(1, min(3, k)))
            used.update(premises)
            ids = " ".join(f"n{j}" for j in premises)
            lines.append(f"(node n{k} {reference_format_formula(label)} (premises {ids}))")
        labels.append((label, origin))
    tops = [k for k in range(size) if k not in used]
    lines.append(f"(node root false (premises {' '.join(f'n{k}' for k in tops)}))")
    return "\n".join(lines) + "\n"


# Symbols of local_random_proof: each side's own, and the theory symbols c, r
# and t, which are in both signatures.
SIDE_SYMBOLS = {"A": {"p", "a", "x", "f"}, "B": {"s", "b", "y", "g"}}
THEORY = {"c", "r", "t"}
LOCAL_ARGS = ("a", "b", "c", "x", "y", ("f", "a"), ("g", "b"), ("f", "x"), ("g", "c"), ("t", "c"))


def symbols_of(label) -> set:
    if isinstance(label, str):
        return {label} - LOGICAL_TOKENS
    return set().union(*map(symbols_of, label))


def local_random_proof(rng: random.Random, size: int) -> str:
    """A random proof whose every inference step fits one side's signature.

    A leaf takes its label from its side's symbols and the shared ones, an
    axiom from the shared ones alone.  An inference picks a side, then its
    label and one to three premises from earlier nodes, all over the symbols
    of that side's leaves so far; with none to pick it is a leaf instead.
    Earlier leaves get second ids as in ``random_proof``.  False follows from
    the unused nodes, which must fit its side, B or (for a relay) A: unused
    nodes of the other side first meet in a fresh label of shared symbols.
    """
    sig = {"A": set(THEORY), "B": set(THEORY)}  # symbols of each side's leaves
    nodes: list = []  # per node: label, origin, symbols
    seen: set = set()
    used: set[int] = set()
    lines = ["(theory-symbols " + " ".join(sorted(THEORY)) + ")"]

    def fresh(allowed: set):
        preds = [p for p in ("p", "s", "r", "t") if p in allowed]
        args = [a for a in LOCAL_ARGS if symbols_of(a) <= allowed]
        for _ in range(20):
            label = (rng.choice(preds), rng.choice(args), rng.choice(args))
            label = ("not", label) if rng.random() < 0.2 else label
            if label not in seen:
                seen.add(label)
                return label
        return None

    def add(label, origin, premises=()):
        k = len(nodes)
        formula = reference_format_formula(label)
        if premises:
            used.update(premises)
            ids = " ".join(f"n{j}" for j in premises)
            lines.append(f"(node n{k} {formula} (premises {ids}))")
        else:
            lines.append(f"(node n{k} {formula} (from {origin}))")
            if origin in sig:
                sig[origin] |= symbols_of(label)
        nodes.append((label, origin, symbols_of(label)))

    while len(nodes) < size:
        leaves = [n for n in nodes if n[1] is not None]
        if leaves and rng.random() < 0.1:
            add(*rng.choice(leaves)[:2])
            continue
        side = rng.choice("AB")
        eligible = [k for k, n in enumerate(nodes) if n[2] <= sig[side]]
        if eligible and rng.random() < 0.65:
            label = fresh(sig[side])
            if label is not None:
                add(label, None, rng.sample(eligible, rng.randint(1, min(3, len(eligible)))))
                continue
        origin = rng.choice(("A", "A", "B", "B", "axiom"))
        label = fresh(SIDE_SYMBOLS.get(origin, set()) | THEORY)
        if label is not None:
            add(label, origin)

    side = "B" if rng.random() < 0.75 else "A"
    tops = [k for k in range(len(nodes)) if k not in used]
    apart = [k for k in tops if not nodes[k][2] <= sig[side]]
    if apart:
        label = ("r", "c", "c")
        while label in seen:
            label = ("t", label)
        add(label, None, apart)
        tops = [k for k in tops if k not in apart] + [len(nodes) - 1]
    lines.append(f"(node root false (premises {' '.join(f'n{k}' for k in tops)}))")
    return "\n".join(lines) + "\n"


def deep_copy_variants(rng: random.Random, text: str) -> list[str]:
    """Copies of a ``random_proof`` text with one more derivation of a label.

    An inference n, one of its inference premises c and one of c's premises
    d get second ids n', c', d', with the same labels and n' a further
    premise of false.  In the first copy d' equals d; in the second, d'
    differs from d in its origin (a leaf) or its premise list (an inference),
    two levels below n'.  When d is an inference, a third copy's d' has as
    many premises as d, the first swapped for an earlier node of another
    label.  Empty when the proof has no such n.
    """
    lines = text.splitlines()
    forms = {form.items[1].text: form for form in reference_read_sexprs(text)[1:]}

    def premises(node_id):
        tail = forms[node_id].items[3]
        return [i.text for i in tail.items[1:]] if tail.items[0].text == "premises" else []

    chains = [
        (n, c, d)
        for n in forms
        if n != "root"
        for c in premises(n)
        for d in premises(c)
    ]
    if not chains:
        return []
    n, c, d = rng.choice(chains)

    def label(node_id):
        return reference_format_formula(reference_formula(forms[node_id].items[2]))

    def renamed(node_id, tail):
        return f"(node {node_id}' {label(node_id)} {tail})"

    def premise_tail(ids):
        return "(premises " + " ".join(ids) + ")"

    n_tail = premise_tail([f"{c}'" if p == c else p for p in premises(n)])
    c_tail = premise_tail([f"{d}'" if p == d else p for p in premises(c)])
    d_ids = premises(d)
    if d_ids:
        extra_id = f"n{rng.randrange(int(d[1:]))}"  # an earlier node: no cycle
        variants = [premise_tail(d_ids), premise_tail(d_ids + [extra_id])]
        swaps = [
            m for m in forms
            if m[1:].isdigit() and int(m[1:]) < int(d[1:]) and label(m) != label(d_ids[0])
        ]
        variants += [premise_tail([swaps[0], *d_ids[1:]])] if swaps else []
    else:
        origin = forms[d].items[3].items[1].text
        other = rng.choice([o for o in ("A", "B", "axiom") if o != origin])
        variants = [f"(from {origin})", f"(from {other})"]
    root = lines[-1].replace("))", f" {n}'))")
    out = []
    for d_tail in variants:
        extra = [renamed(n, n_tail), renamed(c, c_tail), renamed(d, d_tail)]
        out.append("\n".join(lines[:-1] + extra + [root]) + "\n")
    return out


NON_LOCAL_PROBLEM = (
    "(A (= (fa (fa c1)) c1) (= c1 c3) (= (h c1 a1) a2)"
    " (not (= (fa a3) a2)) (not (= c1 (g c1))))"
    " (B (= b3 (g (h b3 b1))) (= c3 b1) (= (g (h b1 c3)) c2) (= b2 c2)"
    " (= (h c2 b2) b2) (= b1 b2) (not (= (fb (g c3)) c1)))"
)

LOGICAL_TOKEN_PROBLEMS = [
    "(A (= a and) (= and c)) (B (not (= a c)))",
    "(A (= a false) (= false c)) (B (not (= a c)))",
    "(A (= a (forall c t)) (= (forall c t) d)) (B (not (= (g a t) (g d t))))",
]

# Binders that bind, one that shadows a free use, and shapes that do not bind.
BINDER_PROOF = (
    "(theory-symbols q)\n"
    "(node n1 (forall x (forall y (q x y))) (from A))\n"
    "(node n2 (exists y (p y a)) (from A))\n"
    "(node n3 (forall (f x) b) (from B))\n"
    "(node n4 (p y (exists x)) (from B))\n"
    "(node n5 (and x) (premises n1 n2 n3 n4))\n"
    "(node n6 false (premises n5))\n"
)


# (t c) is an A-candidate both below the A-candidate (t (t c)) and beside it.
SHARED_CANDIDATE_PROOF = (
    "(theory-symbols c t)\n"
    "(node n0 (p a) (from A))\n"
    "(node n1 (not (t c c)) (from axiom))\n"
    "(node n2 (p c a) (premises n1))\n"
    "(node n3 (t c) (premises n2))\n"
    "(node n4 (t (t c)) (premises n3 n0))\n"
    "(node n5 (t c (t c)) (premises n3))\n"
    "(node n6 (not (t (t c))) (from B))\n"
    "(node n7 false (premises n4 n5 n6))\n"
)


def sample_trees():
    """``(key, tree, sides)`` for random proofs, the fixture proofs and
    bridged problems, each also with its root normalized.  ``sides`` is a
    bridged problem's ``problem_sides``, and None for a parsed proof."""
    trees = []
    rng = random.Random(8)
    for i in range(300):
        trees.append((("random", i), parse_proof(random_proof(rng, rng.randint(3, 40))), None))
    trees.append((("forward_chain",), fig_tree(), None))
    trees.append((("alternating", 200), parse_proof(alternating_proof(200)), None))
    trees.append((("binders",), parse_proof(BINDER_PROOF), None))
    for seed in range(3):
        for family in ("chain", "ladder", "split"):
            p = parse_problem(generate(family, 12, seed=seed).text)
            trees.append(((family, 12, seed), euf_bridge(p), problem_sides(p)))
    for text in LOGICAL_TOKEN_PROBLEMS + [load_text("chain_a_diseq.euf")]:
        p = parse_problem(text)
        trees.append(((text,), euf_bridge(p), problem_sides(p)))
    return trees + [
        ((*key, "normalized"), normalize_root(tree), sides) for key, tree, sides in trees
    ]


class TestParseProof:
    def test_forward_chain_structure(self):
        tree = fig_tree()
        assert tree.root is formula(tree.table, "false")
        assert len(tree.nodes) == 14
        assert tree.theory_symbols == {"r", "t"}
        assert sigma(tree, "A") == {"p", "q", "a", "b", "f"}
        assert sigma(tree, "B") == {"s", "a", "b", "f"}
        assert label_fit(tree, formula(tree.table, T_FA)) == 3
        assert label_fit(tree, formula(tree.table, RULE)) == 3
        assert label_fit(tree, formula(tree.table, "(p a)")) != 3
        # A premise-first file keeps its order: labels by first occurrence.
        forms = reference_read_sexprs(load_text("forward_chain.proof"))[1:]
        labels = (reference_format_formula(reference_formula(f.items[2])) for f in forms)
        assert printed(tree.labels) == tuple(dict.fromkeys(labels))

    def test_minimal_three_node_proof(self):
        tree = parse_proof(
            "(theory-symbols)\n"
            "(node n1 (= a b) (from A))\n"
            "(node n2 (not (= a b)) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        assert len(tree.nodes) == 3
        assert label_nodes(tree)[tree.root].premises == (
            formula(tree.table, "(= a b)"),
            formula(tree.table, "(not (= a b))"),
        )

    def test_duplicate_labels_must_share_subtrees(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (= a b) (from A))\n"
            "(node n2 (= a b) (from B))\n"
            "(node n3 (not (= a b)) (from B))\n"
            "(node n4 false (premises n1 n3))\n"
            "(node n5 false (premises n2 n3))\n"
        )
        with pytest.raises(ProofError):
            parse_proof(text)

    def test_root_must_be_false(self):
        with pytest.raises(ProofError):
            parse_proof("(theory-symbols)\n(node n1 (= a b) (from A))\n")

    def test_cycle_rejected(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 false (premises n2))\n"
            "(node n2 (= a b) (premises n3))\n"
            "(node n3 (= b c) (premises n2))\n"
        )
        with pytest.raises(ProofError, match="cyclic proof through node 'n2'"):
            parse_proof(text)

    def test_reach_rejects_a_cycle(self):
        # A cyclic tree cannot be built: add refuses a premise that is not a
        # node yet, and leaves the tree as it was.
        table = TermTable()
        false, x, y = (formula(table, text) for text in ("false", "x", "y"))
        nodes = {
            false: LabelNode(false, (x,), None),
            x: LabelNode(x, (y,), None),
            y: LabelNode(y, (x,), None),
        }
        with pytest.raises(ProofError, match="^premise of false is not a node yet$"):
            tree_from_nodes(frozenset(), nodes, false, table)
        tree = ProofTree(frozenset(), table)
        assert tree.add(y, (), "A") == 0
        for premises in ((1,), (0, 1), (-1,)):
            with pytest.raises(ProofError, match="^premise of x is not a node yet$"):
                tree.add(x, premises)
        assert (tree.labels, tree.premises, tree.nodes) == ([y], [()], {y: 0})
        assert tree.add(x, (0,)) == 1

    @pytest.mark.parametrize(
        "shape, named",
        [
            # parse_proof's cycle check starts at each node in file order and
            # takes premises in order; the first premise met that is still
            # open is named.
            ([("y", "x"), ("false", "x"), ("x", "z"), ("z", "y")], "y"),
            ([("false", "w x"), ("w", ""), ("x", "w y"), ("y", "z w"), ("z", "x")], "x"),
            ([("z", "w"), ("false", "x"), ("x", "y"), ("y", "z"), ("w", "y")], "z"),
        ],
    )
    def test_reach_names_the_first_open_label_of_a_cycle(self, shape, named):
        table = TermTable()
        nodes = {}
        for text, premises in shape:
            label = formula(table, text)
            premises = tuple(formula(table, p) for p in premises.split())
            nodes[label] = LabelNode(label, premises, None if premises else "A")
        false = formula(table, "false")
        # In each shape the first label's premises come later: add refuses it.
        with pytest.raises(ProofError, match=f"^premise of {shape[0][0]} is not a node yet$"):
            tree_from_nodes(frozenset(), nodes, false, table)
        # Written as a proof file, with each node's label as its id.
        tails = [f"(premises {prems})" if prems else "(from A)" for _, prems in shape]
        text = "(theory-symbols)\n" + "".join(
            f"(node {label} {label} {tail})\n" for (label, _), tail in zip(shape, tails)
        )
        with pytest.raises(ProofError, match=f"^cyclic proof through node '{named}'$"):
            parse_proof(text)

    def test_reader_agrees_with_the_reference_chain(self):
        # Same theory symbols, nodes and root as text, or the same error.
        texts = [load_text("forward_chain.proof"), alternating_proof(5)]
        texts += [inputs[0] for command, inputs, _ in MALFORMED if command.startswith("game")]
        rng = random.Random(8)
        texts += [random_proof(rng, rng.randint(3, 40)) for _ in range(300)]
        for text in texts:
            if assert_proof_readers_agree(text)[0] == "ok":
                assert premise_first(parse_proof(text)), text

    def test_label_collapse_matches_the_subtree_numbering(self):
        # One more derivation of a label (deep_copy_variants) of the same 300
        # proofs, read by the reference chain: the node-local label checks
        # must collapse it when it is a copy and refuse it when it differs,
        # also two levels down.
        rng, mutate = random.Random(8), random.Random(9)
        faithful = refused = 0
        for _ in range(300):
            variants = deep_copy_variants(mutate, random_proof(rng, rng.randint(3, 40)))
            got = [assert_proof_readers_agree(text) for text in variants]
            for text, outcome in zip(variants, got):
                if outcome[0] == "ok":
                    assert premise_first(parse_proof(text)), text
            if got:
                faithful += got[0][0] == "ok"
                refused += got[1][:2] == ("error", ProofError)
        assert faithful >= 100 and refused >= 100

    def test_shuffled_proofs_keep_their_game(self):
        # Node forms in any order give a premise-first tree with the same
        # nodes, cut sets, game interpolant and rounds, or the same error
        # type; only the node order, and so each cut list's, may differ.
        def game(tree):
            nodes = sorted(
                (format_term(n.formula), printed(n.premises), n.origin)
                for n in label_nodes(tree).values()
            )
            try:
                tree, t_a, t_b = local_cut(tree)
                run = run_from_cut(tree, t_a, t_b)
            except ValueError as exc:
                return nodes, type(exc)
            text = format_game_interpolant(game_interpolant(run))
            return nodes, set(printed(t_a)), set(printed(t_b)), text, run.rounds()

        rng = random.Random(8)
        counts = {}
        for make in (random_proof, local_random_proof):
            reordered = non_local = ran = 0
            for _ in range(200):
                text = make(rng, rng.randint(3, 40))
                header, *forms = text.splitlines()
                rng.shuffle(forms)
                tree, shuffled = parse_proof(text), parse_proof("\n".join([header, *forms]))
                assert premise_first(shuffled)
                outcome = game(shuffled)
                assert outcome == game(tree)
                reordered += printed(shuffled.labels) != printed(tree.labels)
                non_local += outcome[1] is NonLocalProofError
                ran += len(outcome) > 2
            counts[make.__name__] = reordered, non_local, ran
        assert counts["random_proof"][0] >= 150 and counts["random_proof"][2] >= 20, counts
        # Every local draw reaches a cut and a run.
        reordered, non_local, ran = counts["local_random_proof"]
        assert reordered >= 150 and non_local == 0 and ran == 200, counts

    def test_two_roots_rejected(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (= a b) (from A))\n"
            "(node n2 false (premises n1))\n"
            "(node n3 (= c d) (from B))\n"
        )
        with pytest.raises(ProofError):
            parse_proof(text)

    def test_quantifier_binding_in_symbol_scan(self):
        table = TermTable()
        rule, forall_s, disjunction = (
            formula(table, text)
            for text in (RULE, "(forall x (s x))", "(or (r b) (q (f a) a))")
        )
        frees = symbol_scan(table)
        assert frees[rule] == {"r", "t", "f"}
        assert frees[forall_s] == {"s"}
        assert frees[disjunction] == {
            "r",
            "b",
            "q",
            "f",
            "a",
        }

    def test_round_trip_through_format(self):
        tree = fig_tree()
        again = parse_proof(format_proof(tree))
        assert printed(again.nodes) == printed(tree.nodes)
        assert [printed(s) for s in coloring_cut(again)] == [
            printed(s) for s in coloring_cut(tree)
        ]


class TestLocality:
    def test_forward_chain_is_local(self):
        assert check_local(fig_tree())

    def test_mixed_step_is_not_local(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (p a) (from A))\n"
            "(node n2 (s a) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        assert not check_local(parse_proof(text))

    def test_locality_and_the_relay_match_the_reference(self):
        # On every sample tree: the same first non-local step, and the same
        # nodes in the same order once the root is normalized.
        non_local = relays = 0
        for key, tree, sides in sample_trees():
            nodes, fit = label_nodes(tree), partial(label_fit, tree, sides=sides)
            step = game.first_nonlocal_step(tree)
            assert step is reference_first_nonlocal_step(nodes, fit), key
            want, relay = reference_normalize_root(nodes, tree.root, tree.table, fit)
            assert list(label_nodes(normalize_root(tree)).items()) == list(want.items()), key
            non_local, relays = non_local + (step is not None), relays + (relay is not None)
        assert non_local >= 400 and relays >= 200, (non_local, relays)

    def test_all_shared_proof_is_local(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (= a b) (from A))\n"
            "(node n2 (not (= a b)) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        assert check_local(parse_proof(text))


class TestNormalizeRoot:
    def test_forward_chain_unchanged(self):
        tree = fig_tree()
        assert normalize_root(tree) is tree

    def test_a_only_parent_gets_relay(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (p a) (from A))\n"
            "(node n2 (not (p a)) (from A))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        tree = parse_proof(text)
        assert check_local(tree)
        fixed = normalize_root(tree)
        relay = formula(fixed.table, "false'")
        nodes = label_nodes(fixed)
        assert nodes[fixed.root].premises == (relay,)
        assert nodes[relay].premises == (
            formula(fixed.table, "(p a)"),
            formula(fixed.table, "(not (p a))"),
        )
        assert normalize_root(fixed) is fixed  # idempotent


    def test_relay_skips_labels_the_tree_carries(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (p a) (from A))\n"
            "(node n2 false' (premises n1))\n"
            "(node n3 (and false') (premises n2))\n"
            "(node n4 (not (p a)) (from A))\n"
            "(node n5 false (premises n3 n4))\n"
        )
        tree = parse_proof(text)
        fixed = normalize_root(tree)
        table = fixed.table
        relay, prime = formula(table, "(and (and false'))"), formula(table, "(and false')")
        nodes = label_nodes(fixed)
        assert nodes[fixed.root].premises == (relay,)
        assert nodes[relay].premises == (prime, formula(table, "(not (p a))"))
        assert nodes[prime] == label_nodes(tree)[prime]
        assert nodes[prime].premises == (formula(table, "false'"),)
        assert premise_first(fixed)
        assert normalize_root(fixed) is fixed

    def test_a_leaf_root_gets_relay(self):
        # A alone refutes: the relay takes the A leaf false, the cut hands it
        # to A and the game interpolant is false.  A B leaf root keeps true.
        tree = parse_proof("(theory-symbols)\n(node n1 false (from A))\n")
        fixed = normalize_root(tree)
        relay = formula(fixed.table, "false'")
        nodes = label_nodes(fixed)
        assert nodes[fixed.root] == LabelNode(fixed.root, (relay,), None)
        assert nodes[relay] == LabelNode(relay, (), "A")
        assert normalize_root(fixed) is fixed
        t_a, t_b = coloring_cut(fixed)
        assert (t_a, t_b) == ((relay,), (fixed.root,))
        run = run_from_cut(fixed, t_a, t_b)
        assert format_game_interpolant(game_interpolant(run)) == "(and false)"
        b_leaf = parse_proof("(theory-symbols)\n(node n1 false (from B))\n")
        assert normalize_root(b_leaf) is b_leaf
        assert game_interpolant(run_from_cut(b_leaf, *coloring_cut(b_leaf))) == ()


class TestColoringCut:
    def test_forward_chain_cut(self):
        tree = normalize_root(fig_tree())
        t_a, t_b = coloring_cut(tree)
        assert set(t_a) == {formula(tree.table, T_FA)}
        assert set(t_b) == {
            formula(tree.table, NOT_RB),
            formula(tree.table, RULE),
            tree.root,
        }
        assert check_cut(tree, t_a, t_b)

    def test_pure_b_proof_cut_is_trivial(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (s a) (from B))\n"
            "(node n2 (not (s a)) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        tree = normalize_root(parse_proof(text))
        t_a, t_b = coloring_cut(tree)
        assert t_a == ()
        assert set(t_b) == {tree.root}
        assert check_cut(tree, t_a, t_b)

    def test_generated_bridge_proofs_admit_valid_cuts(self):
        for family in ("chain", "ladder", "split"):
            for i in range(25):
                inst = generate(family, 5 + i, seed=700 + i)
                p = parse_problem(inst.text)
                tree = normalize_root(euf_bridge(p))
                assert check_local(tree)
                t_a, t_b = coloring_cut(tree)
                assert check_cut(tree, t_a, t_b), (family, i)


    def test_golden_cut_order_of_the_six_rung_ladder(self):
        tree = normalize_root(euf_bridge(load_problem("ladder_chain6.euf")))
        eq = lambda i: f"(= u{i} v{i})"
        t_a, t_b = coloring_cut(tree)
        assert (printed(t_a), printed(t_b)) == (
            (eq(6), eq(4), eq(2), eq(0)),
            ("false", eq(5), eq(3), eq(1)),
        )

    def test_golden_cut_order_of_the_forward_chain(self):
        tree = normalize_root(fig_tree())
        label = lambda text: formula(tree.table, text)
        assert coloring_cut(tree) == (
            (label(T_FA),),
            (tree.root, label(NOT_RB), label(RULE)),
        )

    def test_cut_matches_the_tree_occurrence_reference(self):
        # The cut, and the premise lists its walk keeps for run_from_cut,
        # equal the cut of every occurrence of the proof's tree and
        # run_from_cut's own walk of that cut; or the same error.  A bridged
        # tree's labels fit the problem's signatures, a parsed one's the
        # leaves'.
        trees = {}
        for family in ("chain", "ladder", "split"):
            for size in range(2, 31):
                for seed in range(3):
                    p = parse_problem(generate(family, size, seed=seed).text)
                    trees[family, size, seed] = normalize_root(euf_bridge(p)), problem_sides(p)
        rng = random.Random(8)
        for i in range(300):
            text = random_proof(rng, rng.randint(3, 40))
            trees["random", i] = normalize_root(parse_proof(text)), None
        for i in range(150):
            text = local_random_proof(rng, rng.randint(3, 40))
            trees["local", i] = normalize_root(parse_proof(text)), None
        trees["alternating", 200] = normalize_root(parse_proof(alternating_proof(200))), None
        two_sided = {"random": 0, "local": 0}
        errors = {"random": 0, "local": 0}
        for key, (tree, sides) in trees.items():
            try:
                fit = partial(label_fit, tree, sides=sides)
                want = occurrence_cut(label_nodes(tree), tree.root, fit)
            except InvalidCutError as exc:
                with pytest.raises(InvalidCutError) as info:
                    coloring_cut(tree)
                assert str(info.value) == str(exc), key
                errors[key[0]] += 1
                continue
            t_a, t_b = coloring_cut(tree)
            run = run_from_cut(tree, t_a, t_b)
            assert (t_a, t_b, run.pr_b, run.pr_a) == want, key
            walked = run_from_cut(uncut_copy(tree), t_a, t_b)
            assert (walked.pr_b, walked.pr_a) == (run.pr_b, run.pr_a), key
            if key[0] in two_sided:
                two_sided[key[0]] += bool(t_a) and len(t_b) > 1
        # The local proofs exercise both sides, not only the trivial cut.  The
        # walks meet every step, so a non-local step raises: most random
        # proofs have one, and no local proof does.
        assert two_sided["local"] >= 50 and two_sided["random"] >= 10, two_sided
        assert errors["random"] >= 200 and errors["local"] == 0, errors

    def test_symbol_masks_and_fits_match_the_frozenset_scan(self):
        # Each node's fit: its label's free symbols against the two side
        # signatures.  For a parsed proof they are the theory symbols and the
        # symbols of each side's leaves, and its symbol masks decode to the
        # free symbols of every term of its table.  For a bridged problem
        # they are the symbols of each side's literals.
        relays = 0
        for key, tree, sides in sample_trees():
            assert premise_first(tree), key
            assert tree.nodes == {label: i for i, label in enumerate(tree.labels)}, key
            frees = reference_frees(tree.table)
            if sides is None:
                assert symbol_scan(tree.table) == frees, key
                a_sig, b_sig = (
                    frozenset().union(
                        *(frees[n.formula] for n in label_nodes(tree).values() if n.origin == side)
                    )
                    | tree.theory_symbols
                    for side in ("A", "B")
                )
            else:
                a_sig, b_sig = sides
            want = [
                (frees[label] <= a_sig) | (frees[label] <= b_sig) << 1
                for label in tree.labels
            ]
            assert tree.fits == want, key
            assert [label_fit(tree, label, sides) for label in tree.labels] == want, key
            root_premises = label_nodes(tree)[tree.root].premises
            relays += any("false'" in format_term(p) for p in root_premises)
        # Normalized trees with a relay are among them.
        assert relays >= 10


class TestCheckCut:
    @pytest.mark.parametrize(
        "t_a, t_b, refusal",
        [
            ((T_FA,), (NOT_RB, RULE), "run is not successful: false was never derived"),
            ((T_FA,), (T_FA, "false"), f"piece at {T_FA} reaches foreign leaf {NOT_RB}"),
            (("(p a)",), ("false",), f"piece at false walks through {T_FA}, a step outside side B"),
        ],
        ids=["missing_false", "overlapping_sets", "unshared_node"],
    )
    def test_bad_cut(self, t_a, t_b, refusal):
        # The check_cut oracle's self-check on cuts of the forward chain that
        # break one condition each; the library's run refuses them too.
        tree = normalize_root(fig_tree())
        t_a, t_b = ([formula(tree.table, text) for text in cut] for cut in (t_a, t_b))
        assert not check_cut(tree, t_a, t_b)
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            game_interpolant(run_from_cut(tree, t_a, t_b))

    def test_stacked_same_side_nodes_fail(self):
        # u0=v0 and u2=v2 both land on the A side with no B node between
        p = parse_problem(
            "(A (= u0 v0) (= (* x2 u1) u2) (= (* x2 v1) v2))"
            " (B (= (* x1 u0) u1) (= (* x1 v0) v1) (not (= u2 v2)))"
        )
        tree = normalize_root(euf_bridge(p))
        labels = dict(zip(printed(tree.nodes), tree.nodes))
        bad_a = (labels["(= u0 v0)"], labels["(= u2 v2)"])
        sides = problem_sides(p)
        assert not check_cut(tree, bad_a, (tree.root,), sides)
        t_a, t_b = coloring_cut(tree)
        assert check_cut(tree, t_a, t_b, sides)


class TestRunFromCut:
    def test_forward_chain_premise_maps(self):
        tree = normalize_root(fig_tree())
        label = lambda text: formula(tree.table, text)
        run = run_from_cut(tree, *coloring_cut(tree))
        assert set(run.pr_b[label(T_FA)]) == {label(NOT_RB), label(RULE)}
        assert run.pr_a[tree.root] == (label(T_FA),)
        assert run.pr_a[label(NOT_RB)] == ()
        assert run.pr_a[label(RULE)] == ()
        assert run.successful
        assert run.rounds() == 3

    def test_trivial_three_node_run(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (= a b) (from A))\n"
            "(node n2 (not (= a b)) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        tree = normalize_root(parse_proof(text))
        t_a, t_b = coloring_cut(tree)
        run = run_from_cut(tree, t_a, t_b)
        eq = formula(tree.table, "(= a b)")
        assert run.pr_a[tree.root] == (eq,)
        assert run.pr_b[eq] == ()

    def test_premises_precede_conclusions(self):
        for i in range(20):
            inst = generate("ladder", 2 + i % 7, seed=800 + i)
            p = parse_problem(inst.text)
            tree, run = bridge_run(p)
            reach = Reach(label_nodes(tree))
            for alpha, betas in run.pr_b.items():
                for beta in betas:
                    assert reach.precedes(beta, alpha)
            for beta, alphas in run.pr_a.items():
                for alpha in alphas:
                    assert reach.precedes(alpha, beta)

    def test_odd_cuts_run_as_the_tree_occurrence_walk(self):
        # Cuts with a node dropped, a node added on either side, a duplicate
        # or a node on both sides: the same premise maps as the walk over the
        # tree of occurrences, or the same error.  A tree whose cut raises
        # starts from false alone.
        def outcome(tree, t_a, t_b, reference=False):
            try:
                if reference:
                    fit = partial(label_fit, tree)
                    maps = occurrence_run(label_nodes(tree), fit, t_a, t_b)
                else:
                    run = run_from_cut(tree, t_a, t_b)
                    maps = (run.pr_b, run.pr_a)
            except InvalidCutError as exc:
                return str(exc)
            return [(format_term(k), printed(v)) for pr in maps for k, v in pr.items()]

        rng = random.Random(8)
        errors = 0
        texts = [random_proof(rng, rng.randint(3, 40)) for _ in range(150)]
        texts += [local_random_proof(rng, rng.randint(3, 40)) for _ in range(100)]
        trees = [normalize_root(tree) for tree in [fig_tree(), *map(parse_proof, texts)]]
        for tree in trees:
            try:
                t_a, t_b = coloring_cut(tree)
            except InvalidCutError:
                t_a, t_b = (), (tree.root,)
            other = rng.choice(tree.labels)
            cuts = [(t_a, t_b), (t_a[1:], t_b), (t_a + (other,), t_b), (t_a, t_b + (other,))]
            cuts += [(t_a + t_a, t_b), (t_a, t_b + t_a)]
            for cut in cuts:
                got = outcome(tree, *cut)
                assert got == outcome(tree, *cut, reference=True), cut
                errors += isinstance(got, str)
        assert errors >= 200

    def test_invalid_cut_is_reported(self):
        tree = normalize_root(fig_tree())
        # Without t(f a) in T_A, false's piece would run A's step.
        with pytest.raises(InvalidCutError) as info:
            run_from_cut(tree, (), (tree.root,))
        assert str(info.value) == "piece at false walks through (t (f a)), a step outside side B"

    def test_a_piece_stops_at_a_candidate_below_another(self):
        # (t c) is an A-candidate below the A-candidate (t (t c)), and false's
        # piece also meets it through (t c (t c)), which is no candidate.  So
        # the cut takes both, and false's piece stops at (t c).  The cut of
        # the candidates maximal in the node order took (t (t c)) alone: then
        # false's piece would walk through A's step at (t c).
        tree = normalize_root(parse_proof(SHARED_CANDIDATE_PROOF))
        label = lambda text: formula(tree.table, text)
        t_a, t_b = coloring_cut(tree)
        assert (printed(t_a), printed(t_b)) == (("(t c)", "(t (t c))"), ("false",))
        run = run_from_cut(tree, t_a, t_b)
        assert run.pr_a[tree.root] == (label("(t (t c))"), label("(t c)"))
        assert format_game_interpolant(game_interpolant(run)) == "(and (t (t c)) (t c))"
        with pytest.raises(InvalidCutError) as info:
            run_from_cut(tree, (label("(t (t c))"),), t_b)
        assert str(info.value) == "piece at false walks through (t c), a step outside side B"

    def test_a_local_draw_no_longer_runs_a_step_in_the_wrong_piece(self):
        # Draw 403 of local_random_proof at seed 2026: (r (t c) (t c)) has the
        # A-only premise (r x (f x)), lies below the A-candidate (t (r c c)),
        # and false's piece meets it through (t c (t c)) too.  Cut at
        # (t (r c c)) alone, false's piece ran A's step down to axioms and the
        # run printed (and (t (r c c))).
        rng = random.Random(2026)
        for _ in range(404):
            text = local_random_proof(rng, rng.randint(3, 40))
        tree = normalize_root(parse_proof(text))
        t_a, t_b = coloring_cut(tree)
        assert (printed(t_a), printed(t_b)) == (("(r (t c) (t c))", "(t (r c c))"), ("false",))
        run = run_from_cut(tree, t_a, t_b)
        assert format_game_interpolant(game_interpolant(run)) == (
            "(and (r (t c) (t c)) (t (r c c)))"
        )
        with pytest.raises(InvalidCutError) as info:
            run_from_cut(tree, t_a[1:], t_b)
        assert str(info.value) == (
            "piece at false walks through (r (t c) (t c)), a step outside side B"
        )

    def test_every_local_draw_cuts_and_runs(self):
        # Every local proof has a run, and the premise lists the cut keeps are
        # those run_from_cut's own walk finds.  Of these 1000 draws, 364 had a
        # cut with no run when the cut kept only the candidates maximal in the
        # node order.
        rng = random.Random(2026)
        for k in range(1000):
            tree = normalize_root(parse_proof(local_random_proof(rng, rng.randint(3, 40))))
            t_a, t_b = coloring_cut(tree)
            run = run_from_cut(tree, t_a, t_b)
            walked = run_from_cut(uncut_copy(tree), t_a, t_b)
            assert (walked.pr_b, walked.pr_a) == (run.pr_b, run.pr_a), k
            assert run.successful, k
            game_interpolant(run)


class TestGameInterpolant:
    def test_forward_chain_interpolant(self):
        tree = normalize_root(fig_tree())
        run = run_from_cut(tree, *coloring_cut(tree))
        (imp,) = game_interpolant(run)
        assert imp is formula(tree.table, f"(=> (and {NOT_RB} {RULE}) {T_FA})")
        assert (
            format_game_interpolant((imp,))
            == "(and (=> (and (not (r b)) (forall x (=> (r x) (t (f x))))) (t (f a))))"
        )

    def test_empty_a_side_gives_true(self):
        text = (
            "(theory-symbols)\n"
            "(node n1 (s a) (from B))\n"
            "(node n2 (not (s a)) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        tree = normalize_root(parse_proof(text))
        run = run_from_cut(tree, *coloring_cut(tree))
        assert game_interpolant(run) == ()
        assert format_game_interpolant(()) == "true"

    def test_deep_alternating_run_needs_no_recursion(self):
        # false <- a1500 <- b1499 <- a1499 <- ... <- b1 <- a1: the provers
        # alternate 3000 times, far past the interpreter's recursion limit.
        n = 1500
        table = TermTable()
        label = lambda text: formula(table, text)
        false = label("false")
        s_a = tuple(label(f"a{k}") for k in range(1, n + 1))
        s_b = tuple(label(f"b{k}") for k in range(1, n)) + (false,)
        pr_b = {
            label(f"a{k}"): (label(f"b{k - 1}"),) if k > 1 else ()
            for k in range(1, n + 1)
        }
        pr_a = {label(f"b{k}"): (label(f"a{k}"),) for k in range(1, n)}
        pr_a[false] = (label(f"a{n}"),)
        run = InterpolationRun(s_a, s_b, pr_b, pr_a, table)
        assert run.rounds() == 2 * n
        expected = tuple(
            label(f"(=> (and b{k - 1}) a{k})") for k in range(n, 1, -1)
        ) + (label("a1"),)
        assert game_interpolant(run) == expected

    def test_premise_cycle_is_reported(self):
        table = TermTable()
        a1, b1, false = (formula(table, text) for text in ("a1", "b1", "false"))
        run = InterpolationRun(
            (a1,), (b1, false), {a1: (b1,)}, {b1: (a1,), false: (a1,)}, table
        )
        with pytest.raises(RuntimeError, match="premise cycle through b1"):
            game_interpolant(run)
        with pytest.raises(RuntimeError, match="premise cycle through a1"):
            run.rounds()


class TestBridge:
    def test_single_edge_contradiction_is_three_nodes(self):
        p = parse_problem("(A (= a b)) (B (not (= a b)))")
        tree = euf_bridge(p)
        assert len(tree.nodes) == 3
        assert check_local(tree)

    def test_three_round_game_for_single_congruence(self):
        p = load_problem("horn_min.euf")
        tree, run = bridge_run(p)
        assert set(printed(run.s_a)) == {"(= u1 v1)"}
        assert "(= u0 v0)" in set(printed(run.s_b))
        assert {format_term(a): printed(b) for a, b in run.pr_b.items()} == {
            "(= u1 v1)": ("(= u0 v0)",)
        }
        assert run.rounds() == 3

    def test_alternating_ladder_round_count(self):
        p = load_problem("ladder_chain6.euf")
        tree, run = bridge_run(p)
        assert run.rounds() == 8
        assert len(run.s_a) + len(run.s_b) == 8

    def test_non_local_bridge_proof_is_reported_by_step(self):
        # Against the problem's signatures every step of this bridge is
        # local, and its game interpolant is the pipeline's.  Printed as a
        # proof file, which carries no problem, the sides' signatures are
        # those of their leaves: the step at (= c1 (h b1 c3)) mixes them, and
        # local_cut names it rather than failing later in run_from_cut.
        p = parse_problem(NON_LOCAL_PROBLEM)
        tree = euf_bridge(p)
        assert check_local(tree)
        _, run = bridge_run(p)
        text = format_game_interpolant(game_interpolant(run))
        assert text == format_conjunction(interpolate(p).interpolant)
        assert text == "(and (= c1 c3) (not (= c1 (g c1))))"
        assert check_interpolant(p, parse_conjunction(text, p.table, p.symbols)).accepted
        parsed = parse_proof(format_proof(tree))
        with pytest.raises(NonLocalProofError) as info:
            local_cut(parsed)
        assert format_term(info.value.step) == "(= c1 (h b1 c3))"
        assert str(info.value) == "inference step at (= c1 (h b1 c3)) is not local"

    def test_unfolding_keeps_the_first_direction_of_a_shared_path(self):
        # (f a b) ~ (f b a) has parent pairs (a, b) and (b, a): one path key
        # in two directions.  The node order and premise order are those of
        # a recursive unfolding, which unfolds the path as first met.
        p = parse_problem(
            "(A (= a c) (= d b) (= (f a b) e)) (B (= c d) (not (= e (f b a))))"
        )
        tree = euf_bridge(p)
        eq = lambda s, t: f"(= {s} {t})"
        fab, fba = "(f a b)", "(f b a)"
        assert [
            (format_term(label), printed(node.premises))
            for label, node in label_nodes(tree).items()
        ] == [
            (eq(fab, "e"), ()),
            (eq("d", "b"), ()),
            (eq("c", "d"), ()),
            (eq("a", "c"), ()),
            (eq("a", "b"), (eq("d", "b"), eq("c", "d"), eq("a", "c"))),
            (eq(fab, fba), (eq("a", "b"), eq("a", "b"))),
            (eq("e", fba), (eq(fab, "e"), eq(fab, fba))),
            (f"(not {eq('e', fba)})", ()),
            ("false", (eq("e", fba), f"(not {eq('e', fba)})")),
        ]

    def test_wide_class_proof_cuts_and_runs(self, capsys, tmp_path):
        # The B leaf x2 = x1 feeds both the A step and B's final step: A's
        # piece stops at it, a T_B node, and false's piece takes it as its own
        # leaf.  The game interpolant is the pipeline's, and the oracle
        # accepts it.
        p = parse_problem(
            "(A (= x2 (f x1)) (= (f x2) x0)) (B (= x1 x2) (not (= x1 x0)))"
        )
        path = tmp_path / "wide.proof"
        path.write_text(format_proof(euf_bridge(p)))
        assert main(["game", "cut", str(path)]) == 0
        assert capsys.readouterr().out == "T_A: (= x2 x0)\nT_B: false (= x2 x1)\n"
        assert main(["game", "interpolate", str(path)]) == 0
        text = capsys.readouterr().out.strip()
        assert text == "(and (=> (and (= x2 x1)) (= x2 x0)))"
        assert text == format_conjunction(interpolate(p).interpolant)
        assert check_interpolant(p, parse_conjunction(text, p.table, p.symbols)).accepted

    def test_unfolding_the_pipeline_graph_matches_the_bridge(self):
        # A caller holding an InterpolationResult unfolds its colored graph
        # without closing, repairing and coloring again.
        for family in ("chain", "ladder", "split"):
            for size in range(2, 31):
                for seed in range(3):
                    text = generate(family, size, seed=seed).text
                    result = interpolate(parse_problem(text))
                    unfolded = unfold_refutation(
                        result.colored, result.refuted, result.refuted_side
                    )
                    bridged = euf_bridge(parse_problem(text))
                    key = family, size, seed
                    assert game_outcome(unfolded) == game_outcome(bridged), key

    def test_bridge_matches_the_reference_route(self):
        # On every bench workload, a bridge that is non-local against the
        # leaves' signatures and the logical-token problems: the same nodes,
        # cut, premise maps and game text as the reference route; or the same
        # error.
        texts = bench_workload_texts(seed=2) + [NON_LOCAL_PROBLEM] + LOGICAL_TOKEN_PROBLEMS
        outcomes = {}
        for text in texts:
            p = parse_problem(text)
            outcome = bridge_outcome(p)
            assert outcome == bridge_outcome(p, reference=True), text
            if len(outcome) == 3:
                kind = outcome[1]
            else:
                kind = "relay" if "false'" in outcome[1] else "ok"
            outcomes[kind] = outcomes.get(kind, 0) + 1
        # Every problem runs, wide-class too, and the A-side refutations
        # take a relay.
        assert outcomes["relay"] >= 10, outcomes
        assert outcomes["ok"] + outcomes["relay"] == len(texts), outcomes

    def test_flat_unfolding_matches_the_reference(self):
        # Every bench workload at seeds 1-3 under every strategy, and every
        # data problem: the same table, arrays, sides, symbols, nodes and root.
        texts = [text for seed in (1, 2, 3) for text in bench_workload_texts(seed)]
        texts += [path.read_text() for path in sorted(DATA.glob("*.euf"))]
        for text in texts:
            p = parse_problem(text)
            for strategy in Strategy:
                colored, refuted, side, _ = build_colored_graph(p, strategy)
                tree = unfold_refutation(colored, refuted, side)
                reference = reference_unfold(colored, refuted, side, problem_sides(p))
                assert unfold_record(tree) == unfold_record(reference), (text, strategy)

    @pytest.mark.parametrize(
        "text, nodes, interpolant",
        [
            # trivially refuted s != s, on either side: false, a leaf of that
            # side
            ("(A (= a b)) (B (not (= s s)))", ["false"], "true"),
            ("(A (not (= s s))) (B (= a b))", ["false"], "(and false)"),
            # the refuted path is one basic edge
            (
                "(A (= a b)) (B (not (= a b)))",
                ["(= a b)", "(not (= a b))", "false"],
                "(and (= a b))",
            ),
            # one derived edge
            (
                "(A (= a b)) (B (not (= (f a) (f b))))",
                ["(= a b)", "(= (f a) (f b))", "(not (= (f a) (f b)))", "false"],
                "(and (= a b))",
            ),
            # two runs, an A run of two edges and a B run of one
            (
                "(A (= a b) (= b c)) (B (= c d) (not (= a d)))",
                ["(= a b)", "(= b c)", "(= a c)", "(= c d)", "(= a d)",
                 "(not (= a d))", "false"],
                "(and (= a c))",
            ),
        ],
    )
    def test_root_shapes_unfold_as_the_reference(
        self, text, nodes, interpolant, capsys, tmp_path
    ):
        p = parse_problem(text)
        colored, refuted, side, _ = build_colored_graph(p)
        tree = unfold_refutation(colored, refuted, side)
        reference = reference_unfold(colored, refuted, side, problem_sides(p))
        assert unfold_record(tree) == unfold_record(reference)
        assert printed(tree.labels) == tuple(nodes)
        path = tmp_path / "shape.euf"
        path.write_text(text)
        assert main(["interpolate", str(path), "--game", "--verify"]) == 0
        assert capsys.readouterr().out == interpolant + "\n"

    @staticmethod
    def _forged_graph(edges: list, links: dict, refuted: str) -> tuple:
        # One class over the vertices a, b, c with the given edges, each
        # ``(u, v, parents)``, basic when ``parents`` is None, colored A, and
        # the given parent links, child -> (edge index, parent).  Returns the
        # colored graph and the disequality ``refuted`` names the ends of.
        table = TermTable()
        vertex = {name: table.make(name) for name in "abc"}
        graph = singleton_graph(vertex.values())
        graph._rep = [vertex["a"].id] * len(graph._rep)
        made = []
        for seq, (u, v, parents) in enumerate(edges):
            u, v = vertex[u], vertex[v]
            if parents is None:
                edge = Edge(u, v, seq, Literal.make(u, v), Side.A)
            else:
                pairs = tuple((vertex[p], vertex[q]) for p, q in parents)
                edge = Edge(u, v, seq, parents=pairs)
            graph.edges[edge] = None
            made.append(edge)
        for child, (index, parent) in links.items():
            graph._up[vertex[child].id] = (made[index], vertex[parent])
        colors = {edge.seq: Side.A for edge in made}
        lhs, rhs = (vertex[name] for name in refuted)
        return ColoredGraph(graph, SymbolTable(table), colors), Literal(lhs, rhs, False)

    def test_unfolding_a_derived_edge_that_derives_itself_revisits_it(self):
        # a -- b derived from the path a .. b, which is that edge again.
        colored, refuted = self._forged_graph([("a", "b", [("a", "b")])], {"a": (0, "b")}, "ab")
        no_symbols = (frozenset(), frozenset())
        for unfold in (unfold_refutation, partial(reference_unfold, sides=no_symbols)):
            with pytest.raises(RuntimeError, match="unfolding revisits 0"):
                unfold(colored, refuted, Side.B)

    def test_unfolding_keeps_one_node_per_label(self):
        # The path a .. c runs over two basic edges that both join a and b:
        # two steps of one label, which no forest gives.
        colored, refuted = self._forged_graph(
            [("a", "b", None), ("a", "b", None)], {"a": (0, "b"), "b": (1, "c")}, "ac"
        )
        with pytest.raises(RuntimeError, match="unfolding repeats a label"):
            unfold_refutation(colored, refuted, Side.B)

    def test_ladder_of_400_rungs_bridges(self):
        # Past the interpreter's recursion limit for a recursive unfolding.
        p = parse_problem(generate("ladder", 400, seed=0).text)
        tree, run = bridge_run(p)
        assert len(tree.nodes) == 1603
        assert run.rounds() == 402
        horn = parse_conjunction(
            format_game_interpolant(game_interpolant(run)), p.table, p.symbols
        )
        assert len(horn.clauses) == 201
        assert check_interpolant(p, horn).accepted

    def test_deeply_nested_problem_bridges_and_prints(self):
        # Labels are interned terms: nothing hashes, compares or prints them
        # by recursion.
        depth = 10_000
        deep = "(f " * depth + "a" + ")" * depth
        p = parse_problem(f"(A (= b {deep})) (B (= c {deep}) (not (= b c)))")
        _, run = bridge_run(p)
        game_text = format_game_interpolant(game_interpolant(run))
        assert game_text == f"(and (= b {deep}))"
        horn = parse_conjunction(game_text, p.table, p.symbols)
        assert check_interpolant(p, horn).accepted

    @pytest.mark.parametrize(
        "text",
        [
            "(A (= a and) (= and c)) (B (not (= a c)))",
            "(A (= a false) (= false c)) (B (not (= a c)))",
            "(A (= a (forall c t)) (= (forall c t) d)) (B (not (= (g a t) (g d t))))",
        ],
    )
    def test_bridge_takes_label_symbols_from_the_term_table(self, text):
        # Problem symbols spelled like logical tokens, and a term that reads
        # like a binder, keep all their symbols: the cut stays shared.
        p = parse_problem(text)
        _, run = bridge_run(p)
        game_text = format_game_interpolant(game_interpolant(run))
        assert game_text == format_conjunction(interpolate(p).interpolant)
        horn = parse_conjunction(game_text, p.table, p.symbols)
        assert check_interpolant(p, horn).accepted

    def test_bridge_interpolants_check_out_semantically(self):
        for family in ("chain", "ladder", "split"):
            for i in range(20):
                inst = generate(family, 5 + i, seed=900 + i)
                p = parse_problem(inst.text)
                tree, run = bridge_run(p)
                text = format_game_interpolant(game_interpolant(run))
                horn = parse_conjunction(text, p.table, p.symbols)
                assert check_interpolant(p, horn).accepted, (family, i, text)

    def test_partial_interpolants_entailed_both_ways(self):
        # for every B-side formula: A entails its partial interpolant, and B
        # plus that interpolant entails the formula itself
        def as_literal(problem, beta):
            text = format_term(beta)
            conj = parse_conjunction(text, problem.table, problem.symbols)
            (clause,) = conj.clauses
            assert clause.premises == ()
            return clause.conclusion

        for i in range(12):
            inst = generate("ladder", 2 + i % 6, seed=40 + i)
            p = parse_problem(inst.text)
            tree, run = bridge_run(p)
            for beta in run.s_b:
                horn = parse_conjunction(
                    format_game_interpolant(game_interpolant(run, beta)),
                    p.table,
                    p.symbols,
                )
                for clause in horn.clauses:
                    context = list(p.a_literals) + list(clause.premises)
                    assert euf_entails(context, clause.conclusion)
                if beta is tree.root:
                    assert unsat_with_horn(list(p.b_literals), horn)
                else:
                    lit = as_literal(p, beta)
                    context = list(p.b_literals)
                    if lit.equal:
                        context = context + [lit.negated()]
                        assert unsat_with_horn(context, horn)
                    else:
                        assert euf_entails(
                            context + [c.conclusion for c in horn.clauses if not c.premises],
                            lit,
                        ) or unsat_with_horn(context + [lit.negated()], horn)
