from __future__ import annotations

import pytest

from eufinterp.core import Side, parse_problem
from eufinterp.game import (
    FALSE,
    _cut_candidates,
    InvalidCutError,
    LabelNode,
    NonLocalProofError,
    ProofError,
    ProofTree,
    bridge_run,
    check_local,
    coloring_cut,
    euf_bridge,
    format_formula,
    format_game_interpolant,
    free_symbols,
    game_interpolant,
    normalize_root,
    parse_proof,
    run_from_cut,
)
from eufinterp.generate import generate
from eufinterp.interpolate import parse_conjunction
from eufinterp.verify import check_interpolant, euf_entails, unsat_with_horn

from conftest import load_problem, load_text

T_FA = ("t", ("f", "a"))
NOT_RB = ("not", ("r", "b"))
RULE = ("forall", "x", ("=>", ("r", "x"), ("t", ("f", "x"))))


def fig_tree():
    return parse_proof(load_text("forward_chain.proof"))


def reference_coloring_cut(tree):
    """The cut as a plain fixpoint: re-expand every cut node until no change."""
    cand_a = _cut_candidates(tree, Side.A)
    cand_b = _cut_candidates(tree, Side.B)
    t_a: dict = {}
    t_b: dict = {FALSE: None}

    def maximal_below(candidates, anchor):
        below = tree.strictly_below(anchor)
        eligible = [c for c in candidates if c in below]
        return [
            c
            for c in eligible
            if not any(other != c and tree.precedes(c, other) for other in eligible)
        ]

    changed = True
    while changed:
        changed = False
        for beta in list(t_b):
            for phi in maximal_below(cand_a, beta):
                if phi not in t_a and phi not in t_b:
                    t_a[phi] = None
                    changed = True
        for alpha in list(t_a):
            for phi in maximal_below(cand_b, alpha):
                if phi not in t_b and phi not in t_a:
                    t_b[phi] = None
                    changed = True
    return tuple(t_a), tuple(t_b)


def check_cut(tree, t_a, t_b) -> bool:
    """Literal evaluation of the four coloring-cut conditions."""
    set_a, set_b = set(t_a), set(t_b)
    if not all(tree.ab_colorable(lab) for lab in set_a | set_b):
        return False
    if set_a & set_b or FALSE not in set_b:
        return False
    a_inputs = {lab for lab, n in tree.nodes.items() if n.origin == "A"}
    b_inputs = {lab for lab, n in tree.nodes.items() if n.origin == "B"}

    def interleaved(upper: set, own: set, other_inputs: set, lower: set) -> bool:
        # Between any member of `upper` and any offending label strictly below
        # it there must be a member of `lower`.
        for anchor in upper:
            below_anchor = tree.strictly_below(anchor)
            for psi in (own | other_inputs) & below_anchor:
                if psi == anchor:
                    continue
                if not any(
                    tree.precedes(psi, beta) and tree.precedes(beta, anchor)
                    for beta in lower
                ):
                    return False
        return True

    if not interleaved(set_a, set_a, b_inputs - set_b, set_b):
        return False
    if not interleaved(set_b, set_b, a_inputs - set_a, set_a):
        return False
    return True


def format_proof(tree) -> str:
    """Serialize back to the proof grammar (ids in node order)."""
    ids = {label: f"n{i + 1}" for i, label in enumerate(tree.nodes)}
    lines = ["(theory-symbols " + " ".join(sorted(tree.theory_symbols)) + ")"]
    for label, node in tree.nodes.items():
        if node.is_leaf:
            tail = f"(from {node.origin})"
        else:
            tail = "(premises " + " ".join(ids[p] for p in node.premises) + ")"
        lines.append(f"(node {ids[label]} {format_formula(label)} {tail})")
    return "\n".join(lines) + "\n"


class TestParseProof:
    def test_forward_chain_structure(self):
        tree = fig_tree()
        assert tree.root == FALSE
        assert len(tree.nodes) == 14
        assert tree.theory_symbols == {"r", "t"}
        assert tree.sigma_a == {"p", "q", "a", "b", "f"}
        assert tree.sigma_b == {"s", "a", "b", "f"}
        assert tree.ab_colorable(T_FA)
        assert tree.ab_colorable(RULE)
        assert not tree.ab_colorable(("p", "a"))

    def test_minimal_three_node_proof(self):
        tree = parse_proof(
            "(theory-symbols)\n"
            "(node n1 (= a b) (from A))\n"
            "(node n2 (not (= a b)) (from B))\n"
            "(node n3 false (premises n1 n2))\n"
        )
        assert len(tree.nodes) == 3
        assert tree.nodes[FALSE].premises == (("=", "a", "b"), ("not", ("=", "a", "b")))

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

    def test_strictly_below_rejects_a_cycle(self):
        nodes = {
            FALSE: LabelNode(FALSE, ("x",), None),
            "x": LabelNode("x", ("y",), None),
            "y": LabelNode("y", ("x",), None),
        }
        tree = ProofTree(frozenset(), nodes, FALSE)
        with pytest.raises(ProofError, match="cyclic"):
            tree.strictly_below(FALSE)

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
        assert free_symbols(RULE) == {"r", "t", "f"}
        assert free_symbols(("forall", "x", ("s", "x"))) == {"s"}
        assert free_symbols(("or", ("r", "b"), ("q", ("f", "a"), "a"))) == {
            "r",
            "b",
            "q",
            "f",
            "a",
        }

    def test_round_trip_through_format(self):
        tree = fig_tree()
        again = parse_proof(format_proof(tree))
        assert again.nodes.keys() == tree.nodes.keys()
        assert coloring_cut(again) == coloring_cut(tree)


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
        assert fixed.nodes[FALSE].premises == ("false'",)
        assert fixed.nodes["false'"].premises == (("p", "a"), ("not", ("p", "a")))
        assert normalize_root(fixed) is fixed  # idempotent


class TestColoringCut:
    def test_forward_chain_cut(self):
        tree = normalize_root(fig_tree())
        t_a, t_b = coloring_cut(tree)
        assert set(t_a) == {T_FA}
        assert set(t_b) == {NOT_RB, RULE, FALSE}
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
        assert set(t_b) == {FALSE}
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
        eq = lambda i: ("=", f"u{i}", f"v{i}")
        assert coloring_cut(tree) == (
            (eq(6), eq(4), eq(2), eq(0)),
            (FALSE, eq(5), eq(3), eq(1)),
        )

    def test_golden_cut_order_of_the_forward_chain(self):
        assert coloring_cut(normalize_root(fig_tree())) == (
            (T_FA,),
            (FALSE, NOT_RB, RULE),
        )

    def test_cut_matches_the_fixpoint_reference(self):
        for family in ("chain", "ladder", "split"):
            for size in range(2, 31):
                for seed in range(3):
                    p = parse_problem(generate(family, size, seed=seed).text)
                    tree = normalize_root(euf_bridge(p))
                    assert coloring_cut(tree) == reference_coloring_cut(tree), (
                        family,
                        size,
                        seed,
                    )


class TestCheckCut:
    def test_missing_false_fails(self):
        tree = normalize_root(fig_tree())
        assert not check_cut(tree, (T_FA,), (NOT_RB, RULE))

    def test_overlapping_sets_fail(self):
        tree = normalize_root(fig_tree())
        assert not check_cut(tree, (T_FA,), (T_FA, FALSE))

    def test_unshared_node_fails(self):
        tree = normalize_root(fig_tree())
        assert not check_cut(tree, (("p", "a"),), (FALSE,))

    def test_stacked_same_side_nodes_fail(self):
        # u0=v0 and u2=v2 both land on the A side with no B node between
        p = parse_problem(
            "(A (= u0 v0) (= (* x2 u1) u2) (= (* x2 v1) v2))"
            " (B (= (* x1 u0) u1) (= (* x1 v0) v1) (not (= u2 v2)))"
        )
        tree = normalize_root(euf_bridge(p))
        eq = lambda a, b: ("=", a, b)
        bad_a = (eq("u0", "v0"), eq("u2", "v2"))
        assert not check_cut(tree, bad_a, (FALSE,))
        t_a, t_b = coloring_cut(tree)
        assert check_cut(tree, t_a, t_b)


class TestRunFromCut:
    def test_forward_chain_premise_maps(self):
        tree = normalize_root(fig_tree())
        run = run_from_cut(tree, *coloring_cut(tree))
        assert set(run.pr_b[T_FA]) == {NOT_RB, RULE}
        assert run.pr_a[FALSE] == (T_FA,)
        assert run.pr_a[NOT_RB] == ()
        assert run.pr_a[RULE] == ()
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
        assert run.pr_a[FALSE] == (("=", "a", "b"),)
        assert run.pr_b[("=", "a", "b")] == ()

    def test_premises_precede_conclusions(self):
        for i in range(20):
            inst = generate("ladder", 2 + i % 7, seed=800 + i)
            p = parse_problem(inst.text)
            tree, run = bridge_run(p)
            for alpha, betas in run.pr_b.items():
                for beta in betas:
                    assert tree.precedes(beta, alpha)
            for beta, alphas in run.pr_a.items():
                for alpha in alphas:
                    assert tree.precedes(alpha, beta)

    def test_invalid_cut_is_reported(self):
        tree = normalize_root(fig_tree())
        with pytest.raises(InvalidCutError):
            run_from_cut(tree, (), (FALSE,))  # t(f a) piece leaks an A formula


class TestGameInterpolant:
    def test_forward_chain_interpolant(self):
        tree = normalize_root(fig_tree())
        run = run_from_cut(tree, *coloring_cut(tree))
        (imp,) = game_interpolant(run)
        assert imp == ("=>", ("and", NOT_RB, RULE), T_FA)
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


class TestBridge:
    def test_single_edge_contradiction_is_three_nodes(self):
        p = parse_problem("(A (= a b)) (B (not (= a b)))")
        tree = euf_bridge(p)
        assert len(tree.nodes) == 3
        assert check_local(tree)

    def test_three_round_game_for_single_congruence(self):
        p = load_problem("horn_min.euf")
        tree, run = bridge_run(p)
        eq = lambda a, b: ("=", a, b)
        assert set(run.s_a) == {eq("u1", "v1")}
        assert eq("u0", "v0") in set(run.s_b)
        assert run.pr_b[eq("u1", "v1")] == (eq("u0", "v0"),)
        assert run.rounds() == 3

    def test_alternating_ladder_round_count(self):
        p = load_problem("ladder_chain6.euf")
        tree, run = bridge_run(p)
        assert run.rounds() == 8
        assert len(run.s_a) + len(run.s_b) == 8

    def test_non_local_bridge_proof_is_reported_by_step(self):
        # euf_bridge emits a non-local step here; bridge_run names it rather
        # than failing later in run_from_cut.
        p = parse_problem(
            "(A (= (fa (fa c1)) c1) (= c1 c3) (= (h c1 a1) a2)"
            " (not (= (fa a3) a2)) (not (= c1 (g c1))))"
            " (B (= b3 (g (h b3 b1))) (= c3 b1) (= (g (h b1 c3)) c2) (= b2 c2)"
            " (= (h c2 b2) b2) (= b1 b2) (not (= (fb (g c3)) c1)))"
        )
        assert not check_local(euf_bridge(p))
        with pytest.raises(NonLocalProofError) as info:
            bridge_run(p)
        assert info.value.step == ("=", "c1", ("h", "b1", "c3"))
        assert str(info.value) == "inference step at (= c1 (h b1 c3)) is not local"

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
        def as_literal(problem, formula):
            text = format_formula(formula)
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
                if beta == FALSE:
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
