from __future__ import annotations

import random

import pytest

from eufinterp.coloring import Strategy
from eufinterp.core import Colorability, Literal, Side, parse_problem
from eufinterp.generate import generate
from eufinterp.interpolate import (
    HornClause,
    HornConjunction,
    NotUnsatisfiableError,
    PremiseSets,
    build_colored_graph,
    format_conjunction,
    interpolate,
    justification,
    parse_conjunction,
    path_interpolant,
    refutation_interpolant,
)
from eufinterp.verify import check_interpolant, euf_entails

from conftest import expected_clauses, load_problem


def recursive_path_interpolant(
    ps: PremiseSets, path, _memo: dict | None = None
) -> frozenset[HornClause]:
    """Reference evaluation of the path interpolant by direct recursion.

    Multi-factor paths conjoin their factors' interpolants; a B-path
    conjoins the interpolants of its edges' parent paths; an A-path adds its
    own justification to the interpolants of its B-premises.  Must agree
    with :func:`path_interpolant` as a clause set.
    """
    memo = _memo if _memo is not None else {}
    key = ps.key_of(path)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if path.is_empty:
        return frozenset()
    out: set[HornClause] = set()
    factors = ps.colored.factors(path)
    if len(factors) >= 2:
        for factor in factors:
            out |= recursive_path_interpolant(ps, factor.path, memo)
    elif factors[0].side is Side.B:
        for step in path.steps:
            if step.edge.is_derived:
                for p, q in step.edge.parents:
                    if p is not q:
                        sub = ps.colored.path(p, q)
                        out |= recursive_path_interpolant(ps, sub, memo)
    else:
        clause = justification(ps, path)
        if clause is not None:
            out.add(clause)
        for k in ps.b_premises(path):
            out |= recursive_path_interpolant(ps, ps.path_of(k), memo)
    result = frozenset(out)
    memo[key] = result
    return result


def _setup(name, strategy=Strategy.GREEDY):
    p = load_problem(name)
    colored, refuted, side, added = build_colored_graph(p, strategy)
    return p, colored, PremiseSets(colored)


def _pairs(ps, keys):
    out = set()
    for k in keys:
        lit = ps.summary(k)
        out.add((lit.lhs.head, lit.rhs.head))
    return out


class TestPremiseSets:
    def test_b_premises_worked_values(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path_z7z8 = colored.path(t("z7"), t("z8"))
        assert _pairs(ps, ps.b_premises(path_z7z8)) == {("z5", "z6")}
        path_z3z4 = colored.path(t("z3"), t("z4"))
        assert _pairs(ps, ps.b_premises(path_z3z4)) == {("z1", "z2")}

    def test_b_premises_of_a_b_path_is_itself(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path = colored.path(t("z1"), t("z2"))  # single basic B edge
        assert ps.b_premises(path) == (ps.key_of(path),)

    def test_a_premises_of_an_a_path_is_itself(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path = colored.path(t("z3"), t("z4"))
        assert ps.a_premises(path) == (ps.key_of(path),)

    def test_a_premises_worked_value(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path = colored.path(t("y1"), t("y2"))
        assert _pairs(ps, ps.a_premises(path)) == {("z7", "z8")}

    def test_a_premises_endpoints_shared_for_b_colorable_paths(self):
        rng = random.Random(13)
        for i in range(30):
            inst = generate("ladder", 2 + i % 8, seed=i)
            p = parse_problem(inst.text)
            colored, refuted, side, _ = build_colored_graph(p)
            ps = PremiseSets(colored)
            path = colored.path(refuted.lhs, refuted.rhs)
            ends = (path.start, path.end)
            if not all(
                p.symbols.colorability(e) & Colorability.B for e in ends
            ):
                continue
            for key in ps.a_premises(path):
                sub = ps.path_of(key)
                for v in (sub.start, sub.end):
                    assert p.symbols.colorability(v) == Colorability.AB

    def test_premise_monotonicity(self):
        for i in range(25):
            inst = generate("ladder", 2 + i % 10, seed=50 + i)
            p = parse_problem(inst.text)
            colored, refuted, _, _ = build_colored_graph(p)
            ps = PremiseSets(colored)
            path = colored.path(refuted.lhs, refuted.rhs)
            universe = set(ps.cumulative(path))
            for key in universe:
                outer = set(ps.a_premises(ps.path_of(key)))
                for inner_key in outer:
                    assert set(ps.a_premises(ps.path_of(inner_key))) <= outer


class TestJustification:
    def test_worked_values(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        j = justification(ps, colored.path(t("z7"), t("z8")))
        assert frozenset([j]) == expected_clauses(
            p, "(=> (and (= z5 z6)) (= z7 z8))"
        )
        j2 = justification(ps, colored.path(t("z3"), t("z4")))
        assert frozenset([j2]) == expected_clauses(
            p, "(=> (and (= z1 z2)) (= z3 z4))"
        )

    def test_unit_clause_when_no_b_premises(self):
        p, colored, ps = _setup("chain_one_afactor.euf")
        t = p.table.make
        j = justification(ps, colored.path(t("z1"), t("z4")))
        assert j.premises == ()
        assert frozenset([j]) == expected_clauses(p, "(= z1 z4)")


class TestPathInterpolant:
    def test_two_rung_ladder_value(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        conj = path_interpolant(ps, colored.path(t("y1"), t("y2")))
        assert frozenset(conj.clauses) == expected_clauses(
            p,
            "(and (=> (and (= z1 z2)) (= z3 z4)) (=> (and (= z5 z6)) (= z7 z8)))",
        )

    def test_alternate_coloring_value(self):
        p, colored, ps = _setup("ladder2.euf", Strategy.ALL_A)
        t = p.table.make
        conj = path_interpolant(ps, colored.path(t("y1"), t("y2")))
        assert frozenset(conj.clauses) == expected_clauses(
            p,
            "(and (=> (and (= z5 (f z3)) (= z6 (f z4)) (= z1 z2)) (= z7 z8)))",
        )

    def test_pure_b_path_gives_true(self):
        p = parse_problem("(A) (B (= a b) (= b c) (not (= a c)))")
        colored, refuted, side, _ = build_colored_graph(p)
        ps = PremiseSets(colored)
        conj = path_interpolant(ps, colored.path(refuted.lhs, refuted.rhs))
        assert conj.is_true

    def test_closed_form_matches_recursion(self):
        for fam, sizes in (("chain", 31), ("ladder", 9), ("split", 17)):
            for i in range(40):
                inst = generate(fam, 4 + i % sizes if fam != "chain" else 5 + i % sizes, seed=900 + i)
                p = parse_problem(inst.text)
                colored, refuted, side, _ = build_colored_graph(p)
                ps = PremiseSets(colored)
                path = colored.path(refuted.lhs, refuted.rhs)
                for key in (ps.key_of(path),) + ps.cumulative(path):
                    sub = ps.path_of(key)
                    assert frozenset(path_interpolant(ps, sub).clauses) == \
                        recursive_path_interpolant(ps, sub)


class TestRefutationInterpolant:
    def test_chain_with_a_side_disequality(self):
        p, colored, ps = _setup("chain_a_diseq.euf")
        t = p.table.make
        x3, z4 = t("x3"), t("z4")
        conj = refutation_interpolant(ps, colored.path(x3, z4))
        assert frozenset(conj.clauses) == expected_clauses(
            p,
            "(and (= z1 z2) (not (= (f z3) z4)) (= (f z2) z3))",
        )

    def test_no_b_colorable_vertex_yields_false_conclusion(self):
        p = parse_problem("(A (= a b) (not (= a b))) (B)")
        result = interpolate(p)
        assert frozenset(result.interpolant.clauses) == expected_clauses(p, "(and false)")
        assert check_interpolant(p, result.interpolant).accepted

    def test_single_shared_vertex_leaves_an_empty_core(self):
        # only z is B-colorable on the refuted path, so the core collapses to
        # an empty path at z and the final clause concludes false
        p = parse_problem("(A (= a z) (= z b) (not (= a b))) (B (= c z))")
        result = interpolate(p)
        assert result.refuted_side is Side.A
        assert frozenset(result.interpolant.clauses) == expected_clauses(p, "(and false)")
        assert check_interpolant(p, result.interpolant).accepted

    def test_whole_path_as_core_adds_negated_summary(self):
        # one-rung ladder: the disequality lands in A, the path is pure B
        p = parse_problem(
            "(A (= u0 v0) (not (= u1 v1)))"
            " (B (= (h u0) u1) (= (h v0) v1))"
        )
        result = interpolate(p)
        assert result.refuted_side is Side.A
        assert frozenset(result.interpolant.clauses) == expected_clauses(
            p, "(and (= u0 v0) (not (= u1 v1)))"
        )
        assert check_interpolant(p, result.interpolant).accepted


class TestInterpolatePipeline:
    def test_single_congruence_horn(self):
        p = load_problem("horn_min.euf")
        result = interpolate(p)
        assert frozenset(result.interpolant.clauses) == expected_clauses(
            p, "(and (=> (and (= u0 v0)) (= u1 v1)))"
        )

    def test_split_summary_uses_fresh_shared_product(self):
        p = load_problem("split_new_vertex.euf")
        result = interpolate(p)
        assert frozenset(result.interpolant.clauses) == expected_clauses(
            p, "(and (= z3 (* z1 z2)))"
        )
        assert len(result.repair_vertices) == 1

    def test_wide_class_premise_chain_needs_no_recursion(self):
        # A: x{i+1} = (f x{i}) shuffled; B: x0 = x1, x0 != x3000.  Congruence
        # grows one class whose premise sets nest 3000 levels deep.
        n = 3000
        rng = random.Random(n)
        a_lits = [
            f"(= x{i + 1} (f x{i}))" if rng.random() < 0.5 else f"(= (f x{i}) x{i + 1})"
            for i in range(n)
        ]
        rng.shuffle(a_lits)
        p = parse_problem(
            "(A " + " ".join(a_lits) + f") (B (= x0 x1) (not (= x0 x{n})))"
        )
        result = interpolate(p)
        assert frozenset(result.interpolant.clauses) == expected_clauses(
            p, f"(and (=> (and (= x0 x1)) (= x1 x{n})))"
        )

    def test_satisfiable_instance_raises_with_witness(self):
        p = parse_problem("(A (= a b)) (B (not (= c d)))")
        with pytest.raises(NotUnsatisfiableError) as err:
            interpolate(p)
        blocks = {frozenset(t.head for t in block) for block in err.value.partition}
        assert frozenset(("a", "b")) in blocks
        assert frozenset(("c",)) in blocks and frozenset(("d",)) in blocks

    def test_degenerate_disequality_in_a(self):
        p = parse_problem("(A (not (= a a))) (B (= b c))")
        result = interpolate(p)
        assert frozenset(result.interpolant.clauses) == expected_clauses(p, "(and false)")
        assert check_interpolant(p, result.interpolant).accepted

    def test_degenerate_disequality_in_b(self):
        p = parse_problem("(A (= b c)) (B (not (= a a)))")
        result = interpolate(p)
        assert result.interpolant.is_true
        assert check_interpolant(p, result.interpolant).accepted

    def test_interpolant_atoms_are_shared(self):
        for i in range(30):
            inst = generate("split", 6 + i, seed=i)
            p = parse_problem(inst.text)
            result = interpolate(p)
            for atom in result.interpolant.atoms():
                for term in (atom.lhs, atom.rhs):
                    assert p.symbols.colorability(term) == Colorability.AB

    def test_premise_summaries_entailed(self):
        # summaries of the B-premises, together with A, entail the path
        # summary; dually for A-premises with B
        rng = random.Random(31)
        checked = 0
        for i in range(12):
            inst = generate("ladder", 3 + i, seed=200 + i)
            p = parse_problem(inst.text)
            colored, refuted, _, _ = build_colored_graph(p)
            ps = PremiseSets(colored)
            g = colored.graph
            for _ in range(6):
                u = rng.choice(g.vertices)
                v = rng.choice([t for t in g.vertices if g.connected(t, u)])
                path = g.path(u, v)
                if path.is_empty:
                    continue
                summary = Literal.make(u, v)
                b_sum = [ps.summary(k) for k in ps.b_premises(path)]
                a_sum = [ps.summary(k) for k in ps.a_premises(path)]
                assert euf_entails(list(p.a_literals) + b_sum, summary)
                assert euf_entails(list(p.b_literals) + a_sum, summary)
                checked += 1
        assert checked >= 30


class TestHornNormalization:
    def test_reflexive_premises_dropped(self):
        p = load_problem("horn_min.euf")
        t = p.table.make
        a_eq = Literal.make(t("u0"), t("u0"))
        real = Literal.make(t("u0"), t("v0"))
        concl = Literal.make(t("u1"), t("v1"))
        clause = HornClause.make([a_eq, real, real], concl)
        assert clause.premises == (real,)

    def test_trivially_true_clauses_collapse(self):
        p = load_problem("horn_min.euf")
        t = p.table.make
        real = Literal.make(t("u0"), t("v0"))
        assert HornClause.make([real], real) is None
        assert HornClause.make([], Literal.make(t("u0"), t("u0"))) is None

    def test_conjunction_deduplicates(self):
        p = load_problem("horn_min.euf")
        t = p.table.make
        c = HornClause.make([], Literal.make(t("u0"), t("v0")))
        conj = HornConjunction.from_clauses([c, c, None])
        assert len(conj.clauses) == 1

    def test_format_parse_round_trip(self):
        for name in ("ladder2.euf", "chain_a_diseq.euf", "split_new_vertex.euf"):
            p = load_problem(name)
            result = interpolate(p)
            text = format_conjunction(result.interpolant)
            back = parse_conjunction(text, p.table, p.symbols)
            assert frozenset(back.clauses) == frozenset(result.interpolant.clauses)
