from __future__ import annotations

import random

import pytest

from eufinterp.core import Literal, Side, TermTable, parse_problem
from eufinterp.generate import generate
from eufinterp.interpolate import (
    HornClause,
    HornConjunction,
    interpolate,
    parse_conjunction,
)
from eufinterp.verify import (
    SizeCapError,
    brute_force_closure,
    check_interpolant,
    euf_entails,
    literal_set_unsat,
    unsat_with_horn,
)

from conftest import load_problem


def _ids(blocks):
    return {frozenset(t.id for t in block) for block in blocks}


class TestBruteForceClosure:
    def test_congruence_pair(self):
        table = TermTable()
        a, b = table.make("a"), table.make("b")
        fa, fb = table.make("f", (a,)), table.make("f", (b,))
        blocks = brute_force_closure([Literal.make(a, b)], [a, b, fa, fb])
        assert _ids(blocks) == {frozenset({a.id, b.id}), frozenset({fa.id, fb.id})}

    def test_empty_equalities_discrete(self):
        table = TermTable()
        consts = [table.make(f"c{i}") for i in range(5)]
        blocks = brute_force_closure([], consts)
        assert _ids(blocks) == {frozenset({t.id}) for t in consts}

    def test_chained_equalities_single_block(self):
        table = TermTable()
        consts = [table.make(f"c{i}") for i in range(6)]
        eqs = [Literal.make(consts[i], consts[i + 1]) for i in range(5)]
        blocks = brute_force_closure(eqs, consts)
        assert _ids(blocks) == {frozenset(t.id for t in consts)}

    def test_size_cap(self):
        table = TermTable()
        consts = [table.make(f"c{i}") for i in range(17)]
        with pytest.raises(SizeCapError):
            brute_force_closure([], consts)

    def test_nested_congruence_fixpoint(self):
        table = TermTable()
        a, b = table.make("a"), table.make("b")
        fa = table.make("f", (a,))
        fb = table.make("f", (b,))
        ffa = table.make("f", (fa,))
        ffb = table.make("f", (fb,))
        blocks = brute_force_closure(
            [Literal.make(a, b)], [a, b, fa, fb, ffa, ffb]
        )
        assert _ids(blocks) == {
            frozenset({a.id, b.id}),
            frozenset({fa.id, fb.id}),
            frozenset({ffa.id, ffb.id}),
        }


class TestEntailment:
    def test_transitivity(self):
        table = TermTable()
        a, b, c = table.make("a"), table.make("b"), table.make("c")
        lits = [Literal.make(a, b), Literal.make(b, c)]
        assert euf_entails(lits, Literal.make(a, c))

    def test_conditional_congruence(self):
        p = load_problem("horn_min.euf")
        t = p.table.make
        context = list(p.a_literals) + [Literal.make(t("u0"), t("v0"))]
        assert euf_entails(context, Literal.make(t("u1"), t("v1")))
        assert not euf_entails(list(p.a_literals), Literal.make(t("u1"), t("v1")))

    def test_unrelated_terms_not_entailed(self):
        table = TermTable()
        a, b, c, d = (table.make(x) for x in "abcd")
        assert not euf_entails([Literal.make(a, b)], Literal.make(c, d))

    def test_disequality_entailment(self):
        table = TermTable()
        a, b, c = table.make("a"), table.make("b"), table.make("c")
        lits = [Literal.make(a, b), Literal.make(a, c, equal=False)]
        assert euf_entails(lits, Literal.make(b, c, equal=False))

    def test_unsat_context_entails_anything(self):
        table = TermTable()
        a, b, c, d = (table.make(x) for x in "abcd")
        lits = [Literal.make(a, b), Literal.make(a, b, equal=False)]
        assert literal_set_unsat(lits)
        assert euf_entails(lits, Literal.make(c, d))

    def test_deduction_matches_direct_refutation(self):
        # L entails e exactly when L plus the negation of e is unsatisfiable
        rng = random.Random(17)
        table = TermTable()
        consts = [table.make(f"c{i}") for i in range(5)]
        apps = [table.make("f", (c,)) for c in consts]
        pool = consts + apps
        for _ in range(120):
            lits = []
            for _ in range(rng.randint(1, 6)):
                s, t = rng.choice(pool), rng.choice(pool)
                lits.append(Literal.make(s, t, equal=rng.random() < 0.8))
            goal = Literal.make(
                rng.choice(pool), rng.choice(pool), equal=rng.random() < 0.5
            )
            direct = literal_set_unsat(lits + [goal.negated()])
            assert euf_entails(lits, goal) == direct


class TestHornSaturation:
    def test_ladder_refutes_its_interpolant_context(self):
        p = load_problem("ladder2.euf")
        result = interpolate(p)
        assert unsat_with_horn(list(p.b_literals), result.interpolant)

    def test_empty_inputs_stay_satisfiable(self):
        assert not unsat_with_horn([], HornConjunction(()))

    def test_direct_clash(self):
        table = TermTable()
        a, b = table.make("a"), table.make("b")
        horn = HornConjunction.from_clauses([HornClause.make([], Literal.make(a, b))])
        assert unsat_with_horn([Literal.make(a, b, equal=False)], horn)

    def test_false_conclusion_fires(self):
        table = TermTable()
        a, b = table.make("a"), table.make("b")
        horn = HornConjunction.from_clauses(
            [HornClause.make([Literal.make(a, b)], None)]
        )
        assert unsat_with_horn([Literal.make(a, b)], horn)
        assert not unsat_with_horn([], horn)

    def test_chained_firing(self):
        table = TermTable()
        a, b, c, d = (table.make(x) for x in "abcd")
        horn = HornConjunction.from_clauses(
            [
                HornClause.make([Literal.make(a, b)], Literal.make(b, c)),
                HornClause.make([Literal.make(a, c)], Literal.make(c, d)),
            ]
        )
        lits = [Literal.make(a, b), Literal.make(a, d, equal=False)]
        assert unsat_with_horn(lits, horn)

    def test_monotone_in_the_clause_set(self):
        rng = random.Random(23)
        for i in range(40):
            inst = generate("ladder", 2 + i % 6, seed=300 + i)
            p = parse_problem(inst.text)
            horn = interpolate(p).interpolant
            full = unsat_with_horn(list(p.b_literals), horn)
            for _ in range(3):
                subset = [c for c in horn.clauses if rng.random() < 0.6]
                partial = unsat_with_horn(
                    list(p.b_literals), HornConjunction(tuple(subset))
                )
                if partial:
                    assert full  # adding clauses never flips true to false


class TestCheckInterpolant:
    def test_accepts_the_ladder_interpolant(self):
        p = load_problem("ladder2.euf")
        horn = parse_conjunction(
            "(and (=> (and (= z1 z2)) (= z3 z4)) (=> (and (= z5 z6)) (= z7 z8)))",
            p.table,
            p.symbols,
        )
        report = check_interpolant(p, horn)
        assert report.accepted and report.failures == []

    def test_rejects_local_symbols(self):
        p = load_problem("ladder2.euf")
        horn = parse_conjunction("(and (= x1 z1))", p.table, p.symbols)
        report = check_interpolant(p, horn)
        assert not report.shared_signature_ok
        assert not report.accepted
        assert any("shared" in f for f in report.failures)

        # Both sides of the atom are local: it is still reported once.
        p = parse_problem("(A (= a1 c) (= a2 c)) (B (= b c) (not (= b c)))")
        horn = parse_conjunction("(= a1 a2)", p.table, p.symbols)
        report = check_interpolant(p, horn)
        assert not report.shared_signature_ok
        assert [f for f in report.failures if "shared" in f] == [
            "clause 0: atom (= a1 a2) uses symbols not shared by A and B"
        ]

    def test_shared_check_ignores_the_symbol_table(self):
        # The oracle reads the shared signature off the literals, so a symbol
        # table that marks every symbol shared does not let an A-local atom in.
        p = parse_problem("(A (= a c1) (= a c2)) (B (not (= c1 c2)))")
        horn = parse_conjunction("(and (= a c1) (= a c2))", p.table, p.symbols)
        for name in p.symbols.info:
            p.symbols.note_occurrence(name, Side.A)
            p.symbols.note_occurrence(name, Side.B)
        report = check_interpolant(p, horn)
        assert report.a_entails_i and report.b_i_unsat
        assert not report.shared_signature_ok
        assert [f for f in report.failures if "shared" in f] == [
            "clause 0: atom (= a c1) uses symbols not shared by A and B",
            "clause 1: atom (= a c2) uses symbols not shared by A and B",
        ]

    def test_rejects_vacuous_formula_when_b_is_satisfiable(self):
        p = load_problem("horn_min.euf")
        report = check_interpolant(p, HornConjunction(()))
        assert report.shared_signature_ok and report.a_entails_i
        assert not report.b_i_unsat
        assert not report.accepted

    def test_rejects_formula_not_entailed_by_a(self):
        p = load_problem("horn_min.euf")
        horn = parse_conjunction("(and (= u0 v0))", p.table, p.symbols)
        report = check_interpolant(p, horn)
        assert not report.a_entails_i

    def test_accepts_false_for_self_contradictory_a(self):
        p = parse_problem("(A (= a b) (not (= a b))) (B (= a a))")
        horn = parse_conjunction("(and false)", p.table, p.symbols)
        assert check_interpolant(p, horn).accepted
