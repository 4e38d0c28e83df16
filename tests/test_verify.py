from __future__ import annotations

import random
import re
import time

import pytest

from eufinterp.congruence import close
from eufinterp.core import (
    Literal,
    SymbolTable,
    TermTable,
    format_literal,
    parse_problem,
    subterm_closure,
)
from eufinterp.generate import generate
from eufinterp.interpolate import (
    HornClause,
    HornConjunction,
    NotUnsatisfiableError,
    interpolate,
    parse_conjunction,
)
from eufinterp.verify import (
    EntailmentReport,
    _Closure,
    _shared_heads,
    check_interpolant,
    euf_entails,
    literal_set_unsat,
    unsat_with_horn,
)

from conftest import all_heads, load_problem, partition, problem_sides, rescan_closure
from test_congruence import random_equalities, random_universe as congruence_universe
from test_core import bench_workload_texts


# Test-only references for the oracle on ``rescan_closure``: every call
# closes its literals' subterms from nothing.


def _terms_of(literals):
    return [t for lit in literals for t in (lit.lhs, lit.rhs)]


def _split(literals):
    """The equalities and the disequalities as term-id pairs."""
    eqs, diseqs = [], []
    for lit in literals:
        (eqs if lit.equal else diseqs).append((lit.lhs.id, lit.rhs.id))
    return eqs, diseqs


def _refuted(classes, diseqs):
    return any(classes[a] == classes[b] for a, b in diseqs)


def reference_literal_set_unsat(literals):
    eqs, diseqs = _split(literals)
    return _refuted(rescan_closure(eqs, subterm_closure(_terms_of(literals))), diseqs)


def reference_euf_entails(literals, phi):
    terms = subterm_closure(_terms_of([*literals, phi]))
    eqs, diseqs = _split(literals)
    pair = (phi.lhs.id, phi.rhs.id)
    if phi.equal:
        classes = rescan_closure(eqs, terms)
        return classes[pair[0]] == classes[pair[1]] or _refuted(classes, diseqs)
    return _refuted(rescan_closure(eqs + [pair], terms), diseqs)


def reference_unsat_with_horn(literals, horn, rounds=None):
    """Forward chaining that recloses the whole universe every round; with
    ``rounds``, the verdict after at most that many rounds of firing."""
    terms = subterm_closure(_terms_of([*literals, *horn.atoms()]))
    eqs, diseqs = _split(literals)
    fired = [False] * len(horn.clauses)
    while True:
        classes = rescan_closure(eqs, terms)
        if _refuted(classes, diseqs):
            return True
        if rounds is not None:
            if rounds == 0:
                return False
            rounds -= 1
        progress = False
        for i, clause in enumerate(horn.clauses):
            premises = [(q.lhs.id, q.rhs.id) for q in clause.premises]
            if fired[i] or not all(classes[a] == classes[b] for a, b in premises):
                continue
            fired[i] = progress = True
            if clause.conclusion is None:
                return True
            c = clause.conclusion
            (eqs if c.equal else diseqs).append((c.lhs.id, c.rhs.id))
        if not progress:
            return False


def reference_check_interpolant(problem, horn):
    """The three conditions, with A closed from nothing for every clause."""
    failures = []
    a_heads, b_heads = problem_sides(problem)
    shared, memo = a_heads & b_heads, {}
    shared_ok = True
    for ci, clause in enumerate(horn.clauses):
        for atom in clause.atoms():
            if not all_heads(atom.lhs, memo) | all_heads(atom.rhs, memo) <= shared:
                shared_ok = False
                failures.append(
                    f"clause {ci}: atom {format_literal(atom)} uses symbols "
                    "not shared by A and B"
                )
    a_ok = True
    for ci, clause in enumerate(horn.clauses):
        context = list(problem.a_literals) + list(clause.premises)
        if clause.conclusion is None:
            holds = reference_literal_set_unsat(context)
        else:
            holds = reference_euf_entails(context, clause.conclusion)
        if not holds:
            a_ok = False
            failures.append(f"clause {ci}: not entailed by A")
    b_ok = reference_unsat_with_horn(list(problem.b_literals), horn)
    if not b_ok:
        failures.append("B stays satisfiable with the formula")
    return EntailmentReport(shared_ok, a_ok, b_ok, failures)


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

    def test_random_conjunctions_match_the_fixpoint_reference(self):
        # Every atom is drawn over a few terms of the universe, so clauses
        # chain: a premise often holds only after another clause has fired,
        # and a clause that waited on it must be woken to decide the verdict.
        rng = random.Random(61)
        chained = 0
        for _ in range(400):
            terms = random_universe(rng, TermTable())
            pool = rng.sample(terms, min(len(terms), 4))

            def atom(equal=True):
                return Literal.make(rng.choice(pool), rng.choice(pool), equal)

            literals = [atom(rng.random() < 0.7) for _ in range(rng.randint(1, 3))]
            horn = HornConjunction.from_clauses(
                HornClause.make(
                    [atom() for _ in range(rng.randint(1, 2))],
                    None if rng.random() < 0.1 else atom(rng.random() < 0.8),
                )
                for _ in range(rng.randint(3, 8))
            )
            verdict = unsat_with_horn(literals, horn)
            assert verdict == reference_unsat_with_horn(literals, horn)
            chained += verdict and not reference_unsat_with_horn(literals, horn, rounds=1)
        assert chained >= 30

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
        for info in p.symbols.info.values():
            info.occurs = 3  # both sides
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

    def test_each_clause_is_checked_against_a_alone(self):
        # Clause 1 holds once clause 0's premise is assumed, but not from A.
        p = load_problem("horn_min.euf")
        horn = parse_conjunction(
            "(and (=> (and (= u0 v0)) (= u1 v1)) (= u1 v1))", p.table, p.symbols
        )
        report = check_interpolant(p, horn)
        assert report == EntailmentReport(True, False, True, ["clause 1: not entailed by A"])
        assert report == reference_check_interpolant(p, horn)

    def test_disequality_premise_joins_the_context(self):
        p = parse_problem("(A (= a b)) (B (not (= a b)))")
        a, b = p.table.make("a"), p.table.make("b")
        horn = HornConjunction((HornClause((Literal.make(a, b, equal=False),), None),))
        report = check_interpolant(p, horn)
        assert report.a_entails_i
        assert report == reference_check_interpolant(p, horn)

    def test_accepts_false_for_self_contradictory_a(self):
        p = parse_problem("(A (= a b) (not (= a b))) (B (= a a))")
        horn = parse_conjunction("(and false)", p.table, p.symbols)
        assert check_interpolant(p, horn).accepted

    def test_atoms_from_another_term_table_are_refused(self):
        # The closure is indexed by the problem table's ids.  In a second
        # table, (= x y) gets the ids of a and c, and (= a b) gets c's id and
        # one past the problem's table: both would be judged as other atoms.
        p = parse_problem("(A (= a c) (= c b)) (B (not (= a b)))")
        other = TermTable()
        symbols = SymbolTable(other)
        for text in ("(= x y)", "(= a b)"):
            horn = parse_conjunction(text, other, symbols)
            message = f"atom {text} uses terms not in problem.table"
            with pytest.raises(ValueError, match=re.escape(message)):
                check_interpolant(p, horn)
        horn = parse_conjunction("(= a b)", p.table, p.symbols)
        assert check_interpolant(p, horn) == EntailmentReport(True, True, True, [])


def side_term(rng, side, depth=2):
    """A term over c0..c2 and unary g, shared, and ``side``'s private a0,
    a1 and fa (A) or b0, b1 and fb (B)."""
    own = {"A": ("a0", "a1", "fa"), "B": ("b0", "b1", "fb")}[side]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(("c0", "c1", "c2") + own[:2])
    return f"({rng.choice(('g', own[2]))} {side_term(rng, side, depth - 1)})"


def random_problem(rng):
    """Random literals on each side; half the draws also plant (g a) ~ (g b)
    joined at a shared constant, a congruence that repair splits at (g c)."""
    lits = {"A": [], "B": []}
    if rng.random() < 0.5:
        a, b = rng.choice(("a0", "a1")), rng.choice(("b0", "b1"))
        c, d, e = rng.sample(("c0", "c1", "c2"), 3)
        lits["A"] += [f"(= {a} {c})", f"(= (g {a}) {d})"]
        lits["B"] += [f"(= {c} {b})", f"(= (g {b}) {e})", f"(not (= {d} {e}))"]
    for side, other in (("A", "B"), ("B", "A")):
        for _ in range(rng.randint(1, 4)):
            s, t = side_term(rng, side), side_term(rng, side)
            drawn = [f"(= {s} {t})", f"(= {t} {s})"]
            if rng.random() < 0.2:
                drawn = [f"(not {lit})" for lit in drawn]
            if not set(drawn) & set(lits[other]):  # no literal on both sides
                lits[side].append(drawn[0])
    return parse_problem(f"(A {' '.join(lits['A'])}) (B {' '.join(lits['B'])})")


class TestSharedSignature:
    def test_one_pass_matches_the_subterm_walk(self):
        # The tables also hold terms below no literal: interpolate's repair
        # vertices, an A-private head made over any term, and a head that no
        # literal has.
        rng = random.Random(67)
        repaired = 0
        for _ in range(200):
            p = random_problem(rng)
            parsed = len(p.table)
            try:
                interpolate(p)
            except NotUnsatisfiableError:
                pass
            repaired += len(p.table) > parsed
            below = rng.choice(p.table.terms)
            p.table.make("fa", (below,))
            p.table.make("q", (below,))
            a_heads, b_heads = problem_sides(p)
            assert _shared_heads(p) == a_heads & b_heads
        assert repaired >= 40

    def test_a_symbol_only_below_no_literal_is_not_shared(self):
        p = parse_problem("(A (= (fa c) a)) (B (not (= b c)))")
        c = p.table.make("c")
        p.table.make("fa", (p.table.make("b"),))
        qc = p.table.make("q", (c,))
        assert _shared_heads(p) == {"c"}
        horn = HornConjunction.from_clauses([HornClause.make([], Literal.make(c, qc))])
        report = check_interpolant(p, horn)
        assert not report.shared_signature_ok
        assert report.failures[0] == "clause 0: atom (= c (q c)) uses symbols not shared by A and B"


def random_universe(rng, table):
    """A subterm-closed term list over c_i, unary f and g, and binary h."""
    pool = [table.make(f"c{i}") for i in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 14)):
        head, arity = rng.choice((("f", 1), ("g", 1), ("h", 2)))
        pool.append(table.make(head, [rng.choice(pool) for _ in range(arity)]))
    return subterm_closure(pool)


def random_pairs(rng, size, count):
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]


def snapshot(closure):
    """Every field the closure keeps, copied: classes, rings and sizes, the
    use lists and applications, and the signature table."""
    return (
        list(closure.rep),
        list(closure.ring),
        list(closure.count),
        [None if u is None else list(u) for u in closure.uses],
        list(closure.apps),
        list(closure.signatures.items()),
    )


def classes(closure, terms):
    return partition({t.id: closure.rep[t.id] for t in terms})


# Hand-built partitions: terms as (head, argument indices), equalities as
# index pairs, and the blocks of indices; in a fresh table, index is id.
HAND_BUILT = {
    "congruence_pair": ([("a",), ("b",), ("f", 0), ("f", 1)], [(0, 1)], [{0, 1}, {2, 3}]),
    "empty_equalities_discrete": ([(f"c{i}",) for i in range(5)], [], [{i} for i in range(5)]),
    "chained_equalities_single_block": (
        [(f"c{i}",) for i in range(6)], [(i, i + 1) for i in range(5)], [set(range(6))]
    ),
    "nested_congruence_fixpoint": (
        [("a",), ("b",), ("f", 0), ("f", 1), ("f", 2), ("f", 3)], [(0, 1)], [{0, 1}, {2, 3}, {4, 5}]
    ),
}


class TestIncrementalClosure:
    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_partition(self, name):
        # The pipeline's closure, the oracle's and the reference agree on it.
        specs, pairs, blocks = HAND_BUILT[name]
        table, terms = TermTable(), []
        for head, *args in specs:
            terms.append(table.make(head, [terms[i] for i in args]))
        eqs = [Literal.make(terms[a], terms[b]) for a, b in pairs]
        closure = _Closure(terms)
        closure.add(eqs)
        graph = close([(lit, None) for lit in eqs], terms)
        want = set(map(frozenset, blocks))
        assert {frozenset(t.id for t in block) for block in graph.components()} == want
        assert classes(closure, terms) == want
        assert partition(rescan_closure(pairs, terms)) == want

    def test_partition_matches_the_rescan_reference(self):
        # Merged pair by pair over f, g and binary h.
        rng = random.Random(41)
        for _ in range(300):
            terms = random_universe(rng, TermTable())
            eqs = random_pairs(rng, len(terms), rng.randint(0, 8))
            closure = _Closure(terms)
            for a, b in eqs:
                closure.merge(a, b)
            assert classes(closure, terms) == partition(rescan_closure(eqs, terms))

    def test_undo_restores_the_exact_state(self):
        rng = random.Random(43)
        for _ in range(300):
            terms = random_universe(rng, TermTable())
            size = len(terms)
            eqs = random_pairs(rng, size, rng.randint(0, 5))
            closure = _Closure(terms)
            for a, b in eqs:
                closure.merge(a, b)
            states, marks, merged = [], [], list(eqs)
            for _ in range(2):  # nested marks, undone innermost first
                states.append(snapshot(closure))
                marks.append(closure.mark())
                extra = random_pairs(rng, size, rng.randint(1, 4))
                for a, b in extra:
                    closure.merge(a, b)
                merged += extra
                assert classes(closure, terms) == partition(rescan_closure(merged, terms))
            while marks:
                closure.undo(marks.pop())
                assert snapshot(closure) == states.pop()

    def test_a_universe_with_sparse_ids(self):
        # The lists are indexed by term id, so a universe that leaves table
        # terms out has ids that no term of it names.
        rng = random.Random(53)
        sparse = 0
        for _ in range(300):
            table = TermTable()
            everything = random_universe(rng, table)
            roots = [t for t in everything if rng.random() < 0.4] or everything[-1:]
            terms = subterm_closure(roots)
            ids = [t.id for t in terms]
            sparse += ids != list(range(len(table)))
            closure = _Closure(terms)
            built, mark = snapshot(closure), closure.mark()
            eqs = [(ids[a], ids[b]) for a, b in random_pairs(rng, len(terms), rng.randint(1, 6))]
            for a, b in eqs:
                closure.merge(a, b)
            assert classes(closure, terms) == partition(rescan_closure(eqs, terms))
            closure.undo(mark)
            assert snapshot(closure) == built
        assert sparse >= 150


class TestBruteForceClosure:
    def test_incremental_closure_agrees(self):
        # Added as literals over test_congruence's universes of f and binary
        # g, against the same from-scratch oracle.
        rng = random.Random(5)
        for _ in range(300):
            _, terms = congruence_universe(rng)
            eqs = [lit for lit, _ in random_equalities(rng, terms, rng.randint(0, 10))]
            closure = _Closure(terms)
            closure.add(eqs)
            assert classes(closure, terms) == partition(rescan_closure(_split(eqs)[0], terms))


def mutants(horn):
    """Each clause dropped in turn, then each conclusion negated in turn."""
    clauses = horn.clauses
    for i in range(len(clauses)):
        yield HornConjunction(clauses[:i] + clauses[i + 1 :])
    for i, clause in enumerate(clauses):
        if clause.conclusion is not None:
            flipped = HornClause(clause.premises, clause.conclusion.negated())
            yield HornConjunction(clauses[:i] + (flipped,) + clauses[i + 1 :])


class TestAgainstTheFromScratchOracle:
    def test_reports_equal_on_mutated_interpolants(self):
        seen = {"accepted": 0, "rejected": 0}
        for family, sizes in (("chain", (8, 21)), ("ladder", (3, 8)), ("split", (6, 12))):
            for size in sizes:
                for seed in range(3):
                    p = parse_problem(generate(family, size, seed).text)
                    horn = interpolate(p).interpolant
                    for variant in [horn, *mutants(horn)]:
                        report = check_interpolant(p, variant)
                        assert report == reference_check_interpolant(p, variant)
                        seen["accepted" if report.accepted else "rejected"] += 1
        assert seen["accepted"] >= 18 and seen["rejected"] >= 50

    def test_reports_equal_on_the_bench_workloads(self):
        # Crossing's atoms are repair vertices, made after parsing; the
        # mutants are spread over both kinds, about six per interpolant.
        seen = {"accepted": 0, "rejected": 0}
        for text in bench_workload_texts(1):
            p = parse_problem(text)
            horn = interpolate(p).interpolant
            spread = list(mutants(horn))
            for variant in [horn, *spread[:: max(1, len(spread) // 6)]]:
                report = check_interpolant(p, variant)
                assert report == reference_check_interpolant(p, variant)
                seen["accepted" if report.accepted else "rejected"] += 1
        assert seen["accepted"] >= 189 and seen["rejected"] >= 900

    def test_literal_set_queries_match(self):
        rng = random.Random(47)
        for _ in range(300):
            table = TermTable()
            terms = random_universe(rng, table)
            lits = [
                Literal.make(rng.choice(terms), rng.choice(terms), rng.random() < 0.8)
                for _ in range(rng.randint(0, 7))
            ]
            goal = Literal.make(rng.choice(terms), rng.choice(terms), rng.random() < 0.5)
            assert literal_set_unsat(lits) == reference_literal_set_unsat(lits)
            assert euf_entails(lits, goal) == reference_euf_entails(lits, goal)


@pytest.mark.parametrize("family, size", [("ladder", 800), ("chain", 6400)])
def test_large_instances_verify_quickly(family, size):
    p = parse_problem(generate(family, size, seed=0).text)
    horn = interpolate(p).interpolant
    start = time.perf_counter()
    report = check_interpolant(p, horn)
    elapsed = time.perf_counter() - start
    print(f"[verify] {family}-{size}: {elapsed:.3f} s")
    assert report.accepted and elapsed < 1.5
