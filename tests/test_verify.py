from __future__ import annotations

import random
import re
import time

import pytest

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
    interpolate,
    parse_conjunction,
)
from eufinterp.verify import (
    EntailmentReport,
    _Closure,
    check_interpolant,
    euf_entails,
    literal_set_unsat,
    unsat_with_horn,
)

from conftest import SizeCapError, brute_force_closure, load_problem
from test_core import bench_workload_texts


# Test-only reference: a from-scratch oracle.  Every call builds a fresh
# dense universe and closes it by rescanning all applications until nothing
# changes; the incremental closure in ``verify`` must agree with it.


class RescanUniverse:
    """Dense-index view of a subterm-closed term list."""

    def __init__(self, terms):
        self.terms = sorted(terms, key=lambda t: t.id)
        self.index = {t.id: i for i, t in enumerate(self.terms)}
        self.apps = [
            (t.head, tuple(self.index[a.id] for a in t.args), i)
            for i, t in enumerate(self.terms)
            if t.args
        ]

    def pair(self, lit):
        return (self.index[lit.lhs.id], self.index[lit.rhs.id])

    def split(self, literals):
        eqs, diseqs = [], []
        for lit in literals:
            (eqs if lit.equal else diseqs).append(self.pair(lit))
        return eqs, diseqs

    def closure(self, eq_pairs):
        """Representative array after closing under congruence by rescans."""
        parent = list(range(len(self.terms)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx == ry:
                return False
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            return True

        for a, b in eq_pairs:
            union(a, b)
        while True:
            changed = False
            table = {}
            for head, argidx, idx in self.apps:
                key = (head,) + tuple(find(a) for a in argidx)
                other = table.get(key)
                if other is None:
                    table[key] = idx
                elif union(idx, other):
                    changed = True
            if not changed:
                break
        for x in range(len(parent)):
            find(x)
        return parent


def _terms_of(literals):
    return [t for lit in literals for t in (lit.lhs, lit.rhs)]


def _refuted(parent, diseqs):
    return any(parent[a] == parent[b] for a, b in diseqs)


def reference_literal_set_unsat(literals):
    universe = RescanUniverse(subterm_closure(_terms_of(literals)))
    eqs, diseqs = universe.split(literals)
    return _refuted(universe.closure(eqs), diseqs)


def reference_euf_entails(literals, phi):
    universe = RescanUniverse(subterm_closure(_terms_of(list(literals) + [phi])))
    eqs, diseqs = universe.split(literals)
    if phi.equal:
        parent = universe.closure(eqs)
        a, b = universe.pair(phi)
        return parent[a] == parent[b] or _refuted(parent, diseqs)
    return _refuted(universe.closure(eqs + [universe.pair(phi)]), diseqs)


def reference_unsat_with_horn(literals, horn):
    """Forward chaining that recloses the whole universe every round."""
    universe = RescanUniverse(subterm_closure(_terms_of(list(literals) + horn.atoms())))
    eqs, diseqs = universe.split(literals)
    fired = [False] * len(horn.clauses)
    while True:
        parent = universe.closure(eqs)
        if _refuted(parent, diseqs):
            return True
        progress = False
        for i, clause in enumerate(horn.clauses):
            premises = [universe.pair(p) for p in clause.premises]
            if fired[i] or not all(parent[a] == parent[b] for a, b in premises):
                continue
            fired[i] = progress = True
            if clause.conclusion is None:
                return True
            (eqs if clause.conclusion.equal else diseqs).append(
                universe.pair(clause.conclusion)
            )
        if not progress:
            return False


def reference_check_interpolant(problem, horn):
    """The three conditions, with A closed from nothing for every clause."""
    failures = []

    def heads(terms):
        return {t.head for t in subterm_closure(terms)}

    shared = heads(_terms_of(problem.a_literals)) & heads(_terms_of(problem.b_literals))
    shared_ok = True
    for ci, clause in enumerate(horn.clauses):
        for atom in clause.atoms():
            if not heads((atom.lhs, atom.rhs)) <= shared:
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

    def test_incremental_closure_agrees(self):
        from test_congruence import random_equalities, random_universe

        rng = random.Random(5)
        for _ in range(300):
            _, terms = random_universe(rng)
            eqs = [lit for lit, _ in random_equalities(rng, terms, rng.randint(0, 10))]
            closure = _Closure(terms)
            closure.add(eqs)
            blocks: dict = {}
            for t in terms:
                blocks.setdefault(closure.rep[t.id], []).append(t)
            assert _ids(blocks.values()) == _ids(brute_force_closure(eqs, terms))


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
        for info in p.symbols.info.values():
            info.occurs_in_a = info.occurs_in_b = True
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


def random_universe(rng, table):
    """A subterm-closed term list over c_i, unary f and g, and binary h."""
    pool = [table.make(f"c{i}") for i in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 14)):
        head, arity = rng.choice((("f", 1), ("g", 1), ("h", 2)))
        pool.append(table.make(head, [rng.choice(pool) for _ in range(arity)]))
    return subterm_closure(pool)


def random_pairs(rng, size, count):
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]


def partition(rep):
    blocks = {}
    for i, r in enumerate(rep):
        blocks.setdefault(r, set()).add(i)
    return {frozenset(b) for b in blocks.values()}


def snapshot(closure):
    return (
        list(closure.rep),
        [list(m) for m in closure.members],
        [list(u) for u in closure.uses],
        list(closure.signatures.items()),
    )


class TestIncrementalClosure:
    def test_partition_matches_the_rescan_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            terms = random_universe(rng, TermTable())
            eqs = random_pairs(rng, len(terms), rng.randint(0, 8))
            closure = _Closure(terms)
            for a, b in eqs:
                closure.merge(a, b)
            assert partition(closure.rep) == partition(RescanUniverse(terms).closure(eqs))

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
                reference = RescanUniverse(terms).closure(merged)
                assert partition(closure.rep) == partition(reference)
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
            eqs = random_pairs(rng, len(terms), rng.randint(1, 6))
            for a, b in eqs:
                closure.merge(ids[a], ids[b])
            reference = RescanUniverse(terms).closure(eqs)
            assert partition([closure.rep[i] for i in ids]) == partition(reference)
            closure.undo(mark)
            assert snapshot(closure) == built
        assert sparse >= 150


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
