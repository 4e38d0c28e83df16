from __future__ import annotations

import importlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from eufinterp.coloring import Strategy
from eufinterp.congruence import CongruenceGraph
from eufinterp.core import Colorability, Literal, Side, parse_problem
from eufinterp.generate import generate
from eufinterp.interpolate import (
    HornClause,
    HornConjunction,
    NotUnsatisfiableError,
    PremiseSets,
    SharedSignatureError,
    _sigmas,
    build_colored_graph,
    format_conjunction,
    interpolate,
    parse_conjunction,
    path_interpolant,
    refutation_interpolant,
)
from eufinterp.game import unfold_refutation
from eufinterp.verify import check_interpolant, euf_entails

from conftest import (
    HORN_MIN,
    cumulative_paths,
    expected_clauses,
    extraction_outcome,
    justification,
    load_problem,
    reference_factors,
    summary,
)

# The package exports the function ``interpolate`` under the module's name.
interpolate_module = importlib.import_module("eufinterp.interpolate")


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
    key = path.key
    hit = memo.get(key)
    if hit is not None:
        return hit
    if path.is_empty:
        return frozenset()
    out: set[HornClause] = set()
    factors = reference_factors(ps.colored, path)
    if len(factors) >= 2:
        for factor in factors:
            out |= recursive_path_interpolant(ps, factor.path, memo)
    elif factors[0].side is Side.B:
        for edge in path.edges:
            if edge.is_derived:
                for p, q in edge.parents:
                    if p is not q:
                        sub = ps.colored.graph.path(p, q)
                        out |= recursive_path_interpolant(ps, sub, memo)
    else:
        clause = justification(ps, path)
        if clause is not None:
            out.add(clause)
        for sub in ps.premises(path, Side.B).values():
            out |= recursive_path_interpolant(ps, sub, memo)
    result = frozenset(out)
    memo[key] = result
    return result


def _setup(name, strategy=Strategy.GREEDY):
    p = load_problem(name)
    colored, refuted, side, added = build_colored_graph(p, strategy)
    return p, colored, PremiseSets(colored)


def _pairs(paths):
    out = set()
    for path in paths:
        lit = summary(path)
        out.add((lit.lhs.head, lit.rhs.head))
    return out


class TestPremiseSets:
    def test_b_premises_worked_values(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path_z7z8 = colored.graph.path(t("z7"), t("z8"))
        assert _pairs(ps.premises(path_z7z8, Side.B).values()) == {("z5", "z6")}
        path_z3z4 = colored.graph.path(t("z3"), t("z4"))
        assert _pairs(ps.premises(path_z3z4, Side.B).values()) == {("z1", "z2")}

    def test_b_premises_of_a_b_path_is_itself(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path = colored.graph.path(t("z1"), t("z2"))  # single basic B edge
        (only,) = ps.premises(path, Side.B).values()
        assert only is path

    def test_a_premises_of_an_a_path_is_itself(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path = colored.graph.path(t("z3"), t("z4"))
        (only,) = ps.premises(path, Side.A).values()
        assert only is path

    def test_a_premises_worked_value(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        path = colored.graph.path(t("y1"), t("y2"))
        assert _pairs(ps.premises(path, Side.A).values()) == {("z7", "z8")}

    def test_a_premises_endpoints_shared_for_b_colorable_paths(self):
        rng = random.Random(13)
        for i in range(30):
            inst = generate("ladder", 2 + i % 8, seed=i)
            p = parse_problem(inst.text)
            colored, refuted, side, _ = build_colored_graph(p)
            ps = PremiseSets(colored)
            path = colored.graph.path(refuted.lhs, refuted.rhs)
            ends = (path.start, path.end)
            if not all(
                p.symbols.colorability(e) & Colorability.B for e in ends
            ):
                continue
            for sub in ps.premises(path, Side.A).values():
                for v in (sub.start, sub.end):
                    assert p.symbols.colorability(v) == Colorability.AB

    def test_premise_monotonicity(self):
        for i in range(25):
            inst = generate("ladder", 2 + i % 10, seed=50 + i)
            p = parse_problem(inst.text)
            colored, refuted, _, _ = build_colored_graph(p)
            ps = PremiseSets(colored)
            path = colored.graph.path(refuted.lhs, refuted.rhs)
            for sub in cumulative_paths(ps, path):
                outer = {sigma.key for sigma in ps.premises(sub, Side.A).values()}
                for inner in ps.premises(sub, Side.A).values():
                    assert {sigma.key for sigma in ps.premises(inner, Side.A).values()} <= outer


class TestJustification:
    """Worked justifications, as the clauses the library assembles from keys."""

    def test_worked_values(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        conj = path_interpolant(ps, colored.graph.path(t("z7"), t("z8")))
        assert expected_clauses(p, "(=> (and (= z5 z6)) (= z7 z8))") <= frozenset(
            conj.clauses
        )
        conj2 = path_interpolant(ps, colored.graph.path(t("z3"), t("z4")))
        assert frozenset(conj2.clauses) == expected_clauses(
            p, "(=> (and (= z1 z2)) (= z3 z4))"
        )

    def test_unit_clause_when_no_b_premises(self):
        p, colored, ps = _setup("chain_one_afactor.euf")
        t = p.table.make
        (j,) = path_interpolant(ps, colored.graph.path(t("z1"), t("z4"))).clauses
        assert j.premises == ()
        assert frozenset([j]) == expected_clauses(p, "(= z1 z4)")


class TestPathInterpolant:
    def test_two_rung_ladder_value(self):
        p, colored, ps = _setup("ladder2.euf")
        t = p.table.make
        conj = path_interpolant(ps, colored.graph.path(t("y1"), t("y2")))
        assert frozenset(conj.clauses) == expected_clauses(
            p,
            "(and (=> (and (= z1 z2)) (= z3 z4)) (=> (and (= z5 z6)) (= z7 z8)))",
        )

    def test_alternate_coloring_value(self):
        p, colored, ps = _setup("ladder2.euf", Strategy.ALL_A)
        t = p.table.make
        conj = path_interpolant(ps, colored.graph.path(t("y1"), t("y2")))
        assert frozenset(conj.clauses) == expected_clauses(
            p,
            "(and (=> (and (= z5 (f z3)) (= z6 (f z4)) (= z1 z2)) (= z7 z8)))",
        )

    def test_pure_b_path_gives_true(self):
        p = parse_problem("(A) (B (= a b) (= b c) (not (= a c)))")
        colored, refuted, side, _ = build_colored_graph(p)
        ps = PremiseSets(colored)
        conj = path_interpolant(ps, colored.graph.path(refuted.lhs, refuted.rhs))
        assert conj.is_true

    def test_closed_form_matches_recursion(self):
        for fam, sizes in (("chain", 31), ("ladder", 9), ("split", 17)):
            for i in range(40):
                inst = generate(fam, 4 + i % sizes if fam != "chain" else 5 + i % sizes, seed=900 + i)
                p = parse_problem(inst.text)
                colored, refuted, side, _ = build_colored_graph(p)
                ps = PremiseSets(colored)
                path = colored.graph.path(refuted.lhs, refuted.rhs)
                for sub in (path, *cumulative_paths(ps, path)):
                    assert frozenset(path_interpolant(ps, sub).clauses) == \
                        recursive_path_interpolant(ps, sub)


class TestRefutationInterpolant:
    def test_chain_with_a_side_disequality(self):
        p, colored, ps = _setup("chain_a_diseq.euf")
        t = p.table.make
        x3, z4 = t("x3"), t("z4")
        conj = refutation_interpolant(ps, colored.graph.path(x3, z4))
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
                goal = Literal.make(u, v)
                b_sum = [summary(sub) for sub in ps.premises(path, Side.B).values()]
                a_sum = [summary(sub) for sub in ps.premises(path, Side.A).values()]
                assert euf_entails(list(p.a_literals) + b_sum, goal)
                assert euf_entails(list(p.b_literals) + a_sum, goal)
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

    def test_reflexive_disequality_conclusion_is_false(self):
        p = load_problem("horn_min.euf")
        t = p.table.make
        real = Literal.make(t("u0"), t("v0"))
        clause = HornClause.make([real], Literal.make(t("u1"), t("u1"), equal=False))
        assert clause == HornClause((real,), None)

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

def wide_class_text(n: int, seed: int) -> str:
    """One class grown by congruence: A: x{i+1} = (f x{i}), B: x0 = x1, x0 != x{n}."""
    rng = random.Random(seed)
    a_lits = [
        f"(= x{i + 1} (f x{i}))" if rng.random() < 0.5 else f"(= (f x{i}) x{i + 1})"
        for i in range(n)
    ]
    rng.shuffle(a_lits)
    return "(A " + " ".join(a_lits) + f") (B (= x0 x1) (not (= x0 x{n})))"


def crossing_text(k: int, seed: int) -> str:
    """k congruences (g a{i}) ~ (g b{i}) across the sides, each split by repair."""
    rng = random.Random(seed)
    a_lits, b_lits = [], []
    for i in range(k):
        a_lits += [f"(= a{i} z{i})", f"(= (g a{i}) t{i})"]
        b_lits += [f"(= z{i} b{i})", f"(= (g b{i}) t{i + 1})"]
    rng.shuffle(a_lits)
    rng.shuffle(b_lits)
    return f"(A {' '.join(a_lits)}) (B {' '.join(b_lits)} (not (= t0 t{k})))"


def reference_problems():
    for family in ("chain", "ladder", "split"):
        for i in range(24):
            yield generate(family, 2 + i, seed=900 + i).text
    for i, n in enumerate((2, 5, 20, 60)):
        yield wide_class_text(n, seed=i)
    for i, k in enumerate((1, 3, 10, 25)):
        yield crossing_text(k, seed=i)
    yield "(A (not (= a a))) (B (= b c))"
    yield "(A (= b c)) (B (not (= a a)))"


class TestRunBasedPremiseSets:
    def test_memos_and_interpolants_match_the_factor_reference(self):
        compared = 0
        for text in reference_problems():
            problem = parse_problem(text)
            for strategy in Strategy:
                try:
                    got = extraction_outcome(problem, strategy)
                except NotUnsatisfiableError:
                    continue
                assert got == extraction_outcome(problem, strategy, reference=True), (
                    text,
                    strategy,
                )
                compared += 1
        assert compared >= 200

    def test_extraction_memos_grow_linearly_on_a_long_ladder(self):
        # The interpolant has one atom per rung and one more; the memos hold
        # each rung's premise path once, not a premise set per nested path.
        rungs = 1600
        result = interpolate(parse_problem(generate("ladder", rungs, seed=0).text))
        assert result.atom_count == rungs + 1
        memos = [m for m in vars(result.premises).values() if isinstance(m, dict)]
        assert sum(len(value) for memo in memos for value in memo.values()) <= 2 * rungs + 1

    def test_the_walk_raises_on_a_premise_cycle(self):
        # (0, 1) has the A-premise (2, 3), whose B-premise (4, 5) has the
        # A-premise (6, 7), whose B-premise is (0, 1) again.
        paths = {key: SimpleNamespace(key=key) for key in [(0, 1), (2, 3), (4, 5), (6, 7)]}
        below = {(Side.A, (0, 1)): (2, 3), (Side.B, (2, 3)): (4, 5),
                 (Side.A, (4, 5)): (6, 7), (Side.B, (6, 7)): (0, 1)}

        class Cyclic:
            def premises(self, path, want):
                key = below[want, path.key]
                return {key: paths[key]}

        with pytest.raises(RuntimeError, match=r"^premise recursion revisited \(0, 1\)$"):
            _sigmas(Cyclic(), paths[0, 1], {}, {})
        sigmas: dict = {}
        with pytest.raises(RuntimeError, match=r"^premise recursion revisited \(4, 5\)$"):
            _sigmas(Cyclic(), paths[4, 5], sigmas, {})
        assert list(sigmas) == [(6, 7), (2, 3)]

    def test_each_path_is_factored_once_and_queried_once(self, monkeypatch):
        # Colors are read only to factor a path, so every cached path's edges
        # are read once each.  Path queries are counted from the end of
        # coloring, which asks its own; the class attribute is wrapped, as
        # the benchmark's tracer wraps it.
        class CountingColors(dict):
            def __init__(self, colors):
                super().__init__(colors)
                self.reads = 0

            def __getitem__(self, seq):
                self.reads += 1
                return dict.__getitem__(self, seq)

        real_build = interpolate_module.build_colored_graph
        real_path = CongruenceGraph.path
        built, queries = [], Counter()

        def build(problem, strategy):
            colored, refuted, side, added = real_build(problem, strategy)
            colored.colors = CountingColors(colored.colors)
            queries.clear()
            built.append(colored)
            return colored, refuted, side, added

        def path(graph, u, v):
            queries[id(graph), min(u.id, v.id), max(u.id, v.id)] += 1
            return real_path(graph, u, v)

        def factored_edges(colored) -> int:
            return sum(runs[-1][2] for _, runs in colored._runs.values() if runs)

        monkeypatch.setattr(interpolate_module, "build_colored_graph", build)
        monkeypatch.setattr(CongruenceGraph, "path", path)
        checked = 0
        for text in reference_problems():
            problem = parse_problem(text)
            for strategy in Strategy:
                built.clear()
                try:
                    result = interpolate(problem, strategy)
                except NotUnsatisfiableError:
                    continue
                (colored,) = built
                assert max(queries.values(), default=1) == 1, (text, strategy)
                assert colored.colors.reads == factored_edges(colored), (text, strategy)
                unfold_refutation(colored, result.refuted, result.refuted_side)
                assert colored.colors.reads == factored_edges(colored), (text, strategy)
                checked += bool(queries)
        assert checked >= 200


def test_an_atom_outside_the_shared_signature_is_reported(monkeypatch):
    # Narrow u0 to the A side once the graph is colored, so only the final
    # signature check sees it.
    build = interpolate_module.build_colored_graph

    def narrowed(problem, strategy):
        out = build(problem, strategy)
        problem.symbols.bits[problem.table.make("u0").id] = Colorability.A.value
        return out

    problem = parse_problem(HORN_MIN)
    assert format_conjunction(interpolate(problem).interpolant) == (
        "(and (=> (and (= u0 v0)) (= u1 v1)))"
    )
    monkeypatch.setattr(interpolate_module, "build_colored_graph", narrowed)
    with pytest.raises(SharedSignatureError) as caught:
        interpolate(problem)
    assert str(caught.value) == "atom (= u0 v0) is not expressible on both sides"
