from __future__ import annotations

import random

import pytest

from eufinterp.coloring import (
    ColoringError,
    Strategy,
    choose_splitter,
    color,
    make_colorable,
)
from eufinterp.congruence import close, find_refuted_disequality
from eufinterp.core import (
    Colorability,
    Literal,
    Side,
    edge_colorability,
    format_term,
    parse_problem,
    subterm_closure,
)
from eufinterp.interpolate import build_colored_graph, interpolate, format_conjunction
from eufinterp.generate import generate

from conftest import (
    coloring_outcome,
    expected_clauses,
    graph_record,
    load_problem,
    reference_color,
    reference_factors,
    reference_make_colorable,
)
from test_interpolate import reference_problems


def _closed(p):
    return close(p.equalities(), subterm_closure(p.terms()))


def _partition_ids(graph, vertex_ids):
    blocks = {}
    for tid in vertex_ids:
        blocks.setdefault(graph.find(tid), set()).add(tid)
    return {frozenset(b) for b in blocks.values()}


def test_repair_splits_the_crossing_congruence():
    p = load_problem("split_new_vertex.euf")
    g = _closed(p)
    assert any(
        edge_colorability(e.u, e.v, p.symbols) == Colorability.NONE for e in g.edges
    )
    repaired, added = make_colorable(g, p.symbols, p.table)
    assert [format_term(t) for t in added] == ["(* z1 z2)"]
    assert all(
        edge_colorability(e.u, e.v, p.symbols) != Colorability.NONE
        for e in repaired.edges
    )
    ends = {
        frozenset((format_term(e.u), format_term(e.v)))
        for e in repaired.edges
        if e.is_derived
    }
    assert frozenset(("(* x z2)", "(* z1 z2)")) in ends
    assert frozenset(("(* z1 z2)", "(* z1 y)")) in ends


def test_repair_keeps_colorable_graphs_unchanged():
    p = load_problem("ladder2.euf")
    g = _closed(p)
    repaired, added = make_colorable(g, p.symbols, p.table)
    assert added == []
    assert len(repaired.edges) == len(g.edges)


def _uncolorable(graph, symbols):
    return [e for e in graph.edges if edge_colorability(e.u, e.v, symbols) is Colorability.NONE]


def test_repair_copies_the_graph_only_when_it_splits():
    p = load_problem("split_new_vertex.euf")
    g = _closed(p)
    before = graph_record(g)
    uncolorable = _uncolorable(g, p.symbols)
    repaired, added = make_colorable(g, p.symbols, p.table)
    assert uncolorable and added and repaired is not g
    assert graph_record(g) == before
    assert not any(e in repaired.edges for e in uncolorable)

    p = load_problem("ladder2.euf")
    g = _closed(p)
    before = graph_record(g)
    assert _uncolorable(g, p.symbols) == []
    repaired, added = make_colorable(g, p.symbols, p.table)
    assert repaired is g and added == []
    assert graph_record(g) == before


def test_runs_are_factored_once_and_read_in_either_direction():
    p = load_problem("chain_three_afactors.euf")
    colored, refuted, _, _ = build_colored_graph(p, Strategy.GREEDY)
    path = colored.graph.path(refuted.lhs, refuted.rhs)
    runs = colored.runs(path)
    assert len(runs) > 1 and colored.runs(path) is runs
    assert [(side, path.slice(lo, hi)) for side, lo, hi in runs] == [
        (f.side, f.path) for f in reference_factors(colored, path)
    ]
    back = colored.graph.path(refuted.rhs, refuted.lhs)
    n = len(path.edges)
    assert colored.runs(back) == [(side, n - hi, n - lo) for side, lo, hi in reversed(runs)]
    assert list(colored._runs) == [path.key]


def test_repair_noop_without_derived_edges():
    p = load_problem("chain_one_afactor.euf")
    g = _closed(p)
    repaired, added = make_colorable(g, p.symbols, p.table)
    assert added == [] and len(repaired.edges) == len(g.edges)


def test_repair_reuses_existing_split_vertex():
    # (* z1 z2) is already a vertex, already connected through z3, so the
    # crossing edge is replaced by a single edge instead of a split pair.
    p = parse_problem(
        "(A (= x z1) (= (* x z2) z3) (= (* z1 z2) z3))"
        " (B (= y z2) (not (= (* z1 y) z3)))"
    )
    g = _closed(p)
    repaired, added = make_colorable(g, p.symbols, p.table)
    assert added == []
    assert all(
        edge_colorability(e.u, e.v, p.symbols) != Colorability.NONE
        for e in repaired.edges
    )
    assert len(repaired.edges) == len(repaired.vertices) - len(repaired.components())
    r = interpolate(p)
    assert clause_text_set(r) == expected_clauses(p, "(and (= z3 (* z1 z2)))")


def clause_text_set(result):
    return frozenset(result.interpolant.clauses)


def _edge_list(problem):
    colored, _, _, _ = build_colored_graph(problem, Strategy.GREEDY)
    return [
        (e.seq, format_term(e.u), format_term(e.v), colored.edge_color(e).value)
        for e in colored.graph.edges
    ]


def test_golden_edge_list_of_three_crossings():
    # The crossing shape at k=3: each (g a{i}) ~ (g b{i}) is split at a fresh
    # (g z{i}); seqs 12-14 are the three crossing edges the splits replaced.
    p = parse_problem(
        "(A (= z1 a1) (= t1 (g a1)) (= z2 a2) (= t2 (g a2)) (= z0 a0) (= t0 (g a0)))"
        " (B (= t3 (g b2)) (= (g b1) t2) (= (g b0) t1) (= z2 b2) (= b1 z1)"
        " (= z0 b0) (not (= t0 t3)))"
    )
    assert _edge_list(p) == [
        (0, "z1", "a1", "A"),
        (1, "t1", "(g a1)", "A"),
        (2, "z2", "a2", "A"),
        (3, "t2", "(g a2)", "A"),
        (4, "z0", "a0", "A"),
        (5, "t0", "(g a0)", "A"),
        (6, "t3", "(g b2)", "B"),
        (7, "t2", "(g b1)", "B"),
        (8, "t1", "(g b0)", "B"),
        (9, "z2", "b2", "B"),
        (10, "z1", "b1", "B"),
        (11, "z0", "b0", "B"),
        (15, "(g b2)", "(g z2)", "B"),
        (16, "(g z2)", "(g a2)", "A"),
        (17, "(g b1)", "(g z1)", "B"),
        (18, "(g z1)", "(g a1)", "A"),
        (19, "(g b0)", "(g z0)", "B"),
        (20, "(g z0)", "(g a0)", "A"),
    ]


def test_golden_edge_list_of_the_reuse_example():
    p = parse_problem(
        "(A (= x z1) (= (* x z2) z3) (= (* z1 z2) z3))"
        " (B (= y z2) (not (= (* z1 y) z3)))"
    )
    assert _edge_list(p) == [
        (0, "x", "z1", "A"),
        (1, "(* x z2)", "z3", "A"),
        (2, "z3", "(* z1 z2)", "A"),
        (3, "z2", "y", "B"),
        (5, "(* z1 y)", "(* z1 z2)", "B"),
    ]


def test_repair_preserves_partition_of_original_vertices():
    rng = random.Random(5)
    for i in range(40):
        inst = generate("split", 5 + i % 20, seed=i)
        p = parse_problem(inst.text)
        g = _closed(p)
        before = _partition_ids(g, {t.id for t in g.vertices})
        original = {t.id for t in g.vertices}
        repaired, added = make_colorable(g, p.symbols, p.table)
        after = _partition_ids(repaired, original)
        assert before == after
        for t in added:
            assert p.symbols.colorability(t) == Colorability.AB


def test_choose_splitter_examples():
    p = load_problem("split_new_vertex.euf")
    g = _closed(p)
    x, z1, z2, y = (p.table.make(n) for n in ("x", "z1", "z2", "y"))
    assert choose_splitter(g.path(x, z1), p.symbols) is z1
    assert choose_splitter(g.path(z2, y), p.symbols) is z2  # start already shared


def test_choose_splitter_on_random_mixed_paths():
    rng = random.Random(9)
    found = 0
    for i in range(40):
        inst = generate("chain", 6 + i % 30, seed=100 + i)
        p = parse_problem(inst.text)
        g = _closed(p)
        comp = max(g.components(), key=len)
        # the splitter is only defined on paths joining an A-colorable
        # vertex to a B-colorable one
        a_ends = [t for t in comp if p.symbols.colorability(t) & Colorability.A]
        b_ends = [t for t in comp if p.symbols.colorability(t) & Colorability.B]
        if not a_ends or not b_ends:
            continue
        u, v = rng.choice(a_ends), rng.choice(b_ends)
        path = g.path(u, v)
        if path.is_empty:
            continue
        found += 1
        w = choose_splitter(path, p.symbols)
        assert p.symbols.colorability(w) == Colorability.AB
        assert w in path.vertices
        # first such vertex from the start end
        verts = path.vertices
        first = next(
            t for t in verts if p.symbols.colorability(t) == Colorability.AB
        )
        assert w is first
    assert found >= 20


def test_free_edge_coloring_drives_the_interpolant():
    p = load_problem("ladder2.euf")
    fz3 = p.table.make("f", (p.table.make("z3"),))
    fz4 = p.table.make("f", (p.table.make("z4"),))

    def free_edge_color(strategy):
        colored, _, _, _ = build_colored_graph(p, strategy)
        (edge,) = [
            e
            for e in colored.graph.edges
            if {e.u.id, e.v.id} == {fz3.id, fz4.id}
        ]
        return colored.edge_color(edge)

    # the edge sits between two B-colored basic edges, so greedy follows them
    assert free_edge_color(Strategy.GREEDY) is Side.B
    assert free_edge_color(Strategy.ALL_A) is Side.A
    assert free_edge_color(Strategy.ALL_B) is Side.B

    small = expected_clauses(
        p,
        "(and (=> (and (= z1 z2)) (= z3 z4)) (=> (and (= z5 z6)) (= z7 z8)))",
    )
    wide = expected_clauses(
        p,
        "(and (=> (and (= z5 (f z3)) (= (f z4) z6) (= z1 z2)) (= z7 z8)))",
    )
    assert frozenset(interpolate(p, Strategy.GREEDY).interpolant.clauses) == small
    assert frozenset(interpolate(p, Strategy.ALL_B).interpolant.clauses) == small
    assert frozenset(interpolate(p, Strategy.ALL_A).interpolant.clauses) == wide


def test_fully_basic_graph_coloring_is_forced():
    p = load_problem("chain_three_afactors.euf")
    g = _closed(p)
    refuted, _ = find_refuted_disequality(g, p.disequalities())
    for strategy in Strategy:
        colored = color(g, p.symbols, strategy, relevant=(refuted.lhs, refuted.rhs))
        for edge in g.edges:
            assert colored.edge_color(edge) is edge.side


def test_factorize_alternating_chain():
    p = load_problem("chain_one_afactor.euf")
    colored, refuted, _, _ = build_colored_graph(p, Strategy.GREEDY)
    path = colored.graph.path(refuted.lhs, refuted.rhs)
    runs = colored.runs(path)
    assert [side for side, _, _ in runs] in (
        [Side.A, Side.B],
        [Side.B, Side.A],
    )
    assert runs[0][1] == 0 and runs[-1][2] == len(path.edges)
    assert all(hi == lo for (_, _, hi), (_, lo, _) in zip(runs, runs[1:]))


def test_factorize_single_color_path():
    p = load_problem("horn_min.euf")
    colored, refuted, _, _ = build_colored_graph(p, Strategy.GREEDY)
    path = colored.graph.path(refuted.lhs, refuted.rhs)
    assert colored.runs(path) == [(Side.A, 0, len(path.edges))]


def test_factor_count_equals_color_switches():
    rng = random.Random(21)
    for i in range(40):
        inst = generate("chain", 5 + i % 40, seed=500 + i)
        p = parse_problem(inst.text)
        colored, refuted, _, _ = build_colored_graph(p, Strategy.GREEDY)
        path = colored.graph.path(refuted.lhs, refuted.rhs)
        sides = [colored.edge_color(e) for e in path.edges]
        switches = sum(1 for x, y in zip(sides, sides[1:]) if x is not y)
        assert len(colored.runs(path)) == switches + 1


def test_every_strategy_yields_a_valid_interpolant():
    from eufinterp.verify import check_interpolant

    for name in ("ladder2.euf", "split_new_vertex.euf", "ladder_chain6.euf"):
        p = load_problem(name)
        for strategy in Strategy:
            result = interpolate(p, strategy)
            assert check_interpolant(p, result.interpolant).accepted, (
                name,
                strategy,
                format_conjunction(result.interpolant),
            )


def test_repair_and_coloring_match_the_reference():
    # Colors in assignment order by edge seq, the repaired edges with their
    # parents, and the added vertices, under every strategy.
    compared = 0
    for text in reference_problems():
        problem = parse_problem(text)
        for strategy in Strategy:
            got = coloring_outcome(problem, strategy)
            assert got == coloring_outcome(problem, strategy, reference=True), (
                text,
                strategy,
            )
            compared += got is not None
    assert compared >= 200


class TestColoringErrors:
    """The text of every reachable repair and coloring check."""

    @staticmethod
    def _color_error(paint, graph, symbols) -> str:
        with pytest.raises(ColoringError) as info:
            paint(graph, symbols, relevant=(graph.vertices[0], graph.vertices[1]))
        return str(info.value)

    @pytest.mark.parametrize("paint", [color, reference_color])
    def test_basic_edge_without_a_side(self, paint):
        p = parse_problem("(A (= a1 a2)) (B (= b1 b2) (not (= b1 b2)))")
        g = close([(lit, None) for lit, _ in p.equalities()], p.terms())
        assert self._color_error(paint, g, p.symbols) == (
            "basic edge Edge(u=Term#0(a1), v=Term#1(a2), seq=0, "
            "origin=Literal((= a1 a2)), side=None, parents=None) "
            "has no originating side"
        )

    @pytest.mark.parametrize("paint", [color, reference_color])
    def test_basic_edge_outside_its_side(self, paint):
        p = parse_problem("(A (= a1 a2)) (B (= b1 b2) (not (= b1 b2)))")
        flip = {Side.A: Side.B, Side.B: Side.A}
        g = close([(lit, flip[side]) for lit, side in p.equalities()], p.terms())
        assert self._color_error(paint, g, p.symbols) == (
            "edge Edge(u=Term#0(a1), v=Term#1(a2), seq=0, "
            "origin=Literal((= a1 a2)), side=<Side.B: 'B'>, parents=None) "
            "colored Side.B but not Side.B-colorable"
        )

    @pytest.mark.parametrize("paint", [color, reference_color])
    def test_unrepaired_derived_edge(self, paint):
        p = load_problem("split_new_vertex.euf")
        g = close(p.equalities(), p.terms())
        assert self._color_error(paint, g, p.symbols) == (
            "uncolorable edge Edge(u=Term#6((* z1 y)), v=Term#3((* x z2)), seq=3, "
            "origin=None, side=None, parents=((Term#1(z1), Term#0(x)), "
            "(Term#5(y), Term#2(z2)))); repair must run first"
        )

    @pytest.mark.parametrize("repair", [make_colorable, reference_make_colorable])
    def test_uncolorable_basic_edge_in_repair(self, repair):
        p = parse_problem("(A (= a x)) (B (= b y))")
        a, b = p.table.make("a"), p.table.make("b")
        g = close([(Literal.make(a, b), Side.A)], p.terms())
        with pytest.raises(ColoringError) as info:
            repair(g, p.symbols, p.table)
        assert str(info.value) == (
            "basic edge Edge(u=Term#0(a), v=Term#2(b), seq=0, "
            "origin=Literal((= a b)), side=<Side.A: 'A'>, parents=None) is uncolorable"
        )
