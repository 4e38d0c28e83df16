from __future__ import annotations

import random
from collections import deque

import pytest

from eufinterp.coloring import make_colorable
from eufinterp.congruence import (
    ClosureInputError,
    CongruenceGraph,
    NotConnectedError,
    close,
    find_refuted_disequality,
)
from eufinterp.core import Literal, Side, TermTable, format_term, parse_problem, subterm_closure
from eufinterp.generate import generate
from eufinterp.verify import brute_force_closure

from conftest import load_problem


def _close_problem(p):
    return close(p.equalities(), subterm_closure(p.terms()))


def random_universe(rng: random.Random, cap: int = 12):
    """Random subterm-closed term set of at most ``cap`` terms."""
    table = TermTable()
    pool = [table.make(f"c{i}") for i in range(rng.randint(2, 4))]
    funcs = [("f", 1), ("g", 2)][: rng.randint(1, 2)]
    while len(table) < cap and rng.random() < 0.8:
        name, arity = rng.choice(funcs)
        args = tuple(rng.choice(pool) for _ in range(arity))
        pool.append(table.make(name, args))
    terms = subterm_closure(pool)
    return table, terms[:]


def random_equalities(rng: random.Random, terms, count: int):
    out = []
    for _ in range(count):
        s, t = rng.choice(terms), rng.choice(terms)
        out.append((Literal.make(s, t), None))
    return out


def _partition_ids(blocks):
    return {frozenset(t.id for t in block) for block in blocks}


def test_close_single_merge():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    g = close([(Literal.make(a, b), Side.A)], [a, b])
    assert len(g.edges) == 1 and g.edges[0].is_basic
    assert g.connected(a, b)


def test_close_propagates_congruence():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    fa, fb = table.make("f", (a,)), table.make("f", (b,))
    g = close([(Literal.make(a, b), Side.A)], [a, b, fa, fb])
    assert len(g.edges) == 2
    basic, derived = g.edges
    assert basic.is_basic and derived.is_derived
    assert {derived.u.id, derived.v.id} == {fa.id, fb.id}
    assert derived.parents == ((a, b),) or derived.parents == ((b, a),)
    assert _partition_ids(g.components()) == _partition_ids(
        brute_force_closure([Literal.make(a, b)], [a, b, fa, fb])
    )


def test_close_two_rung_ladder_shape():
    p = load_problem("ladder2.euf")
    g = _close_problem(p)
    derived = [e for e in g.edges if e.is_derived]
    assert len(derived) == 3
    for edge in derived:
        assert len(edge.parents) == 1  # the function is unary
    y1, y2 = p.table.make("y1"), p.table.make("y2")
    assert g.connected(y1, y2)


def test_connected_basics():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    g = close([(Literal.make(a, b), None)], [a, b])
    assert g.connected(a, b)
    g2 = close([], [a, b])
    assert not g2.connected(a, b)


def test_find_refuted_disequality_picks_the_only_one():
    p = load_problem("ladder2.euf")
    g = _close_problem(p)
    lit = find_refuted_disequality(g, p.disequalities())
    assert lit is not None and not lit.equal
    assert {lit.lhs.head, lit.rhs.head} == {"y1", "y2"}


def test_find_refuted_disequality_absent_when_satisfiable():
    p = parse_problem("(A (= a b)) (B (not (= c d)))")
    g = _close_problem(p)
    assert find_refuted_disequality(g, p.disequalities()) is None


def test_find_refuted_disequality_prefers_b_side():
    p = parse_problem(
        "(A (= a b) (not (= c d))) (B (= c d) (not (= a b)))"
    )
    g = _close_problem(p)
    lit = find_refuted_disequality(g, p.disequalities())
    assert p.side_of(lit) is Side.B
    assert {lit.lhs.head, lit.rhs.head} == {"a", "b"}


def test_empty_path_and_missing_path():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    g = close([], [a, b])
    assert g.path(a, a).is_empty
    with pytest.raises(NotConnectedError):
        g.path(a, b)


def test_path_through_derived_edge():
    p = load_problem("ladder2.euf")
    g = _close_problem(p)
    z3, z4 = p.table.make("z3"), p.table.make("z4")
    path = g.path(z3, z4)
    heads = [format_term(v) for v in path.vertices()]
    assert heads == ["z3", "(f x1)", "(f x2)", "z4"]
    assert [s.edge.is_derived for s in path.steps] == [False, True, False]


def bfs_path_vertices(graph, u, v):
    """Vertices of the u--v path by breadth-first search over ``graph.edges``."""
    adjacent = {}
    for edge in graph.edges:
        adjacent.setdefault(edge.u.id, []).append(edge.v)
        adjacent.setdefault(edge.v.id, []).append(edge.u)
    prev = {u.id: None}
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        for nxt in adjacent.get(cur.id, ()):
            if nxt.id not in prev:
                prev[nxt.id] = cur
                queue.append(nxt)
    if v.id not in prev:
        return None
    out = [v]
    while out[-1] is not u:
        out.append(prev[out[-1].id])
    return out[::-1]


def assert_path_matches_traversal(graph, u, v):
    path = graph.path(u, v)
    assert path.start is u and path.end is v
    cur = u
    seen_edges = set()
    for step in path.steps:
        assert step.start is cur
        assert step.edge.seq not in seen_edges  # simple path
        seen_edges.add(step.edge.seq)
        cur = step.end
    assert cur is v
    assert path.vertices() == bfs_path_vertices(graph, u, v)


def test_path_matches_traversal_oracle_on_random_trees():
    rng = random.Random(11)
    for _ in range(60):
        table, terms = random_universe(rng)
        eqs = random_equalities(rng, terms, rng.randint(0, 8))
        g = close(eqs, terms)
        comp = rng.choice(g.components())
        assert_path_matches_traversal(g, rng.choice(comp), rng.choice(comp))
    # Repaired graphs: the forest after splits and reuses.
    for i in range(30):
        p = parse_problem(generate("split", 5 + i % 20, seed=i).text)
        g, _ = make_colorable(_close_problem(p), p.symbols, p.table)
        assert len(g.edges) == len(g.vertices) - len(g.components())
        for comp in g.components():
            for _ in range(3):
                assert_path_matches_traversal(g, rng.choice(comp), rng.choice(comp))


def _hand_built(mid_side: str, heavy: str, mid_fresh: bool):
    """Derived edge (f a)--(f d) with (f c) as split point.

    Unless fresh, (f c) hangs two edges away from the ``mid_side`` endpoint.
    Three extra leaves on the ``heavy`` endpoint decide which endpoint the
    forest stores the edge at.
    """
    table = TermTable()
    a, c, d, p = (table.make(n) for n in ("a", "c", "d", "p"))
    fa, fc, fd = (table.make("f", (x,)) for x in (a, c, d))
    leaves = [table.make(f"l{i}") for i in range(3)]
    g = CongruenceGraph([a, c, d, p, fa, fd, *leaves] + ([] if mid_fresh else [fc]))
    ends = {"u": fa, "v": fd}

    def basic(s, t):
        g.add_edge(s, t, origin=Literal.make(s, t), side=Side.A)

    if not mid_fresh:
        basic(ends[mid_side], p)
        basic(fc, p)
    for leaf in leaves:
        basic(leaf, ends[heavy])
    edge = g.add_edge(fa, fd, parents=((a, d),))
    return g, edge, fa, fc, fd, (a, c, d)


def _check_forest(graph):
    assert len(graph.edges) == len(graph.vertices) - len(graph.components())
    assert [e.seq for e in graph.edges] == sorted(e.seq for e in graph.edges)
    for s in graph.vertices:
        for t in graph.vertices:
            if graph.connected(s, t):
                assert_path_matches_traversal(graph, s, t)
            else:
                assert bfs_path_vertices(graph, s, t) is None


@pytest.mark.parametrize("heavy", ["u", "v"])
def test_split_edge_splices_a_fresh_vertex(heavy):
    g, edge, fa, fc, fd, (a, c, d) = _hand_built("u", heavy, mid_fresh=True)
    before = _partition_ids(g.components())
    new = g.split_edge(edge, fc, ((a, c),), ((c, d),))
    assert [(e.seq, e.u, e.v, e.parents) for e in new] == [
        (edge.seq + 1, fa, fc, ((a, c),)),
        (edge.seq + 2, fc, fd, ((c, d),)),
    ]
    assert edge not in g.edges and g.edges[-2:] == new
    assert _partition_ids(g.components()) == {
        block | {fc.id} if fa.id in block else block for block in before
    }
    assert g.path(fa, fd).vertices() == [fa, fc, fd]
    _check_forest(g)


@pytest.mark.parametrize("heavy", ["u", "v"])
@pytest.mark.parametrize("mid_side", ["u", "v"])
def test_split_edge_reuses_a_vertex_on_either_side(mid_side, heavy):
    g, edge, fa, fc, fd, (a, c, d) = _hand_built(mid_side, heavy, mid_fresh=False)
    before = _partition_ids(g.components())
    (new,) = g.split_edge(edge, fc, ((a, c),), ((c, d),))
    # The reused vertex already reaches its own side's endpoint; the new edge
    # joins it to the endpoint across the removed edge.
    if mid_side == "u":
        assert (new.u, new.v, new.parents) == (fc, fd, ((c, d),))
    else:
        assert (new.u, new.v, new.parents) == (fa, fc, ((a, c),))
    assert new.seq == edge.seq + 1 and edge not in g.edges
    assert _partition_ids(g.components()) == before
    assert fc in g.path(fa, fd).vertices()
    _check_forest(g)


def test_rescan_order_matches_a_pass_over_the_merged_class():
    # After a = b (a kept), (h a b) and (h b b) share a signature.  A pass
    # over the merged class sorted by id reaches (h a b) first, through a,
    # although (h b b) is older: the congruence edge runs (h b b) -> (h a b).
    p = parse_problem("(A (= a c) (= (h b b) d) (= (h a b) e) (= a b)) (B (= c e))")
    g = _close_problem(p)
    (derived,) = [e for e in g.edges if e.is_derived]
    assert (format_term(derived.u), format_term(derived.v)) == ("(h b b)", "(h a b)")


def test_parent_paths_recomputed():
    table = TermTable()
    a, b, c = table.make("a"), table.make("b"), table.make("c")
    fa, fb = table.make("f", (a,)), table.make("f", (b,))
    eqs = [(Literal.make(a, c), None), (Literal.make(c, b), None)]
    g = close(eqs, [a, b, c, fa, fb])
    derived = [e for e in g.edges if e.is_derived]
    assert len(derived) == 1
    (pp,) = [g.path(p, q) for p, q in derived[0].parents]
    assert {pp.start.id, pp.end.id} == {a.id, b.id}
    assert len(pp.steps) == 2  # a -- c -- b


def test_parent_paths_keep_empty_pairs():
    p = load_problem("horn_min.euf")
    g = _close_problem(p)
    derived = [e for e in g.edges if e.is_derived]
    assert len(derived) == 1
    paths = [g.path(s, t) for s, t in derived[0].parents]
    assert len(paths) == 2
    empties = [pp for pp in paths if pp.is_empty]
    assert len(empties) == 1  # the shared first argument contributes nothing


def test_close_rejects_terms_outside_universe():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    with pytest.raises(ClosureInputError):
        close([(Literal.make(a, b), None)], [a])
    fa = table.make("f", (a,))
    with pytest.raises(ClosureInputError):
        close([], [fa])  # argument missing: not subterm-closed


def test_closure_agrees_with_oracle_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(150):
        table, terms = random_universe(rng)
        eqs = random_equalities(rng, terms, rng.randint(0, 10))
        g = close(eqs, terms)
        oracle = brute_force_closure([lit for lit, _ in eqs], terms)
        assert _partition_ids(g.components()) == _partition_ids(oracle)
        # acyclicity: within each component, edges = vertices - 1
        assert len(g.edges) == len(terms) - len(g.components())


def test_derived_edge_parents_held_before_creation():
    rng = random.Random(77)
    for _ in range(80):
        table, terms = random_universe(rng)
        eqs = random_equalities(rng, terms, rng.randint(0, 10))
        g = close(eqs, terms)
        # replay edge creation and check each parent pair was already merged
        parent = {t.id: t.id for t in terms}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in g.edges:
            if edge.is_derived:
                for p, q in edge.parents:
                    assert find(p.id) == find(q.id)
            assert find(edge.u.id) != find(edge.v.id)
            parent[find(edge.u.id)] = find(edge.v.id)
