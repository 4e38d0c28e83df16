from __future__ import annotations

import dataclasses
import random
from collections import deque
from itertools import product

import pytest

from eufinterp.coloring import Strategy, make_colorable
from eufinterp.congruence import (
    ClosureInputError,
    CongruenceGraph,
    Edge,
    NotConnectedError,
    Path,
    close,
    find_refuted_disequality,
)
from eufinterp.core import Literal, Side, TermTable, format_term, parse_problem, subterm_closure
from eufinterp.generate import generate
from eufinterp.interpolate import interpolate

from conftest import brute_force_closure, load_problem, reference_add_edge, reference_close


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
    (edge,) = g.edges
    assert edge.is_basic
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
    found = find_refuted_disequality(g, p.disequalities())
    assert found is not None
    lit, side = found
    assert not lit.equal and (lit, side) in p.disequalities()
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
    lit, side = find_refuted_disequality(g, p.disequalities())
    assert side is Side.B
    assert {lit.lhs.head, lit.rhs.head} == {"a", "b"}


def test_empty_path_and_missing_path():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    g = close([], [a, b])
    assert g.path(a, a).is_empty
    with pytest.raises(NotConnectedError):
        g.path(a, b)


def test_path_key_is_the_unordered_endpoint_pair():
    p = load_problem("ladder2.euf")
    g = _close_problem(p)
    z3, z4 = p.table.make("z3"), p.table.make("z4")
    forward, backward = g.path(z3, z4), g.path(z4, z3)
    assert forward.vertices == backward.vertices[::-1]
    assert forward.key == backward.key == (min(z3.id, z4.id), max(z3.id, z4.id))
    assert forward.slice(1, 2).key == backward.slice(1, 2).key
    empty = g.path(z3, z3)
    assert empty.is_empty and empty.key == (z3.id, z3.id)


def test_path_through_derived_edge():
    p = load_problem("ladder2.euf")
    g = _close_problem(p)
    z3, z4 = p.table.make("z3"), p.table.make("z4")
    path = g.path(z3, z4)
    heads = [format_term(v) for v in path.vertices]
    assert heads == ["z3", "(f x1)", "(f x2)", "z4"]
    assert [e.is_derived for e in path.edges] == [False, True, False]


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
    assert len(path.vertices) == len(path.edges) + 1
    seen_edges = set()
    for i, edge in enumerate(path.edges):
        # edges[i] joins vertices[i] and vertices[i + 1], in either orientation
        assert {edge.u, edge.v} == {path.vertices[i], path.vertices[i + 1]}
        assert edge.seq not in seen_edges  # simple path
        seen_edges.add(edge.seq)
    assert list(path.vertices) == bfs_path_vertices(graph, u, v)


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
        reference_add_edge(g, s, t, origin=Literal.make(s, t), side=Side.A)

    if not mid_fresh:
        basic(ends[mid_side], p)
        basic(fc, p)
    for leaf in leaves:
        basic(leaf, ends[heavy])
    edge = reference_add_edge(g, fa, fd, parents=((a, d),))
    return g, edge, fa, fc, fd, (a, c, d)


def _check_forest(graph):
    assert len(graph.edges) == len(graph.vertices) - len(graph.components())
    for block in graph.components():
        for t in block:
            assert graph.find(t.id) == block[0].id  # the smallest id represents
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
    assert edge not in g.edges and list(g.edges)[-2:] == new
    assert _partition_ids(g.components()) == {
        block | {fc.id} if fa.id in block else block for block in before
    }
    assert g.path(fa, fd).vertices == (fa, fc, fd)
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
    assert fc in g.path(fa, fd).vertices
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
    assert len(pp.edges) == 2  # a -- c -- b


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


def test_close_input_errors_name_the_term_or_equality():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    fa = table.make("f", (a,))
    ab = [(Literal.make(a, b), None)]
    for eqs, terms, text in (
        (ab, [a], "equality Literal((= a b)) mentions a term outside T"),
        ([], [fa], "term set not subterm-closed at Term#2((f a))"),
        # The term set is checked before the equalities.
        (ab, [b, fa], "term set not subterm-closed at Term#2((f a))"),
    ):
        with pytest.raises(ClosureInputError) as info:
            close(eqs, terms)
        assert str(info.value) == text


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


def closure_record(graph):
    """Everything a closure decides: the edges in order, the forest links by
    edge seq, the partition with its member order, and the next seq."""
    edges = [(e.u, e.v, e.seq, e.origin, e.side, e.parents) for e in graph.edges]
    links = {
        t.id: None if link is None else (link[0].seq, link[1].id)
        for t, link in graph._up.items()
    }
    classes = {rep: [t.id for t in members] for rep, members in graph.classes.items()}
    return edges, links, classes, graph._rep, graph._next_seq


def _wide_class_text(rng: random.Random, n: int) -> str:
    """A: x{i+1} = (f x{i}), shuffled; B: x0 = x1 and x0 != x{n}."""
    x = [f"x{j}" for j in rng.sample(range(n + 1), n + 1)]
    eqs = [f"(= {x[i + 1]} (f {x[i]}))" for i in range(n)]
    rng.shuffle(eqs)
    return f"(A {' '.join(eqs)}) (B (= {x[0]} {x[1]}) (not (= {x[0]} {x[n]})))"


def _crossing_text(rng: random.Random, k: int) -> str:
    """A: a{i} = z{i}, (g a{i}) = t{i}; B: z{i} = b{i}, (g b{i}) = t{i+1}."""
    a_lits, b_lits = [], []
    for i in range(k):
        a_lits += [f"(= a{i} z{i})", f"(= (g a{i}) t{i})"]
        b_lits += [f"(= z{i} b{i})", f"(= (g b{i}) t{i + 1})"]
    rng.shuffle(a_lits)
    rng.shuffle(b_lits)
    return f"(A {' '.join(a_lits)}) (B {' '.join(b_lits)} (not (= t0 t{k})))"


def _closure_inputs():
    for family in ("chain", "ladder", "split"):
        for size in (2, 5, 9, 17, 30):
            for seed in range(3):
                p = parse_problem(generate(family, size, seed).text)
                yield p.equalities(), subterm_closure(p.terms())
    rng = random.Random(4242)
    for n in (1, 2, 7, 20, 45):
        p = parse_problem(_wide_class_text(rng, n))
        yield p.equalities(), subterm_closure(p.terms())
    for k in (1, 3, 8, 20):
        p = parse_problem(_crossing_text(rng, k))
        yield p.equalities(), subterm_closure(p.terms())
    for _ in range(200):
        _, terms = random_universe(rng)
        yield random_equalities(rng, terms, rng.randint(0, 10)), terms
    # After a = b, (g b b) and (g c0 b) meet (g a a) and (g c0 a).  Their
    # smallest arguments in the merged class are both b, so (g b b), the
    # older, is queued first, although c0 is the smaller argument overall.
    table = TermTable()
    c0, a, b = (table.make(n) for n in ("c0", "a", "b"))
    terms = [c0, a, b] + [table.make("g", args) for args in ((a, a), (c0, a), (b, b), (c0, b))]
    yield [(Literal.make(a, b), Side.A)], terms


def test_closure_matches_the_reference_merge_loop():
    count = 0
    for eqs, terms in _closure_inputs():
        assert closure_record(close(eqs, terms)) == closure_record(
            reference_close(eqs, terms)
        )
        count += 1
    assert count == 45 + 9 + 200 + 1


def test_repair_keeps_edges_in_creation_order_and_on_the_forest():
    splits = 0
    for size in range(5, 40, 3):
        for seed in range(3):
            p = parse_problem(generate("split", size, seed).text)
            g, added = make_colorable(_close_problem(p), p.symbols, p.table)
            splits += len(added)
            seqs = [e.seq for e in g.edges]
            assert all(a < b for a, b in zip(seqs, seqs[1:]))
            links = {link[0].seq for link in g._up.values() if link is not None}
            assert set(seqs) == links
    assert splits > 0


def test_terms_and_edges_hash_and_compare_by_identity():
    t1, t2 = TermTable().make("a"), TermTable().make("a")
    assert (t1.id, t1.head, t1.args) == (t2.id, t2.head, t2.args)
    assert t1 != t2 and t1 == t1 and len({t1, t2, t1}) == 2
    e1, e2 = Edge(t1, t2, 0), Edge(t1, t2, 0)
    assert e1 != e2 and e1 == e1 and len({e1, e2, e1}) == 2
    assert {e1: 1}[e1] == 1


def test_paths_compare_by_fields():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    edge = Edge(a, b, 0)
    assert Path((a, b), (edge,)) == Path(tuple([a, b]), tuple([edge]))
    assert Path((a, b), (edge,)) != Path((a, b), (Edge(a, b, 0),))
    assert Path((a,), ()) != Path((b,), ())


def endpoint_key(path: Path) -> tuple[int, int]:
    a, b = path.vertices[0].id, path.vertices[-1].id
    return (min(a, b), max(a, b))


def test_path_key_is_the_sorted_endpoint_ids():
    paths = stored = 0
    for family, strategy in product(("chain", "ladder", "split"), Strategy):
        for size in (2, 5, 12, 30):
            p = parse_problem(generate(family, size, seed=size).text)
            result = interpolate(p, strategy)
            graph = result.colored.graph
            ps = result.premises
            for u in graph.vertices[:12]:
                for v in graph.vertices[:12]:
                    if graph.connected(u, v):
                        path = graph.path(u, v)
                        assert path.key == endpoint_key(path) == graph.path(v, u).key
                        n = len(path.vertices)
                        sub = path.slice(n // 3, n - 1 - n // 3)
                        assert sub.key == endpoint_key(sub)
                        paths += 1
            # The sub-paths the premise walk builds from runs, in every memo.
            for memo in (ps._b, ps._a):
                for key, value in memo.items():
                    for sub_key, sub in value.items():
                        assert sub_key == sub.key == endpoint_key(sub)
                        stored += 1
    assert paths > 500 and stored > 200
    table = TermTable()
    a, b = table.make("b"), table.make("a")
    edge = Edge(a, b, 0)
    assert Path((b, a), (edge,)).key == (0, 1) == Path((a, b), (edge,)).key
    assert Path((a,), ()).key == (0, 0)


def test_path_key_is_derived_and_takes_no_part_in_equality():
    (key,) = [f for f in dataclasses.fields(Path) if f.name == "key"]
    assert not key.init and not key.compare
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    edge = Edge(a, b, 0)
    other = Path((a, b), (edge,))
    other.key = (5, 7)
    assert Path((a, b), (edge,)) == other
    assert Path((a, b), (edge,)) != Path((b, a), (edge,))
