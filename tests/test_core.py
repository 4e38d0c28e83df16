from __future__ import annotations

import random

import pytest

from eufinterp.core import (
    ArityError,
    Colorability,
    Literal,
    OverlapError,
    ParseError,
    TermTable,
    edge_colorability,
    format_literal,
    format_term,
    parse_problem,
    subterm_closure,
)

from conftest import load_problem


def test_parse_smallest_unsat_instance():
    p = parse_problem("(A (= a b)) (B (not (= a b)))")
    assert len(p.a_literals) == 1
    assert len(p.b_literals) == 1
    (lit,) = p.a_literals
    assert lit.equal and format_literal(lit) == "(= a b)"
    (dis,) = p.b_literals
    assert not dis.equal
    assert dis.lhs is lit.lhs and dis.rhs is lit.rhs


def test_parse_two_rung_ladder_instance():
    p = load_problem("ladder2.euf")
    assert len(p.a_literals) == 8
    assert len(p.b_literals) == 6
    assert p.symbols.info["f"].arity == 1
    assert p.symbols.info["f"].occurs_in_a and p.symbols.info["f"].occurs_in_b
    assert p.symbols.info["x1"].occurs_in_a and not p.symbols.info["x1"].occurs_in_b
    assert sum(1 for lit, _ in p.disequalities()) == 1


def test_symmetric_duplicates_collapse():
    p = parse_problem("(A (= a b) (= b a)) (B)")
    assert len(p.a_literals) == 1


def test_parse_normalization_is_orientation_blind():
    def key(lit):
        return (frozenset({format_term(lit.lhs), format_term(lit.rhs)}), lit.equal)

    rng = random.Random(7)
    names = ["a", "b", "c", "d"]
    for _ in range(50):
        s = rng.choice(names)
        t = rng.choice(names)
        deep = rng.random() < 0.5
        st = f"(f {s})" if deep else s
        p1 = parse_problem(f"(A (= {st} {t})) (B)")
        p2 = parse_problem(f"(A (= {t} {st})) (B)")
        assert [key(l) for l in p1.a_literals] == [key(l) for l in p2.a_literals]
        # within one table the two orientations are the same literal
        both = parse_problem(f"(A (= {st} {t}) (= {t} {st})) (B)")
        assert len(both.a_literals) == 1


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_problem("(A (= a b)\n(B)")
    assert err.value.line == 1
    with pytest.raises(ArityError):
        parse_problem("(A (= (f a) (f a b))) (B)")
    with pytest.raises(ArityError):
        parse_problem("(declare-fun f 2) (A (= (f a) b)) (B)")
    with pytest.raises(OverlapError):
        parse_problem("(A (= a b)) (B (= b a))")
    with pytest.raises(ParseError):
        parse_problem("(A (= a b)) (B) (C)")
    for text, line, col in [
        ("; (A (= a b)) (B)\n(A (= a b)) (B) x", 2, 17),  # after a comment
        ("(A (= a b)) ; tail ( \n(B ())", 2, 4),  # a comment hides a paren
        ("(A\t(= a b)) (B)\t\t(C)", 1, 18),  # a tab is one column
        ("(A (= a b))\n\n\n  (B a)", 4, 6),  # blank lines
        ("(A (= a b))\r\n (B (= a))", 2, 5),  # \r ends no line
        ("(A (= a b))\xa0\u3000(B (not a))", 1, 22),  # non-ASCII spaces
    ]:
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.line, err.value.col) == (line, col), text


def test_colorability_classification():
    # signatures: A has x, z1, z2, z3, *; B has y, z1, z2, z3, *
    p = load_problem("split_new_vertex.euf")
    t = p.table
    x, z1, z2, z3, y = (t.make(n) for n in ("x", "z1", "z2", "z3", "y"))
    assert p.symbols.colorability(t.make("*", (x, z2))) == Colorability.A
    assert p.symbols.colorability(t.make("*", (z1, z2))) == Colorability.AB
    assert p.symbols.colorability(t.make("*", (x, y))) == Colorability.NONE
    assert edge_colorability(t.make("*", (x, z2)), t.make("*", (z1, y)), p.symbols) \
        == Colorability.NONE


def test_edge_colorability_meet():
    p = load_problem("chain_one_afactor.euf")
    z1 = p.table.make("z1")
    z4 = p.table.make("z4")
    assert edge_colorability(z1, z4, p.symbols) == Colorability.AB
    x1 = p.table.make("x1")
    assert edge_colorability(x1, x1, p.symbols) == p.symbols.colorability(x1)


def test_colorability_antitone_under_subterms():
    p = load_problem("ladder2.euf")
    for term in p.table:
        c = p.symbols.colorability(term)
        for arg in term.args:
            assert c & p.symbols.colorability(arg) == c


def test_subterm_closure_single_application():
    table = TermTable()
    a = table.make("a")
    fa = table.make("f", (a,))
    assert subterm_closure([fa]) == [a, fa]


def test_subterm_closure_of_split_instance():
    p = load_problem("split_new_vertex.euf")
    closed = subterm_closure(p.terms())
    names = {format_term(t) for t in closed}
    assert {"x", "z1", "z2", "z3", "y", "(* x z2)", "(* z1 y)"} <= names


def test_subterm_closure_empty_idempotent_monotone():
    assert subterm_closure([]) == []
    table = TermTable()
    rng = random.Random(3)
    consts = [table.make(f"c{i}") for i in range(4)]
    pool = list(consts)
    for _ in range(12):
        k = rng.randint(1, 2)
        pool.append(table.make("g", tuple(rng.choice(pool) for _ in range(k))))
    sample = [pool[i] for i in range(0, len(pool), 2)]
    closed = subterm_closure(sample)
    assert subterm_closure(closed) == closed
    bigger = subterm_closure(pool)
    assert set(t.id for t in closed) <= set(t.id for t in bigger)


def test_hash_consing_shares_handles():
    table = TermTable()
    a = table.make("a")
    assert table.make("f", (a,)) is table.make("f", (a,))
    for term in table:
        for arg in term.args:
            assert arg.id < term.id


def test_literal_normalization_and_negation():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    assert Literal.make(b, a) == Literal.make(a, b)
    assert Literal.make(a, b).negated() == Literal.make(b, a, equal=False)
    assert Literal.make(a, a).trivial
