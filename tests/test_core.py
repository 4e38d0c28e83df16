from __future__ import annotations

import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from eufinterp import generate as generate_module
from eufinterp.coloring import make_colorable
from eufinterp.congruence import close
from eufinterp.core import (
    ArityError,
    Colorability,
    Literal,
    OverlapError,
    ParseError,
    ProblemInstance,
    Side,
    SymbolTable,
    TermTable,
    edge_colorability,
    format_literal,
    format_term,
    parse_problem,
    subterm_closure,
)
from eufinterp.generate import FAMILIES, generate
from eufinterp.interpolate import format_conjunction, interpolate, parse_conjunction

from conftest import (
    DATA,
    MALFORMED,
    assert_readers_agree,
    load_problem,
    load_text,
    reference_colorability,
    reference_parse_problem,
)
from test_congruence import random_universe

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def bench_workload_texts(seed: int = 1) -> list[str]:
    """The problem texts of every ``bench/`` workload for ``seed``."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    return [
        inst.text
        for name in workloads.WORKLOADS
        for inst in workloads.build(name, seed, generate_module)
    ]


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
    assert p.symbols.info["f"].occurs == 3  # bit 1: A, bit 2: B
    assert p.symbols.info["x1"].occurs == 1
    assert sum(1 for lit, _ in p.disequalities()) == 1


def test_literal_partition_is_kept_per_problem_as_tuples():
    table = TermTable()
    symbols = SymbolTable(table)
    a, b, c = (table.make(name) for name in "abc")
    direct = ProblemInstance(
        table,
        symbols,
        (Literal.make(a, b), Literal.make(b, c, False)),
        (Literal.make(a, c), Literal.make(c, a, False)),
    )
    problems = [load_problem(path.name) for path in sorted(DATA.glob("*.euf"))]
    for p in problems + [direct]:
        for kept, equal in ((p.equalities, True), (p.disequalities, False)):
            first = kept()
            # One shared tuple: no caller can change what another call reads.
            assert type(first) is tuple and kept() is first
            assert first == tuple(pair for pair in p.literals() if pair[0].equal is equal)
    assert [lit for lit, _ in direct.disequalities()] == [
        Literal.make(b, c, False),
        Literal.make(a, c, False),
    ]


def test_problem_instances_are_frozen():
    p = load_problem("ladder2.euf")
    equalities = p.equalities()
    for name in ("a_literals", "b_literals", "table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, ())
    assert p.equalities() is equalities and len(p.a_literals) == 8


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


def test_an_arity_clash_is_located_at_the_symbol():
    # A constant is read on its own or as an argument; either way its clash
    # with an earlier application is located at its token, as the reverse is.
    for text, line, col, message in [
        ("(A (= (f a) b) (= f c)) (B (not (= b c)))", 1, 19, "arity 0, previously 1"),
        ("(A (= (f a) b) (= (g f) c)) (B)", 1, 22, "arity 0, previously 1"),
        ("(A (= (f a) b))\n(B (= c (g  f)))", 2, 13, "arity 0, previously 1"),
        ("(A (= f c) (= (f a) b)) (B (not (= b c)))", 1, 16, "arity 1, previously 0"),
    ]:
        with pytest.raises(ArityError) as err:
            parse_problem(text)
        assert str(err.value) == f"{line}:{col}: symbol 'f' used with {message}", text
        assert_readers_agree(text)


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


def assert_colorability_matches_reference(symbols, table) -> None:
    """Every table term's colorability equals the reference walk's."""
    memo: dict = {}
    for term in table:
        assert symbols.colorability(term) == reference_colorability(symbols, term, memo), term
    assert len(symbols.bits) == len(table)


def extend_after_parsing(problem, rng: random.Random) -> None:
    """Repair the problem's graph, then make applications over its terms.

    The new applications reuse the problem's symbols at their arities and
    add one symbol no side mentions.
    """
    make_colorable(close(problem.equalities(), problem.terms()), problem.symbols, problem.table)
    table, info = problem.table, problem.symbols.info
    heads = [(name, entry.arity) for name, entry in info.items() if entry.arity]
    heads.append(("fresh", 1))
    for _ in range(8):
        head, arity = rng.choice(heads)
        table.make(head, tuple(rng.choice(table.terms) for _ in range(arity)))


def colorability_problems():
    yield from bench_workload_texts()
    for family in FAMILIES:
        for size in range(2, 41, 3):
            for seed in range(2):
                yield generate(family, size, seed).text


def test_colorability_matches_the_reference_on_problems():
    rng = random.Random(5)
    for text in colorability_problems():
        p = parse_problem(text)
        extend_after_parsing(p, rng)
        assert_colorability_matches_reference(p.symbols, p.table)


def test_colorability_matches_the_reference_on_random_universes():
    rng = random.Random(13)
    sides = (None, Side.A, Side.B)
    for _ in range(200):
        table, _ = random_universe(rng, cap=16)
        symbols = SymbolTable(table)
        for term in table:
            for side in rng.sample(sides, rng.randint(0, 3)):
                symbols.declare(term.head, len(term.args), side)
        assert_colorability_matches_reference(symbols, table)


def test_colorability_catches_up_over_terms_made_after_a_query():
    p = parse_problem(
        "(A (= a z) (= (g a) t0)) (B (= z b) (= (g b) t1) (not (= t0 t1)))"
    )
    table, symbols = p.table, p.symbols
    a = table.make("a")
    assert symbols.colorability(a) == Colorability.A
    before = list(symbols.bits)
    assert len(before) == len(table)

    adhoc = table.make("g", (table.make("g", (a,)),))
    _, added = make_colorable(close(p.equalities(), p.terms()), symbols, table)
    (vertex,) = added
    assert format_term(vertex) == "(g z)" and vertex.id == adhoc.id + 1
    after = table.make("g", (vertex,))
    assert symbols.colorability(adhoc) == Colorability.A
    assert symbols.colorability(vertex) == Colorability.AB
    assert edge_colorability(vertex, table.make("g", (table.make("b"),)), symbols) \
        == Colorability.B
    assert symbols.colorability(after) == Colorability.AB
    assert symbols.bits[: len(before)] == before
    assert_colorability_matches_reference(symbols, table)


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


@pytest.mark.parametrize("family", FAMILIES)
def test_reader_matches_the_reference_on_generated_instances(family):
    for size in range(2, 61):
        for seed in range(3):
            text = generate(family, size, seed).text
            formula = format_conjunction(interpolate(parse_problem(text)).interpolant)
            assert_readers_agree(text, formula)


def test_reader_matches_the_reference_on_malformed_input():
    for command, texts, _ in MALFORMED:
        if command == "interpolate":
            assert_readers_agree(texts[0])
        elif command == "verify":
            assert_readers_agree(*texts)
    for formula in ["true", "false", "(and false')", "(=> (and) false)", "", "(and)"]:
        assert_readers_agree(load_text("horn_min.euf"), formula)


def test_reader_declares_and_notes_symbols_in_one_walk():
    p = parse_problem("(declare-fun g 2) (A (= (f a) (g a b))) (B (not (= (f a) c)))")
    info = p.symbols.info
    assert list(info) == ["g", "a", "f", "b", "c"]
    assert [(info[n].arity, info[n].occurs) for n in info] == [
        (2, 1),
        (0, 3),
        (1, 3),
        (0, 1),
        (0, 2),
    ]
    assert [t.id for t in p.table] == list(range(len(p.table)))
    assert [format_term(t) for t in p.table] == ["a", "(f a)", "b", "(g a b)", "c"]


def test_literals_stay_frozen_values():
    table = TermTable()
    a, b = table.make("a"), table.make("b")
    lit = Literal.make(b, a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lit.equal = False
    assert lit == Literal.make(a, b) and hash(lit) == hash(Literal.make(a, b))


def literal_subterms(problem):
    """The subterm closure of the literals' endpoints, worked out afresh."""
    return subterm_closure(t for lit, _ in problem.literals() for t in (lit.lhs, lit.rhs))


@pytest.mark.parametrize("parse", [parse_problem, reference_parse_problem])
def test_problem_terms_are_the_subterms_of_the_literals(parse):
    texts = [generate(f, n, seed).text for f in FAMILIES for n in (2, 9, 30) for seed in (0, 1)]
    texts += [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.euf"))]
    texts.append("(declare-fun h 1) (A (= a a) (= a b) (= b a)) (B (not (= (f a) (f b))))")
    for text in texts:
        p = parse(text)
        expected = literal_subterms(p)
        assert p.terms() == expected
        result = interpolate(p)
        parse_conjunction(format_conjunction(result.interpolant), p.table, p.symbols)
        parse_conjunction("(and (= (fresh a0) a0))", p.table, p.symbols)
        assert len(p.table) > len(expected)
        assert p.terms() == expected == literal_subterms(p)
