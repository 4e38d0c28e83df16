"""Random problems: the pipeline's interpolants must pass the oracle.

Problems are drawn over A-private, B-private and shared symbols, with
disequalities on both sides and congruences across the sides that need
colorability repair.  Every unsatisfiable draw is interpolated under all three
strategies and each interpolant is checked by the independent oracle; so are
the interpolants of the same problem with its literals shuffled and with its
symbols renamed.  A satisfiable draw is checked too: the oracle must find it
satisfiable, and the pipeline's witness partition must keep every equality
inside a block and every disequality across blocks, and equal the
from-scratch closure of the equalities over the draw's terms (``conftest``'s
``rescan_closure``), so it is closed under congruence.  The game bridge of the
drawn and the shuffled problem must match the reference route in ``conftest``
(``bridge_outcome``), their premise memos and interpolants the factor-layer
reference, and their repair and coloring the reference coloring layer.  Every
unsatisfiable draw also bridges under every strategy, and the oracle accepts
its reparsed game interpolant.  Hypothesis runs derandomized with a fixed
example budget, so the test is deterministic.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from eufinterp.coloring import Strategy
from eufinterp.core import format_literal, parse_problem, subterm_closure
from eufinterp.game import format_game_interpolant, game_interpolant
from eufinterp.interpolate import (
    NotUnsatisfiableError, format_conjunction, interpolate, parse_conjunction,
)
from eufinterp.verify import check_interpolant, literal_set_unsat

from conftest import (
    bridge_outcome, bridge_run, coloring_outcome, extraction_outcome, partition, rescan_closure,
)

SYMBOLS = {  # side -> (constants, (function, arity) pairs); None is shared
    None: (("c0", "c1", "c2"), (("g", 1), ("h", 2))),
    "A": (("a0", "a1"), (("fa", 1),)),
    "B": (("b0", "b1"), (("fb", 1),)),
}
OTHER = {"A": "B", "B": "A"}


@st.composite
def terms(draw, side: str | None, depth: int = 2) -> str:
    """A term over the shared symbols and ``side``'s private ones."""
    constants = SYMBOLS[None][0] + (SYMBOLS[side][0] if side else ())
    functions = SYMBOLS[None][1] + (SYMBOLS[side][1] if side else ())
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(constants))
    head, arity = draw(st.sampled_from(functions))
    args = [draw(terms(side, depth - 1)) for _ in range(arity)]
    return f"({head} {' '.join(args)})"


@st.composite
def problems(draw) -> tuple[list[str], list[str]]:
    """A and B literal lists; no literal occurs on both sides.

    Besides random literals on each side, a draw plants one of two shapes:
    a chain s = ... = t whose runs alternate between the sides and switch
    at shared terms, refuted by (f s) != (f t) for the shared g or the
    refuting side's private function; or a congruence (g a) ~ (g b)
    across the sides, joined at a shared constant, whose derived edge mixes
    A-private and B-private symbols, so repair must split it at (g c).
    """
    lits: dict[str, list[str]] = {"A": [], "B": []}
    seen = set()

    def add(side: str, s: str, t: str, equal: bool = True) -> None:
        key = (equal, frozenset((s, t)))
        if key not in seen:
            seen.add(key)
            lits[side].append(f"(= {s} {t})" if equal else f"(not (= {s} {t}))")

    shape = draw(st.sampled_from(("chain", "crossing", None)))
    if shape == "chain":
        side = draw(st.sampled_from(("A", "B")))
        first = node = draw(terms(None))
        for _ in range(draw(st.integers(2, 5))):
            for end in draw(st.lists(terms(side), max_size=2)) + [draw(terms(None))]:
                add(side, node, end)
                node = end
            side = OTHER[side]
        side = draw(st.sampled_from(("A", "B")))
        wrap = draw(st.sampled_from(("g", SYMBOLS[side][1][0][0])))
        add(side, f"({wrap} {first})", f"({wrap} {node})", False)
    elif shape == "crossing":
        a = draw(st.sampled_from(SYMBOLS["A"][0]))
        b = draw(st.sampled_from(SYMBOLS["B"][0]))
        c, d, e = draw(st.permutations(SYMBOLS[None][0]))
        add("A", a, c)
        add("A", f"(g {a})", d)
        add("B", c, b)
        add("B", f"(g {b})", e)
        add(draw(st.sampled_from(("A", "B"))), d, e, False)
    for side in ("A", "B"):
        for _ in range(draw(st.integers(1, 5))):
            add(side, draw(terms(side)), draw(terms(side)), draw(st.integers(0, 5)) > 0)
    return lits["A"], lits["B"]


def render(a_lits: list[str], b_lits: list[str]) -> str:
    return f"(A {' '.join(a_lits)})\n(B {' '.join(b_lits)})\n"


def accepted_under_every_strategy(text: str) -> bool:
    """False when satisfiable, once the oracle agrees and the witness holds;
    asserts that the oracle accepts each interpolant."""
    problem = parse_problem(text)
    for strategy in Strategy:
        try:
            result = interpolate(problem, strategy)
        except NotUnsatisfiableError as exc:
            literals = problem.a_literals + problem.b_literals
            assert not literal_set_unsat(literals), text
            block = {t.id: k for k, members in enumerate(exc.partition) for t in members}
            for lit in literals:
                assert (block[lit.lhs.id] == block[lit.rhs.id]) is lit.equal, format_literal(lit)
            terms = subterm_closure([t for lit in literals for t in (lit.lhs, lit.rhs)])
            eqs = [(lit.lhs.id, lit.rhs.id) for lit in literals if lit.equal]
            assert partition(block) == partition(rescan_closure(eqs, terms)), text
            return False
        report = check_interpolant(problem, result.interpolant)
        assert report.accepted, (text, strategy, format_conjunction(result.interpolant))
    return True


def game_accepted_under_every_strategy(problem) -> None:
    """Bridge ``problem`` under each strategy; no bridge may fail, and the
    oracle must accept each reparsed game interpolant."""
    for strategy in Strategy:
        _, run = bridge_run(problem, strategy)
        text = format_game_interpolant(game_interpolant(run))
        horn = parse_conjunction(text, problem.table, problem.symbols)
        assert check_interpolant(problem, horn).accepted, (strategy, text)


def rename(text: str, names: dict[str, str]) -> str:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    return " ".join(names.get(tok, tok) for tok in tokens)


@settings(
    derandomize=True,
    database=None,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(problems(), st.data())
def test_random_problems_interpolate_and_verify(sides, data):
    a_lits, b_lits = sides
    text = render(a_lits, b_lits)
    if not accepted_under_every_strategy(text):
        return
    shuffled = render(data.draw(st.permutations(a_lits)), data.draw(st.permutations(b_lits)))
    assert accepted_under_every_strategy(shuffled)
    for problem in map(parse_problem, (text, shuffled)):
        assert bridge_outcome(problem) == bridge_outcome(problem, reference=True)
        game_accepted_under_every_strategy(problem)
        for strategy in Strategy:
            got = extraction_outcome(problem, strategy)
            assert got == extraction_outcome(problem, strategy, reference=True)
            got = coloring_outcome(problem, strategy)
            assert got == coloring_outcome(problem, strategy, reference=True)
    # A bijection onto fresh names that keeps every arity.
    constants = [c for consts, _ in SYMBOLS.values() for c in consts]
    unary = [f for _, funs in SYMBOLS.values() for f, arity in funs if arity == 1]
    names = dict(zip(constants, data.draw(st.permutations([f"k{i}" for i in range(7)]))))
    names.update(zip(unary, data.draw(st.permutations(["u0", "u1", "u2"]))))
    names["h"] = "m"
    assert accepted_under_every_strategy(rename(text, names))
