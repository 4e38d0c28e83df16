from __future__ import annotations

from pathlib import Path

import pytest

from eufinterp.core import ProblemInstance, parse_problem
from eufinterp.interpolate import HornConjunction, parse_conjunction

DATA = Path(__file__).parent / "data"


def load_text(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def load_problem(name: str) -> ProblemInstance:
    return parse_problem(load_text(name))


def expected_clauses(problem: ProblemInstance, text: str) -> frozenset:
    """Parse formula text against the problem's tables into a clause set.

    Literals are interned and normalized through the same term table, so
    clause-set equality is insensitive to equality orientation and to both
    conjunct and premise order.
    """
    conj = parse_conjunction(text, problem.table, problem.symbols)
    return frozenset(conj.clauses)


def clause_set(conj: HornConjunction) -> frozenset:
    return frozenset(conj.clauses)


def alternating_proof(steps: int) -> str:
    """Proof text: node nk derives (p ck) from n(k-1) and a leaf that alternates
    between A and B, so a run of it has one prover turn per step."""
    lines = ["(theory-symbols)", "(node n0 (p c0) (from A))"]
    for k in range(1, steps + 1):
        side = "a" if k % 2 else "b"
        lines.append(f"(node l{k} ({side} c{k - 1} c{k}) (from {side.upper()}))")
        lines.append(f"(node n{k} (p c{k}) (premises n{k - 1} l{k}))")
    lines.append(f"(node nb (not (p c{steps})) (from B))")
    lines.append(f"(node root false (premises n{steps} nb))")
    return "\n".join(lines) + "\n"


@pytest.fixture
def data_dir() -> Path:
    return DATA
