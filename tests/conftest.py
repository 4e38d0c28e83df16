from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import pytest

from eufinterp.core import Literal, ProblemInstance, Term, parse_problem
from eufinterp.interpolate import HornConjunction, parse_conjunction

DATA = Path(__file__).parent / "data"

BRUTE_FORCE_CAP = 16


class SizeCapError(ValueError):
    pass


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


def brute_force_closure(
    equalities: Iterable[Literal], terms: Sequence[Term]
) -> list[list[Term]]:
    """Partition of a small subterm-closed term set under the equalities.

    A naive fixpoint that shares no code with the closures it checks: each
    term starts in a class of its own, each equality joins two classes, and
    then every pair of applications with one head and pairwise equal
    arguments is joined, over all pairs again, until a pass joins nothing.
    """
    if len(terms) > BRUTE_FORCE_CAP:
        raise SizeCapError(f"term set of size {len(terms)} exceeds {BRUTE_FORCE_CAP}")
    ids = {t.id for t in terms}
    for t in terms:
        for a in t.args:
            if a.id not in ids:
                raise ValueError(f"term set not subterm-closed at {t!r}")
    cls = {t.id: t.id for t in terms}

    def join(s: Term, t: Term) -> None:
        kept, gone = cls[s.id], cls[t.id]
        for tid, c in cls.items():
            if c == gone:
                cls[tid] = kept

    for lit in equalities:
        join(lit.lhs, lit.rhs)
    changed = True
    while changed:
        changed = False
        for s in terms:
            for t in terms:
                if (
                    s.head == t.head
                    and len(s.args) == len(t.args)
                    and cls[s.id] != cls[t.id]
                    and all(cls[a.id] == cls[b.id] for a, b in zip(s.args, t.args))
                ):
                    join(s, t)
                    changed = True
    blocks: dict[int, list[Term]] = {}
    for t in terms:
        blocks.setdefault(cls[t.id], []).append(t)
    return list(blocks.values())


@pytest.fixture
def data_dir() -> Path:
    return DATA
