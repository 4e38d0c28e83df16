"""Independent oracle: naive closure, ground entailment, interpolant checking.

This module deliberately avoids the proof-producing machinery: equivalence
classes are recomputed by repeated full congruence scans over a fixed term
universe until nothing changes.  Slower, but a genuinely separate code path,
so it can arbitrate the main pipeline.

Horn-conjunction reasoning is plain forward chaining: in the theory of
equality every atom is ground and entailment of a conjunction of atoms
reduces to entailment of each atom separately (the theory is convex), so
firing clauses whose premises are individually entailed is complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    Literal,
    ProblemInstance,
    Term,
    format_literal,
    subterm_closure,
)
from .interpolate import HornConjunction

BRUTE_FORCE_CAP = 16


class SizeCapError(ValueError):
    pass


class _Universe:
    """Dense-index view of a subterm-closed term list."""

    def __init__(self, terms: Sequence[Term]):
        self.terms = sorted(terms, key=lambda t: t.id)
        self.index = {t.id: i for i, t in enumerate(self.terms)}
        self.apps = [
            (t.head, tuple(self.index[a.id] for a in t.args), i)
            for i, t in enumerate(self.terms)
            if t.args
        ]

    def pair(self, lit: Literal) -> tuple[int, int]:
        return (self.index[lit.lhs.id], self.index[lit.rhs.id])

    def closure(self, eq_pairs: Iterable[tuple[int, int]]) -> list[int]:
        """Representative array after closing under congruence by rescans."""
        parent = list(range(len(self.terms)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> bool:
            rx, ry = find(x), find(y)
            if rx == ry:
                return False
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            return True

        for a, b in eq_pairs:
            union(a, b)
        apps = self.apps
        while True:
            changed = False
            table: dict[tuple, int] = {}
            for head, argidx, idx in apps:
                key = (head,) + tuple(find(a) for a in argidx)
                other = table.get(key)
                if other is None:
                    table[key] = idx
                elif union(idx, other):
                    changed = True
            if not changed:
                break
        for x in range(len(parent)):
            find(x)
        return parent


def _split(
    universe: _Universe, literals: Iterable[Literal]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    eqs, diseqs = [], []
    for lit in literals:
        (eqs if lit.equal else diseqs).append(universe.pair(lit))
    return eqs, diseqs


def _refuted(parent: list[int], diseqs: Iterable[tuple[int, int]]) -> bool:
    return any(parent[a] == parent[b] for a, b in diseqs)


def brute_force_closure(
    equalities: Iterable[Literal], terms: Sequence[Term]
) -> list[list[Term]]:
    """Partition of a small subterm-closed term set under the equalities."""
    terms = sorted(terms, key=lambda t: t.id)
    if len(terms) > BRUTE_FORCE_CAP:
        raise SizeCapError(f"term set of size {len(terms)} exceeds {BRUTE_FORCE_CAP}")
    ids = {t.id for t in terms}
    for t in terms:
        for a in t.args:
            if a.id not in ids:
                raise ValueError(f"term set not subterm-closed at {t!r}")
    uni = _Universe(terms)
    parent = uni.closure(uni.pair(lit) for lit in equalities)
    blocks: dict[int, list[Term]] = {}
    for i, t in enumerate(uni.terms):
        blocks.setdefault(parent[i], []).append(t)
    return [blocks[rep] for rep in sorted(blocks)]


def _all_terms(literals: Iterable[Literal]) -> list[Term]:
    out = []
    for lit in literals:
        out.append(lit.lhs)
        out.append(lit.rhs)
    return out


def literal_set_unsat(literals: Sequence[Literal]) -> bool:
    universe = _Universe(subterm_closure(_all_terms(literals)))
    eqs, diseqs = _split(universe, literals)
    return _refuted(universe.closure(eqs), diseqs)


def euf_entails(literals: Sequence[Literal], phi: Literal) -> bool:
    """Does the literal set entail phi in the theory of equality?

    For an equality, phi must merge into one class (or the set is already
    unsatisfiable); for a disequality, adding the matching equality must make
    the set unsatisfiable.
    """
    universe = _Universe(subterm_closure(_all_terms(literals) + [phi.lhs, phi.rhs]))
    eqs, diseqs = _split(universe, literals)
    if phi.equal:
        parent = universe.closure(eqs)
        a, b = universe.pair(phi)
        return parent[a] == parent[b] or _refuted(parent, diseqs)
    parent = universe.closure(eqs + [universe.pair(phi)])
    return _refuted(parent, diseqs)


def unsat_with_horn(literals: Sequence[Literal], horn: HornConjunction) -> bool:
    """Saturate the literal set under the Horn clauses; report inconsistency.

    Each round recomputes the closure, fires every clause whose premises are
    all entailed, and stops at a fixpoint or at a contradiction (a refuted
    disequality or a fired false-conclusion clause).
    """
    terms = _all_terms(literals)
    for atom in horn.atoms():
        terms.append(atom.lhs)
        terms.append(atom.rhs)
    universe = _Universe(subterm_closure(terms))
    eqs, diseqs = _split(universe, literals)
    clause_pairs = [
        (
            [universe.pair(p) for p in clause.premises],
            None if clause.conclusion is None else universe.pair(clause.conclusion),
            clause.conclusion is not None and clause.conclusion.equal,
        )
        for clause in horn.clauses
    ]
    fired = [False] * len(clause_pairs)
    while True:
        parent = universe.closure(eqs)
        if _refuted(parent, diseqs):
            return True
        progress = False
        for i, (premises, conclusion, concl_is_eq) in enumerate(clause_pairs):
            if fired[i]:
                continue
            if all(parent[a] == parent[b] for a, b in premises):
                fired[i] = True
                progress = True
                if conclusion is None:
                    return True
                (eqs if concl_is_eq else diseqs).append(conclusion)
        if not progress:
            return False


@dataclass
class EntailmentReport:
    """Outcome of the three interpolant conditions, with failure notes."""

    shared_signature_ok: bool
    a_entails_i: bool
    b_i_unsat: bool
    failures: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.shared_signature_ok and self.a_entails_i and self.b_i_unsat


def _symbols_of(terms: Iterable[Term]) -> set[str]:
    """Head symbols of the terms and all their subterms."""
    seen: set[int] = set()
    heads: set[str] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.id not in seen:
            seen.add(t.id)
            heads.add(t.head)
            stack.extend(t.args)
    return heads


def check_interpolant(problem: ProblemInstance, horn: HornConjunction) -> EntailmentReport:
    """Accept iff: atoms shared, A entails every clause, B plus the formula is unsat.

    The shared signature is read off the A and B literals' own terms, so the
    check does not depend on the pipeline's symbol table.
    """
    failures: list[str] = []

    shared = _symbols_of(_all_terms(problem.a_literals)) & _symbols_of(
        _all_terms(problem.b_literals)
    )
    shared_ok = True
    for ci, clause in enumerate(horn.clauses):
        for atom in clause.atoms():
            if not _symbols_of((atom.lhs, atom.rhs)) <= shared:
                shared_ok = False
                failures.append(
                    f"clause {ci}: atom {format_literal(atom)} uses symbols "
                    "not shared by A and B"
                )

    a_lits = list(problem.a_literals)
    a_ok = True
    for ci, clause in enumerate(horn.clauses):
        context = a_lits + list(clause.premises)
        if clause.conclusion is None:
            holds = literal_set_unsat(context)
        else:
            holds = euf_entails(context, clause.conclusion)
        if not holds:
            a_ok = False
            failures.append(f"clause {ci}: not entailed by A")

    b_ok = unsat_with_horn(list(problem.b_literals), horn)
    if not b_ok:
        failures.append("B stays satisfiable with the formula")

    return EntailmentReport(shared_ok, a_ok, b_ok, failures)
