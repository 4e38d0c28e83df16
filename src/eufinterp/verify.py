"""Independent oracle: incremental closure, ground entailment, interpolant checking.

This module deliberately avoids the proof-producing machinery: ``_Closure``
is its own congruence closure (member rings, static use lists and a
signature table over term ids), a separate code path that can arbitrate the
main pipeline.  ``_shared_heads`` reads the shared signature in one pass.

Horn-conjunction reasoning is plain forward chaining: in the theory of
equality every atom is ground and entailment of a conjunction of atoms
reduces to entailment of each atom separately (the theory is convex), so
firing clauses whose premises are individually entailed is complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import Literal, ProblemInstance, Term, format_literal, subterm_closure
from .interpolate import HornConjunction


class _Closure:
    """Congruence closure with an undo trail over a subterm-closed universe.

    Lists are indexed by term id, up to the last term's; an id the universe
    skips stays a singleton.  ``rep[i]`` is term ``i``'s representative,
    ``ring`` links each class into a circular ring, and ``count[r]`` is the
    size of representative ``r``'s class.  Built once: ``uses[i]``, the
    applications with argument ``i`` (None for none), and ``apps[i]``, an
    application's head and argument ids.  A merge relabels the smaller class
    and re-signs its members' uses in one ring walk, then splices the rings
    by swapping two ``ring`` entries; an undo swaps them back and relabels.
    ``signatures`` maps (head, argument reps...) to an application; an entry
    naming an absorbed class is stale until an undo restores that class.
    """

    def __init__(self, terms: Sequence[Term]):
        size = terms[-1].id + 1 if terms else 0
        self.rep = list(range(size))
        self.ring = list(range(size))
        self.count = [1] * size
        self.uses: list[list[int] | None] = [None] * size
        self.apps: list[tuple[str, tuple[int, ...]] | None] = [None] * size
        self.signatures: dict[tuple, int] = {}
        self.trail: list[tuple[int, int]] = []  # (kept, absorbed) per merge
        self.inserted: list[tuple] = []  # signature keys added by merges
        uses, apps, signatures = self.uses, self.apps, self.signatures
        for t in terms:
            if t.args:
                i, args = t.id, tuple([a.id for a in t.args])
                apps[i] = (t.head, args)
                for a in args:
                    if uses[a] is None:
                        uses[a] = []
                    uses[a].append(i)
                signatures[(t.head, *args)] = i

    def refuted(self, diseqs: Iterable[tuple[int, int]]) -> bool:
        return any(self.rep[a] == self.rep[b] for a, b in diseqs)

    def merge(self, x: int, y: int) -> None:
        self._merge([(x, y)])

    def _merge(self, pending: list[tuple[int, int]]) -> None:
        """Join each pair on the ``pending`` stack and all congruence then joins."""
        rep, ring, count, uses, apps = self.rep, self.ring, self.count, self.uses, self.apps
        signatures, inserted, trail, at = self.signatures, self.inserted, self.trail, rep.__getitem__
        while pending:
            x, y = pending.pop()
            kept, gone = rep[x], rep[y]
            if kept == gone:
                continue
            if count[kept] < count[gone]:
                kept, gone = gone, kept
            trail.append((kept, gone))
            m = gone
            while True:  # relabel and re-sign the absorbed ring
                rep[m] = kept
                used = uses[m]
                if used is not None:
                    for app in used:
                        head, args = apps[app]
                        key = (head, *map(at, args))
                        other = signatures.get(key)
                        if other is None:
                            signatures[key] = app
                            inserted.append(key)
                        elif rep[other] != rep[app]:
                            pending.append((app, other))
                m = ring[m]
                if m == gone:
                    break
            ring[kept], ring[gone] = ring[gone], ring[kept]
            count[kept] += count[gone]

    def mark(self) -> tuple[int, int]:
        return (len(self.trail), len(self.inserted))

    def undo(self, mark: tuple[int, int]) -> None:
        """Roll every merge made since ``mark`` back, newest first."""
        merges, keys = mark
        while len(self.inserted) > keys:
            del self.signatures[self.inserted.pop()]
        rep, ring, count = self.rep, self.ring, self.count
        while len(self.trail) > merges:
            kept, gone = self.trail.pop()
            ring[gone], ring[kept] = ring[kept], ring[gone]
            count[kept] -= count[gone]
            m = gone
            while True:
                rep[m] = gone
                m = ring[m]
                if m == gone:
                    break

    def add(self, literals: Iterable[Literal]) -> list[tuple[int, int]]:
        """Merge the equalities in one batch; return the disequalities as id pairs."""
        pending, diseqs = [], []
        for lit in literals:
            (pending if lit.equal else diseqs).append((lit.lhs.id, lit.rhs.id))
        if pending:
            self._merge(pending)
        return diseqs

    def entails(self, diseqs: list[tuple[int, int]], phi: Literal | None) -> bool:
        """Does the closed set (with ``diseqs``) entail phi (None: false)?

        For an equality, phi must hold in the closure (or the set is already
        unsatisfiable); for a disequality, merging its sides must refute the
        set.  A disequality's merge stays in place for the caller to undo.
        """
        if phi is not None:
            a, b = phi.lhs.id, phi.rhs.id
            if phi.equal:
                if self.rep[a] == self.rep[b]:
                    return True
            else:
                self.merge(a, b)
        return self.refuted(diseqs)


def _all_terms(literals: Iterable[Literal]) -> list[Term]:
    return [t for lit in literals for t in (lit.lhs, lit.rhs)]


def literal_set_unsat(literals: Sequence[Literal]) -> bool:
    closure = _Closure(subterm_closure(_all_terms(literals)))
    return closure.entails(closure.add(literals), None)


def euf_entails(literals: Sequence[Literal], phi: Literal) -> bool:
    """Does the literal set entail phi in the theory of equality?"""
    closure = _Closure(subterm_closure(_all_terms(literals) + [phi.lhs, phi.rhs]))
    return closure.entails(closure.add(literals), phi)


def unsat_with_horn(literals: Sequence[Literal], horn: HornConjunction) -> bool:
    """Saturate the literal set under the Horn clauses; report inconsistency.

    One closure serves the whole saturation.  A clause whose premises all
    hold fires: an equality conclusion is merged at once, a disequality
    conclusion joins the refutation test, and a false conclusion ends the
    search.  A clause that cannot fire yet waits on the two classes of its
    first open premise and is looked at again only when one of them is
    absorbed by a merge.  Saturation is monotone, so the order of firing does
    not change the verdict: a refuted disequality or a fired false clause.
    """
    terms = subterm_closure(_all_terms(literals) + _all_terms(horn.atoms()))
    return _saturate(_Closure(terms), literals, horn)


def _saturate(closure: _Closure, literals: Iterable[Literal], horn: HornConjunction) -> bool:
    """``unsat_with_horn`` on a closure that holds no merge yet."""
    diseqs = closure.add(literals)
    clauses = [
        ([(p.lhs.id, p.rhs.id) for p in c.premises], c.conclusion) for c in horn.clauses
    ]
    rep, trail = closure.rep, closure.trail
    fired = [False] * len(clauses)
    waiting: dict[int, list[int]] = {}
    queue = list(range(len(clauses)))
    while queue:
        ci = queue.pop()
        if fired[ci]:
            continue
        premises, conclusion = clauses[ci]
        open_premise = next(((a, b) for a, b in premises if rep[a] != rep[b]), None)
        if open_premise is not None:
            for x in open_premise:
                waiting.setdefault(rep[x], []).append(ci)
            continue
        fired[ci] = True
        if conclusion is None:
            return True
        seen = len(trail)
        diseqs += closure.add((conclusion,))
        for _, gone in trail[seen:]:
            queue.extend(waiting.pop(gone, ()))
    return closure.refuted(diseqs)


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


def _shared_heads(problem: ProblemInstance) -> set[str]:
    """Heads at or below both an A and a B literal's terms, by one pass down
    the table from the highest id: A and B endpoints start with bits 1 and 2,
    and each term passes its bits on to its arguments."""
    terms = problem.table.terms
    marks = bytearray(len(terms))
    for bit, literals in ((1, problem.a_literals), (2, problem.b_literals)):
        for lit in literals:
            marks[lit.lhs.id] |= bit
            marks[lit.rhs.id] |= bit
    heads = ([], [], [], [])  # heads met with bits 0 (never), 1, 2 and 3
    for t in reversed(terms):
        bits = marks[t.id]
        if bits:
            heads[bits].append(t.head)
            for a in t.args:
                marks[a.id] |= bits
    return set(heads[3]).union(set(heads[1]) & set(heads[2]))


def check_interpolant(problem: ProblemInstance, horn: HornConjunction) -> EntailmentReport:
    """Accept iff: atoms shared, A entails every clause, B plus the formula is unsat.

    The shared signature is read off the A and B literals' own terms, not
    the pipeline's symbol table.  The horn's atoms must be terms of
    ``problem.table``; a ValueError names the first that is not.  On one
    closure over the table, each clause is tested on A, then B saturated.
    """
    failures: list[str] = []
    terms = problem.table.terms
    shared = _shared_heads(problem)
    within: dict[int, bool] = {}  # term id: every head at or below the term is shared
    for t in subterm_closure(_all_terms(horn.atoms())):
        within[t.id] = t.head in shared and (not t.args or all([within[a.id] for a in t.args]))
    shared_ok = True
    for ci, clause in enumerate(horn.clauses):
        for atom in clause.atoms():
            s, t = atom.lhs, atom.rhs
            if max(s.id, t.id) >= len(terms) or terms[s.id] is not s or terms[t.id] is not t:
                raise ValueError(f"atom {format_literal(atom)} uses terms not in problem.table")
            if not (within[s.id] and within[t.id]):
                shared_ok = False
                failures.append(
                    f"clause {ci}: atom {format_literal(atom)} uses symbols "
                    "not shared by A and B"
                )

    closure = _Closure(terms)
    empty = closure.mark()
    a_diseqs = closure.add(problem.a_literals)
    a_closed = closure.mark()
    a_ok = True
    for ci, clause in enumerate(horn.clauses):
        diseqs = a_diseqs + closure.add(clause.premises)
        if not closure.entails(diseqs, clause.conclusion):
            a_ok = False
            failures.append(f"clause {ci}: not entailed by A")
        closure.undo(a_closed)
    closure.undo(empty)  # B starts from the closure as built
    b_ok = _saturate(closure, problem.b_literals, horn)
    if not b_ok:
        failures.append("B stays satisfiable with the formula")

    return EntailmentReport(shared_ok, a_ok, b_ok, failures)
