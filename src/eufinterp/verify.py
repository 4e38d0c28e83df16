"""Independent oracle: incremental closure, ground entailment, interpolant checking.

This module deliberately avoids the proof-producing machinery: ``_Closure``
is its own congruence closure over a fixed, subterm-closed term universe
(representative array, member lists, use lists, all indexed by term id, and
a signature table), so it is a genuinely separate code path and can
arbitrate the main pipeline.  A merge relabels the smaller class and
re-signs only the applications on that class's use list, and goes on an
undo trail.  ``check_interpolant`` runs one closure over the problem's term
table: it closes A and tests each clause by merging its premises and undoing
them, then undoes A and saturates B with the clauses on the same closure.

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

    The universe is an id-ordered term list closed under taking arguments.
    Every list is indexed by term id, up to the last term's; an id the
    universe skips stays a singleton that nothing names.  ``rep[i]`` is the
    class representative of term ``i``; for a representative ``r``,
    ``members[r]`` lists its class and ``uses[r]`` the applications with an
    argument in it.  The lists of an absorbed class stay as they were, which
    is what lets an undo restore it.  ``signatures`` maps (head, argument
    representatives...) to an application; an entry naming an absorbed class
    is stale until an undo makes that class a representative again.
    """

    def __init__(self, terms: Sequence[Term]):
        size = terms[-1].id + 1 if terms else 0
        self.rep = list(range(size))
        self.members = [[i] for i in range(size)]
        self.uses: list[list[int]] = [[] for _ in range(size)]
        self.apps: list[tuple[str, tuple[int, ...]] | None] = [None] * size
        self.signatures: dict[tuple, int] = {}
        self.trail: list[tuple[int, int]] = []  # (kept, absorbed) per merge
        self.inserted: list[tuple] = []  # signature keys added by merges
        uses, apps, signatures = self.uses, self.apps, self.signatures
        for t in terms:
            if t.args:
                args = tuple([a.id for a in t.args])
                apps[t.id] = (t.head, args)
                for a in dict.fromkeys(args):
                    uses[a].append(t.id)
                signatures[(t.head, *args)] = t.id

    def refuted(self, diseqs: Iterable[tuple[int, int]]) -> bool:
        return any(self.rep[a] == self.rep[b] for a, b in diseqs)

    def merge(self, x: int, y: int) -> None:
        """Join the classes of x and y and everything congruence then joins."""
        rep, members, uses, apps = self.rep, self.members, self.uses, self.apps
        signatures, at = self.signatures, rep.__getitem__
        pending = [(x, y)]
        while pending:
            x, y = pending.pop()
            kept, gone = rep[x], rep[y]
            if kept == gone:
                continue
            if len(members[kept]) < len(members[gone]):
                kept, gone = gone, kept
            for m in members[gone]:
                rep[m] = kept
            members[kept].extend(members[gone])
            self.trail.append((kept, gone))
            for app in uses[gone]:
                head, args = apps[app]
                key = (head, *map(at, args))
                other = signatures.get(key)
                if other is None:
                    signatures[key] = app
                    self.inserted.append(key)
                elif rep[other] != rep[app]:
                    pending.append((app, other))
            uses[kept].extend(uses[gone])

    def mark(self) -> tuple[int, int]:
        return (len(self.trail), len(self.inserted))

    def undo(self, mark: tuple[int, int]) -> None:
        """Roll every merge made since ``mark`` back, newest first."""
        merges, keys = mark
        while len(self.inserted) > keys:
            del self.signatures[self.inserted.pop()]
        rep, members, uses = self.rep, self.members, self.uses
        while len(self.trail) > merges:
            kept, gone = self.trail.pop()
            del members[kept][len(members[kept]) - len(members[gone]) :]
            for m in members[gone]:
                rep[m] = gone
            del uses[kept][len(uses[kept]) - len(uses[gone]) :]

    def add(self, literals: Iterable[Literal]) -> list[tuple[int, int]]:
        """Merge the equalities; return the disequalities as id pairs."""
        diseqs = []
        for lit in literals:
            if lit.equal:
                self.merge(lit.lhs.id, lit.rhs.id)
            else:
                diseqs.append((lit.lhs.id, lit.rhs.id))
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


def _heads(literals: Iterable[Literal]) -> set[str]:
    """Head symbols of the literals' terms and all their subterms."""
    seen: set[Term] = set()
    heads: set[str] = set()
    stack = _all_terms(literals)
    while stack:
        t = stack.pop()
        heads.add(t.head)
        if t.args and t not in seen:
            seen.add(t)
            stack.extend(t.args)
    return heads


def check_interpolant(problem: ProblemInstance, horn: HornConjunction) -> EntailmentReport:
    """Accept iff: atoms shared, A entails every clause, B plus the formula is unsat.

    The shared signature is read off the A and B literals' own terms, so the
    check does not depend on the pipeline's symbol table.  The horn's atoms
    must be terms of ``problem.table``; a ValueError names the first that is
    not.  One closure over the whole table serves both entailment checks: A
    is closed on it, each clause's premises are merged on top and undone
    after its test, then A is undone and B saturated with the clauses.
    """
    failures: list[str] = []
    terms = problem.table.terms
    shared = _heads(problem.a_literals) & _heads(problem.b_literals)
    within: dict[int, bool] = {}  # term id: every head at or below the term is shared
    for t in subterm_closure(_all_terms(horn.atoms())):
        within[t.id] = t.head in shared and all(within[a.id] for a in t.args)
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
