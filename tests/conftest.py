from __future__ import annotations

import re
import sys
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import pytest

from dataclasses import dataclass
from typing import Union

from eufinterp.congruence import CongruenceGraph, Edge
from eufinterp.core import (
    ArityError,
    Literal,
    OverlapError,
    ParseError,
    ProblemInstance,
    Side,
    SymbolTable,
    Term,
    TermTable,
    format_literal,
    format_term,
    parse_problem,
)
from eufinterp.game import ProofError, parse_proof
from eufinterp.interpolate import HornClause, HornConjunction, parse_conjunction

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


def reference_add_edge(
    graph: CongruenceGraph,
    u: Term,
    v: Term,
    *,
    origin: Literal | None = None,
    side: Side | None = None,
    parents: tuple[tuple[Term, Term], ...] | None = None,
) -> Edge:
    """Add one edge between unconnected vertices, as the closure used to.

    The edge takes the graph's next sequence number.  The smaller tree is
    rerooted at its endpoint and hung below the other one, and the class
    whose smallest id is larger is relabelled into the other.
    """
    rep, classes, up = graph._rep, graph.classes, graph._up
    ru, rv = rep[u.id], rep[v.id]
    if ru == rv:
        raise ValueError(f"edge would close a cycle: {u!r} -- {v!r}")
    edge = Edge(u, v, graph._next_seq, origin=origin, side=side, parents=parents)
    graph._next_seq += 1
    graph.edges[edge] = None
    low, high = (u, v) if len(classes[ru]) <= len(classes[rv]) else (v, u)
    link, up[low] = up[low], None
    child = low
    while link is not None:
        above, parent = link
        link, up[parent] = up[parent], (above, child)
        child = parent
    up[low] = (edge, high)
    keep, absorbed = (ru, rv) if ru < rv else (rv, ru)
    moved = classes.pop(absorbed)
    for t in moved:
        rep[t.id] = keep
    classes[keep].extend(moved)
    return edge


def reference_close(
    equalities: Sequence[tuple[Literal, Side | None]], terms: Sequence[Term]
) -> CongruenceGraph:
    """The closure's merge loop written with one graph method call per step.

    Each merge goes through ``find``, ``reference_add_edge`` and
    ``connected``; the rescan dedupes applications in a dict and takes the
    smallest in-class argument with ``min``.  Input checks are left to the
    closure under test.
    """
    graph = CongruenceGraph(terms)
    use: dict[int, list[Term]] = {t.id: [] for t in graph.vertices}
    for t in graph.vertices:
        for arg in dict.fromkeys(t.args):
            use[arg.id].append(t)
    find = graph.find
    sig_table: dict[tuple, Term] = {}
    for t in graph.vertices:
        if t.args:
            sig_table[(t.head, tuple(a.id for a in t.args))] = t
    pending = deque((lit.lhs, lit.rhs, lit, side) for lit, side in equalities)
    while pending:
        s, t, lit, side = pending.popleft()
        rs, rt = find(s.id), find(t.id)
        if rs == rt:
            continue
        keep, absorbed = (rs, rt) if rs < rt else (rt, rs)
        moved = graph.classes[absorbed]
        if lit is not None:
            reference_add_edge(graph, s, t, origin=lit, side=side)
        else:
            reference_add_edge(graph, s, t, parents=tuple(zip(s.args, t.args)))
        rescan = []
        for app in {app.id: app for member in moved for app in use[member.id]}.values():
            reps = tuple([find(a.id) for a in app.args])
            first = min([a.id for a, r in zip(app.args, reps) if r == keep])
            rescan.append((first, app.id, (app.head, reps), app))
        rescan.sort()
        for _, _, sig, app in rescan:
            known = sig_table.get(sig)
            if known is None:
                sig_table[sig] = app
            elif not graph.connected(app, known):
                pending.append((app, known, None, None))
    return graph


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


HORN_MIN = "(A (= u1 (* x u0)) (= v1 (* x v0))) (B (= u0 v0) (not (= u1 v1)))\n"

# CLI command, input texts, exact stderr for malformed input; every case exits
# 2 and prints nothing.
MALFORMED = [
    ("interpolate", ["(A a) (B (not (= a b)))\n"], "1:4: expected a literal"),
    ("interpolate", ["(A ()) (B (not (= a b)))\n"], "1:4: expected a literal"),
    (
        "interpolate",
        ["(A ((= a b))) (B (not (= a b)))\n"],
        "1:4: expected (= s t) or (not (= s t))",
    ),
    (
        "interpolate",
        ["(A (= (() a) b)) (B (not (= a b)))\n"],
        "1:7: expected a function application",
    ),
    (
        "interpolate",
        ["(A (not (= a b) c)) (B)\n"],
        "1:4: 'not' takes exactly one equality",
    ),
    (
        "interpolate",
        ["(A (= (f a) (f a b))) (B)\n"],
        "1:14: symbol 'f' used with arity 2, previously 1",
    ),
    ("interpolate", ["(A (= a b))\n"], "missing (B ...) set"),
    ("interpolate", ["(B (= a b)) (A)\n"], "1:1: expected (A ...)"),
    (
        "interpolate",
        ["(declare-fun f x) (A (= a b)) (B (not (= a b)))\n"],
        "1:1: expected (declare-fun SYMBOL ARITY)",
    ),
    ("interpolate", ["; c\n\t(A (= a b)\n"], "2:2: unclosed '('"),
    ("verify", [HORN_MIN, "(=> (= u0 v0) (= u1 v1))\n"], "1:1: premises must be (and eq*)"),
    ("verify", [HORN_MIN, "(and ((= u0 v0)))\n"], "1:6: expected a clause"),
    ("verify", [HORN_MIN, "(and (or u0 v0))\n"], "1:6: unexpected clause head 'or'"),
    (
        "verify",
        [HORN_MIN, "(and (=> (and (not (= u0 v0))) (= u1 v1)))\n"],
        "1:15: premises must be equalities",
    ),
    ("game cut", ["(node n1 false (from A))\n"], "1:1: expected (theory-symbols SYMBOL*)"),
    (
        "game cut",
        ["\n  (node n1 false (from A))\n"],
        "2:3: expected (theory-symbols SYMBOL*)",
    ),
    ("game cut", ["(theory-symbols)\n(node n1 false foo)\n"], "2:1: malformed node tail"),
    ("game cut", ["(theory-symbols)\n(node n1 false ())\n"], "2:1: malformed node tail"),
    (
        "game cut",
        ["(theory-symbols)\n(node n1 false (bogus))\n"],
        "2:16: unexpected node tail 'bogus'",
    ),
    (
        "game interpolate",
        ["(theory-symbols)\n(node n1 false (from C))\n"],
        "2:16: expected (from A|B|axiom)",
    ),
    (
        "game interpolate",
        ["(theory-symbols)\n(node n1 () (from A))\n"],
        "2:10: empty formula",
    ),
    (
        "interpolate",
        ["(A (= (f) b)) (B (not (= f b)))\n"],
        "1:7: application of 'f' has no arguments",
    ),
    ("verify", [HORN_MIN, "(and (not (= a a)))\n"], "1:6: reflexive disequality (not (= a a))"),
    (
        "verify",
        [HORN_MIN, "(=> (and (= a a)) (not (= b b)))\n"],
        "1:19: reflexive disequality (not (= b b))",
    ),
    (
        "interpolate",
        ["(declare-fun f \u00b2) (A (= a b)) (B (not (= a b)))\n"],
        "1:1: expected (declare-fun SYMBOL ARITY)",
    ),
    (
        "interpolate",
        [f"(declare-fun f {'9' * 5000}) (A (= a b)) (B (not (= a b)))\n"],
        "1:1: expected (declare-fun SYMBOL ARITY)",
    ),
    ("interpolate", ["(A (= a b))) (B)\n"], "1:12: unbalanced ')'"),
    (
        "interpolate",
        ["(A (not (not (not (= a b))))) (B)\n"],
        "1:9: double negation is not allowed",
    ),
    (
        "interpolate",
        ["(A (= a b)) (B (not (= b a)) (= a b))\n"],
        "1:30: literal (= a b) occurs in both A and B",
    ),
    ("interpolate", ["(A (= (f a) f)) (B)\n"], "symbol 'f' used with arity 0, previously 1"),
    ("interpolate", ["(A (= (f a) (f a b) c)) (B)\n"], "1:4: '=' takes exactly two terms"),
    ("verify", [HORN_MIN, "(= u0 v0) (= u1 v1)\n"], "expected exactly one formula"),
    ("verify", [HORN_MIN, "(and (=> (and) (= u1 v1) x))\n"], "1:6: '=>' takes premises and a conclusion"),
    (
        "game cut",
        ["(theory-symbols r (t))\n(node n1 false (from A))\n"],
        "1:19: theory symbols must be atoms",
    ),
    (
        "game cut",
        ["(theory-symbols)\n(node n1 false)\n"],
        "2:1: expected (node ID FORMULA (from ...)|(premises ...))",
    ),
    (
        "game cut",
        ["(theory-symbols)\n(node n1 (p a) (from A))\n(node n1 false (premises n1))\n"],
        "3:1: node id 'n1' redefined",
    ),
    (
        "game interpolate",
        ["(theory-symbols)\n(node n1 false (premises))\n"],
        "2:16: expected (premises ID+)",
    ),
    (
        "game cut",
        ["(theory-symbols)\n(node n1 (p a) (from A))\n(node n2 false (premises n1 n3))\n"],
        "3:29: unknown premise id 'n3' in node 'n2'",
    ),
    (
        "game interpolate",
        ["(theory-symbols)\n(node n1 (p a) (from A))\n(node n2 (q a) (from B))\n"],
        "expected one root node, found 2",
    ),
    (
        "game cut",
        ["(theory-symbols)\n(node n1 (p a) (from A))\n(node n2 true (premises n1))\n"],
        "root node must be labelled false",
    ),
    (
        "game cut",
        ["(theory-symbols)\n(node n1 (p (f)) (from A))\n(node n2 false (premises n1))\n"],
        "2:13: application of 'f' has no arguments",
    ),
    (
        "game interpolate",
        ["(theory-symbols)\n(node n1 ((f a) b) (from A))\n(node n2 false (premises n1))\n"],
        "2:10: expected a function application",
    ),
]


# The reference s-expression tree: an atom or a list, each with the position
# of its first character.


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int
    col: int


def head_of(sx: SAtom | SList) -> str | None:
    """Text of the first item of a list that starts with an atom, else None."""
    if isinstance(sx, SList) and sx.items and isinstance(sx.items[0], SAtom):
        return sx.items[0].text
    return None


# The reference reader: the two-stage chain the library used before it read
# tokens straight into terms.  Text becomes an s-expression tree with a
# position on every node, and a recursive walk interns the tree's terms.

_REF_TOKEN = re.compile(r"[()]|[^\s();]+")


def _reference_tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    for line, source in enumerate(text.split("\n"), 1):
        for match in _REF_TOKEN.finditer(source.partition(";")[0]):
            yield match[0], line, match.start() + 1


def reference_read_sexprs(text: str) -> list[SAtom | SList]:
    stack: list[tuple[list, int, int]] = []
    top: list[SAtom | SList] = []
    for token, line, col in _reference_tokenize(text):
        if token == "(":
            stack.append(([], line, col))
        elif token == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            items, oline, ocol = stack.pop()
            node = SList(tuple(items), oline, ocol)
            (stack[-1][0] if stack else top).append(node)
        else:
            node = SAtom(token, line, col)
            (stack[-1][0] if stack else top).append(node)
    if stack:
        _, oline, ocol = stack[-1]
        raise ParseError("unclosed '('", oline, ocol)
    return top


def reference_term(
    sx: SAtom | SList, table: TermTable, symbols: SymbolTable, side: Side | None
) -> Term:
    if isinstance(sx, SAtom):
        symbols.declare(sx.text, 0, side)
        return table.make(sx.text)
    if head_of(sx) is None:
        raise ParseError("expected a function application", sx.line, sx.col)
    head = sx.items[0]
    if len(sx.items) == 1:
        raise ParseError(f"application of {head.text!r} has no arguments", sx.line, sx.col)
    args = [reference_term(item, table, symbols, side) for item in sx.items[1:]]
    try:
        symbols.declare(head.text, len(args), side)
    except ArityError as exc:
        raise ArityError(str(exc), head.line, head.col) from None
    return table.make(head.text, args)


def reference_literal(
    sx: SAtom | SList, table: TermTable, symbols: SymbolTable, side: Side | None
) -> Literal:
    if not isinstance(sx, SList) or not sx.items:
        raise ParseError("expected a literal", sx.line, sx.col)
    head = head_of(sx)
    if head == "=":
        if len(sx.items) != 3:
            raise ParseError("'=' takes exactly two terms", sx.line, sx.col)
        lhs = reference_term(sx.items[1], table, symbols, side)
        rhs = reference_term(sx.items[2], table, symbols, side)
        return Literal.make(lhs, rhs, equal=True)
    if head == "not":
        if len(sx.items) != 2:
            raise ParseError("'not' takes exactly one equality", sx.line, sx.col)
        inner = reference_literal(sx.items[1], table, symbols, side)
        if not inner.equal:
            raise ParseError("double negation is not allowed", sx.line, sx.col)
        return inner.negated()
    raise ParseError("expected (= s t) or (not (= s t))", sx.line, sx.col)


def reference_parse_problem(text: str) -> ProblemInstance:
    """The problem parser of the two-stage chain.

    An arity in a declare-fun form is a decimal numeral that ``int`` reads.
    """
    forms = reference_read_sexprs(text)
    table = TermTable()
    symbols = SymbolTable()

    idx = 0
    while idx < len(forms):
        form = forms[idx]
        if head_of(form) == "declare-fun":
            if (
                len(form.items) != 3
                or not isinstance(form.items[1], SAtom)
                or not isinstance(form.items[2], SAtom)
                or not form.items[2].text.isdecimal()
                or len(form.items[2].text) > sys.get_int_max_str_digits() > 0
            ):
                raise ParseError(
                    "expected (declare-fun SYMBOL ARITY)", form.line, form.col
                )
            try:
                symbols.declare(form.items[1].text, int(form.items[2].text))
            except ArityError as exc:
                raise ArityError(str(exc), form.line, form.col) from None
            idx += 1
        else:
            break

    sets: dict[Side, list[Literal]] = {Side.A: [], Side.B: []}
    seen: dict[Literal, Side] = {}
    for side in (Side.A, Side.B):
        if idx >= len(forms):
            raise ParseError(f"missing ({side.value} ...) set")
        form = forms[idx]
        idx += 1
        if head_of(form) != side.value:
            raise ParseError(f"expected ({side.value} ...)", form.line, form.col)
        for raw in form.items[1:]:
            lit = reference_literal(raw, table, symbols, side)
            previous = seen.get(lit)
            if previous is None:
                seen[lit] = side
                sets[side].append(lit)
            elif previous is not side:
                raise OverlapError(
                    f"literal {format_literal(lit)} occurs in both A and B",
                    raw.line,
                    raw.col,
                )
    if idx != len(forms):
        extra = forms[idx]
        raise ParseError("unexpected form after (B ...)", extra.line, extra.col)
    return ProblemInstance(table, symbols, tuple(sets[Side.A]), tuple(sets[Side.B]))


_FALSE_ATOMS = ("false", "false'")


def _reference_conclusion(sx, table: TermTable, symbols: SymbolTable) -> Literal:
    lit = reference_literal(sx, table, symbols, None)
    if not lit.equal and lit.trivial:
        raise ParseError(f"reflexive disequality {format_literal(lit)}", sx.line, sx.col)
    return lit


def _reference_clause(sx, table: TermTable, symbols: SymbolTable) -> HornClause | None:
    if isinstance(sx, SAtom):
        if sx.text in _FALSE_ATOMS:
            return HornClause.make((), None)
        raise ParseError(f"unexpected atom {sx.text!r} in formula", sx.line, sx.col)
    head = head_of(sx)
    if head is None:
        raise ParseError("expected a clause", sx.line, sx.col)
    if head in ("=", "not"):
        return HornClause.make((), _reference_conclusion(sx, table, symbols))
    if head == "=>":
        if len(sx.items) != 3:
            raise ParseError("'=>' takes premises and a conclusion", sx.line, sx.col)
        body, concl = sx.items[1], sx.items[2]
        if head_of(body) != "and":
            raise ParseError("premises must be (and eq*)", sx.line, sx.col)
        premises = []
        for item in body.items[1:]:
            lit = reference_literal(item, table, symbols, None)
            if not lit.equal:
                raise ParseError("premises must be equalities", item.line, item.col)
            premises.append(lit)
        if isinstance(concl, SAtom) and concl.text in _FALSE_ATOMS:
            return HornClause.make(premises, None)
        return HornClause.make(premises, _reference_conclusion(concl, table, symbols))
    raise ParseError(f"unexpected clause head {head!r}", sx.line, sx.col)


def reference_parse_conjunction(
    text: str, table: TermTable, symbols: SymbolTable
) -> HornConjunction:
    forms = reference_read_sexprs(text)
    if len(forms) != 1:
        raise ParseError("expected exactly one formula")
    form = forms[0]
    if isinstance(form, SAtom) and form.text == "true":
        return HornConjunction(())
    if head_of(form) == "and":
        return HornConjunction.from_clauses(
            _reference_clause(item, table, symbols) for item in form.items[1:]
        )
    return HornConjunction.from_clauses([_reference_clause(form, table, symbols)])


# The reference proof reader: the chain the library used before it read proof
# files on ``core.Reader``.  Formulas are nested tuples of atom texts, read
# and printed by recursion.

Formula = Union[str, tuple]


def reference_formula(sx: SAtom | SList) -> Formula:
    """A formula: an atom, or a list of an atom head and at least one formula."""
    if isinstance(sx, SAtom):
        return sx.text
    if not sx.items:
        raise ParseError("empty formula", sx.line, sx.col)
    head = head_of(sx)
    if head is None:
        raise ParseError("expected a function application", sx.line, sx.col)
    if len(sx.items) == 1:
        raise ParseError(f"application of {head!r} has no arguments", sx.line, sx.col)
    return tuple(reference_formula(item) for item in sx.items)


def reference_format_formula(f: Formula) -> str:
    if isinstance(f, str):
        return f
    return "(" + " ".join(reference_format_formula(item) for item in f) + ")"


def reference_parse_proof(text: str) -> tuple[frozenset, dict, Formula]:
    """``(theory symbols, {label: (label, premise labels, origin)}, root)``."""
    forms = reference_read_sexprs(text)
    if not forms:
        raise ParseError("empty proof")
    header = forms[0]
    if head_of(header) != "theory-symbols":
        raise ParseError("expected (theory-symbols SYMBOL*)", header.line, header.col)
    theory = []
    for item in header.items[1:]:
        if not isinstance(item, SAtom):
            raise ParseError("theory symbols must be atoms", item.line, item.col)
        theory.append(item.text)

    raw: dict[str, tuple[Formula, tuple[SAtom, ...], str | None]] = {}
    for form in forms[1:]:
        if (
            head_of(form) != "node"
            or len(form.items) != 4
            or not isinstance(form.items[1], SAtom)
        ):
            raise ParseError(
                "expected (node ID FORMULA (from ...)|(premises ...))",
                form.line,
                form.col,
            )
        node_id = form.items[1].text
        if node_id in raw:
            raise ParseError(f"node id {node_id!r} redefined", form.line, form.col)
        formula = reference_formula(form.items[2])
        tail = form.items[3]
        kind = head_of(tail)
        if kind is None:
            raise ParseError("malformed node tail", form.line, form.col)
        if kind == "from":
            if (
                len(tail.items) != 2
                or not isinstance(tail.items[1], SAtom)
                or tail.items[1].text not in ("A", "B", "axiom")
            ):
                raise ParseError("expected (from A|B|axiom)", tail.line, tail.col)
            raw[node_id] = (formula, (), tail.items[1].text)
        elif kind == "premises":
            if len(tail.items) < 2 or not all(
                isinstance(i, SAtom) for i in tail.items[1:]
            ):
                raise ParseError("expected (premises ID+)", tail.line, tail.col)
            raw[node_id] = (formula, tail.items[1:], None)
        else:
            raise ParseError(f"unexpected node tail {kind!r}", tail.line, tail.col)

    referenced: set[str] = set()
    for node_id, (_, premises, _) in raw.items():
        for pid in premises:
            if pid.text not in raw:
                raise ParseError(
                    f"unknown premise id {pid.text!r} in node {node_id!r}",
                    pid.line,
                    pid.col,
                )
            referenced.add(pid.text)
    roots = [nid for nid in raw if nid not in referenced]
    if len(roots) != 1:
        raise ProofError(f"expected one root node, found {len(roots)}")
    if raw[roots[0]][0] != "false":
        raise ProofError("root node must be labelled false")

    checked: set[str] = set()

    def visit(node_id: str, open_ids: set[str]) -> None:
        open_ids.add(node_id)
        for pid in raw[node_id][1]:
            if pid.text in open_ids:
                raise ProofError(f"cyclic proof through node {pid.text!r}")
            if pid.text not in checked:
                visit(pid.text, open_ids)
        open_ids.discard(node_id)
        checked.add(node_id)

    nodes: dict[Formula, tuple] = {}
    for node_id, (formula, premises, origin) in raw.items():
        if node_id not in checked:
            visit(node_id, set())
        node = (formula, tuple(raw[p.text][0] for p in premises), origin)
        if nodes.setdefault(formula, node) != node:
            raise ProofError(
                f"nodes labelled {reference_format_formula(formula)} "
                "root different subtrees"
            )
    return frozenset(theory), nodes, "false"


def proof_outcome(text: str, reference: bool = False):
    """What a proof reader gives, printed: theory symbols, nodes in order
    (label, premise labels, origin) and root; or the error's class, text and
    position."""
    try:
        if reference:
            theory, nodes, root = reference_parse_proof(text)
            fmt = reference_format_formula
            entries = nodes.values()
        else:
            tree = parse_proof(text)
            theory, root, fmt = tree.theory_symbols, tree.root, format_term
            entries = ((n.formula, n.premises, n.origin) for n in tree.nodes.values())
    except ValueError as exc:
        where = getattr(exc, "line", None), getattr(exc, "col", None)
        return "error", type(exc), str(exc), *where
    nodes = [
        (fmt(label), tuple(fmt(p) for p in premises), origin)
        for label, premises, origin in entries
    ]
    return "ok", sorted(theory), nodes, fmt(root)


def assert_proof_readers_agree(text: str) -> None:
    assert proof_outcome(text) == proof_outcome(text, reference=True), text


def table_snapshot(problem) -> tuple:
    """Term table (id, head, argument ids) and symbol table, in order."""
    terms = [(t.id, t.head, tuple(a.id for a in t.args)) for t in problem.table]
    symbols = [
        (name, info.arity, info.occurs_in_a, info.occurs_in_b)
        for name, info in problem.symbols.info.items()
    ]
    return terms, symbols


def literal_key(lit) -> tuple:
    return lit.lhs.id, lit.rhs.id, lit.equal


def parse_outcome(parse, *args):
    """What a parser gives: its value, or the error's class, text and position."""
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "error", type(exc), str(exc), exc.line, exc.col


def problem_outcome(parse, text: str):
    outcome = parse_outcome(parse, text)
    if outcome[0] == "error":
        return outcome
    problem = outcome[1]
    return (
        "ok",
        table_snapshot(problem),
        [literal_key(lit) for lit in problem.a_literals],
        [literal_key(lit) for lit in problem.b_literals],
    )


def conjunction_outcome(parse_prob, parse_conj, problem_text: str, text: str):
    """Parse the problem, then the formula against its tables."""
    problem = parse_prob(problem_text)
    outcome = parse_outcome(parse_conj, text, problem.table, problem.symbols)
    if outcome[0] == "error":
        return outcome
    clauses = [
        (
            [literal_key(p) for p in c.premises],
            None if c.conclusion is None else literal_key(c.conclusion),
        )
        for c in outcome[1].clauses
    ]
    return "ok", clauses, table_snapshot(problem)


def assert_readers_agree(problem_text: str, formula_text: str | None = None) -> None:
    ours = problem_outcome(parse_problem, problem_text)
    assert ours == problem_outcome(reference_parse_problem, problem_text), problem_text
    if formula_text is not None and ours[0] == "ok":
        assert conjunction_outcome(
            parse_problem, parse_conjunction, problem_text, formula_text
        ) == conjunction_outcome(
            reference_parse_problem,
            reference_parse_conjunction,
            problem_text,
            formula_text,
        ), formula_text


@pytest.fixture
def data_dir() -> Path:
    return DATA
