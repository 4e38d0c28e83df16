from __future__ import annotations

import re
import sys
import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from eufinterp import game
from eufinterp.coloring import (
    ColoredGraph,
    ColoringError,
    Strategy,
    _greedy_assign,
    choose_splitter,
)
from eufinterp.congruence import (
    CongruenceGraph,
    Edge,
    Path as GraphPath,
    close,
    find_refuted_disequality,
)
from eufinterp.core import (
    ArityError,
    Colorability,
    Literal,
    OverlapError,
    ParseError,
    ProblemInstance,
    Side,
    SymbolTable,
    Term,
    TermTable,
    edge_colorability,
    format_literal,
    format_term,
    parse_problem,
)
from eufinterp.game import (
    LOGICAL_TOKENS,
    InterpolationRun,
    InvalidCutError,
    NonLocalProofError,
    ProofError,
    ProofTree,
    format_game_interpolant,
    game_interpolant,
    local_cut,
    parse_proof,
    run_from_cut,
    unfold_refutation,
)
from eufinterp.interpolate import (
    HornClause,
    HornConjunction,
    NotUnsatisfiableError,
    PremiseSets,
    build_colored_graph,
    format_conjunction,
    interpolate,
    parse_conjunction,
)

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


def graph_record(graph: CongruenceGraph) -> tuple:
    """Everything a closure or repair decides, as plain values: the edges in
    order by their fields, the vertex list, each vertex's forest link by edge
    seq, its class handle and its label, the classes with member order, the
    next seq and the members moved."""
    edges = [(e.u, e.v, e.seq, e.origin, e.side, e.parents) for e in graph.edges]
    per_vertex = []
    for t in graph.vertices:
        link = graph._up[t.id]
        handle = graph._rep[t.id]
        per_vertex.append(
            (None if link is None else (link[0].seq, link[1].id), handle, graph._label[handle])
        )
    classes = {rep: [t.id for t in members] for rep, members in graph.classes.items()}
    vertices = [t.id for t in graph.vertices]
    return edges, vertices, per_vertex, classes, graph._next_seq, graph.moved


def singleton_graph(terms: Iterable[Term]) -> CongruenceGraph:
    """A graph over ``terms``, each in a class of its own, with no edges.

    Built without ``close``: each term is kept once, in id order, and is its
    own class's handle and label.
    """
    vertices = sorted({t.id: t for t in terms}.values(), key=lambda t: t.id)
    graph = CongruenceGraph(vertices[-1].id + 1 if vertices else 0)
    graph.vertices = vertices
    for t in vertices:
        graph._rep[t.id] = graph._label[t.id] = t.id
        graph.classes[t.id] = [t]
    return graph


def _by_size(graph: CongruenceGraph, ra: int, rb: int) -> list[int]:
    """The handles ``ra`` and ``rb`` as [kept, moved]: the larger class is
    kept, and on a tie the one with the smaller label."""
    return sorted((ra, rb), key=lambda r: (-len(graph.classes[r]), graph._label[r]))


def reference_add_edge(
    graph: CongruenceGraph,
    u: Term,
    v: Term,
    *,
    origin: Literal | None = None,
    side: Side | None = None,
    parents: tuple[tuple[Term, Term], ...] | None = None,
) -> Edge:
    """Add one edge between unconnected vertices, as a closure merge does.

    The edge takes the graph's next sequence number.  The smaller tree is
    rerooted at its endpoint and hung below the other one.  The class with
    fewer members, or on a tie the one with the larger label, is relabelled
    into the other, which takes the smaller of the two labels.
    """
    rep, classes, label, up = graph._rep, graph.classes, graph._label, graph._up
    ru, rv = rep[u.id], rep[v.id]
    if ru == rv:
        raise ValueError(f"edge would close a cycle: {u!r} -- {v!r}")
    edge = Edge(u, v, graph._next_seq, origin=origin, side=side, parents=parents)
    graph._next_seq += 1
    graph.edges[edge] = None
    low, high = (u, v) if len(classes[ru]) <= len(classes[rv]) else (v, u)
    link, up[low.id] = up[low.id], None
    child = low
    while link is not None:
        above, parent = link
        link, up[parent.id] = up[parent.id], (above, child)
        child = parent
    up[low.id] = (edge, high)
    keep, absorbed = _by_size(graph, ru, rv)
    moved = classes.pop(absorbed)
    label[keep] = min(label[keep], label[absorbed])
    for t in moved:
        rep[t.id] = keep
    classes[keep].extend(moved)
    return edge


def reference_close(
    equalities: Sequence[tuple[Literal, Side | None]], terms: Sequence[Term]
) -> CongruenceGraph:
    """The closure's merge loop written with one graph method call per step.

    Starts from ``singleton_graph``.  Each merge goes through
    ``reference_add_edge`` and ``connected``, reads class handles off
    ``_rep`` and adds the moved class's size to ``moved``; signatures are
    tuples of handles.  The rescan covers the applications over the moved
    class, the smaller one, dedupes them in a dict and takes the smallest
    in-class argument with ``min``.  Input checks are left to the closure
    under test.
    """
    graph = singleton_graph(terms)
    use: dict[int, list[Term]] = {t.id: [] for t in graph.vertices}
    for t in graph.vertices:
        for arg in dict.fromkeys(t.args):
            use[arg.id].append(t)
    handle = graph._rep.__getitem__
    sig_table: dict[tuple, Term] = {}
    for t in graph.vertices:
        if t.args:
            sig_table[(t.head, tuple(a.id for a in t.args))] = t
    pending = deque((lit.lhs, lit.rhs, lit, side) for lit, side in equalities)
    while pending:
        s, t, lit, side = pending.popleft()
        rs, rt = handle(s.id), handle(t.id)
        if rs == rt:
            continue
        keep, absorbed = _by_size(graph, rs, rt)
        moved = graph.classes[absorbed]
        graph.moved += len(moved)
        if lit is not None:
            reference_add_edge(graph, s, t, origin=lit, side=side)
        else:
            reference_add_edge(graph, s, t, parents=tuple(zip(s.args, t.args)))
        rescan = []
        for app in {app.id: app for member in moved for app in use[member.id]}.values():
            reps = tuple([handle(a.id) for a in app.args])
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


def reference_colorability(
    symbols: SymbolTable, term: Term, memo: dict[int, Colorability] | None = None
) -> Colorability:
    """The colorability of ``term``, by a walk of its own over its subterms.

    The reference for ``SymbolTable.bits``: children first on an explicit
    stack, each term's flags its head's occurrences met with its arguments'
    flags, memoized per term id in ``memo`` across calls.
    """
    memo = {} if memo is None else memo
    stack = [term]
    while stack:
        t = stack[-1]
        if t.id in memo:
            stack.pop()
            continue
        pending = [a for a in t.args if a.id not in memo]
        if pending:
            stack.extend(pending)
            continue
        entry = symbols.info.get(t.head)
        flags = Colorability.NONE
        if entry is not None and entry.occurs_in_a:
            flags |= Colorability.A
        if entry is not None and entry.occurs_in_b:
            flags |= Colorability.B
        for arg in t.args:
            flags &= memo[arg.id]
        memo[t.id] = flags
        stack.pop()
    return memo[term.id]


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
    (
        "interpolate",
        ["(A (= (f a) f)) (B)\n"],
        "1:13: symbol 'f' used with arity 0, previously 1",
    ),
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
        try:
            symbols.declare(sx.text, 0, side)
        except ArityError as exc:
            raise ArityError(str(exc), sx.line, sx.col) from None
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
    symbols = SymbolTable(table)

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


def _reference_conclusion(sx, table: TermTable, symbols: SymbolTable) -> Literal:
    lit = reference_literal(sx, table, symbols, None)
    if not lit.equal and lit.trivial:
        raise ParseError(f"reflexive disequality {format_literal(lit)}", sx.line, sx.col)
    return lit


def _reference_clause(sx, table: TermTable, symbols: SymbolTable) -> HornClause | None:
    if isinstance(sx, SAtom):
        if sx.text == "false":
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
        if isinstance(concl, SAtom) and concl.text == "false":
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
    """``(theory symbols, {label: (label, premise labels, origin)}, root)``,
    labels in the order the recursive cycle check finishes their first node."""
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

    checked: dict[str, None] = {}  # node ids, in the order visits finish them

    def visit(node_id: str, open_ids: set[str]) -> None:
        open_ids.add(node_id)
        for pid in raw[node_id][1]:
            if pid.text in open_ids:
                raise ProofError(f"cyclic proof through node {pid.text!r}")
            if pid.text not in checked:
                visit(pid.text, open_ids)
        open_ids.discard(node_id)
        checked[node_id] = None

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
    finished = dict.fromkeys(raw[node_id][0] for node_id in checked)
    return frozenset(theory), {label: nodes[label] for label in finished}, "false"


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
            entries = ((n.formula, n.premises, n.origin) for n in label_nodes(tree).values())
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
        problem.symbols.covering(),
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


# Signature predicates and the premise order of a ``ProofTree``.  The library
# reads fits per node through ``tree.fits``; the tests ask them of any label,
# from free symbols scanned as frozensets of names.


def reference_free_symbols(term, frees: dict) -> frozenset:
    """Non-logical symbols of ``term`` from its arguments' entries in ``frees``.

    ``(forall v BODY)`` and ``(exists v BODY)`` bind ``v``.
    """
    head, args = term.head, term.args
    if head in ("forall", "exists") and len(args) == 2 and not args[0].args:
        return frees[args[1]] - {args[0].head}
    own = frozenset() if head in LOGICAL_TOKENS else frozenset((head,))
    return own.union(*(frees[a] for a in args))


def all_heads(term, memo: dict) -> frozenset:
    """Every head in ``term``, memoized per subterm; no recursion."""
    hit = memo.get(term)
    if hit is not None:
        return hit
    stack = [term]
    while stack:
        t = stack[-1]
        pending = [a for a in t.args if a not in memo]
        if pending:
            stack += pending
            continue
        stack.pop()
        memo[t] = frozenset((t.head,)).union(*(memo[a] for a in t.args))
    return memo[term]


_FREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reference_frees(table: TermTable) -> dict:
    """Free symbols of every term of ``table`` as frozensets of names, kept
    per table and extended as it grows.

    An EUF bridge's ``(= s t)`` label takes the graph's terms, which belong
    to another table, as arguments: every head of ``s`` and ``t`` counts as
    a symbol, also one spelled like a logical token.  Every other term is
    scanned by ``reference_free_symbols``, in id order.
    """
    frees, heads = _FREES.setdefault(table, ({}, {}))
    for term in table.terms[len(frees):]:
        if all(a in frees for a in term.args):
            frees[term] = reference_free_symbols(term, frees)
        else:
            frees[term] = frozenset().union(*(all_heads(a, heads) for a in term.args))
    return frees


_SIGNATURES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def signatures(tree: ProofTree) -> tuple[dict, frozenset, frozenset]:
    """``(frees, A's signature, B's)``: a side's signature is the theory
    symbols and the free symbols of its leaves.  Kept per tree until it
    grows."""
    kept = _SIGNATURES.get(tree)
    if kept is None or kept[0] != len(tree.labels):
        frees = reference_frees(tree.table)
        sides = {"A": set(tree.theory_symbols), "B": set(tree.theory_symbols)}
        for label, origin in zip(tree.labels, tree.origins):
            if origin in sides:
                sides[origin] |= frees[label]
        kept = len(tree.labels), frees, frozenset(sides["A"]), frozenset(sides["B"])
        _SIGNATURES[tree] = kept
    return kept[1:]


def sigma(tree: ProofTree, side: str) -> frozenset[str]:
    """The symbols of ``side``'s leaves, theory symbols excluded."""
    return signatures(tree)[1 if side == "A" else 2] - tree.theory_symbols


def problem_sides(problem: ProblemInstance) -> tuple[frozenset, frozenset]:
    """The side signatures of an EUF bridge: every head in the problem's A
    literals, and every head in its B literals."""
    memo: dict = {}
    return tuple(
        frozenset().union(*(all_heads(t, memo) for lit in lits for t in (lit.lhs, lit.rhs)))
        for lits in (problem.a_literals, problem.b_literals)
    )


def label_fit(tree: ProofTree, label: Term, sides: tuple | None = None) -> int:
    """Bit 1: ``label`` fits A's signature; bit 2: B's.  The signatures are
    ``sides``, as ``problem_sides`` gives them for an EUF bridge, or else
    those of ``tree``'s leaves."""
    if sides is None:
        frees, a, b = signatures(tree)
    else:
        frees, (a, b) = reference_frees(tree.table), sides
    return (frees[label] <= a) | (frees[label] <= b) << 1


def premise_first(tree: ProofTree) -> bool:
    """Every premise index of ``tree`` is below its conclusion's."""
    return all(p < i for i, ps in enumerate(tree.premises) for p in ps)


# The coloring layer as it ran before repair and coloring read each edge's fit
# off ``SymbolTable.covering``: the repair scan asks ``edge_colorability`` for
# every edge, and coloring asks it again, takes forced colors from
# ``_forced_color`` and re-checks every color in ``_validate``.  The library's
# repair and coloring are compared against it.


def reference_make_colorable(
    graph: CongruenceGraph, symbols: SymbolTable, table: TermTable
) -> tuple[CongruenceGraph, list[Term]]:
    none = Colorability.NONE
    queue = deque(e for e in graph.edges if edge_colorability(e.u, e.v, symbols) is none)
    if not queue:
        return graph, []
    g = graph.clone()
    added: list[Term] = []
    while queue:
        edge = queue.popleft()
        if not edge.is_derived:
            raise ColoringError(f"basic edge {edge!r} is uncolorable")
        splitters = [choose_splitter(g.path(p, q), symbols) for p, q in edge.parents]
        new_term = table.make(edge.u.head, splitters)
        left_pairs = tuple(zip((p for p, _ in edge.parents), splitters))
        right_pairs = tuple(zip(splitters, (q for _, q in edge.parents)))
        if new_term not in g:
            added.append(new_term)
        for new in g.split_edge(edge, new_term, left_pairs, right_pairs):
            if edge_colorability(new.u, new.v, symbols) is none:
                queue.append(new)
    return g, added


def _reference_forced_color(edge: Edge, fit: Colorability) -> Side | None:
    if edge.is_basic:
        if edge.side is None:
            raise ColoringError(f"basic edge {edge!r} has no originating side")
        return edge.side
    if fit is Colorability.AB:
        return None
    if fit is Colorability.A:
        return Side.A
    if fit is Colorability.B:
        return Side.B
    raise ColoringError(f"uncolorable edge {edge!r}; repair must run first")


def _reference_validate(fits: list, colors: dict) -> None:
    for edge, fit in fits:
        side = colors[edge.seq]
        if edge.is_basic and side is not edge.side:
            raise ColoringError(f"basic edge {edge!r} recolored to {side}")
        want = Colorability.A if side is Side.A else Colorability.B
        if fit is not Colorability.AB and fit is not want:
            raise ColoringError(f"edge {edge!r} colored {side} but not {side}-colorable")


def reference_color(
    graph: CongruenceGraph, symbols: SymbolTable, strategy=Strategy.GREEDY, *, relevant
) -> ColoredGraph:
    colors: dict[int, Side] = {}
    free: list[Edge] = []
    fits = [(edge, edge_colorability(edge.u, edge.v, symbols)) for edge in graph.edges]
    for edge, fit in fits:
        forced = _reference_forced_color(edge, fit)
        if forced is None:
            free.append(edge)
        else:
            colors[edge.seq] = forced
    if strategy is Strategy.ALL_A:
        for edge in free:
            colors[edge.seq] = Side.A
    elif strategy is Strategy.ALL_B:
        for edge in free:
            colors[edge.seq] = Side.B
    else:
        if free:
            _greedy_assign(graph, colors, relevant)
        for edge in free:
            colors.setdefault(edge.seq, Side.A)
    _reference_validate(fits, colors)
    return ColoredGraph(graph, symbols, colors)


def coloring_outcome(problem: ProblemInstance, strategy, reference: bool = False):
    """Colors by edge seq, repaired edges and added vertex ids, or the error.

    The library route is ``build_colored_graph``; the reference route closes
    and picks the refuted literal the same way, then repairs and colors with
    the reference layer.  Edges are (seq, endpoint ids, parent id pairs).
    None when no disequality is refuted.
    """
    try:
        if not reference:
            colored, _, _, added = build_colored_graph(problem, strategy)
        else:
            graph = close(problem.equalities(), problem.terms())
            found = find_refuted_disequality(graph, problem.disequalities())
            if found is None:
                return None
            refuted, _ = found
            symbols = problem.symbols
            repaired, added = reference_make_colorable(graph, symbols, problem.table)
            colored = reference_color(
                repaired, symbols, strategy, relevant=(refuted.lhs, refuted.rhs)
            )
    except NotUnsatisfiableError:
        return None
    except ColoringError as exc:
        return str(exc)
    edges = [
        (e.seq, e.u.id, e.v.id, e.parents and tuple((p.id, q.id) for p, q in e.parents))
        for e in colored.graph.edges
    ]
    colors = [(seq, side.value) for seq, side in colored.colors.items()]
    return colors, edges, [t.id for t in added]


# The factor layer: color factorization and premise sets as they ran before
# ``ColoredGraph.runs``.  Each path became ``Factor`` objects holding sliced
# paths, once per memo, and each premise set was a generator per frame on the
# generic ``_memoized`` stack.  The run-based premise sets and the unfold are
# compared against it.


@dataclass(slots=True)
class Factor:
    """Maximal same-colored subpath."""

    side: Side
    path: GraphPath


def reference_factors(colored, path: GraphPath) -> list[Factor]:
    sides = [colored.colors[edge.seq] for edge in path.edges]
    out: list[Factor] = []
    lo = 0
    for i in range(1, len(sides) + 1):
        if i == len(sides) or sides[i] is not sides[lo]:
            out.append(Factor(sides[lo], path.slice(lo, i)))
            lo = i
    return out


class ReferencePremiseSets:
    """Premise sets over ``reference_factors``; memo values are path tuples."""

    def __init__(self, colored):
        self.colored = colored
        self._b: dict = {}
        self._a: dict = {}
        self._cumulative: dict = {}
        self._running: set = set()

    def _guard(self, tag: str, key: tuple) -> tuple:
        mark = (tag, key)
        if mark in self._running:
            raise RuntimeError(f"premise recursion revisited {mark}")
        self._running.add(mark)
        return mark

    def _memoized(self, memo: dict, tag: str, path: GraphPath, parts) -> tuple:
        key = path.key
        value = memo.get(key)
        if value is not None:
            return value
        stack = [(key, self._guard(tag, key), parts(path), {})]
        while stack:
            key, mark, todo, out = stack[-1]
            for part, joins in todo:
                if not joins:
                    out.setdefault(part.key, part)
                    continue
                sub_key = part.key
                hit = memo.get(sub_key)
                if hit is None:
                    stack.append((sub_key, self._guard(tag, sub_key), parts(part), {}))
                    break
                for p in hit:
                    out.setdefault(p.key, p)
            else:
                stack.pop()
                self._running.discard(mark)
                memo[key] = value = tuple(out.values())
                if stack:
                    out = stack[-1][3]
                    for p in value:
                        out.setdefault(p.key, p)
        return value

    def _premises(self, path: GraphPath, want: Side) -> tuple:
        graph = self.colored.graph
        memo = self._b if want is Side.B else self._a

        def parts(path: GraphPath):
            if path.is_empty:
                return
            for factor in reference_factors(self.colored, path):
                if factor.side is want:
                    yield factor.path, False
                    continue
                for edge in factor.path.edges:
                    if edge.is_derived:
                        for p, q in edge.parents:
                            if p is q:
                                continue
                            hit = memo.get((p.id, q.id) if p.id < q.id else (q.id, p.id))
                            if hit is None:
                                yield graph.path(p, q), True
                            else:
                                for sub in hit:
                                    yield sub, False

        return self._memoized(memo, want.value, path, parts)

    def b_premises(self, path: GraphPath) -> tuple:
        return self._premises(path, Side.B)

    def a_premises(self, path: GraphPath) -> tuple:
        return self._premises(path, Side.A)

    def cumulative(self, path: GraphPath) -> tuple:
        def parts(path: GraphPath):
            yield path, False
            for sigma in self.a_premises(path):
                for tau in self.b_premises(sigma):
                    yield tau, True

        return self._memoized(self._cumulative, "P", path, parts)


def cumulative_paths(ps: PremiseSets, path: GraphPath) -> list:
    """The path, then every B-premise of its A-premises, recursively, once each.

    Read off the library's ``ps.premises`` in pre-order, each path in the
    direction it is first met in: the cumulative premise set the pipeline's
    walk covers, as a path list.
    """
    found: dict = {}
    stack = [path]
    while stack:
        tau = stack.pop()
        if tau.key in found:
            continue
        found[tau.key] = tau
        below = [
            sub
            for sigma in ps.premises(tau, Side.A).values()
            for sub in ps.premises(sigma, Side.B).values()
        ]
        stack.extend(reversed(below))
    return list(found.values())


def summary(path: GraphPath) -> Literal:
    """The equality of the path's endpoints."""
    return Literal.make(path.start, path.end)


def justification(ps: PremiseSets, path: GraphPath) -> HornClause | None:
    """Horn clause: the path's B-premise summaries imply its own summary.

    The library assembles the same clauses from path keys; this is the
    literal-level reference they are checked against.
    """
    premises = [summary(p) for p in ps.premises(path, Side.B).values()]
    return HornClause.make(premises, summary(path))


def reference_path_interpolant(ps: ReferencePremiseSets, path: GraphPath) -> HornConjunction:
    sigmas: dict = {}
    for tau in ps.cumulative(path):
        for sigma in ps.a_premises(tau):
            sigmas.setdefault(sigma.key, sigma)
    return HornConjunction.from_clauses(
        HornClause.make([summary(p) for p in ps.b_premises(sigma)], summary(sigma))
        for sigma in sigmas.values()
    )


def reference_refutation_interpolant(
    ps: ReferencePremiseSets, path: GraphPath
) -> HornConjunction:
    symbols = ps.colored.symbols
    verts = path.vertices
    b_positions = [
        i for i, v in enumerate(verts) if symbols.colorability(v) & Colorability.B
    ]
    clauses: list = []
    if b_positions:
        i, j = b_positions[0], b_positions[-1]
        prefix = path.slice(0, i)
        core = path.slice(i, j)
        suffix = path.slice(j, len(verts) - 1)
    else:
        prefix, core, suffix = path, None, None
    if core is not None and not core.is_empty:
        clauses.extend(reference_path_interpolant(ps, core).clauses)
    outer: dict = {}
    for part in (prefix, suffix):
        if part is not None:
            for p in ps.b_premises(part):
                outer.setdefault(p.key, p)
    for p in outer.values():
        clauses.extend(reference_path_interpolant(ps, p).clauses)
    premises = [summary(p) for p in outer.values()]
    if core is None or core.is_empty:
        conclusion = None
    else:
        conclusion = summary(core).negated()
    clauses.append(HornClause.make(premises, conclusion))
    return HornConjunction.from_clauses(clauses)


def memo_record(memo: dict) -> list:
    """A premise memo as (key, the vertex ids of each value path) in order.

    Values are path tuples in the reference and key-to-path dicts in the
    library; the vertex ids keep each stored path's direction.
    """
    out = []
    for key, value in memo.items():
        paths = value.values() if isinstance(value, dict) else value
        out.append((key, [tuple(v.id for v in p.vertices) for p in paths]))
    return out


def extraction_outcome(problem: ProblemInstance, strategy, reference: bool = False) -> tuple:
    """The memos, factor count and interpolant text of one interpolation.

    The reference route colors the graph afresh, as ``interpolate`` does, and
    runs the factor layer's premise sets and extraction on it.
    """
    if not reference:
        result = interpolate(problem, strategy)
        ps, count, conj = result.premises, result.factor_count, result.interpolant
    else:
        colored, refuted, side, _ = build_colored_graph(problem, strategy)
        ps, count = ReferencePremiseSets(colored), 0
        if refuted.trivial:
            conj = HornConjunction(((HornClause((), None),) if side is Side.A else ()))
        else:
            path = colored.graph.path(refuted.lhs, refuted.rhs)
            if side is Side.B:
                conj = reference_path_interpolant(ps, path)
            else:
                conj = reference_refutation_interpolant(ps, path)
            count = len(reference_factors(colored, path))
    memos = [memo_record(m) for m in (ps._b, ps._a)]
    return memos, count, format_conjunction(conj)


# The proof layer's references, one per library function: ``reference_unfold``
# for the unfolding; on a ``{label: LabelNode}`` dict (``label_nodes``),
# ``reference_first_nonlocal_step`` for locality, ``reference_normalize_root``
# for the relay, and the tree of occurrences (``occurrence_cut``) for the cut
# and the run.  ``bridge_outcome`` runs the library's bridge or this route.


@dataclass
class LabelNode:
    formula: Term
    premises: tuple[Term, ...]
    origin: str | None  # "A" | "B" | "axiom" for leaves, None for inferences

    @property
    def is_leaf(self) -> bool:
        return not self.premises


def label_nodes(tree: ProofTree) -> dict:
    """A ``ProofTree``'s arrays as a ``{label: LabelNode}`` dict in node order."""
    labels = tree.labels
    return {
        label: LabelNode(label, tuple(labels[p] for p in premises), origin)
        for label, premises, origin in zip(labels, tree.premises, tree.origins)
    }


def format_proof(tree) -> str:
    """Serialize back to the proof grammar (ids in node order)."""
    nodes = label_nodes(tree)
    ids = {label: f"n{i + 1}" for i, label in enumerate(nodes)}
    lines = ["(theory-symbols " + " ".join(sorted(tree.theory_symbols)) + ")"]
    for label, node in nodes.items():
        if node.is_leaf:
            tail = f"(from {node.origin})"
        else:
            tail = "(premises " + " ".join(ids[p] for p in node.premises) + ")"
        lines.append(f"(node {ids[label]} {format_term(label)} {tail})")
    return "\n".join(lines) + "\n"


def bridge_run(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> tuple[ProofTree, InterpolationRun]:
    """Bridge, cut the local proof, and extract the induced run."""
    tree, t_a, t_b = local_cut(game.euf_bridge(problem, strategy))
    return tree, run_from_cut(tree, t_a, t_b)


def reference_unfold(
    colored: ColoredGraph, refuted: Literal, side: Side, sides: tuple
) -> ProofTree:
    """The unfolding through ``keyed``/``step`` closures and a per-node
    ``nodes`` probe, with fits from the frozenset scan of ``label_fit``
    against ``sides``, the problem's signatures (``problem_sides``).  A
    trivially refuted ``s != s`` is one node, false, a leaf of ``side``.
    ``unfold_refutation``'s flat pass must give the same tree, array for
    array."""
    graph = colored.graph
    table = TermTable()
    tree = ProofTree(frozenset(), table)
    if refuted.trivial:
        tree.root_index = tree.add(table.make("false"), (), side.value)
        tree.fits = [label_fit(tree, tree.root, sides)]
        return tree
    nodes, labels, premises_of, origins = tree.nodes, tree.labels, tree.premises, tree.origins
    done_at: dict = {}  # edge seq or path key -> node of its step

    def eq_label(u: Term, v: Term) -> Term:
        if v.id < u.id:
            u, v = v, u
        return table.make("=", (u, v))

    def keyed(item: Edge | GraphPath | tuple) -> tuple:
        if isinstance(item, Edge):
            return item.seq, item
        if isinstance(item, GraphPath):
            if len(item.edges) == 1:
                return item.edges[0].seq, item.edges[0]
            return item.key, item
        u, v, _ = item  # a run of two or more edges
        return ((u.id, v.id) if u.id < v.id else (v.id, u.id)), item

    def step(key, item: Edge | GraphPath | tuple) -> list:
        """A stack frame: key, label, origin, premise items, premise nodes."""
        if isinstance(item, Edge):
            label = eq_label(item.u, item.v)
            if item.is_basic:
                return [key, label, item.side.value, iter(()), []]
            subs = (graph.path(p, q) for p, q in item.parents if p is not q)
            return [key, label, None, subs, []]
        if isinstance(item, GraphPath):
            verts, edges = item.vertices, item.edges
            runs = colored.runs(item)
            subs = iter(edges) if len(runs) == 1 else (
                edges[lo] if hi - lo == 1 else (verts[lo], verts[hi], edges[lo:hi])
                for _, lo, hi in runs
            )
            return [key, eq_label(verts[0], verts[-1]), None, subs, []]
        u, v, edges = item
        return [key, eq_label(u, v), None, iter(edges), []]

    diseq_label = table.make("not", (eq_label(refuted.lhs, refuted.rhs),))
    false = table.make("false")
    key, item = keyed(graph.path(refuted.lhs, refuted.rhs))
    open_keys = {key}
    stack = [step(key, item)]
    while stack:
        key, label, origin, pending, premises = stack[-1]
        for sub in pending:
            sub_key, sub = keyed(sub)
            done = done_at.get(sub_key)
            if done is not None:
                premises.append(done)
            elif isinstance(sub, Edge) and sub.origin is not None:
                # A leaf, finished below without a frame of its own.
                key, label, premises = sub_key, eq_label(sub.u, sub.v), ()
                origin = sub.side.value
                break
            else:
                if sub_key in open_keys:
                    raise RuntimeError(f"unfolding revisits {sub_key}")
                open_keys.add(sub_key)
                stack.append(step(sub_key, sub))
                label = None  # nothing finished
                break
        else:
            stack.pop()
            open_keys.discard(key)
            premises = tuple(premises)
        if label is None:
            continue
        done = nodes.get(label)  # tree.add, inlined: this runs per node
        if done is None:
            done = nodes[label] = len(labels)
            labels.append(label)
            premises_of.append(premises)
            origins.append(origin)
        done_at[key] = done
        if stack:
            stack[-1][4].append(done)
    root_premises = (done, tree.add(diseq_label, (), side.value))
    tree.root_index = tree.add(false, root_premises)
    tree.fits = [label_fit(tree, label, sides) for label in labels]
    return tree


def unfold_record(tree: ProofTree) -> tuple:
    """Everything an unfolding fixes, comparable across two unfoldings of one
    graph: the table's terms in id order, by head and argument ids; the label
    ids, premises, origins and fits; ``nodes`` in insertion order; the root
    and relay."""
    return (
        [(t.id, t.head, tuple(a.id for a in t.args)) for t in tree.table.terms],
        [label.id for label in tree.labels],
        tree.premises,
        tree.origins,
        tree.fits,
        [(label.id, i) for label, i in tree.nodes.items()],
        tree.root_index,
        tree.relay_index,
    )


# The cut and the run over the proof's tree of occurrences: the game's
# definition, apart from the library's walks over node indices.  A proof
# ``{label: LabelNode}`` is expanded into its tree, one occurrence per path
# from the root, and every occurrence is cut and walked on its own, with no
# set of labels already met.  The label-level cut, premise maps and errors are
# read off the occurrences.  The expansion is exponential in general, so
# ``SizeCapError`` stops it past ``OCCURRENCE_CAP`` visits.

OCCURRENCE_CAP = 100_000


def step_fit(nodes: dict, fit, label: Term) -> int:
    """The fit of ``label``'s step: its own fit ANDed with its premises'."""
    out = fit(label)
    for prem in nodes[label].premises:
        out &= fit(prem)
    return out


def occurrence_piece(nodes: dict, fit, anchor: Term, side: str, stops, budget: list) -> list:
    """The premises of one occurrence of ``anchor``'s piece on ``side``, as
    occurrences in the pre-order of its subtree: the labels of ``stops`` met
    below it, where the piece ends.  Every other occurrence must be a step
    that fits ``side`` or a leaf of ``side`` or an axiom; the first that is
    not raises ``InvalidCutError``."""
    bit = 1 if side == "A" else 2
    met = []
    stack = [(anchor, True)]
    while stack:
        label, top = stack.pop()
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeCapError("tree of occurrences too large")
        node = nodes[label]
        if label in stops and not top:
            met.append(label)
        elif node.premises:
            if not step_fit(nodes, fit, label) & bit:
                raise InvalidCutError(
                    f"piece at {format_term(anchor)} walks through "
                    f"{format_term(label)}, a step outside side {side}"
                )
            stack.extend((prem, False) for prem in reversed(node.premises))
        elif node.origin not in (side, "axiom"):
            raise InvalidCutError(
                f"piece at {format_term(anchor)} reaches foreign leaf {format_term(label)}"
            )
    return met


def occurrence_cut(nodes: dict, root: Term, fit) -> tuple:
    """``(T_A, T_B, pr_b, pr_a)`` of the coloring cut, cut occurrence by
    occurrence from the root, a T_B occurrence.

    A piece ends at the occurrences of the other side's candidates: labels
    that fit both sides and that the piece's prover cannot derive itself.
    For a B-piece they are A leaves and steps with a premise outside B; for
    an A-piece, the mirror.  Every such occurrence is a cut occurrence of the
    other side, and pieces
    are walked in the order the cut occurrences are found, one anchor's
    stops in node order.  A label joins its side's list at its first cut
    occurrence; its premises are the labels its piece meets, each once, in
    pre-order, and every occurrence of it must give the same.
    """
    node_order = {label: i for i, label in enumerate(nodes)}
    candidates = {"A": set(), "B": set()}
    for label, node in nodes.items():
        if fit(label) != 3:
            continue
        if node.premises:
            step = step_fit(nodes, fit, label)
            for side, bit in (("A", 2), ("B", 1)):
                if not step & bit:
                    candidates[side].add(label)
        elif node.origin in candidates:
            candidates[node.origin].add(label)
    cut = {"A": {}, "B": {root: None}}
    premises: dict = {}
    budget = [OCCURRENCE_CAP]
    queue = [(root, "B")]
    for label, side in queue:
        other = "A" if side == "B" else "B"
        met = occurrence_piece(nodes, fit, label, side, candidates[other], budget)
        found = tuple(dict.fromkeys(met))
        assert premises.setdefault((label, side), found) == found, format_term(label)
        for stop in sorted(met, key=node_order.__getitem__):
            queue.append((stop, other))
            if stop not in cut["A"] and stop not in cut["B"]:
                cut[other][stop] = None
    t_a, t_b = tuple(cut["A"]), tuple(cut["B"])
    return (
        t_a,
        t_b,
        {alpha: premises[alpha, "A"] for alpha in t_a},
        {beta: premises[beta, "B"] for beta in t_b},
    )


def occurrence_run(nodes: dict, fit, t_a, t_b) -> tuple:
    """``(pr_b, pr_a)`` of any cut: each cut label's piece, walked over its
    tree of occurrences, ends at the other side's cut labels."""
    budget = [OCCURRENCE_CAP]
    piece = lambda label, side, stops: tuple(
        dict.fromkeys(occurrence_piece(nodes, fit, label, side, set(stops), budget))
    )
    pr_b = {alpha: piece(alpha, "A", t_b) for alpha in t_a}
    pr_a = {beta: piece(beta, "B", t_a) for beta in t_b}
    return pr_b, pr_a


def tree_from_nodes(theory, nodes: dict, root: Term, table: TermTable) -> ProofTree:
    """An index-array ``ProofTree`` holding a ``{label: LabelNode}`` dict's
    nodes in order, with fits from ``label_fit``; ``ProofTree.add`` refuses
    the first node with a premise that comes later."""
    tree = ProofTree(theory, table)
    order = {label: i for i, label in enumerate(nodes)}
    for label, node in nodes.items():
        tree.add(label, tuple(order[p] for p in node.premises), node.origin)
    tree.root_index = order[root]
    tree.fits = [label_fit(tree, label) for label in tree.labels]
    return tree


def uncut_copy(tree: ProofTree) -> ProofTree:
    """A tree sharing ``tree``'s arrays but none of what its cut kept, so
    ``run_from_cut`` walks every piece itself."""
    copy = ProofTree(tree.theory_symbols, tree.table)
    for name in ("labels", "premises", "origins", "fits", "nodes"):
        setattr(copy, name, getattr(tree, name))
    copy.root_index, copy.relay_index = tree.root_index, tree.relay_index
    return copy


def reference_first_nonlocal_step(nodes: dict, fit) -> Term | None:
    """The first inference in ``nodes`` whose step fits neither side."""
    for label, node in nodes.items():
        if node.premises and not step_fit(nodes, fit, label):
            return label
    return None


def reference_normalize_root(nodes: dict, root: Term, table: TermTable, fit) -> tuple:
    """``(nodes, relay)``: when the root is an A leaf or has a premise that is
    not B-colorable, its node moves to a relay, the first of false', (and
    false'), ... that ``nodes`` lacks, and the root derives the relay alone.
    Otherwise ``nodes`` as given and no relay."""
    node = nodes[root]
    if node.origin != "A" and all(fit(p) & 2 for p in node.premises):
        return nodes, None
    relay = table.make("false'")
    while relay in nodes:
        relay = table.make("and", (relay,))
    moved = {relay if label is root else label: n for label, n in nodes.items()}
    moved[relay] = LabelNode(relay, node.premises, node.origin)
    moved[root] = LabelNode(root, (relay,), None)
    return moved, relay


def printed_game(nodes: dict, cut_and_run) -> tuple:
    """A proof's ``{label: LabelNode}`` nodes, then the cut, the premise maps
    and the game interpolant text of the run ``cut_and_run()`` returns, all
    printed; or the nodes and the error's type and text."""
    fmt = lambda labels: tuple(format_term(label) for label in labels)
    listed = [(format_term(label), fmt(n.premises), n.origin) for label, n in nodes.items()]
    try:
        run = cut_and_run()
    except (NonLocalProofError, InvalidCutError) as exc:
        return listed, type(exc), str(exc)
    text = format_game_interpolant(game_interpolant(run))
    pr = lambda premise_map: [(format_term(k), fmt(v)) for k, v in premise_map.items()]
    return listed, fmt(run.s_a), fmt(run.s_b), pr(run.pr_b), pr(run.pr_a), text


def game_outcome(tree: ProofTree) -> tuple:
    """``printed_game`` of the library's route: ``local_cut``, then
    ``run_from_cut``."""

    def cut_and_run() -> InterpolationRun:
        fixed, t_a, t_b = local_cut(tree)
        assert premise_first(fixed)
        return run_from_cut(fixed, t_a, t_b)

    return printed_game(label_nodes(tree), cut_and_run)


def bridge_outcome(problem: ProblemInstance, reference: bool = False) -> tuple:
    """The bridge route on one problem, printed as ``printed_game`` does.

    The library route unfolds with ``unfold_refutation`` and goes on as
    ``game_outcome``.  The reference route unfolds with ``reference_unfold``,
    fits labels by ``label_fit`` against ``problem_sides``, checks locality
    and relays the root on the ``label_nodes`` dict, and cuts and runs over
    the tree of occurrences.
    """
    colored, refuted, side, _ = build_colored_graph(problem)
    sides = problem_sides(problem)
    if not reference:
        tree = unfold_refutation(colored, refuted, side)
        assert premise_first(tree)
        assert tree.fits == [label_fit(tree, label, sides) for label in tree.labels]
        return game_outcome(tree)
    tree = reference_unfold(colored, refuted, side, sides)
    nodes, fit = label_nodes(tree), partial(label_fit, tree, sides=sides)

    def cut_and_run() -> InterpolationRun:
        step = reference_first_nonlocal_step(nodes, fit)
        if step is not None:
            raise NonLocalProofError(step)
        fixed, relay = reference_normalize_root(nodes, tree.root, tree.table, fit)
        t_a, t_b, pr_b, pr_a = occurrence_cut(fixed, tree.root, fit)
        return InterpolationRun(t_a, t_b, pr_b, pr_a, tree.table, relay)

    return printed_game(nodes, cut_and_run)
