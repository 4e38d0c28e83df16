"""Terms, literals, signatures, and the ground-equality problem format.

Terms are hash-consed: structurally equal terms share one object, so identity
comparisons and dense integer handles are enough everywhere else.  Constants
are 0-ary applications; there is no separate variable syntax.  Equalities are
kept normalized modulo symmetry (smaller term id on the left).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, Flag, auto
from typing import Iterable, Iterator


class Side(Enum):
    """Which input set a literal belongs to."""

    A = "A"
    B = "B"


class Colorability(Flag):
    """Signature membership of an expression: A bit, B bit, both, or neither.

    The meet of two colorabilities is plain bit intersection, which is what
    an edge inherits from its endpoints.
    """

    NONE = 0
    A = auto()
    B = auto()
    AB = A | B


@dataclass(frozen=True, eq=False)
class Term:
    """Hash-consed ground term; ``args`` is empty for constants."""

    id: int
    head: str
    args: tuple["Term", ...] = ()

    def __repr__(self) -> str:
        return f"Term#{self.id}({format_term(self)})"


class TermTable:
    """Interning table; assigns dense term ids in first-construction order."""

    def __init__(self) -> None:
        self._interned: dict[tuple[str, tuple[int, ...]], Term] = {}
        self.terms: list[Term] = []

    def make(self, head: str, args: Iterable[Term] = ()) -> Term:
        args = tuple(args)
        key = (head, tuple(a.id for a in args))
        hit = self._interned.get(key)
        if hit is not None:
            return hit
        term = Term(len(self.terms), head, args)
        self._interned[key] = term
        self.terms.append(term)
        return term

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)


@dataclass(frozen=True)
class Literal:
    """Equality or disequality between two terms, normalized modulo symmetry."""

    lhs: Term
    rhs: Term
    equal: bool = True

    @staticmethod
    def make(s: Term, t: Term, equal: bool = True) -> "Literal":
        if t.id < s.id:
            s, t = t, s
        return Literal(s, t, equal)

    def negated(self) -> "Literal":
        return Literal(self.lhs, self.rhs, not self.equal)

    @property
    def trivial(self) -> bool:
        """True for literals of the form t = t or t != t."""
        return self.lhs is self.rhs

    def __repr__(self) -> str:
        return f"Literal({format_literal(self)})"


@dataclass
class SymbolInfo:
    arity: int
    occurs_in_a: bool = False
    occurs_in_b: bool = False


class SymbolTable:
    """Arity and occurrence bookkeeping, plus memoized term colorability."""

    def __init__(self) -> None:
        self.info: dict[str, SymbolInfo] = {}
        self._term_colors: dict[int, Colorability] = {}

    def declare(self, name: str, arity: int) -> SymbolInfo:
        entry = self.info.get(name)
        if entry is None:
            entry = SymbolInfo(arity)
            self.info[name] = entry
        elif entry.arity != arity:
            raise ArityError(
                f"symbol {name!r} used with arity {arity}, "
                f"previously {entry.arity}"
            )
        return entry

    def note_occurrence(self, name: str, side: Side) -> None:
        entry = self.info[name]
        if side is Side.A:
            entry.occurs_in_a = True
        else:
            entry.occurs_in_b = True

    def symbol_colorability(self, name: str) -> Colorability:
        entry = self.info.get(name)
        if entry is None:
            return Colorability.NONE
        color = Colorability.NONE
        if entry.occurs_in_a:
            color |= Colorability.A
        if entry.occurs_in_b:
            color |= Colorability.B
        return color

    def colorability(self, term: Term) -> Colorability:
        cached = self._term_colors.get(term.id)
        if cached is not None:
            return cached
        color = self.symbol_colorability(term.head)
        for arg in term.args:
            color &= self.colorability(arg)
        self._term_colors[term.id] = color
        return color


def edge_colorability(s: Term, t: Term, symbols: SymbolTable) -> Colorability:
    """An edge (equality) is exactly as colorable as both its endpoints."""
    return symbols.colorability(s) & symbols.colorability(t)


def subterm_closure(terms: Iterable[Term]) -> list[Term]:
    """Smallest superset closed under taking arguments, in term-id order."""
    seen: dict[int, Term] = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.id in seen:
            continue
        seen[t.id] = t
        stack.extend(t.args)
    return [seen[i] for i in sorted(seen)]


class ParseError(ValueError):
    """Malformed problem or formula text; carries source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class ArityError(ParseError):
    pass


class OverlapError(ParseError):
    """The same literal appears in both input sets."""


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


# A parenthesis or an atom; whitespace separates and ";" starts a line comment.
_TOKEN = re.compile(r"[()]|[^\s();]+")


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    for line, source in enumerate(text.split("\n"), 1):
        for match in _TOKEN.finditer(source.partition(";")[0]):
            yield match[0], line, match.start() + 1


def read_sexprs(text: str) -> list[SAtom | SList]:
    """Read all top-level s-expressions, with positions for error reporting."""
    stack: list[tuple[list, int, int]] = []
    top: list[SAtom | SList] = []
    for token, line, col in _tokenize(text):
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


@dataclass
class ProblemInstance:
    """Two disjoint ground literal sets plus their shared symbol table."""

    table: TermTable
    symbols: SymbolTable
    a_literals: tuple[Literal, ...]
    b_literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        self._sides: dict[Literal, Side] = {}
        for lit in self.a_literals:
            self._sides[lit] = Side.A
        for lit in self.b_literals:
            self._sides[lit] = Side.B

    def side_of(self, lit: Literal) -> Side:
        return self._sides[lit]

    def literals(self) -> list[tuple[Literal, Side]]:
        """All literals in parse order, A before B."""
        out = [(lit, Side.A) for lit in self.a_literals]
        out.extend((lit, Side.B) for lit in self.b_literals)
        return out

    def equalities(self) -> list[tuple[Literal, Side]]:
        return [(lit, side) for lit, side in self.literals() if lit.equal]

    def disequalities(self) -> list[tuple[Literal, Side]]:
        return [(lit, side) for lit, side in self.literals() if not lit.equal]

    def terms(self) -> list[Term]:
        out = []
        for lit, _ in self.literals():
            out.append(lit.lhs)
            out.append(lit.rhs)
        return out


def term_from_sexpr(sx: SAtom | SList, table: TermTable, symbols: SymbolTable) -> Term:
    """Intern the term denoted by an s-expression, checking arities."""
    if isinstance(sx, SAtom):
        symbols.declare(sx.text, 0)
        return table.make(sx.text)
    if head_of(sx) is None:
        raise ParseError("expected a function application", sx.line, sx.col)
    head = sx.items[0]
    args = [term_from_sexpr(item, table, symbols) for item in sx.items[1:]]
    try:
        symbols.declare(head.text, len(args))
    except ArityError as exc:
        raise ArityError(str(exc), head.line, head.col) from None
    return table.make(head.text, args)


def literal_from_sexpr(
    sx: SAtom | SList, table: TermTable, symbols: SymbolTable
) -> Literal:
    if not isinstance(sx, SList) or not sx.items:
        raise ParseError("expected a literal", sx.line, sx.col)
    head = head_of(sx)
    if head == "=":
        if len(sx.items) != 3:
            raise ParseError("'=' takes exactly two terms", sx.line, sx.col)
        lhs = term_from_sexpr(sx.items[1], table, symbols)
        rhs = term_from_sexpr(sx.items[2], table, symbols)
        return Literal.make(lhs, rhs, equal=True)
    if head == "not":
        if len(sx.items) != 2:
            raise ParseError("'not' takes exactly one equality", sx.line, sx.col)
        inner = literal_from_sexpr(sx.items[1], table, symbols)
        if not inner.equal:
            raise ParseError("double negation is not allowed", sx.line, sx.col)
        return inner.negated()
    raise ParseError("expected (= s t) or (not (= s t))", sx.line, sx.col)


def _note_symbols(term: Term, symbols: SymbolTable, side: Side) -> None:
    symbols.note_occurrence(term.head, side)
    for arg in term.args:
        _note_symbols(arg, symbols, side)


def parse_problem(text: str) -> ProblemInstance:
    """Parse problem text: optional declare-fun forms, then (A ...) (B ...).

    Literal sets are deduplicated modulo symmetry; a literal occurring in
    both sets is an error, as is any arity clash.
    """
    forms = read_sexprs(text)
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
                or not form.items[2].text.isdigit()
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
            lit = literal_from_sexpr(raw, table, symbols)
            _note_symbols(lit.lhs, symbols, side)
            _note_symbols(lit.rhs, symbols, side)
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


def format_term(term: Term) -> str:
    if not term.args:
        return term.head
    return "(" + term.head + " " + " ".join(format_term(a) for a in term.args) + ")"


def format_literal(lit: Literal) -> str:
    eq = f"(= {format_term(lit.lhs)} {format_term(lit.rhs)})"
    return eq if lit.equal else f"(not {eq})"
