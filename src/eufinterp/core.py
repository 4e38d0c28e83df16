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
from itertools import islice
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


# The members by value: bit 1 is the A bit, bit 2 the B bit.
_COLORABILITIES = (Colorability.NONE, Colorability.A, Colorability.B, Colorability.AB)


@dataclass(slots=True, eq=False)
class Term:
    """Hash-consed ground term; ``args`` is empty for constants.

    Hashed and compared by identity.  Slotted rather than frozen, since terms
    are built on every hot path; nothing assigns to a term after the table
    makes it.
    """

    id: int
    head: str
    args: tuple["Term", ...] = ()

    def __repr__(self) -> str:
        return f"Term#{self.id}({format_term(self)})"


class TermTable:
    """Interning table; assigns dense term ids in first-construction order."""

    def __init__(self) -> None:
        # Arguments are interned already, so their identities stand for them.
        self._interned: dict[tuple[str, tuple[Term, ...]], Term] = {}
        self.terms: list[Term] = []

    def make(self, head: str, args: Iterable[Term] = ()) -> Term:
        args = tuple(args)
        key = (head, args)
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
    """Arity and occurrence bookkeeping, plus memoized term colorability.

    A term's colorability is cached as its 2-bit value and read back as a
    :class:`Colorability` member by indexing, so the hot paths never combine
    flags.
    """

    def __init__(self) -> None:
        self.info: dict[str, SymbolInfo] = {}
        self._term_bits: dict[int, int] = {}

    def declare(self, name: str, arity: int, side: Side | None = None) -> SymbolInfo:
        """Record ``name`` with ``arity`` (noting it on ``side``, if given)."""
        entry = self.info.get(name)
        if entry is None:
            entry = SymbolInfo(arity)
            self.info[name] = entry
        elif entry.arity != arity:
            raise ArityError(
                f"symbol {name!r} used with arity {arity}, "
                f"previously {entry.arity}"
            )
        if side is Side.A:
            entry.occurs_in_a = True
        elif side is Side.B:
            entry.occurs_in_b = True
        return entry

    def _bits(self, term: Term) -> int:
        """The colorability value of ``term``: its head's bits and its arguments'.

        Computed once per term id, children first on an explicit stack.
        """
        memo = self._term_bits
        hit = memo.get(term.id)
        if hit is not None:
            return hit
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
            entry = self.info.get(t.head)
            bits = entry.occurs_in_a | entry.occurs_in_b << 1 if entry else 0
            for arg in t.args:
                bits &= memo[arg.id]
            memo[t.id] = bits
            stack.pop()
        return memo[term.id]

    def colorability(self, term: Term) -> Colorability:
        return _COLORABILITIES[self._bits(term)]


def edge_colorability(s: Term, t: Term, symbols: SymbolTable) -> Colorability:
    """An edge (equality) is exactly as colorable as both its endpoints."""
    memo = symbols._term_bits
    bits_s = memo.get(s.id)
    if bits_s is None:
        bits_s = symbols._bits(s)
    bits_t = memo.get(t.id)
    if bits_t is None:
        bits_t = symbols._bits(t)
    return _COLORABILITIES[bits_s & bits_t]


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


# A parenthesis, an atom, or a ";" comment, which runs to the end of its line.
_TOKEN = re.compile(r"[()]|[^\s();]+|;[^\n]*")


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    for line, source in enumerate(text.split("\n"), 1):
        for match in _TOKEN.finditer(source.partition(";")[0]):
            yield match[0], line, match.start() + 1


class Reader:
    """Problem, formula or proof text read straight from tokens into terms.

    The text is split into tokens once, comments dropped.  One pass over them
    then checks the parentheses and records where each list closes, so a
    balance error wins over any other and a list's length is known before its
    items are read.  Token ``k``'s position is worked out only for an error,
    by scanning the text again up to it.  Items are addressed by token index:
    each reading method takes the index where its item starts and returns the
    index just past it along with what it read.  Without a symbol table, as
    for proof files, terms are interned without declaring their symbols.
    """

    def __init__(self, text: str, table: TermTable, symbols: SymbolTable | None) -> None:
        self.text = text
        self.table = table
        self.symbols = symbols
        toks = _TOKEN.findall(text)
        if ";" in text:
            toks = [t for t in toks if t[0] != ";"]
        self.toks = toks
        self.close = close = [0] * len(toks)
        opens: list[int] = []
        for i, tok in enumerate(toks):
            if tok == "(":
                opens.append(i)
            elif tok == ")":
                if not opens:
                    raise self.error("unbalanced ')'", i)
                close[opens.pop()] = i
        if opens:
            raise self.error("unclosed '('", opens[-1])

    def error(self, message: str, k: int, kind: type[ParseError] = ParseError) -> ParseError:
        """A ``kind`` error located at token ``k``."""
        _, line, col = next(islice(_tokenize(self.text), k, None))
        return kind(message, line, col)

    def skip(self, i: int) -> int:
        """The index just past the item starting at token ``i``."""
        return self.close[i] + 1 if self.toks[i] == "(" else i + 1

    def items(self, i: int, end: int) -> Iterator[int]:
        """Start indices of the items from token ``i`` up to token ``end``."""
        while i < end:
            yield i
            i = self.skip(i)

    def count(self, i: int) -> int:
        """The number of items of the list opened at token ``i``."""
        toks, close = self.toks, self.close
        end, n = close[i], 0
        i += 1
        while i < end:
            i = close[i] + 1 if toks[i] == "(" else i + 1
            n += 1
        return n

    def term(self, i: int, side: Side | None) -> tuple[Term, int]:
        """Intern the term at token ``i``, checking arities, on an explicit stack.

        Arguments are interned before their application, left to right.  Each
        symbol is declared with its arity as it is met and, with a ``side``,
        noted as occurring on it.  Without a symbol table nothing is declared,
        and ``()`` is an empty formula.
        """
        toks, symbols = self.toks, self.symbols
        frames: list[tuple[int, str, list[Term]]] = []  # "(" index, head, arguments
        while True:
            tok = toks[i]
            if tok == "(":
                head = toks[i + 1]
                if head == ")" and symbols is None:
                    raise self.error("empty formula", i)
                if head == "(" or head == ")":
                    raise self.error("expected a function application", i)
                if toks[i + 2] == ")":
                    raise self.error(f"application of {head!r} has no arguments", i)
                frames.append((i, head, []))
                i += 2
                continue
            if tok == ")":
                start, head, args = frames.pop()
                if symbols is not None:
                    try:
                        symbols.declare(head, len(args), side)
                    except ArityError as exc:
                        raise self.error(str(exc), start + 1, ArityError) from None
                term = self.table.make(head, args)
            else:
                if symbols is not None:
                    symbols.declare(tok, 0, side)
                term = self.table.make(tok)
            i += 1
            if not frames:
                return term, i
            frames[-1][2].append(term)

    def literal(self, i: int, side: Side | None) -> tuple[Literal, int]:
        """The literal at token ``i``: ``(= s t)`` or ``(not (= s t))``.

        Each list's shape is checked before anything inside it is read.
        """
        toks = self.toks
        nots: list[int] = []
        while True:
            if toks[i] != "(" or toks[i + 1] == ")":
                raise self.error("expected a literal", i)
            head = toks[i + 1]
            if head == "=":
                if self.count(i) != 3:
                    raise self.error("'=' takes exactly two terms", i)
                break
            if head != "not":
                raise self.error("expected (= s t) or (not (= s t))", i)
            if self.count(i) != 2:
                raise self.error("'not' takes exactly one equality", i)
            nots.append(i)
            i += 2
        lhs, i = self.term(i + 2, side)
        rhs, i = self.term(i, side)
        if len(nots) > 1:
            raise self.error("double negation is not allowed", nots[-2])
        return Literal.make(lhs, rhs, not nots), i + 1 + len(nots)

    def literals(self, i: int, side: Side | None) -> Iterator[tuple[int, Literal]]:
        """The literals after the head of the list opened at token ``i``."""
        end = self.close[i]
        i += 2
        while i < end:
            lit, after = self.literal(i, side)
            yield i, lit
            i = after


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


def _arity(token: str) -> int | None:
    """The number a decimal numeral spells; None for any other token."""
    try:
        return int(token) if token.isdecimal() else None
    except ValueError:  # more digits than int() converts
        return None


def parse_problem(text: str) -> ProblemInstance:
    """Parse problem text: optional declare-fun forms, then (A ...) (B ...).

    Literal sets are deduplicated modulo symmetry; a literal occurring in
    both sets is an error, as is any arity clash.
    """
    table = TermTable()
    symbols = SymbolTable()
    reader = Reader(text, table, symbols)
    toks, close = reader.toks, reader.close

    i = 0
    while i < len(toks) and toks[i] == "(" and toks[i + 1] == "declare-fun":
        arity = None
        if close[i] == i + 4 and toks[i + 2] != "(":
            arity = _arity(toks[i + 3])
        if arity is None:
            raise reader.error("expected (declare-fun SYMBOL ARITY)", i)
        try:
            symbols.declare(toks[i + 2], arity)
        except ArityError as exc:
            raise reader.error(str(exc), i, ArityError) from None
        i += 5

    sets: list[tuple[Literal, ...]] = []
    seen: dict[Literal, Side] = {}
    for side in (Side.A, Side.B):
        if i >= len(toks):
            raise ParseError(f"missing ({side.value} ...) set")
        if toks[i] != "(" or toks[i + 1] != side.value:
            raise reader.error(f"expected ({side.value} ...)", i)
        kept: list[Literal] = []
        for start, lit in reader.literals(i, side):
            previous = seen.get(lit)
            if previous is None:
                seen[lit] = side
                kept.append(lit)
            elif previous is not side:
                raise reader.error(
                    f"literal {format_literal(lit)} occurs in both A and B",
                    start,
                    OverlapError,
                )
        sets.append(tuple(kept))
        i = close[i] + 1
    if i != len(toks):
        raise reader.error("unexpected form after (B ...)", i)
    return ProblemInstance(table, symbols, *sets)


def format_term(term: Term) -> str:
    """The term's text, written from an explicit stack of terms and closers."""
    if not term.args:
        return term.head
    out: list[str] = []
    stack: list[Term | str] = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.args:
            out.append("(" + item.head)
            stack.append(")")
            for arg in reversed(item.args):
                stack.append(arg)
                stack.append(" ")
        else:
            out.append(item.head)
    return "".join(out)


def format_literal(lit: Literal) -> str:
    eq = f"(= {format_term(lit.lhs)} {format_term(lit.rhs)})"
    return eq if lit.equal else f"(not {eq})"
