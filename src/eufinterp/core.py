"""Terms, literals, signatures, and the ground-equality problem format.

Terms are hash-consed: structurally equal terms share one object, so identity
comparisons and dense integer handles are enough everywhere else.  Constants
are 0-ary applications; there is no separate variable syntax.  Equalities are
kept normalized modulo symmetry (smaller term id on the left).

The parser interns arguments before their applications and makes no other
terms, so a freshly read problem's table holds exactly the subterms of its
literals, in id order: that prefix is the problem's term set.  Term
colorability is a list indexed by term id, filled in the same order once the
symbols' sides are final.  The reader's tokens come from ``str.split``;
``_tokenize`` finds the same tokens by regex and only locates errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, Flag, auto
from itertools import islice
from typing import Callable, Iterable, Iterator


class Side(Enum):
    """Which input set a literal belongs to."""

    A = "A"
    B = "B"


# On Python 3.11 reading a member off its enum class runs a descriptor, about
# ten times a global read; ``SymbolTable.declare`` runs once per token.
_A, _B = Side.A, Side.B


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
    """Arity and occurrence bookkeeping, plus the colorability of every term.

    ``bits[i]`` is the 2-bit colorability value of the table's term ``i``
    (bit 1 for A, bit 2 for B), read back as a :class:`Colorability` member
    by indexing, so the hot paths never combine flags; an edge's fit is the
    AND of its endpoints' entries.  :meth:`covering` extends the list over
    the table's newer terms in id order; arguments come first, so each entry
    is its head's bits ANDed with its arguments' entries.  That covers terms
    made after parsing, such as repair vertices.  Entries never change, so
    colorability is read only once the symbols' sides are final, which is
    after parsing.
    """

    def __init__(self, table: TermTable) -> None:
        self.table = table
        self.info: dict[str, SymbolInfo] = {}
        self.bits: list[int] = []

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
        if side is _A:
            entry.occurs_in_a = True
        elif side is _B:
            entry.occurs_in_b = True
        return entry

    def covering(self) -> list[int]:
        """``bits``, extended in place to cover every term of the table."""
        bits, info = self.bits, self.info
        for t in self.table.terms[len(bits):]:
            entry = info.get(t.head)
            b = entry.occurs_in_a | entry.occurs_in_b << 1 if entry else 0
            for arg in t.args:
                b &= bits[arg.id]
            bits.append(b)
        return bits

    def colorability(self, term: Term) -> Colorability:
        bits = self.bits
        if term.id >= len(bits):
            bits = self.covering()
        return _COLORABILITIES[bits[term.id]]


def edge_colorability(s: Term, t: Term, symbols: SymbolTable) -> Colorability:
    """An edge (equality) is exactly as colorable as both its endpoints."""
    bits = symbols.covering()
    return _COLORABILITIES[bits[s.id] & bits[t.id]]


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


def _post_order(root, children, value, memo: dict, cycle: Callable[..., Exception]):
    """``memo[root]``, filling ``memo`` children first on an explicit stack.

    The proof and premise walks of ``game`` and ``interpolate`` share it.
    ``children(x)`` is called once per node not yet in ``memo``, as the node
    is first met, so in pre-order; its iterable is read lazily, one child
    per step.  ``value(x)`` may read ``memo`` at every node of
    ``children(x)``.  Values reach ``memo`` in the order a recursive
    evaluation would finish them.  Meeting a node that is still open closes
    a cycle: ``cycle(node)`` is raised.
    """
    if root not in memo:
        open_nodes = {root}
        stack = [(root, iter(children(root)))]
        while stack:
            top, pending = stack[-1]
            for child in pending:
                if child in open_nodes:
                    raise cycle(child)
                if child not in memo:
                    open_nodes.add(child)
                    stack.append((child, iter(children(child))))
                    break
            else:
                stack.pop()
                open_nodes.discard(top)
                memo[top] = value(top)
    return memo[root]


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


# A parenthesis or an atom, once the line's ";" comment is cut.
_TOKEN = re.compile(r"[()]|[^\s();]+")


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    for line, source in enumerate(text.split("\n"), 1):
        for match in _TOKEN.finditer(source.partition(";")[0]):
            yield match[0], line, match.start() + 1


class Reader:
    """Problem, formula or proof text read straight from tokens into terms.

    Comments are cut line by line, parentheses spaced out, and ``str.split``
    gives the tokens; its whitespace is exactly the regex whitespace of
    ``_tokenize``, which only locates an error at a token by reading again.
    One pass over the tokens checks the parentheses and records where each
    list closes, so a balance error wins over any other and a list's shape is
    known before its items are read.  Items are addressed by token index:
    each reading method takes the index where its item starts and returns the
    index just past it along with what it read.  Without a symbol table, as
    for proof files, terms are interned without declaring their symbols.
    """

    def __init__(self, text: str, table: TermTable, symbols: SymbolTable | None) -> None:
        self.text = text
        self.table = table
        self.symbols = symbols
        if ";" in text:
            text = "\n".join(line.partition(";")[0] for line in text.split("\n"))
        self.toks = toks = text.replace("(", " ( ").replace(")", " ) ").split()
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
        return sum(1 for _ in self.items(i + 1, self.close[i]))

    def term(self, i: int, side: Side | None) -> tuple[Term, int]:
        """Intern the term at token ``i``, checking arities, on an explicit stack.

        Arguments are interned before their application, left to right.  Each
        symbol is declared with its arity as it is met and, with a ``side``,
        noted as occurring on it; an arity clash is located at the symbol's
        token.  Without a symbol table nothing is declared, and ``()`` is an
        empty formula.
        """
        toks, symbols = self.toks, self.symbols
        try:
            if toks[i] != "(":
                if symbols is not None:
                    symbols.declare(toks[i], 0, side)
                return self.table.make(toks[i]), i + 1
            frames: list[tuple[int, str, list[Term]]] = []  # "(" index, head, args
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
                        symbols.declare(head, len(args), side)
                    term = self.table.make(head, args)
                else:
                    if symbols is not None:
                        symbols.declare(tok, 0, side)
                    term = self.table.make(tok)
                i += 1
                if not frames:
                    return term, i
                frames[-1][2].append(term)
        except ArityError as exc:
            at = start + 1 if toks[i] == ")" else i  # the list's head, or the constant
            raise self.error(str(exc), at, ArityError) from None

    def literal(self, i: int, side: Side | None) -> tuple[Literal, int]:
        """The literal at token ``i``: ``(= s t)`` or ``(not (= s t))``.

        Each list's shape is checked before anything inside it is read.
        """
        toks, close, skip = self.toks, self.close, self.skip
        nots: list[int] = []
        while True:
            if toks[i] != "(" or toks[i + 1] == ")":
                raise self.error("expected a literal", i)
            head = toks[i + 1]
            if head == "=":
                if close[i] == i + 2 or skip(skip(i + 2)) != close[i]:
                    raise self.error("'=' takes exactly two terms", i)
                break
            if head != "not":
                raise self.error("expected (= s t) or (not (= s t))", i)
            if skip(i + 2) != close[i]:
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


@dataclass(frozen=True)
class ProblemInstance:
    """Two disjoint ground literal sets plus their shared symbol table.

    Built right after parsing, when the table holds exactly the subterms of
    the literals; the table's length then is recorded, so terms made later
    (repair vertices, interpolant terms) stay out of :meth:`terms`.  The
    instance is frozen: its literals' partition into equalities and
    disequalities is taken once, at construction, and every call of
    :meth:`equalities` or :meth:`disequalities` returns the same tuple.
    """

    table: TermTable
    symbols: SymbolTable
    a_literals: tuple[Literal, ...]
    b_literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        literals = self.literals()
        put = object.__setattr__  # the instance is frozen
        put(self, "_parsed", len(self.table))
        put(self, "_equalities", tuple(p for p in literals if p[0].equal))
        put(self, "_disequalities", tuple(p for p in literals if not p[0].equal))

    def literals(self) -> list[tuple[Literal, Side]]:
        """All literals in parse order, A before B."""
        out = [(lit, Side.A) for lit in self.a_literals]
        out.extend((lit, Side.B) for lit in self.b_literals)
        return out

    def equalities(self) -> tuple[tuple[Literal, Side], ...]:
        return self._equalities

    def disequalities(self) -> tuple[tuple[Literal, Side], ...]:
        return self._disequalities

    def terms(self) -> list[Term]:
        """The subterms of the literals in term-id order: the table's prefix
        the parser made, which is closed under taking arguments."""
        return self.table.terms[: self._parsed]


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
    symbols = SymbolTable(table)
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
    # Keyed by the literal's fields: terms hash by identity.
    seen: dict[tuple[Term, Term, bool], Side] = {}
    for side in (Side.A, Side.B):
        if i >= len(toks):
            raise ParseError(f"missing ({side.value} ...) set")
        if toks[i] != "(" or toks[i + 1] != side.value:
            raise reader.error(f"expected ({side.value} ...)", i)
        kept: list[Literal] = []
        for start, lit in reader.literals(i, side):
            key = (lit.lhs, lit.rhs, lit.equal)
            previous = seen.get(key)
            if previous is None:
                seen[key] = side
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
