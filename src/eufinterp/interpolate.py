"""Interpolant construction from colored congruence graphs.

A path summarizes the equality of its endpoints.  For a path derivable by
the A-prover, the B-premise set collects the maximal B-colored paths whose
summaries, together with A, entail the path's summary; the justification is
the corresponding Horn clause.  The interpolant of a path is the conjunction
of the justifications of all A-premises reachable through the cumulative
premise sets; the test suite checks it against an equivalent recursive
formulation.  Results are conjunctions of Horn clauses whose atoms only use
symbols shared by both input sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import ColoredGraph, Strategy, color, make_colorable
from .congruence import Path, close, find_refuted_disequality
from .core import (
    Colorability,
    Literal,
    ParseError,
    ProblemInstance,
    Reader,
    Side,
    SymbolTable,
    Term,
    TermTable,
    format_literal,
    subterm_closure,
)

@dataclass(frozen=True)
class HornClause:
    """Premise equalities implying one equality, disequality, or falsity.

    ``conclusion`` is None for a clause concluding false; a conclusion t != t
    becomes None too.  Premises are deduplicated, sorted, and never of the
    form t = t.
    """

    premises: tuple[Literal, ...]
    conclusion: Literal | None

    @staticmethod
    def make(
        premises: list[Literal] | tuple[Literal, ...], conclusion: Literal | None
    ) -> "HornClause | None":
        """Normalize; returns None when the clause is trivially true."""
        kept: dict[Literal, None] = {}
        for lit in premises:
            if not lit.trivial:
                kept[lit] = None
        if conclusion is not None:
            if conclusion.equal and (conclusion.trivial or conclusion in kept):
                return None
            if conclusion.trivial:
                conclusion = None  # t != t is false
        ordered = sorted(kept, key=lambda l: (l.lhs.id, l.rhs.id))
        return HornClause(tuple(ordered), conclusion)

    def atoms(self) -> list[Literal]:
        out = list(self.premises)
        if self.conclusion is not None:
            out.append(self.conclusion)
        return out


@dataclass(frozen=True)
class HornConjunction:
    """Deduplicated conjunction of Horn clauses; empty means true."""

    clauses: tuple[HornClause, ...]

    @staticmethod
    def from_clauses(clauses) -> "HornConjunction":
        kept: dict[HornClause, None] = {}
        for c in clauses:
            if c is not None:
                kept[c] = None
        return HornConjunction(tuple(kept))

    @property
    def is_true(self) -> bool:
        return not self.clauses

    def atoms(self) -> list[Literal]:
        out = []
        for c in self.clauses:
            out.extend(c.atoms())
        return out


class PremiseSets:
    """Memoized premise-set calculators over one colored graph.

    Each memo maps a path's :attr:`Path.key` to a tuple of paths, in the
    order they were found and each in the direction it was found in; the
    graph is a forest, so the key determines the path.  A cycle guard turns
    any accidental non-termination of the recursions into a hard error.
    """

    def __init__(self, colored: ColoredGraph):
        self.colored = colored
        self._b: dict[tuple[int, int], tuple[Path, ...]] = {}
        self._a: dict[tuple[int, int], tuple[Path, ...]] = {}
        self._cumulative: dict[tuple[int, int], tuple[Path, ...]] = {}
        self._running: set[tuple[str, tuple[int, int]]] = set()

    def _guard(self, tag: str, key: tuple[int, int]) -> tuple[str, tuple[int, int]]:
        mark = (tag, key)
        if mark in self._running:
            raise RuntimeError(f"premise recursion revisited {mark}")
        self._running.add(mark)
        return mark

    def _memoized(self, memo: dict, tag: str, path: Path, parts) -> tuple[Path, ...]:
        """A path's value, memoized by path key, evaluated without recursion.

        ``parts(path)`` yields, in order, pairs ``(p, joins)``: a path of the
        value itself when ``joins`` is false, else a sub-path whose value
        joins it.  Sub-paths are evaluated on an explicit stack, so values
        reach ``memo`` in the order a recursive evaluation would finish them.
        """
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

    def _premises(self, path: Path, want: Side) -> tuple[Path, ...]:
        """Maximal ``want``-colored paths supporting this path's summary.

        A parent path whose value is memoized already is not built: its
        value's paths join directly, as :meth:`_memoized` would join them.
        """
        graph = self.colored.graph
        memo = self._b if want is Side.B else self._a

        def parts(path: Path):
            if path.is_empty:
                return
            for factor in self.colored.factors(path):
                if factor.side is want:
                    yield factor.path, False
                    continue
                for edge in factor.path.edges:
                    if edge.is_derived:
                        for p, q in edge.parents:
                            if p is q:
                                continue
                            # The parent path's Path.key.
                            hit = memo.get((p.id, q.id) if p.id < q.id else (q.id, p.id))
                            if hit is None:
                                yield graph.path(p, q), True
                            else:
                                for sub in hit:
                                    yield sub, False

        return self._memoized(memo, want.value, path, parts)

    def b_premises(self, path: Path) -> tuple[Path, ...]:
        return self._premises(path, Side.B)

    def a_premises(self, path: Path) -> tuple[Path, ...]:
        return self._premises(path, Side.A)

    def cumulative(self, path: Path) -> tuple[Path, ...]:
        """The path itself plus, recursively, B-premises of its A-premises."""

        def parts(path: Path):
            yield path, False
            for sigma in self.a_premises(path):
                for tau in self.b_premises(sigma):
                    yield tau, True

        return self._memoized(self._cumulative, "P", path, parts)


def summary(path: Path) -> Literal:
    """The equality of the path's endpoints."""
    return Literal.make(path.start, path.end)


def justification(ps: PremiseSets, path: Path) -> HornClause | None:
    """Horn clause: the path's B-premise summaries imply its own summary."""
    premises = [summary(p) for p in ps.b_premises(path)]
    return HornClause.make(premises, summary(path))


def path_interpolant(ps: PremiseSets, path: Path) -> HornConjunction:
    """Interpolant of a path with B-colorable endpoints.

    Computed in closed form: the justifications of all A-premises of the
    cumulative premise set, deduplicated in discovery order.
    """
    sigmas: dict[tuple[int, int], Path] = {}
    for tau in ps.cumulative(path):
        for sigma in ps.a_premises(tau):
            sigmas.setdefault(sigma.key, sigma)
    return HornConjunction.from_clauses(
        justification(ps, sigma) for sigma in sigmas.values()
    )


def refutation_interpolant(ps: PremiseSets, path: Path) -> HornConjunction:
    """Interpolant used when the refuted disequality belongs to A.

    The path splits as prefix / core / suffix, the core being the largest
    subpath with B-colorable endpoints (empty when no vertex qualifies).
    The result conjoins the core's interpolant, the interpolants of the
    prefix/suffix B-premises, and one clause refuting the core's summary
    from those premises.
    """
    symbols = ps.colored.symbols
    verts = path.vertices
    b_positions = [
        i for i, v in enumerate(verts) if symbols.colorability(v) & Colorability.B
    ]
    clauses: list[HornClause | None] = []
    if b_positions:
        i, j = b_positions[0], b_positions[-1]
        prefix = path.slice(0, i)
        core = path.slice(i, j)
        suffix = path.slice(j, len(verts) - 1)
    else:
        prefix, core, suffix = path, None, None
    if core is not None and not core.is_empty:
        clauses.extend(path_interpolant(ps, core).clauses)
    outer: dict[tuple[int, int], Path] = {}
    for part in (prefix, suffix):
        if part is not None:
            for p in ps.b_premises(part):
                outer.setdefault(p.key, p)
    for p in outer.values():
        clauses.extend(path_interpolant(ps, p).clauses)
    premises = [summary(p) for p in outer.values()]
    if core is None or core.is_empty:
        conclusion = None
    else:
        conclusion = summary(core).negated()
    clauses.append(HornClause.make(premises, conclusion))
    return HornConjunction.from_clauses(clauses)


class NotUnsatisfiableError(Exception):
    """The input sets are jointly satisfiable; carries the witness partition."""

    def __init__(self, partition: list[list[Term]]):
        self.partition = partition
        super().__init__("input literal sets are satisfiable together")


class SharedSignatureError(RuntimeError):
    """An interpolant atom escaped the shared signature (internal bug)."""


@dataclass
class InterpolationResult:
    interpolant: HornConjunction
    refuted: Literal
    refuted_side: Side
    colored: ColoredGraph
    premises: PremiseSets
    repair_vertices: list[Term]
    factor_count: int

    @property
    def atom_count(self) -> int:
        return len(self.interpolant.atoms())


def build_colored_graph(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> tuple[ColoredGraph, Literal, Side, list[Term]]:
    """Close, pick a refuted disequality, repair, and color.

    Raises NotUnsatisfiableError (with the model-defining partition) when no
    disequality is refuted.
    """
    terms = subterm_closure(problem.terms())
    graph = close(problem.equalities(), terms)
    refuted = find_refuted_disequality(graph, problem.disequalities())
    if refuted is None:
        raise NotUnsatisfiableError(graph.components())
    side = problem.side_of(refuted)
    repaired, added = make_colorable(graph, problem.symbols, problem.table)
    colored = color(
        repaired, problem.symbols, strategy, relevant=(refuted.lhs, refuted.rhs)
    )
    return colored, refuted, side, added


def interpolate(
    problem: ProblemInstance, strategy: Strategy = Strategy.GREEDY
) -> InterpolationResult:
    """Full pipeline: the produced Horn conjunction interpolates A against B."""
    colored, refuted, side, added = build_colored_graph(problem, strategy)
    ps = PremiseSets(colored)
    if refuted.trivial:
        # s != s refutes its own side; no graph reasoning is involved.
        conj = (
            HornConjunction((HornClause((), None),))
            if side is Side.A
            else HornConjunction(())
        )
        return InterpolationResult(conj, refuted, side, colored, ps, added, 0)
    path = colored.graph.path(refuted.lhs, refuted.rhs)
    if side is Side.B:
        conj = path_interpolant(ps, path)
    else:
        conj = refutation_interpolant(ps, path)
    _check_shared(conj, problem.symbols)
    factor_count = len(colored.factors(path))
    return InterpolationResult(conj, refuted, side, colored, ps, added, factor_count)


def _check_shared(conj: HornConjunction, symbols: SymbolTable) -> None:
    for atom in conj.atoms():
        for term in (atom.lhs, atom.rhs):
            if symbols.colorability(term) != Colorability.AB:
                raise SharedSignatureError(
                    f"atom {format_literal(atom)} is not expressible on both sides"
                )


def format_clause(clause: HornClause) -> str:
    concl = "false" if clause.conclusion is None else format_literal(clause.conclusion)
    if not clause.premises:
        return concl
    prems = " ".join(format_literal(p) for p in clause.premises)
    return f"(=> (and {prems}) {concl})"


def format_conjunction(conj: HornConjunction) -> str:
    if conj.is_true:
        return "true"
    return "(and " + " ".join(format_clause(c) for c in conj.clauses) + ")"


_FALSE_ATOMS = ("false", "false'")  # the primed relay constant denotes falsity


def _conclusion(reader: Reader, i: int) -> Literal:
    lit, _ = reader.literal(i, None)
    if not lit.equal and lit.trivial:
        raise reader.error(f"reflexive disequality {format_literal(lit)}", i)
    return lit


def _clause(reader: Reader, i: int) -> HornClause | None:
    """The clause at token ``i``: false, a literal, or (=> (and eq*) conclusion)."""
    toks = reader.toks
    if toks[i] != "(":
        if toks[i] in _FALSE_ATOMS:
            return HornClause.make((), None)
        raise reader.error(f"unexpected atom {toks[i]!r} in formula", i)
    head = toks[i + 1]
    if head == "(" or head == ")":
        raise reader.error("expected a clause", i)
    if head in ("=", "not"):
        return HornClause.make((), _conclusion(reader, i))
    if head == "=>":
        if reader.count(i) != 3:
            raise reader.error("'=>' takes premises and a conclusion", i)
        body = i + 2
        if toks[body] != "(" or toks[body + 1] != "and":
            raise reader.error("premises must be (and eq*)", i)
        premises = []
        for start, lit in reader.literals(body, None):
            if not lit.equal:
                raise reader.error("premises must be equalities", start)
            premises.append(lit)
        concl = reader.skip(body)
        if toks[concl] in _FALSE_ATOMS:
            return HornClause.make(premises, None)
        return HornClause.make(premises, _conclusion(reader, concl))
    raise reader.error(f"unexpected clause head {head!r}", i)


def parse_conjunction(
    text: str, table: TermTable, symbols: SymbolTable
) -> HornConjunction:
    """Parse formula text: 'true', a bare clause, or (and clause*)."""
    reader = Reader(text, table, symbols)
    toks = reader.toks
    if not toks or reader.skip(0) != len(toks):
        raise ParseError("expected exactly one formula")
    if toks[0] == "true":
        return HornConjunction(())
    if toks[0] == "(" and toks[1] == "and":
        return HornConjunction.from_clauses(
            _clause(reader, i) for i in reader.items(2, reader.close[0])
        )
    return HornConjunction.from_clauses([_clause(reader, 0)])
