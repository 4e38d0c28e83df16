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
    ProblemInstance,
    SAtom,
    Side,
    SymbolTable,
    Term,
    TermTable,
    ParseError,
    format_literal,
    head_of,
    literal_from_sexpr,
    read_sexprs,
    subterm_closure,
)

PathKey = tuple[int, int]


@dataclass(frozen=True)
class HornClause:
    """Premise equalities implying one equality, disequality, or falsity.

    ``conclusion`` is None for a clause concluding false.  Premises are
    deduplicated, sorted, and never of the form t = t.
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
            assert not (not conclusion.equal and conclusion.trivial)
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

    Paths are keyed by their endpoint ids (unordered); the graph is a forest,
    so the key determines the path.  A cycle guard turns any accidental
    non-termination of the recursions into a hard error.
    """

    def __init__(self, colored: ColoredGraph):
        self.colored = colored
        self._term_by_id = {t.id: t for t in colored.graph.vertices}
        self._b: dict[PathKey, tuple[PathKey, ...]] = {}
        self._a: dict[PathKey, tuple[PathKey, ...]] = {}
        self._cumulative: dict[PathKey, tuple[PathKey, ...]] = {}
        self._running: set[tuple[str, PathKey]] = set()

    def key_of(self, path: Path) -> PathKey:
        a, b = path.start.id, path.end.id
        return (a, b) if a <= b else (b, a)

    def path_of(self, key: PathKey) -> Path:
        return self.colored.path(self._term_by_id[key[0]], self._term_by_id[key[1]])

    def summary(self, key: PathKey) -> Literal:
        return Literal.make(self._term_by_id[key[0]], self._term_by_id[key[1]])

    def _guard(self, tag: str, key: PathKey) -> tuple[str, PathKey]:
        mark = (tag, key)
        if mark in self._running:
            raise RuntimeError(f"premise recursion revisited {mark}")
        self._running.add(mark)
        return mark

    def _memoized(self, memo: dict, tag: str, path: Path, parts) -> tuple[PathKey, ...]:
        """A path's value, memoized by path key, evaluated without recursion.

        ``parts(path)`` yields, in order, the keys of the path's value and
        the sub-paths whose values join it.  Sub-paths are evaluated on an
        explicit stack, so values reach ``memo`` in the order a recursive
        evaluation would finish them.
        """
        key = self.key_of(path)
        value = memo.get(key)
        if value is not None:
            return value
        stack = [(key, self._guard(tag, key), parts(path), {})]
        while stack:
            key, mark, todo, out = stack[-1]
            for part in todo:
                if not isinstance(part, Path):
                    out[part] = None
                    continue
                sub_key = self.key_of(part)
                hit = memo.get(sub_key)
                if hit is None:
                    stack.append((sub_key, self._guard(tag, sub_key), parts(part), {}))
                    break
                for k in hit:
                    out[k] = None
            else:
                stack.pop()
                self._running.discard(mark)
                memo[key] = value = tuple(out)
                if stack:
                    out = stack[-1][3]
                    for k in value:
                        out[k] = None
        return value

    def _premises(self, path: Path, want: Side) -> tuple[PathKey, ...]:
        """Maximal ``want``-colored paths supporting this path's summary."""

        def parts(path: Path):
            if path.is_empty:
                return
            for factor in self.colored.factors(path):
                if factor.side is want:
                    yield self.key_of(factor.path)
                    continue
                for step in factor.path.steps:
                    edge = step.edge
                    if edge.is_derived:
                        for p, q in edge.parents:
                            if p is not q:
                                yield self.colored.path(p, q)

        memo = self._b if want is Side.B else self._a
        return self._memoized(memo, want.value, path, parts)

    def b_premises(self, path: Path) -> tuple[PathKey, ...]:
        return self._premises(path, Side.B)

    def a_premises(self, path: Path) -> tuple[PathKey, ...]:
        return self._premises(path, Side.A)

    def cumulative(self, path: Path) -> tuple[PathKey, ...]:
        """The path itself plus, recursively, B-premises of its A-premises."""

        def parts(path: Path):
            yield self.key_of(path)
            for sigma in self.a_premises(path):
                for tau in self.b_premises(self.path_of(sigma)):
                    yield self.path_of(tau)

        return self._memoized(self._cumulative, "P", path, parts)


def justification(ps: PremiseSets, path: Path) -> HornClause | None:
    """Horn clause: the path's B-premise summaries imply its own summary."""
    premises = [ps.summary(k) for k in ps.b_premises(path)]
    return HornClause.make(premises, ps.summary(ps.key_of(path)))


def path_interpolant(ps: PremiseSets, path: Path) -> HornConjunction:
    """Interpolant of a path with B-colorable endpoints.

    Computed in closed form: the justifications of all A-premises of the
    cumulative premise set, deduplicated in discovery order.
    """
    sigmas: dict[PathKey, None] = {}
    for tau in ps.cumulative(path):
        for sigma in ps.a_premises(ps.path_of(tau)):
            sigmas[sigma] = None
    return HornConjunction.from_clauses(
        justification(ps, ps.path_of(sigma)) for sigma in sigmas
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
    verts = path.vertices()
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
    outer: dict[PathKey, None] = {}
    for part in (prefix, suffix):
        if part is not None:
            for k in ps.b_premises(part):
                outer[k] = None
    for k in outer:
        clauses.extend(path_interpolant(ps, ps.path_of(k)).clauses)
    premises = [ps.summary(k) for k in outer]
    if core is None or core.is_empty:
        conclusion = None
    else:
        conclusion = ps.summary(ps.key_of(core)).negated()
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
    path = colored.path(refuted.lhs, refuted.rhs)
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


def _clause_from_sexpr(sx, table: TermTable, symbols: SymbolTable) -> HornClause | None:
    if isinstance(sx, SAtom):
        if sx.text in _FALSE_ATOMS:
            return HornClause.make((), None)
        raise ParseError(f"unexpected atom {sx.text!r} in formula", sx.line, sx.col)
    head = head_of(sx)
    if head is None:
        raise ParseError("expected a clause", sx.line, sx.col)
    if head in ("=", "not"):
        return HornClause.make((), literal_from_sexpr(sx, table, symbols))
    if head == "=>":
        if len(sx.items) != 3:
            raise ParseError("'=>' takes premises and a conclusion", sx.line, sx.col)
        body, concl = sx.items[1], sx.items[2]
        if head_of(body) != "and":
            raise ParseError("premises must be (and eq*)", sx.line, sx.col)
        premises = []
        for item in body.items[1:]:
            lit = literal_from_sexpr(item, table, symbols)
            if not lit.equal:
                raise ParseError("premises must be equalities", item.line, item.col)
            premises.append(lit)
        if isinstance(concl, SAtom) and concl.text in _FALSE_ATOMS:
            return HornClause.make(premises, None)
        return HornClause.make(premises, literal_from_sexpr(concl, table, symbols))
    raise ParseError(f"unexpected clause head {head!r}", sx.line, sx.col)


def parse_conjunction(
    text: str, table: TermTable, symbols: SymbolTable
) -> HornConjunction:
    """Parse formula text: 'true', a bare clause, or (and clause*)."""
    forms = read_sexprs(text)
    if len(forms) != 1:
        raise ParseError("expected exactly one formula")
    form = forms[0]
    if isinstance(form, SAtom) and form.text == "true":
        return HornConjunction(())
    if head_of(form) == "and":
        return HornConjunction.from_clauses(
            _clause_from_sexpr(item, table, symbols) for item in form.items[1:]
        )
    return HornConjunction.from_clauses([_clause_from_sexpr(form, table, symbols)])
