"""Interpolant construction from colored congruence graphs.

A path summarizes the equality of its endpoints.  For a path derivable by
the A-prover, the B-premise set collects the maximal B-colored paths whose
summaries, together with A, entail the path's summary; the justification is
the corresponding Horn clause.  The interpolant of a path is the conjunction
of the justifications of all A-premises reachable from it, each A-premise
leading on to its B-premises: one pre-order walk reads them, as
``game.game_interpolant`` reads a run's.  The test suite checks it against
an equivalent recursive formulation.  Results are conjunctions of Horn
clauses whose atoms only use symbols shared by both input sets.

Clauses are assembled on term ids: a path's key is its summary as a
normalized literal, and sorting premises by key is the clause order.  Distinct
A-premises have distinct conclusions, so each clause is made once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .coloring import ColoredGraph, Strategy, color, make_colorable
from .congruence import Path, close, find_refuted_disequality
from .core import (
    Literal, ParseError, ProblemInstance, Reader, Side, SymbolTable, Term, TermTable,
    _A, _B, _post_order, format_literal,
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


def _revisited(key: tuple[int, int]) -> RuntimeError:
    return RuntimeError(f"premise recursion revisited {key}")


def _union(memo: dict, key: tuple[int, int], todo, expand) -> dict:
    """``memo[key]``, the union of what the parts in ``todo`` give, in order.

    A part ``(k, p, None)`` gives the path ``p`` of key ``k``; ``(k, p, q)``
    gives the value of key ``k``, from ``memo`` or from ``expand(p, q)``'s parts.
    """
    open_keys = {key}
    stack = [(key, todo, {})]
    while stack:
        key, todo, out = stack[-1]
        for sub_key, p, q in todo:
            if q is None:
                if sub_key not in out:
                    out[sub_key] = p
                continue
            hit = memo.get(sub_key)
            if hit is None:
                if sub_key in open_keys:
                    raise _revisited(sub_key)
                open_keys.add(sub_key)
                stack.append((sub_key, expand(p, q), {}))
                break
            for k in hit:
                if k not in out:
                    out[k] = hit[k]
        else:
            stack.pop()
            open_keys.discard(key)
            memo[key] = value = out
            if stack:
                out = stack[-1][2]
                for k in value:
                    if k not in out:
                        out[k] = value[k]
    return value


class PremiseSets:
    """Memoized premise-set calculators over one colored graph.

    Each memo (``_b``, ``_a``) maps a path's :attr:`Path.key` to its value:
    a dict from the keys of the value's paths to the paths, in the order they
    were found and each in the direction it was found in; the graph is a
    forest, so the key determines the path.  One explicit-stack walk,
    ``_union``, evaluates both: each value joins the values of its parts,
    which reach their memo in the order a recursive evaluation would finish
    them; a key met again while open is a hard error.
    """

    def __init__(self, colored: ColoredGraph):
        self.colored = colored
        self._b, self._a = {}, {}

    def premises(self, path: Path, want: Side) -> dict[tuple[int, int], Path]:
        """Maximal ``want``-colored paths supporting this path's summary.

        A ``want``-colored run is one of them, the path itself when the run
        covers it.  The derived edges of the other runs join the values of
        their parent paths; a parent path is built only when its value is
        not memoized yet, checked as the walk reaches it.
        """
        memo, key = self._b if want is _B else self._a, path.key
        value = memo.get(key)
        if value is not None:
            return value
        graph, runs = self.colored.graph, self.colored.runs

        def parts(path: Path | Term, end: Term | None = None) -> Iterator[tuple]:
            if end is not None:  # a parent pair: its path is built now
                path = graph.path(path, end)
            out, edges = [], path.edges
            for side, lo, hi in runs(path):
                if side is want:
                    sub = path if hi - lo == len(edges) else path.slice(lo, hi)
                    out.append((sub.key, sub, None))
                    continue
                for edge in edges[lo:hi]:
                    for p, q in edge.parents or ():
                        if p is not q:
                            u, v = p.id, q.id
                            out.append(((u, v) if u < v else (v, u), p, q))
            return iter(out)

        return _union(memo, key, parts(path), parts)


def _sigmas(ps: PremiseSets, path: Path, sigmas: dict, seen: dict) -> dict:
    """``sigmas`` plus the A-premises reachable from the path, in one pre-order
    walk; ``seen``, its memo, skips the keys a walk sharing it finished."""
    paths = {path.key: path}

    def below(key: tuple[int, int]) -> Iterator[tuple[int, int]]:
        found = ps.premises(paths[key], _A)
        for sub_key, sigma in found.items():
            sigmas.setdefault(sub_key, sigma)
        for sigma in found.values():
            for sub_key, tau in ps.premises(sigma, _B).items():
                paths[sub_key] = tau
                yield sub_key

    _post_order(path.key, below, lambda key: None, seen, _revisited)
    return sigmas


def _conjunction(ps: PremiseSets, sigmas: dict, *last: HornClause) -> HornConjunction:
    """The justifications of ``sigmas`` in order, then ``last``.

    None is trivially true: a premise with the conclusion's key would be the
    same path, but an A-premise's edges are colored A and a B-premise's B.
    """
    terms = ps.colored.symbols.table.terms
    clauses = []
    for (a, b), sigma in sigmas.items():
        premises = sorted(ps.premises(sigma, _B))
        lits = tuple([Literal(terms[p], terms[q]) for p, q in premises])
        clauses.append(HornClause(lits, Literal(terms[a], terms[b])))
    return HornConjunction((*clauses, *last))


def path_interpolant(ps: PremiseSets, path: Path) -> HornConjunction:
    """Interpolant of a path with B-colorable endpoints.

    The justifications of all A-premises reachable from the path, in the
    order the pre-order walk meets them.
    """
    return _conjunction(ps, _sigmas(ps, path, {}, {}))


def refutation_interpolant(ps: PremiseSets, path: Path) -> HornConjunction:
    """Interpolant used when the refuted disequality belongs to A.

    The path splits as prefix / core / suffix, the core being the largest
    subpath with B-colorable endpoints (empty when no vertex qualifies).
    The result conjoins the core's interpolant, the interpolants of the
    prefix/suffix B-premises, and one clause refuting the core's summary
    from those premises.
    """
    bits, terms = ps.colored.symbols.covering(), ps.colored.symbols.table.terms
    verts = path.vertices
    b_positions = [i for i, v in enumerate(verts) if bits[v.id] & 2]
    sigmas, seen, outer, parts, conclusion = {}, {}, {}, [path], None
    if b_positions:
        i, j = b_positions[0], b_positions[-1]
        core = path.slice(i, j)
        parts = [path.slice(0, i), path.slice(j, len(verts) - 1)]
        if not core.is_empty:
            _sigmas(ps, core, sigmas, seen)
            a, b = core.key
            conclusion = Literal(terms[a], terms[b], False)
    for part in parts:
        for key, p in ps.premises(part, _B).items():
            outer.setdefault(key, p)
    for p in outer.values():
        _sigmas(ps, p, sigmas, seen)
    premises = tuple([Literal(terms[a], terms[b]) for a, b in sorted(outer)])
    return _conjunction(ps, sigmas, HornClause(premises, conclusion))


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
    graph = close(problem.equalities(), problem.terms())
    found = find_refuted_disequality(graph, problem.disequalities())
    if found is None:
        raise NotUnsatisfiableError(graph.components())
    refuted, side = found
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
    factor_count = len(colored.runs(path))
    return InterpolationResult(conj, refuted, side, colored, ps, added, factor_count)


def _check_shared(conj: HornConjunction, symbols: SymbolTable) -> None:
    bits = symbols.covering()
    for atom in conj.atoms():
        for term in (atom.lhs, atom.rhs):
            if bits[term.id] != 3:
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
