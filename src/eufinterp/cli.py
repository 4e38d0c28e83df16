"""Command-line front end.

Exit codes: 0 success; 1 satisfiable input, failed verification, or a game
cut with no run; 2 usage, syntax, or format errors.  Output is deterministic
for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coloring import ColoredGraph, Strategy
from .congruence import CongruenceGraph, close
from .core import ParseError, Side, format_term, parse_problem
from .game import (
    InvalidCutError,
    NonLocalProofError,
    ProofError,
    format_game_interpolant,
    game_interpolant,
    local_cut,
    parse_proof,
    run_from_cut,
    unfold_refutation,
)
from .generate import FAMILIES, generate
from .interpolate import (
    NotUnsatisfiableError,
    format_conjunction,
    interpolate,
    parse_conjunction,
)
from .verify import check_interpolant

STRATEGIES = {s.value: s for s in Strategy}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_witness(partition) -> None:
    print("satisfiable; distinct-class witness:", file=sys.stderr)
    for block in partition:
        print("  " + " ".join(format_term(t) for t in block), file=sys.stderr)


def _dot(graph: CongruenceGraph, colored: ColoredGraph | None = None) -> str:
    """DOT rendering: basic edges solid, derived dashed; B edges doubled."""
    lines = ["graph congruence {"]
    for term in graph.vertices:
        lines.append(f'  "{format_term(term)}";')
    for edge in graph.edges:
        attrs = ["style=solid" if edge.is_basic else "style=dashed"]
        if colored is not None:
            side = colored.colors[edge.seq]
            if side is Side.B:
                attrs.append('color="black:invis:black"')
            attrs.append(f'xlabel="{side.value}"')
        if edge.is_derived:
            pairs = " ".join(
                f"({format_term(p)} {format_term(q)})" for p, q in edge.parents
            )
            lines.append(f"  // edge {edge.seq} parents: {pairs}")
        lines.append(
            f'  "{format_term(edge.u)}" -- "{format_term(edge.v)}" '
            f'[{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines)


def _cmd_interpolate(args) -> int:
    problem = parse_problem(_read_input(args.file))
    try:
        result = interpolate(problem, STRATEGIES[args.strategy])
    except NotUnsatisfiableError as exc:
        _print_witness(exc.partition)
        return 1
    if args.dot:
        print(_dot(result.colored.graph, result.colored))
        return 0
    if args.game:
        unfolded = unfold_refutation(result.colored, result.refuted, result.refuted_side)
        try:
            run = run_from_cut(*local_cut(unfolded))
        except (NonLocalProofError, InvalidCutError) as exc:
            print(f"bridge failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        formula = format_game_interpolant(game_interpolant(run))
        interpolant = parse_conjunction(formula, problem.table, problem.symbols)
    else:
        interpolant = result.interpolant
        formula = format_conjunction(interpolant)
    verified = None
    if args.verify:
        report = check_interpolant(problem, interpolant)
        verified = report.accepted
    if args.json:
        print(
            json.dumps(
                {
                    "interpolant": formula,
                    "clause_count": len(interpolant.clauses),
                    "verified": verified,
                    "repair_vertices": len(result.repair_vertices),
                    "factors": result.factor_count,
                }
            )
        )
    else:
        print(formula)
        if args.stats:
            print(
                f"clauses={len(interpolant.clauses)} "
                f"atoms={len(interpolant.atoms())} "
                f"repair_vertices={len(result.repair_vertices)}"
            )
    if verified is False:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    problem = parse_problem(_read_input(args.problem))
    horn = parse_conjunction(
        _read_input(args.interpolant), problem.table, problem.symbols
    )
    report = check_interpolant(problem, horn)
    print(json.dumps({"check": "shared_signature", "ok": report.shared_signature_ok}))
    print(json.dumps({"check": "a_entails_interpolant", "ok": report.a_entails_i}))
    print(json.dumps({"check": "b_interpolant_unsat", "ok": report.b_i_unsat}))
    print(json.dumps({"accepted": report.accepted, "failures": report.failures}))
    return 0 if report.accepted else 1


def _cmd_closure(args) -> int:
    problem = parse_problem(_read_input(args.file))
    graph = close(problem.equalities(), problem.terms())
    if args.dot:
        print(_dot(graph))
        return 0
    for block in graph.components():
        print("component: " + " ".join(format_term(t) for t in block))
    for edge in graph.edges:
        eq = f"(= {format_term(edge.u)} {format_term(edge.v)})"
        if edge.is_basic:
            print(f"edge {edge.seq}: basic {edge.side.value} {eq}")
        else:
            pairs = " ".join(
                f"({format_term(p)} {format_term(q)})" for p, q in edge.parents
            )
            print(f"edge {edge.seq}: derived {eq} parents: {pairs}")
    return 0


def _cmd_game(args) -> int:
    try:
        tree, t_a, t_b = local_cut(parse_proof(_read_input(args.proof)))
    except NonLocalProofError as exc:
        print(f"proof is not local at {format_term(exc.step)}", file=sys.stderr)
        return 1
    if args.game_command == "cut":
        print("T_A: " + " ".join(format_term(f) for f in t_a))
        print("T_B: " + " ".join(format_term(f) for f in t_b))
        return 0
    try:
        run = run_from_cut(tree, t_a, t_b)
    except InvalidCutError as exc:
        print(f"cut has no run: {exc}", file=sys.stderr)
        return 1
    print(format_game_interpolant(game_interpolant(run)))
    if args.stats:
        print(f"rounds={run.rounds()}")
    return 0


def _cmd_gen(args) -> int:
    sizes = {name: getattr(args, name) for name in FAMILIES}
    picked = [(name, size) for name, size in sizes.items() if size is not None]
    if len(picked) != 1:
        print("choose exactly one of --chain/--ladder/--split", file=sys.stderr)
        return 2
    family, size = picked[0]
    try:
        sys.stdout.write(generate(family, size, args.seed).text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eufinterp",
        description="Ground interpolation for the theory of equality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interpolate", help="compute an interpolant")
    p_int.add_argument("file", help="problem file, or - for stdin")
    p_int.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default=Strategy.GREEDY.value
    )
    p_int.add_argument("--verify", action="store_true")
    p_int.add_argument("--stats", action="store_true")
    p_int.add_argument("--dot", action="store_true")
    p_int.add_argument("--json", action="store_true")
    p_int.add_argument("--game", action="store_true")
    p_int.set_defaults(func=_cmd_interpolate)

    p_ver = sub.add_parser("verify", help="check an interpolant against a problem")
    p_ver.add_argument("problem")
    p_ver.add_argument("interpolant")
    p_ver.set_defaults(func=_cmd_verify)

    p_clo = sub.add_parser("closure", help="print the congruence graph")
    p_clo.add_argument("file")
    p_clo.add_argument("--dot", action="store_true")
    p_clo.set_defaults(func=_cmd_closure)

    p_game = sub.add_parser("game", help="proof-based interpolation")
    game_sub = p_game.add_subparsers(dest="game_command", required=True)
    for name in ("cut", "interpolate"):
        p = game_sub.add_parser(name)
        p.add_argument("proof")
        if name == "interpolate":
            p.add_argument("--stats", action="store_true")
        p.set_defaults(func=_cmd_game)

    p_gen = sub.add_parser("gen", help="emit a random unsatisfiable instance")
    p_gen.add_argument("--chain", type=int, metavar="N")
    p_gen.add_argument("--ladder", type=int, metavar="N")
    p_gen.add_argument("--split", type=int, metavar="N")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ProofError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
