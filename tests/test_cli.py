from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eufinterp
from eufinterp.cli import main
from eufinterp.core import ProblemInstance, parse_problem
from eufinterp.game import euf_bridge

from conftest import DATA, MALFORMED, alternating_proof, format_proof
from test_interpolate import wide_class_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name: str) -> str:
    return str(DATA / name)


def test_interpolate_prints_formula(capsys):
    code, out, err = run_cli(capsys, "interpolate", data("horn_min.euf"))
    assert code == 0
    assert out.strip() == "(and (=> (and (= u0 v0)) (= u1 v1)))"


def test_interpolate_verify_and_stats(capsys):
    code, out, err = run_cli(
        capsys, "interpolate", data("split_new_vertex.euf"), "--verify", "--stats"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(and (= z3 (* z1 z2)))"
    assert lines[1] == "clauses=1 atoms=1 repair_vertices=1"


def test_interpolate_json_fields(capsys):
    code, out, err = run_cli(
        capsys, "interpolate", data("ladder2.euf"), "--verify", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["clause_count"] == 2
    assert payload["repair_vertices"] == 0
    assert payload["factors"] == 3
    assert payload["interpolant"].startswith("(and ")


def test_interpolate_strategy_flag(capsys):
    code, out, _ = run_cli(
        capsys, "interpolate", data("ladder2.euf"), "--strategy", "all-a"
    )
    assert code == 0
    assert "(f z3)" in out  # the wide single-clause variant mentions f-terms


def test_interpolate_game_prints_the_verified_game_interpolant(capsys):
    # The refuted disequality is in A, where the game's construction differs
    # from the pipeline's: the relay that stands in for false at the root of
    # the proof is written false.  --stats counts the game interpolant.
    code, out, err = run_cli(
        capsys, "interpolate", data("chain_a_diseq.euf"), "--game", "--verify", "--stats"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "(and (=> (and (= z2 (f z3)) (= (f z2) z1) (= z3 z4)) false))",
        "clauses=1 atoms=3 repair_vertices=0",
    ]
    code, out, _ = run_cli(
        capsys, "interpolate", data("chain_a_diseq.euf"), "--game", "--verify", "--json"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_interpolate_game_names_a_failed_bridge(capsys, tmp_path):
    # The wide-class shape: the B leaf x2 = x1 feeds both the A step and B's
    # final step, so the cut has no run.
    path = tmp_path / "wide.euf"
    path.write_text("(A (= x2 (f x1)) (= (f x2) x0)) (B (= x1 x2) (not (= x1 x0)))\n")
    code, out, err = run_cli(capsys, "interpolate", str(path), "--game", "--verify")
    assert (code, out) == (1, "")
    assert err == (
        "bridge failed: InvalidCutError: cut node (= x2 x1) on the wrong side of false\n"
    )


def test_game_interpolate_names_a_cut_with_no_run(capsys, tmp_path):
    # The bridged wide-class proof at n = 20 has a cut, but the B leaf x0 = x1
    # feeds both the A step and B's final step, so the cut has no run: exit
    # 1, as for interpolate --game, and not the format-error exit 2.
    path = tmp_path / "wide.proof"
    path.write_text(format_proof(euf_bridge(parse_problem(wide_class_text(20, seed=0)))))
    assert run_cli(capsys, "game", "cut", str(path)) == (
        0, "T_A: (= x1 x20)\nT_B: false (= x0 x1)\n", ""
    )
    assert run_cli(capsys, "game", "interpolate", str(path)) == (
        1, "", "cut has no run: cut node (= x0 x1) on the wrong side of false\n"
    )


def test_python_dash_m_runs_the_command_line(capsys):
    argv = ["gen", "--chain", "5", "--seed", "1"]
    expected = run_cli(capsys, *argv)
    src = str(Path(eufinterp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-m", "eufinterp", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_interpolate_game_malformed_input_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.euf"
    path.write_text("(A (= a b)\n(B)\n")
    code, out, err = run_cli(capsys, "interpolate", str(path), "--game")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_satisfiable_instance_exits_1_with_witness(capsys, tmp_path):
    path = tmp_path / "sat.euf"
    path.write_text("(A (= a b)) (B (not (= c d)))\n")
    code, out, err = run_cli(capsys, "interpolate", str(path))
    assert code == 1
    assert "witness" in err
    assert "a b" in err


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.euf"
    path.write_text("(A (= a b)\n(B)\n")
    code, out, err = run_cli(capsys, "interpolate", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command, texts, message", MALFORMED)
def test_malformed_input_error_text(capsys, tmp_path, command, texts, message):
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"input{i}"
        path.write_text(text)
        paths.append(str(path))
    code, out, err = run_cli(capsys, *command.split(), *paths)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_directory_argument_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "interpolate", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_undecodable_input_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.euf"
    path.write_bytes(b"(A (= a b)) (B (not (= a \xff)))\n")
    code, out, err = run_cli(capsys, "interpolate", str(path))
    assert code == 2
    assert err.startswith("error: ") and "utf-8" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(A (= a b)) (B (not (= a b)))"))
    code, out, _ = run_cli(capsys, "interpolate", "-")
    assert code == 0
    assert out.strip() == "(and (= a b))"


def test_gen_is_deterministic_and_verifies(capsys, monkeypatch):
    code, first, _ = run_cli(capsys, "gen", "--chain", "10", "--seed", "7")
    assert code == 0
    code, second, _ = run_cli(capsys, "gen", "--chain", "10", "--seed", "7")
    assert first == second
    monkeypatch.setattr("sys.stdin", io.StringIO(first))
    code, out, err = run_cli(capsys, "interpolate", "-", "--verify")
    assert code == 0

    code, other, _ = run_cli(capsys, "gen", "--chain", "10", "--seed", "8")
    assert other != first


def test_gen_requires_exactly_one_family(capsys):
    code, _, err = run_cli(capsys, "gen", "--seed", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--chain", "5", "--ladder", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--chain", "0", "--ladder", "0")
    assert code == 2 and "choose exactly one" in err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--chain", "chain needs at least 2 literals"),
        ("--ladder", "ladder needs at least 1 rung"),
        ("--split", "split needs width >= 1"),
    ],
)
def test_gen_size_zero_names_the_size(capsys, flag, message):
    code, out, err = run_cli(capsys, "gen", flag, "0")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_interpolate_output_is_reproducible(capsys):
    runs = [
        run_cli(capsys, "interpolate", data("ladder_chain6.euf"), "--json")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_verify_accepts_and_rejects(capsys, tmp_path):
    good = tmp_path / "good.itp"
    good.write_text("(and (=> (and (= u0 v0)) (= u1 v1)))\n")
    code, out, _ = run_cli(capsys, "verify", data("horn_min.euf"), str(good))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["accepted"] is True

    bad = tmp_path / "bad.itp"
    bad.write_text("(and (= u0 v0))\n")
    code, out, _ = run_cli(capsys, "verify", data("horn_min.euf"), str(bad))
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["accepted"] is False
    assert lines[-1]["failures"]


def test_closure_lists_components_and_edges(capsys):
    code, out, _ = run_cli(capsys, "closure", data("ladder2.euf"))
    assert code == 0
    assert "component:" in out
    assert "basic A (= x1 z1)" in out
    derived_lines = [l for l in out.splitlines() if "derived" in l]
    assert len(derived_lines) == 3
    assert all("parents:" in l for l in derived_lines)


def test_closure_output_matches_a_fresh_literal_filter(capsys, monkeypatch):
    # ``closure`` reads the problem's kept equalities; a freshly filtered
    # list of the literals gives the same bytes.
    paths = sorted(DATA.glob("*.euf"))
    kept = [run_cli(capsys, "closure", str(path)) for path in paths]
    monkeypatch.setattr(
        ProblemInstance,
        "equalities",
        lambda self: [(lit, side) for lit, side in self.literals() if lit.equal],
    )
    fresh = [run_cli(capsys, "closure", str(path)) for path in paths]
    assert kept == fresh
    assert all(code == 0 and "edge 0:" in out for code, out, _ in kept)


def test_closure_dot_styles(capsys):
    code, out, _ = run_cli(capsys, "closure", data("ladder2.euf"), "--dot")
    assert code == 0
    assert out.startswith("graph congruence {")
    assert "style=solid" in out and "style=dashed" in out


def test_interpolate_dot_marks_colors(capsys):
    code, out, _ = run_cli(capsys, "interpolate", data("ladder2.euf"), "--dot")
    assert code == 0
    assert 'xlabel="A"' in out and 'xlabel="B"' in out


def test_game_cut_and_interpolate(capsys):
    code, out, _ = run_cli(capsys, "game", "cut", data("forward_chain.proof"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T_A: (t (f a))"
    assert set(lines[1].removeprefix("T_B: ").split(" (", 1)[0].split()) <= {
        "false",
        "(not",
    }
    code, out, _ = run_cli(
        capsys, "game", "interpolate", data("forward_chain.proof"), "--stats"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "(and (=> (and (not (r b)) (forall x (=> (r x) (t (f x))))) (t (f a))))"
    )
    assert lines[1] == "rounds=3"


def test_game_stats_is_an_interpolate_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["game", "cut", data("forward_chain.proof"), "--stats"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "game", "interpolate", data("forward_chain.proof"), "--stats"
    )
    assert code == 0
    assert out.splitlines()[1] == "rounds=3"


@pytest.mark.parametrize("command", ["interpolate", "verify"])
def test_deeply_nested_term_is_read_and_printed(capsys, tmp_path, command):
    # Far past the interpreter's recursion limit: terms are read and printed
    # on explicit stacks.
    depth = 10_000
    deep = "(f " * depth + "a" + ")" * depth
    problem, interpolant = tmp_path / "problem.euf", tmp_path / "interpolant"
    problem.write_text(f"(A (= b {deep})) (B (= c {deep}) (not (= b c)))\n")
    argv = [command, str(problem)]
    if command == "verify":
        interpolant.write_text(f"(and (= b {deep}))\n")
        argv.append(str(interpolant))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if command == "interpolate":
        assert out == f"(and (= b {deep}))\n"
    else:
        assert json.loads(out.splitlines()[-1]) == {"accepted": True, "failures": []}


def test_deeply_nested_proof_formula_is_read_and_printed(capsys, tmp_path):
    # Proof formulas are read, cut and printed on explicit stacks too.
    depth = 10_000
    deep = "(p " * depth + "a" + ")" * depth
    path = tmp_path / "deep.proof"
    path.write_text(
        "(theory-symbols p)\n"
        "(node n1 (q a) (from A))\n"
        f"(node n2 {deep} (premises n1))\n"
        f"(node n3 (not {deep}) (from B))\n"
        "(node root false (premises n2 n3))\n"
    )
    code, out, err = run_cli(capsys, "game", "cut", str(path))
    assert (code, out, err) == (0, f"T_A: {deep}\nT_B: false\n", "")
    code, out, err = run_cli(capsys, "game", "interpolate", str(path))
    assert (code, out, err) == (0, f"(and {deep})\n", "")


def test_game_relay_does_not_overwrite_a_false_prime_node(capsys, tmp_path):
    # The proof already has a node labelled false'; the relay takes the next
    # free label, (and false'), and the proof is read as the acyclic one it is.
    # The cut names the relay; the interpolant writes it false.
    path = tmp_path / "relay.proof"
    path.write_text(
        "(theory-symbols)\n"
        "(node n1 (p a) (from A))\n"
        "(node n2 false' (premises n1))\n"
        "(node n3 (not (p a)) (from A))\n"
        "(node n4 false (premises n2 n3))\n"
    )
    code, out, err = run_cli(capsys, "game", "cut", str(path))
    assert (code, out, err) == (0, "T_A: (and false')\nT_B: false\n", "")
    code, out, err = run_cli(capsys, "game", "interpolate", str(path))
    assert (code, out, err) == (0, "(and false)\n", "")


def test_game_root_that_is_an_a_leaf_gets_the_interpolant_false(capsys, tmp_path):
    # A alone refutes when false is an A leaf: the relay stands in for it on
    # A's side.  A B leaf false keeps the interpolant true.
    path = tmp_path / "leaf.proof"
    for origin, cut, interpolant in (
        ("A", "T_A: false'\nT_B: false\n", "(and false)\n"),
        ("B", "T_A: \nT_B: false\n", "true\n"),
    ):
        path.write_text(f"(theory-symbols)\n(node n1 false (from {origin}))\n")
        assert run_cli(capsys, "game", "cut", str(path)) == (0, cut, "")
        assert run_cli(capsys, "game", "interpolate", str(path)) == (0, interpolant, "")


def test_recursion_error_exits_2(capsys, monkeypatch):
    # No reader recurses on depth any more; the mapping stays as a safety net.
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("eufinterp.cli.parse_proof", too_deep)
    code, out, err = run_cli(capsys, "game", "cut", data("forward_chain.proof"))
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


def test_game_rejects_non_local_proof(capsys, tmp_path):
    path = tmp_path / "mixed.proof"
    path.write_text(
        "(theory-symbols)\n"
        "(node n1 (p a) (from A))\n"
        "(node n2 (s a) (from B))\n"
        "(node n3 false (premises n1 n2))\n"
    )
    code, _, err = run_cli(capsys, "game", "cut", str(path))
    assert code == 1
    assert "local" in err


def test_game_reads_a_conclusion_first_proof_premise_first(capsys, tmp_path):
    # Nodes are kept premises first, whatever the file's order: the cut lists
    # (p x) before (q y), and a non-local proof is reported at the lower of
    # its two mixed steps.  The interpolant is that of any order.
    path = tmp_path / "conclusion_first.proof"
    path.write_text(
        "(theory-symbols)\n"
        "(node root false (premises n4 n2))\n"
        "(node n2 (q y) (from A))\n"
        "(node n4 (not (q y)) (premises n1 n3))\n"
        "(node n3 (or (not (p x)) (not (q y))) (from B))\n"
        "(node n1 (p x) (from A))\n"
    )
    code, out, err = run_cli(capsys, "game", "cut", str(path))
    assert (code, out, err) == (0, "T_A: (p x) (q y)\nT_B: false\n", "")
    code, out, err = run_cli(capsys, "game", "interpolate", str(path))
    assert (code, out, err) == (0, "(and (p x) (q y))\n", "")
    path.write_text(
        "(theory-symbols)\n"
        "(node root false (premises s2 nb))\n"
        "(node s2 (h a b) (premises s1 lb))\n"
        "(node s1 (g a b) (premises la lb))\n"
        "(node la (p a) (from A))\n"
        "(node lb (q b) (from B))\n"
        "(node nb (not (h a b)) (from B))\n"
    )
    for command in ("cut", "interpolate"):
        code, out, err = run_cli(capsys, "game", command, str(path))
        assert (code, out, err) == (1, "", "proof is not local at (g a b)\n")


def test_game_stats_on_a_deep_alternating_proof(capsys, tmp_path):
    steps = 400
    path = tmp_path / "alternating.proof"
    path.write_text(alternating_proof(steps))
    code, out, err = run_cli(capsys, "game", "interpolate", "--stats", str(path))
    assert code == 0, err
    interpolant, stats = out.splitlines()
    assert stats == f"rounds={steps}"
    # One clause per A step: (p c0) |- (p c1) is a fact, the others implications.
    assert interpolant.startswith(f"(and (=> (and (p c{steps - 2})) (p c{steps - 1}))")
    assert interpolant.endswith(" (p c1))")
    assert interpolant.count("(=> ") == steps // 2 - 1


def test_game_cut_of_a_deep_alternating_proof_is_fast(capsys, tmp_path):
    # Each cut node has exactly one maximal candidate below it.
    steps = 800
    path = tmp_path / "alternating.proof"
    path.write_text(alternating_proof(steps))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "game", "cut", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0, err
    t_a = " ".join(f"(p c{k})" for k in range(steps - 1, 0, -2))
    t_b = " ".join(["false"] + [f"(p c{k})" for k in range(steps - 2, 0, -2)])
    assert out == f"T_A: {t_a}\nT_B: {t_b}\n"
    assert elapsed < 1.0, elapsed


def test_game_handles_a_deep_proof_listed_root_first(capsys, tmp_path):
    depth = 3000
    lines = [
        "(theory-symbols)",
        f"(node root false (premises n{depth - 1} nb))",
        f"(node nb (not (p c{depth - 1})) (from B))",
    ]
    for i in range(depth - 1, 0, -1):
        lines.append(f"(node n{i} (p c{i}) (premises n{i - 1} s{i}))")
        lines.append(f"(node s{i} (step c{i - 1} c{i}) (from A))")
    lines.append("(node n0 (p c0) (from A))")
    path = tmp_path / "deep.proof"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "game", "interpolate", str(path))
    assert code == 0, err
    assert out.strip() == f"(and (p c{depth - 1}))"
