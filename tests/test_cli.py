from __future__ import annotations

import io
import json

import pytest

from eufinterp.cli import main

from conftest import DATA


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


HORN_MIN = "(A (= u1 (* x u0)) (= v1 (* x v0))) (B (= u0 v0) (not (= u1 v1)))\n"

# Exact stderr for malformed input; every case exits 2 and prints nothing.
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
        "2:1: expected (theory-symbols SYMBOL*)",
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
]


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


def test_game_handles_a_deep_proof_listed_root_first(capsys, tmp_path):
    depth = 3000
    lines = [
        "(theory-symbols)",
        f"(node root false (premises n{depth - 1} nb))",
        f"(node nb (not (p{depth - 1})) (from B))",
    ]
    for i in range(depth - 1, 0, -1):
        lines.append(f"(node n{i} (p{i}) (premises n{i - 1} s{i}))")
        lines.append(f"(node s{i} (step p{i - 1} p{i}) (from A))")
    lines.append("(node n0 (p0) (from A))")
    path = tmp_path / "deep.proof"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "game", "interpolate", str(path))
    assert code == 0, err
    assert out.strip() == f"(and (p{depth - 1}))"
