"""Seeded byte-level mutation fuzz of the problem, interpolant and proof readers.

Mutants of generated instances, proofs and the malformed-input cases go
through ``cli.main`` (``interpolate``, ``verify``, ``closure``, ``game cut``
and ``game interpolate``), which may only exit 0, 1 or 2 and never lets an
exception out.  On every mutant that decodes, the library's reader and the
two-stage reference in ``conftest`` accept or reject together, with the same
error text and position.
"""

from __future__ import annotations

import random

from eufinterp.cli import main
from eufinterp.core import parse_problem
from eufinterp.game import parse_proof
from eufinterp.generate import FAMILIES, generate
from eufinterp.interpolate import format_conjunction, interpolate

from conftest import (
    DATA,
    HORN_MIN,
    MALFORMED,
    alternating_proof,
    assert_proof_readers_agree,
    assert_readers_agree,
    load_text,
    premise_first,
)
from test_game import random_proof

SEED = 1729
MUTANTS_PER_COMMAND = 300
PROOF_MUTANTS = 300
# Bytes a mutation writes: syntax, names, blanks, and a few that do not decode.
ALPHABET = b"()=;\n\t abcfgnotuvxz012AB-'\xc2\xb2\xff"


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three random edits: replace, insert, delete, or repeat a span."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(out) + 1)
        kind = rng.randrange(4)
        if kind == 0 and pos < len(out):
            out[pos] = rng.choice(ALPHABET)
        elif kind == 1:
            out.insert(pos, rng.choice(ALPHABET))
        elif kind == 2:
            del out[pos : pos + rng.randint(1, 4)]
        else:
            span = bytes(out[pos : pos + rng.randint(1, 8)])
            at = rng.randrange(len(out) + 1)
            out[at:at] = span
    return bytes(out)


def corpus() -> tuple[list[str], list[tuple[str, str]]]:
    """Problem texts, and (problem, interpolant) pairs, to mutate."""
    problems = [
        generate(family, size, seed).text
        for family in FAMILIES
        for size in (2, 4, 6)
        for seed in (0, 1)
    ]
    problems += [texts[0] for command, texts, _ in MALFORMED if command == "interpolate"]
    pairs = [(text, interpolant_text(text)) for text in problems[:18]]
    pairs += [tuple(texts) for command, texts, _ in MALFORMED if command == "verify"]
    pairs.append((HORN_MIN, "(and (=> (and (= u0 v0)) (= u1 v1)))\n"))
    return problems, pairs


def interpolant_text(problem_text: str) -> str:
    return format_conjunction(interpolate(parse_problem(problem_text)).interpolant)


def run_main(capsys, argv: list[str]) -> int:
    try:
        code = main(argv)
    except Exception as exc:  # any escape is the failure being looked for
        raise AssertionError(f"{argv}: {type(exc).__name__}: {exc}") from exc
    _, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    return code


def decoded(data: bytes) -> str | None:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def test_mutated_problems_and_interpolants(capsys, tmp_path):
    rng = random.Random(SEED)
    problems, pairs = corpus()
    problem_path, formula_path = tmp_path / "problem.euf", tmp_path / "formula"
    codes: dict[str, set[int]] = {"interpolate": set(), "verify": set()}
    for _ in range(MUTANTS_PER_COMMAND):
        data = mutate(rng, rng.choice(problems).encode("utf-8"))
        problem_path.write_bytes(data)
        argv = ["interpolate", str(problem_path), "--verify"]
        codes["interpolate"].add(run_main(capsys, argv))
        text = decoded(data)
        if text is not None:
            assert_readers_agree(text)

        problem, formula = rng.choice(pairs)
        data = mutate(rng, formula.encode("utf-8"))
        problem_path.write_text(problem, encoding="utf-8")
        formula_path.write_bytes(data)
        argv = ["verify", str(problem_path), str(formula_path)]
        codes["verify"].add(run_main(capsys, argv))
        text = decoded(data)
        if text is not None:
            assert_readers_agree(problem, text)
    # The budget reaches every exit code of both commands.
    assert codes == {"interpolate": {0, 1, 2}, "verify": {0, 1, 2}}


def proof_corpus() -> tuple[list[str], list[str]]:
    """Well-formed proofs (the forward chain, an alternating chain and a few
    random ones), and the malformed proofs."""
    rng = random.Random(SEED)
    proofs = [load_text("forward_chain.proof"), alternating_proof(3)]
    proofs += [random_proof(rng, rng.randint(3, 12)) for _ in range(4)]
    malformed = [texts[0] for command, texts, _ in MALFORMED if command.startswith("game")]
    return proofs, malformed


def test_nodes_view_of_parsed_proofs_matches_the_reference_reader():
    # The nodes, as ``label_nodes`` lists them, are each label's first node in
    # the order the cycle check finishes them, with its premise labels and
    # origin, as the reference reader gives them; a cyclic proof raises the
    # same error, naming the same node.  ``nodes`` indexes the labels in that
    # order, which puts premises first.
    proofs, malformed = proof_corpus()
    texts = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.proof"))]
    cyclic = (
        "(theory-symbols)\n"
        "(node n1 false (premises n2))\n"
        "(node n2 (= a b) (premises n3))\n"
        "(node n3 (= b c) (premises n2))\n"
    )
    parsed = 0
    for text in texts + proofs + malformed + [cyclic]:
        assert_proof_readers_agree(text)
        try:
            tree = parse_proof(text)
        except ValueError:
            continue
        parsed += 1
        assert list(tree.nodes) == tree.labels
        assert premise_first(tree)
        assert tree.nodes == {label: i for i, label in enumerate(tree.labels)}
        assert tree.root is tree.table.make("false")
    assert parsed == len(texts) + len(proofs)


def test_mutated_proofs_and_closure_problems(capsys, tmp_path):
    rng = random.Random(SEED)
    (proofs, malformed), (problems, _) = proof_corpus(), corpus()
    path = tmp_path / "input"
    codes: dict[str, set[int]] = {"game cut": set(), "game interpolate": set()}
    codes["closure"] = set()
    for _ in range(PROOF_MUTANTS):
        source = rng.choice(proofs if rng.random() < 0.75 else malformed)
        data = mutate(rng, source.encode("utf-8"))
        path.write_bytes(data)
        for command in ("game cut", "game interpolate"):
            codes[command].add(run_main(capsys, [*command.split(), str(path)]))
        text = decoded(data)
        if text is not None:
            assert_proof_readers_agree(text)

        path.write_bytes(mutate(rng, rng.choice(problems).encode("utf-8")))
        codes["closure"].add(run_main(capsys, ["closure", str(path)]))
    # closure has no failing outcome; the game commands reach all three.
    assert codes == {
        "game cut": {0, 1, 2},
        "game interpolate": {0, 1, 2},
        "closure": {0, 2},
    }
