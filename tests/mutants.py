"""Mutants that the test suite must kill: ``python tests/mutants.py [NAME...]``.

Each mutant replaces one piece of text in one ``src/eufinterp`` module.  The
text must occur exactly once in that module; a change that edits a mutated
line updates its mutant.  For each mutant the repository is copied, without
``.git`` and ``bench``, into a temporary directory, the mutation is applied to
the copy, and ``pytest -x`` runs there, one process at a time.  The mutant's
own test file runs first, so that the first failure comes early; the rest of
the suite follows.  A mutant is killed when a test fails or a test module no
longer imports.  The copy keeps ``bench/workloads.py``, whose instances the
tests read, and first runs unmutated: the suite must pass on it.  Prints one
line per mutant and exits 1 when a mutant survives or when a mutant's text
does not occur exactly once.  With names given, runs only those mutants.

The file is not a ``test_*.py`` module, so the suite does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/eufinterp")
TIMEOUT_S = 180

# (name, module, old text, new text, test file to run first)
MUTANTS = [
    # game: the proof tree, locality, the root's relay, the cut and the run
    (
        "add-premise-bound",
        "game.py",
        "if any(not 0 <= prem < i for prem in premises):",
        "if any(prem < 0 for prem in premises):",
        "test_game",
    ),
    ("steps-or", "game.py", "fit &= fits[prem]", "fit |= fits[prem]", "test_game"),
    (
        "nonlocal-names-premise",
        "game.py",
        "return tree.labels[i]",
        "return tree.labels[premises[i][0]]",
        "test_game",
    ),
    (
        "nonlocal-single-premise",
        "game.py",
        "if not step and premises[i]:",
        "if not step and len(premises[i]) > 1:",
        "test_game",
    ),
    (
        "relay-condition",
        "game.py",
        'all(fits[p] & 2 for p in tree.premises[r])',
        'all(fits[p] & 1 for p in tree.premises[r])',
        "test_game",
    ),
    (
        "relay-search",
        "game.py",
        "while relay in tree.nodes:",
        "if relay in tree.nodes:",
        "test_game",
    ),
    ("relay-keeps-root-node", "game.py", "    del fixed.nodes[root]\n", "", "test_game"),
    (
        "candidate-bits",
        "game.py",
        "_CANDIDATE = (3, 1, 2, 0)",
        "_CANDIDATE = (3, 2, 1, 0)",
        "test_game",
    ),
    ("fresh-sort", "game.py", "fresh.sort()", "fresh.sort(reverse=True)", "test_game"),
    (
        "stop-bit",
        "game.py",
        "if stops[i] & other and i != chi:",
        "if stops[i] & bit and i != chi:",
        "test_game",
    ),
    ("run-cut-side", "game.py", "cut[nodes[beta]] |= 2", "cut[nodes[beta]] |= 1", "test_game"),
    (
        "unfold-label-order",
        "game.py",
        "if v.id < u.id:\n                u, v = v, u\n            sub_label",
        "if v.id > u.id:\n                u, v = v, u\n            sub_label",
        "test_game",
    ),
    (
        "unfold-runs",
        "game.py",
        "subs = edges if len(runs) == 1 else [",
        "subs = edges if len(runs) <= 2 else [",
        "test_game",
    ),
    (
        "unfold-fits",
        "game.py",
        "bits[s.id] & bits[t.id] for s, t in",
        "bits[s.id] | bits[t.id] for s, t in",
        "test_game",
    ),
    # congruence: closure, forest splits, the refuted disequality
    (
        "closure-tie",
        "congruence.py",
        "n == m and label[gone] < label[keep]",
        "n == m and label[gone] > label[keep]",
        "test_congruence",
    ),
    (
        "split-reuse-side",
        "congruence.py",
        "if below_low == (low is edge.u):",
        "if below_low != (low is edge.u):",
        "test_coloring",
    ),
    (
        "refuted-side-order",
        "congruence.py",
        "for want in (Side.B, Side.A):",
        "for want in (Side.A, Side.B):",
        "test_congruence",
    ),
    (
        "a-side-refutation-missed",
        "congruence.py",
        "for want in (Side.B, Side.A):",
        "for want in (Side.B,):",
        "test_agreement",
    ),
    # coloring: repair, greedy coloring, runs
    (
        "splitter-scan",
        "coloring.py",
        "for vertex in path.vertices:",
        "for vertex in reversed(path.vertices):",
        "test_coloring",
    ),
    (
        "greedy-neighbor-order",
        "coloring.py",
        "colors[edge.seq] = prev or nxt or _A",
        "colors[edge.seq] = nxt or prev or _A",
        "test_coloring",
    ),
    (
        "runs-reversed",
        "coloring.py",
        "for side, lo, hi in reversed(out)]",
        "for side, lo, hi in out]",
        "test_coloring",
    ),
    # interpolate: the refutation interpolant
    (
        "core-bit",
        "interpolate.py",
        "if bits[v.id] & 2]",
        "if bits[v.id] & 1]",
        "test_interpolate",
    ),
    (
        "core-conclusion",
        "interpolate.py",
        "conclusion = Literal(terms[a], terms[b], False)",
        "conclusion = Literal(terms[a], terms[b], True)",
        "test_interpolate",
    ),
    # verify: the oracle
    ("oracle-no-undo", "verify.py", "        closure.undo(a_closed)\n", "", "test_verify"),
    (
        "oracle-no-wakeup",
        "verify.py",
        "queue.extend(waiting.pop(gone, ()))",
        "waiting.pop(gone, ())",
        "test_verify",
    ),
    # core: symbols, literals and the shared post-order walk
    ("cycle-names-parent", "core.py", "raise cycle(child)", "raise cycle(top)", "test_game"),
    (
        "covering-bits",
        "core.py",
        "entry.occurs_in_a | entry.occurs_in_b << 1",
        "entry.occurs_in_a << 1 | entry.occurs_in_b",
        "test_core",
    ),
    (
        "literal-orientation",
        "core.py",
        "if t.id < s.id:\n            s, t = t, s\n        return Literal(s, t, equal)",
        "if t.id > s.id:\n            s, t = t, s\n        return Literal(s, t, equal)",
        "test_core",
    ),
    # generate, cli, the package surface and python -m
    (
        "chain-factor-count",
        "generate.py",
        'if sides[j] == "A" and previous != "A":',
        'if sides[j] == "A" and previous != "B":',
        "test_acceptance",
    ),
    (
        "verify-exit-code",
        "cli.py",
        "return 0 if report.accepted else 1",
        "return 0",
        "test_cli",
    ),
    (
        "nested-input-exit-code",
        "cli.py",
        'print("error: input nested too deeply", file=sys.stderr)\n        return 2',
        'print("error: input nested too deeply", file=sys.stderr)\n        return 1',
        "test_cli",
    ),
    ("surface-export", "__init__.py", '    "Strategy",\n', "", "test_surface"),
    (
        "dash-m-guard",
        "__main__.py",
        'if __name__ == "__main__":',
        'if __name__ == "main":',
        "test_cli",
    ),
]


def stale(mutants) -> list[str]:
    """Names of the mutants whose text does not occur exactly once."""
    source = lambda module: (ROOT / PACKAGE / module).read_text(encoding="utf-8")
    return [name for name, module, old, _, _ in mutants if source(module).count(old) != 1]


def copy_repo(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(
        ".git", "bench", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"
    )
    repo = Path(shutil.copytree(ROOT, dest / "repo", ignore=ignore))
    (repo / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "workloads.py", repo / "bench")
    return repo


def run_mutant(mutant, workdir: Path) -> tuple[str, float, str]:
    """``(verdict, seconds, first failing test)`` of one mutant, or of none,
    run on a copy."""
    first = None
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        repo = copy_repo(Path(tmp))
        if mutant is not None:
            _, module, old, new, first = mutant
            path = repo / PACKAGE / module
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        tests = sorted(p.stem for p in (repo / "tests").glob("test_*.py"))
        ordered = sorted(tests, key=lambda t: t != first)  # the mutant's file first
        env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command + [f"tests/{t}.py" for t in ordered],
                cwd=repo, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            # A suite that hangs fails too.
            return "killed", time.perf_counter() - start, f"timeout after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    # 1: a test failed; 2: interrupted, as by a module that no longer imports.
    if done.returncode == 0:
        return "survived", seconds, ""
    if done.returncode not in (1, 2):
        return "error", seconds, done.stdout[-500:] + done.stderr[-500:]
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return "killed", seconds, found[1] if found else "collection error"


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    bad = stale(mutants)
    if bad:
        print(f"text does not occur exactly once, update: {', '.join(bad)}")
        return 1
    failed = 0
    total = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        verdict, seconds, detail = run_mutant(None, Path(workdir))
        print(f"{'(unmutated)':24} {'':15} {verdict:8} {seconds:5.1f} s  {detail}", flush=True)
        if verdict != "survived":
            print("the suite fails on the unmutated copy")
            return 1
        for mutant in mutants:
            verdict, seconds, detail = run_mutant(mutant, Path(workdir))
            failed += verdict != "killed"
            name, module = mutant[:2]
            print(f"{name:24} {module:15} {verdict:8} {seconds:5.1f} s  {detail}", flush=True)
    killed = len(mutants) - failed
    print(f"{killed} of {len(mutants)} killed in {time.perf_counter() - total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
