"""The public surface matches the README, the library carries no dead imports,
and the oracle reads nothing the pipeline worked out."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import eufinterp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eufinterp"


def readme_library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_exports_are_the_readme_library_names():
    listed = re.findall(r"^\* `(\w+)", readme_library_section(), re.MULTILINE)
    assert sorted(eufinterp.__all__) == sorted(listed)
    assert all(hasattr(eufinterp, name) for name in eufinterp.__all__)


def test_readme_example_prints_the_documented_interpolant():
    code = readme_library_section().split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if "print(" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_library_modules_import_nothing_unused():
    assert unused_imports("import os\nfrom re import sub, match\nmatch\n") == {"os", "sub"}
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


# What the pipeline works out about a problem: the colorability of its terms
# and its term set.  The oracle derives its own from the literals.
PIPELINE_NAMES = {"SymbolTable", "colorability", "edge_colorability"}


def pipeline_reads(source: str) -> set[str]:
    """Pipeline names, ``.symbols`` attributes and ``.terms()`` calls in ``source``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name in PIPELINE_NAMES:
            found.add(node.name)
        elif isinstance(node, ast.Name) and node.id in PIPELINE_NAMES:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in PIPELINE_NAMES | {"symbols"}:
            found.add("." + node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "terms"
        ):
            found.add(".terms()")
    return found


def test_oracle_reads_nothing_the_pipeline_worked_out():
    snippet = (
        "from .core import SymbolTable as S, edge_colorability\n"
        "p.symbols.colorability(t)\n"
        "u = p.terms()\n"
        "v = closure.terms\n"
        "symbols = colorability\n"
    )
    assert pipeline_reads(snippet) == {
        "SymbolTable",
        "edge_colorability",
        ".symbols",
        ".colorability",
        ".terms()",
        "colorability",
    }
    assert pipeline_reads((PACKAGE / "verify.py").read_text(encoding="utf-8")) == set()


# Names that serve only tests; they live in ``tests/conftest.py``.
TEST_ONLY_NAMES = {"LabelNode", "bridge_run"}


def bound_names(source: str) -> set[str]:
    """Names ``source`` binds at any depth: classes, functions, assignment
    targets and imports."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def defined_functions(source: str) -> list[str]:
    """Names of the functions and methods ``source`` defines, at any depth."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_proofs_have_one_representation_and_premise_sets_one_walk():
    snippet = (
        "from .game import LabelNode as Node\n"
        "class LabelNode:\n    pass\n"
        "def outer():\n    def bridge_run():\n        pass\n"
        "nodes = LabelNode\n"
    )
    assert bound_names(snippet) == {"Node", "LabelNode", "outer", "bridge_run", "nodes"}
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    found = {name: bound_names(source) & TEST_ONLY_NAMES for name, source in sources.items()}
    assert {name: names for name, names in found.items() if names} == {}
    # One memoized union walk serves every premise set, and only it names a
    # revisited key.
    assert sum(s.count("premise recursion revisited") for s in sources.values()) == 1
    # One pre-order walk, defined in ``core``, reads both interpolants, and no
    # memo keeps a path's whole cumulative premise set.
    snippet = (
        "from .core import _post_order\n"
        "class PremiseSets:\n    def cumulative(self):\n        return self._cumulative\n"
        "def _post_order():\n    def below():\n        pass\n"
    )
    assert sorted(defined_functions(snippet)) == ["_post_order", "below", "cumulative"]
    assert "_cumulative" in snippet
    defined = {name: defined_functions(source) for name, source in sources.items()}
    assert [name for name, names in defined.items() for f in names if f == "_post_order"] == [
        "core.py"
    ]
    assert [name for name, names in defined.items() if "cumulative" in names] == []
    assert [name for name, source in sources.items() if "_cumulative" in source] == []


def factor_layer_names(source: str) -> set[str]:
    """``Factor`` classes, ``factors`` methods and ``Factor`` imports in ``source``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            if node.name == "Factor":
                found.add("class Factor")
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "factors":
                    found.add(f"{node.name}.factors")
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "Factor" for alias in node.names):
                found.add("import Factor")
    return found


def test_paths_are_factored_into_runs_only():
    snippet = (
        "from .coloring import ColoredGraph, Factor\n"
        "class Factor:\n    pass\n"
        "class ColoredGraph:\n    def factors(self, path):\n        return []\n"
        "def factors(path):\n    return []\n"
    )
    assert factor_layer_names(snippet) == {
        "class Factor",
        "ColoredGraph.factors",
        "import Factor",
    }
    found = {
        path.name: factor_layer_names(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def coloring_rechecks(source: str) -> set[str]:
    """Definitions of ``_forced_color`` or ``_validate``, calls of
    ``edge_colorability`` and reads of ``_grow`` in ``source``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
            "_forced_color",
            "_validate",
        ):
            found.add("def " + node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "edge_colorability":
                found.add("edge_colorability()")
        elif isinstance(node, ast.Attribute) and node.attr == "_grow":
            found.add("._grow")
    return found


def test_each_edge_fit_is_read_once_per_pass():
    snippet = (
        "def _forced_color(edge, fit):\n    pass\n"
        "class C:\n    def _validate(self):\n        pass\n"
        "fit = core.edge_colorability(u, v, symbols)\n"
        "edge_colorability(u, v, symbols)\n"
        "bits = symbols._grow()\n"
        "grow = symbols.covering()\n"
    )
    assert coloring_rechecks(snippet) == {
        "def _forced_color",
        "def _validate",
        "edge_colorability()",
        "._grow",
    }
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    defined = {
        name: {f for f in coloring_rechecks(source) if f.startswith("def ")}
        for name, source in sources.items()
    }
    assert {name: found for name, found in defined.items() if found} == {}
    assert coloring_rechecks(sources["coloring.py"]) == set()


# Reference clause builders: the library assembles clauses from path keys.
CLAUSE_REFERENCE_NAMES = {"justification", "summary"}


def test_clauses_are_assembled_from_keys_only():
    snippet = (
        "from .interpolate import summary as s\n"
        "def justification(ps, path):\n    pass\n"
        "class C:\n    def summary(self):\n        pass\n"
        "summary = None\n"
        "x = justification(ps, p)\n"
    )
    assert bound_names(snippet) & CLAUSE_REFERENCE_NAMES == {"justification", "summary"}
    found = {
        path.name: bound_names(path.read_text(encoding="utf-8")) & CLAUSE_REFERENCE_NAMES
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def proof_order_rechecks(source: str) -> tuple[int, int, int]:
    """In ``source``: how often ``cyclic proof through`` and ``premise does not
    precede`` occur, and how many ``while`` loops ``ProofTree.reach`` has."""
    loops = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "ProofTree":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "reach":
                    loops += sum(isinstance(n, ast.While) for n in ast.walk(item))
    return (
        source.count("cyclic proof through"),
        source.count("premise does not precede"),
        loops,
    )


def test_premise_order_is_enforced_once():
    # Only parse_proof's node-id check names a cycle: ProofTree.add refuses a
    # premise that is not a node yet, so the cut's walks have no precedence
    # to recheck.
    snippet = (
        "class ProofTree:\n"
        "    def reach(self):\n"
        "        while stack:\n"
        "            raise ProofError(f'cyclic proof through {label}')\n"
        "    def fits(self):\n"
        "        while True:\n"
        "            pass\n"
        "def reach():\n"
        "    while True:\n"
        "        pass\n"
        "def run_from_cut():\n"
        "    raise InvalidCutError('premise does not precede its conclusion')\n"
        "def parse_proof():\n"
        "    raise ProofError(f'cyclic proof through node {nid!r}')\n"
    )
    assert proof_order_rechecks(snippet) == (2, 1, 1)
    found = [
        proof_order_rechecks(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    ]
    assert tuple(map(sum, zip(*found))) == (1, 0, 0)


def reach_names(source: str) -> set[str]:
    """Functions, attributes and variables named ``reach`` or ``_below``."""
    names = {"reach", "_below"}
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            found.add(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(node.id)
    return found


def test_the_cut_keeps_no_below_masks():
    # The cut walks each piece once over the premise lists: the library makes,
    # keeps and reads no per-node mask of the nodes below it.
    snippet = (
        "class ProofTree:\n"
        "    def reach(self):\n"
        "        return self._below\n"
        "below = tree.reach()\n"
    )
    assert reach_names(snippet) == {"reach", "_below"}
    found = {
        path.name: reach_names(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def node_name(node: ast.AST) -> str | None:
    """The name a definition, attribute, variable, argument or string names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def symbol_level_state(source: str) -> set[str]:
    """Symbol-level state of proof trees in ``source``: ``masks``, ``sides``
    or ``symbols`` named in ``ProofTree``; a ``.masks`` or ``.sides``
    attribute, or one of the three copied by name, anywhere; a shift in
    ``unfold_refutation``; the free-symbol scan used outside ``parse_proof``.
    """
    names, scans = {"masks", "sides", "symbols"}, {"SymbolMasks", "_symbol_masks"}
    module = ast.parse(source)
    in_parse_proof: set[int] = set()
    found: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef) and node.name == "ProofTree":
            found |= {f"ProofTree {n}" for n in map(node_name, ast.walk(node)) if n in names}
        elif isinstance(node, ast.FunctionDef) and node.name == "unfold_refutation":
            if any(isinstance(n, (ast.LShift, ast.RShift)) for n in ast.walk(node)):
                found.add("unfold_refutation shifts")
        elif isinstance(node, ast.FunctionDef) and node.name == "parse_proof":
            in_parse_proof |= {id(n) for n in ast.walk(node)}
    for node in ast.walk(module):
        name = node_name(node)
        if isinstance(node, ast.Attribute) and name in ("masks", "sides"):
            found.add(f".{name}")
        elif isinstance(node, ast.Constant) and name in names:
            found.add(repr(name))
        elif name in scans and not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if id(node) not in in_parse_proof:
                found.add(name)
    return found


def unfold_fit_sources(source: str) -> set[str]:
    """What ``unfold_refutation`` in ``source`` works its fits out from: a
    ``covering()`` call, a ``bytearray`` it makes, a graph's ``vertices``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "unfold_refutation":
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and node_name(n.func) in ("covering", "bytearray"):
                    found.add(node_name(n.func))
                elif isinstance(n, ast.Attribute) and n.attr == "vertices":
                    if node_name(n.value) == "graph":
                        found.add("graph.vertices")
    return found


def test_proof_trees_hold_fits_and_no_symbol_masks():
    # A proof tree holds one 2-bit fit per node.  The EUF unfolding reads fits
    # off the problem's colorability bits, with no marks of its own and no
    # pass over the graph's vertices, and only parse_proof, whose formulas
    # bind variables, scans free symbols.
    snippet = (
        "class ProofTree:\n"
        "    def __init__(self, symbols):\n"
        "        self.fits = symbols\n"
        "def unfold_refutation(vertices):\n"
        "    return [1 << t.id for t in vertices]\n"
        "def parse_proof(table):\n"
        "    return _symbol_masks(table, {})\n"
        "def normalize_root(tree, fixed):\n"
        "    setattr(fixed, 'symbols', tree.masks)\n"
        "scan = _symbol_masks\n"
        "class SymbolMasks:\n"
        "    pass\n"
    )
    assert symbol_level_state(snippet) == {
        "ProofTree symbols", "unfold_refutation shifts", "'symbols'", ".masks", "_symbol_masks",
    }
    found = {
        path.name: symbol_level_state(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}
    game_source = (PACKAGE / "game.py").read_text(encoding="utf-8")
    assert "_symbol_masks(" in game_source and "SymbolMasks" not in game_source
    marks = (
        "def unfold_refutation(colored):\n"
        "    bits = bytearray(len(colored.symbols.table))\n"
        "    for t in reversed(colored.graph.vertices):\n"
        "        pass\n"
    )
    assert unfold_fit_sources(marks) == {"bytearray", "graph.vertices"}
    assert unfold_fit_sources(game_source) == {"covering"}
