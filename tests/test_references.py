"""Every function, class, method and module-level UPPER_CASE constant
defined in the package is referenced from the package, the scripts or the
benchmark.

A definition counts as referenced when some module of ``src/foglink``
other than ``__init__``, a script or a ``perfbench`` file names it outside
its own body (a constant, outside its own assignment): a read of the bare
name (``ast.Name``), an attribute of that name (``ast.Attribute``), an
import of it, or a part of a dotted string constant (the benchmark wraps
functions it finds by such names).  Methods are matched by name alone, so a
method shares its references with every other method of that name.  Dunder
methods are called by the language and are skipped.  The allow-list holds
the names the acceptance gate calls directly and nothing else does.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "foglink").glob("*.py") if p.name != "__init__.py")
SOURCES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])

# the ROADMAP's standing constraints: tests/test_acceptance.py calls these
ALLOWED = {"RegressionTree.predict_row", "achievable_data_rate", "ActivationKind",
           "classifier_round", "fit_adaboost_classifier",
           "GradientBoostModel.staged_predict", "stack_objective", "gradient_check",
           "received_power_aperture", "transmittance"}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST) -> Counter:
    """How often each name is referenced inside ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def definitions(tree: ast.Module):
    """(qualified name, node) for each top-level function, class and
    UPPER_CASE constant (its assignment the node) and each method of a
    top-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITION) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def unreferenced(defining: dict[str, str], referencing: dict[str, str]) -> list[str]:
    """The qualified names defined in the ``defining`` sources (name to
    text) that no ``referencing`` source names outside their own body."""
    total = Counter()
    for source in referencing.values():
        total += references(ast.parse(source))
    found = []
    for source in defining.values():
        for qualified, node in definitions(ast.parse(source)):
            name = qualified.rpartition(".")[2]
            if total[name] - references(node)[name] <= 0:
                found.append(qualified)
    return found


def test_checker_sees_unreferenced_definitions():
    lib = ("class A:\n    def used(self): pass\n    def unused(self): pass\n"
           "    def __repr__(self): return 'A'\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "def imported(): pass\ndef by_string(): pass\ndef called(): pass\n"
           "def orphan(): pass\n"
           "USED = 1\nUNUSED = 2\nTYPED: int = 3\nlower = 4\n")
    user = ("from lib import A, imported\nA().used()\ncalled()\n"
            "WRAPPED = [('lib', 'B.by_string')]\nprint(USED)\n")
    assert unreferenced({"lib": lib}, {"lib": lib, "user": user}) == [
        "A.unused", "recursive", "orphan", "UNUSED", "TYPED"]


def test_every_definition_is_referenced():
    texts = {str(path): path.read_text() for path in SOURCES}
    found = unreferenced({str(path): texts[str(path)] for path in PACKAGE}, texts)
    assert sorted(set(found) - ALLOWED) == []
