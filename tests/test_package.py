"""Checks over the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fermatosc"


def test_no_assert_statements():
    # python -O strips assert statements, so every check must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_two_failure_types():
    # a refusal is a FermatoscError and a failed check a CertificationFailure;
    # NonOrdinary is the one subclass that code catches
    kept = {"FermatoscError", "CertificationFailure", "NonOrdinary"}
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    assert {node.name for node in errors.body
            if isinstance(node, ast.ClassDef)} == kept
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = getattr(node.exc, "func", node.exc)
                raised.add(exc.id if isinstance(exc, ast.Name)
                           else f"{path.name}:{node.lineno}")
    assert raised <= kept | {"ValueError", "TypeError"}


def _calls_by_scope(node, scope=()):
    """(scope, call) for each call under `node`, the scope being the dotted
    names of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            yield ".".join(scope), child
        yield from _calls_by_scope(child, inner)


def test_field_elements_built_only_by_make():
    # TowerField._make is the one constructor of K_d elements: it brings raw
    # integer terms to normal form and interns them in a memo block.  The
    # field's zero, which _make returns for no terms, is built beside it.
    built = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, call in _calls_by_scope(ast.parse(path.read_text())):
            if (isinstance(call.func, ast.Name)
                    and call.func.id == "FieldElement"):
                built.setdefault(f"{path.name}:{scope}", []).append(
                    ast.unparse(call))
    assert set(built) == {"tower.py:TowerField._make",
                          "tower.py:TowerField.__init__"}
    assert built["tower.py:TowerField.__init__"] == [
        "FieldElement(self, (), 1)"]


def _reads_by_scope(node, attr, scope=()):
    """The scope (dotted names of the classes and functions around it) of
    each read of the attribute `attr` under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        elif (isinstance(child, ast.Attribute) and child.attr == attr
              and isinstance(child.ctx, ast.Load)):
            yield ".".join(scope)
        yield from _reads_by_scope(child, attr, inner)


def test_one_reduction_loop():
    # the t-wrap rows are read by the one term loop, TowerField._imul, which
    # products, inverses and `dot` sums all run through: a second copy of
    # the loop would read them too
    tower = ast.parse((PACKAGE / "tower.py").read_text())
    assert set(_reads_by_scope(tower, "_zrows_t")) == {"TowerField._imul"}


# public names that no code in src refers to, each kept for its reason
KEPT_UNREFERENCED = {
    # the arrangement polynomials, for certified freeness (ROADMAP item 2)
    "LineArrangement.product_poly",
    # the group and its product, for proof by symmetry (ROADMAP item 4)
    "group_elements",
    "Automorphism.compose",
    # reads a certificate back, for the `check` command (ROADMAP item 5)
    "field_element_from_json",
    # tests compare restrict_to_line against it; bench/tracer.py names it
    "pullback_to_line",
    # the second multiplicity oracle; the benchmark calls it
    "resultant_order",
}


# public method names that more than one class defines, each with the
# classes whose method src calls: an attribute's name alone cannot tell
# which class's method it reaches
SHARED_METHOD_NAMES = {
    "inverse": {"Automorphism", "FieldElement"},
    "is_zero": {"BinaryForm", "FieldElement", "HomPoly"},
    "monomial": {"HomPoly", "TowerField"},
    "proportional": {"BinaryForm", "HomPoly"},
    "to_json_dict": {"ConcurrencyReport", "FieldElement", "FreenessVerdict",
                     "HomPoly"},
}


def test_every_public_name_is_referenced_in_src():
    # a top-level name is referenced by name, import or module attribute
    # (`tower.memoized`); a method by any attribute of its name, and a
    # method of a shared name only in the classes SHARED_METHOD_NAMES lists
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    trees = [ast.parse(path.read_text()) for path in paths]
    names, attrs = set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                names.add(node.attr)
    unreferenced, owners = [], {}
    for node in (n for tree in trees for n in tree.body):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") and node.name not in names:
            unreferenced.append(node.name)
        if not isinstance(node, ast.ClassDef):
            continue
        for m in node.body:
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                owners.setdefault(m.name, set()).add(node.name)
                if (m.name not in attrs or node.name
                        not in SHARED_METHOD_NAMES.get(m.name, {node.name})):
                    unreferenced.append(f"{node.name}.{m.name}")
    # a new shared name fails here until its calling classes are listed
    shared = {m: cls for m, cls in owners.items() if len(cls) > 1}
    assert set(shared) == set(SHARED_METHOD_NAMES)
    assert all(SHARED_METHOD_NAMES[m] <= cls for m, cls in shared.items())
    assert sorted(unreferenced) == sorted(KEPT_UNREFERENCED)


def test_cli_imports_without_numpy():
    code = "import sys, fermatosc.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def test_cli_imports_without_mpmath():
    # mpmath is loaded by the first embedding, for the approx columns only
    code = "import sys, fermatosc.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def test_cli_imports_without_multiprocessing():
    # every command runs in one process
    code = ("import sys, fermatosc.cli; "
            "print('multiprocessing' in sys.modules, "
            "'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False False"
