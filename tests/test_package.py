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
