"""Source and import hygiene: a plain AST scan of the package, and the modules a run loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgsim import circuits, sampling

SRC = Path(__file__).resolve().parent.parent / "src" / "mgsim"


def _quoted_annotations(tree):
    """String annotations such as -> "SimResult", which name a type without a Name node."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
    return [c.value for note in notes if note is not None for c in ast.walk(note)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for quoted in _quoted_annotations(tree):
        used |= {node.id for node in ast.walk(ast.parse(quoted, mode="eval"))
                 if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nx: 'list[c]'\n") == []
    assert unused_imports("import os\nx = 'os'\n") == ["line 1: os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_compare_on_diagonalizable_gates_leaves_scipy_sparse_unloaded(tmp_path):
    # scipy.linalg.logm imports scipy.sparse on first use, which adds to every
    # start-up; gates with a well-conditioned eigenbasis must never reach it
    rng = np.random.default_rng(3)
    gates = tuple(sampling.random_gate(cls, 4, rng, unitary=unitary)
                  for unitary in (True, False) for cls in sampling.ALL_CLASSES)
    path = tmp_path / "diagonalizable.mg"
    path.write_text(circuits.render(circuits.Circuit(4, ((0.6, 0.8j),) * 4, gates, 2, False)))
    script = ("import contextlib, io, sys\n"
              "from mgsim.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['compare', sys.argv[1]])\n"
              "print(code, 'scipy.sparse' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr
