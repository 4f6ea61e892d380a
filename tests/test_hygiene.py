"""Import hygiene: an AST scan of the package and its tests, and the modules a run loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgsim import circuits, sampling
from test_cli import CLOSURE_ONLY

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mgsim"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_level_imports(source: str) -> list[str]:
    """Modules a module imports when it is itself imported: every import outside a function."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_scan_finds_module_level_imports():
    source = ("import scipy.linalg\nfrom scipy import sparse\nfrom . import pauli\n"
              "try:\n    import numpy as np\nexcept ImportError:\n    pass\n"
              "class A:\n    import json\n"
              "def f():\n    import os\n    from scipy.linalg import expm\n")
    assert module_level_imports(source) == ["json", "numpy", "scipy", "scipy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # scipy is imported where a cross-check engine, a logarithm fallback or a
    # non-unitary exp gate needs it, so that `mgsim run` starts on numpy alone
    found = module_level_imports(path.read_text(encoding="utf-8"))
    assert [name for name in found if name.split(".")[0] == "scipy"] == []


# paper claims that the acceptance criteria state through these helpers, and the CLI entry point
CALLED_FROM_OUTSIDE = ("nullspace_Afive", "reduced_check", "d_values", "sample_matchgate",
                       "jw_tilde2", "log_to_L", "main")


def public_definitions(source: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function and class, and of
    each public method of a module-level class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
        for m in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                found.append((f"{node.name}.{m.name}", m.name))
    return found


def referenced_names(source: str) -> tuple[set[str], set[str]]:
    """The names a module's code reads, as bare names and as attributes.

    The scan walks the syntax tree, so a name in a docstring or a comment is no
    use of it, while an f-string's fields and a quoted annotation are code.
    """
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for quoted in _quoted_annotations(tree):
        names |= {node.id for node in ast.walk(ast.parse(quoted, mode="eval"))
                  if isinstance(node, ast.Name)}
    return names, attrs


def private_functions(source: str) -> list[tuple[str, str]]:
    """(name, name) of each private module-level function, dunders aside."""
    return [(node.name, node.name) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")]


def names_without_a_caller(sources: dict[str, str], definitions=public_definitions) -> list[str]:
    """Definitions (public ones by default) that no code in the sources reads: a
    function or class by its name or as an attribute, a method as an attribute."""
    names, attrs = set(), set()
    for source in sources.values():
        more_names, more_attrs = referenced_names(source)
        names |= more_names
        attrs |= more_attrs
    return sorted(f"{path}: {qual}" for path, source in sources.items()
                  for qual, name in definitions(source)
                  if name not in attrs and ("." in qual or name not in names))


def test_scan_finds_a_name_without_a_caller():
    sources = {"a.py": ("def used():\n    pass\n\ndef unused():\n    return used()\n\n"
                        "class K:\n    def method(self):\n        pass\n\n"
                        "    def called(self):\n        return method\n\n"
                        "    def shown(self):\n        pass\n\n"
                        "    def _private(self):\n        pass\n\n"
                        "    def __repr__(self):\n        return f'K({self.shown()})'\n\n"
                        "def documented():\n    pass\n"),
               "b.py": ("from a import K\n\ndef _helper():\n"
                        "    \"\"\"Says documented() and K().method() but calls neither.\"\"\"\n"
                        "    return K().called()  # documented()\n")}
    assert names_without_a_caller(sources) == ["a.py: K.method", "a.py: documented",
                                               "a.py: unused"]


def test_every_public_name_has_a_production_caller():
    # code that only tests call belongs in the tests; the engines' references live in conftest
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert [where for where in names_without_a_caller(sources)
            if re.split(r"[ .]", where)[-1] not in CALLED_FROM_OUTSIDE] == []


def test_scan_finds_a_private_function_without_a_caller():
    sources = {"a.py": ("def _used():\n    pass\n\ndef _unused():\n    return _used()\n\n"
                        "def _documented():\n    pass\n\ndef __getattr__(name):\n    pass\n\n"
                        "class K:\n    def _method(self):\n        pass\n"),
               "b.py": ("import a\n\ndef _helper():\n"
                        "    \"\"\"Says _documented().\"\"\"\n    return a._unused()\n")}
    assert names_without_a_caller(sources, private_functions) == ["a.py: _documented",
                                                                  "b.py: _helper"]


def test_every_private_function_has_a_production_caller():
    # a helper kept only for the tests belongs in conftest, as the engines' references do
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert names_without_a_caller(sources, private_functions) == []


def _loads_in_fresh_process(argv, module: str) -> bool:
    """Whether mgsim.cli.main(argv), run in a new interpreter, loads module; main must return 0."""
    script = ("import contextlib, io, sys\n"
              "from mgsim.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[2:])\n"
              "print(code, sys.argv[1] in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    out = done.stdout.split()
    assert out[:1] == ["0"], done.stderr
    return out[1] == "True"


def test_compare_on_diagonalizable_gates_leaves_scipy_sparse_unloaded(tmp_path):
    # scipy.linalg.logm imports scipy.sparse on first use, which adds to every
    # start-up; gates with a well-conditioned eigenbasis must never reach it
    rng = np.random.default_rng(3)
    gates = tuple(sampling.random_gate(cls, 4, rng, unitary=unitary)
                  for unitary in (True, False) for cls in circuits.GATE_CLASSES)
    path = tmp_path / "diagonalizable.mg"
    path.write_text(circuits.render(circuits.Circuit(4, ((0.6, 0.8j),) * 4, gates, 2, False)))
    assert not _loads_in_fresh_process(["compare", str(path)], "scipy.sparse")


def test_run_on_unitary_gates_leaves_scipy_unloaded(tmp_path):
    # matrix-class blocks are read off the gate, and unitary exp blocks are
    # exponentiated through eigh, so the quadratic engine runs on numpy alone
    circ = sampling.random_circuit(6, 40, np.random.default_rng(4))
    assert {g.cls for g in circ.gates} == set(circuits.GATE_CLASSES) and circ.unitary
    path = tmp_path / "unitary.mg"
    path.write_text(circuits.render(circ))
    assert not _loads_in_fresh_process(["run", str(path)], "scipy")


def test_run_on_a_closure_only_gate_leaves_scipy_unloaded(tmp_path):
    path = tmp_path / "closure.mg"
    path.write_text(CLOSURE_ONLY)
    assert not _loads_in_fresh_process(["run", str(path)], "scipy")


def test_compare_on_a_non_unitary_circuit_leaves_scipy_unloaded(tmp_path):
    # every exponential of the three engines, and compile's eigenbasis logs, are
    # taken in numpy: only an ill-conditioned gate sends compile to scipy's logm
    circ = sampling.random_circuit(4, 40, np.random.default_rng(6), unitary=False)
    assert {g.cls for g in circ.gates} == set(circuits.GATE_CLASSES) and not circ.unitary
    path = tmp_path / "non_unitary.mg"
    path.write_text(circuits.render(circ))
    assert not _loads_in_fresh_process(["compare", str(path)], "scipy")


def test_compare_on_a_nearly_defective_gate_loads_scipy(tmp_path):
    # the counterpart of the tests above: V's eigenvectors are nearly parallel,
    # cond(V) is about 4e6, so compile takes the principal log from scipy's logm,
    # and the probe sees the load
    path = tmp_path / "nearly_defective.mg"
    path.write_text("circuit n=2\nstate 0 +\n"
                    "gate gvw 1 V=[1,1;0,1.000001] W=[1,1;0,1.000001]\nmeasure 1\n")
    assert _loads_in_fresh_process(["compare", str(path)], "scipy")


def scipy_imports(source: str) -> list[str]:
    """The enclosing function of each import of scipy in a module, "<module>" outside one."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            found.extend(where for name in names if name.split(".")[0] == "scipy")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_scipy_imports():
    source = ("import scipy\nfrom . import scipy_like\nimport numpy\n"
              "def f():\n    import os\n    def g():\n        from scipy.linalg import logm\n"
              "class A:\n    def h(self):\n        import scipy.sparse as sp\n")
    assert scipy_imports(source) == ["<module>", "g", "h"]


def test_src_imports_scipy_only_for_logm():
    # one exponential, linalg.expm_stack, serves all of src/; scipy stays the
    # fallback logarithm of ill-conditioned gates
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in scipy_imports(path.read_text(encoding="utf-8"))]
    assert found == ["matchgate._checked_logm"]


def gatespec_uses(source: str) -> list[str]:
    """Where a module names GateSpec or exp_spec, in its code, imports or quoted
    annotations, or calls a .param( method: one "line N: name" each."""
    views = {"GateSpec", "exp_spec"}
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in views:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in views:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias) and node.name in views:
            found.append((node.lineno, node.name))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "param"):
            found.append((node.lineno, "param"))
    found += [(0, name) for quoted in _quoted_annotations(tree)
              for name in views if name in quoted]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_finds_gatespec_uses():
    source = ("from .circuits import GateSpec as G, Gates\nfrom . import circuits\n"
              "def f(g) -> 'list[GateSpec]':\n    return circuits.exp_spec, G, g.param('a')\n"
              "def h(g):\n    # GateSpec, in a comment\n"
              "    return g.params, g.param, 'exp_spec'\n")
    assert gatespec_uses(source) == ["line 0: GateSpec", "line 1: GateSpec", "line 4: exp_spec",
                                     "line 4: param"]


def test_only_the_frontend_and_sampling_use_gatespecs():
    # a GateSpec is the per-gate view a Gates record gives callers outside the package,
    # and sampling's random gates are GateSpecs; the engines and compile read the record
    users = {path.name for path in SRC.glob("*.py")
             if gatespec_uses(path.read_text(encoding="utf-8"))}
    assert users <= {"circuits.py", "sampling.py"}
