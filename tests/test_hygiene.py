"""Source hygiene, checked with the standard library alone: no module of the
package, the test suite, the demos or the benchmark scripts imports a name
it never uses (the scan only reads them), the package defines no public
name that only the tests read, every jmrm name the benchmark patches
exists, and a traced benchmark round records the lattice spans its
per-layer figures are made of."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for folder in ("src/jmrm", "tests", "demos", "benchmarks")
         for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import in path and never read there.

    `import a.b` binds `a`.  Names listed in a module's __all__ count as
    used, and so does everything a package __init__ imports: that is the
    package's public API.
    """
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport numpy as np\nfrom a.b import c, d\n"
                      "__all__ = ['d']\nprint(np.pi)\n")
    assert unused_imports(module) == ["c (line 3)", "os (line 1)"]


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _read_names(stmt: ast.stmt) -> set[str]:
    """Names a statement reads: loaded names, attributes and from-imports
    (docstrings and comments hold no such nodes)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unread_public_names(modules: list[Path], readers: list[Path]) -> list[str]:
    """Public module-level names of modules that no statement reads other
    than the one defining them, in modules or readers."""
    bodies = {path: ast.parse(path.read_text(encoding="utf-8")).body
              for path in dict.fromkeys([*modules, *readers])}
    reads = [(path, stmt, _read_names(stmt)) for path, body in bodies.items() for stmt in body]
    return [f"{path.name}: {name}" for path in modules for stmt in bodies[path]
            for name in _defined_names(stmt) if not name.startswith("_")
            and not any(name in names for where, other, names in reads
                        if not (where == path and other is stmt))]


def test_src_defines_no_test_only_names():
    """No test-only code in src/: the package, the demos or the benchmark
    read every public name a package module defines (a re-export in the
    package __init__ is not a read)."""
    modules = [path for path in FILES if path.parent.name == "jmrm" and path.name != "__init__.py"]
    readers = [path for path in FILES if path.parent.name in ("demos", "benchmarks")]
    assert unread_public_names(modules, modules + readers) == []


def test_scan_sees_an_unread_name(tmp_path):
    module, reader = tmp_path / "module.py", tmp_path / "reader.py"
    module.write_text('"""unused, CONST and rec are named here only in text."""\n'
                      "CONST = 1\nTABLE: dict = {}\n_private = 2\n"
                      "def rec(n):\n    return rec(n - 1) if n else TABLE\n"
                      "def unused():\n    pass\nclass Used:\n    pass\n")
    reader.write_text("import module\nfrom module import Used\nprint(module.CONST)\n")
    unread = unread_public_names([module], [module, reader])
    assert unread == ["module.py: rec", "module.py: unused"]


class RecordingPatcher:
    """Stands in for tracing.Patcher: records what would be patched."""

    def __init__(self):
        self.targets = []

    def patch(self, module_name, attr, make_wrapper):
        self.targets.append((module_name, attr))


def test_benchmark_patches_resolve(monkeypatch):
    """Every (module, attr) that benchmarks/tracing.py PATCHES and the
    workloads Probe wrap exists, so a src/ change that drops a traced name
    fails here with that name, not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ untouched
    tracing, workloads = importlib.import_module("tracing"), importlib.import_module("workloads")
    probe_patches = RecordingPatcher()
    workloads.Probe(test_ids=set(), _patcher=probe_patches).install()
    assert len(probe_patches.targets) == 3
    targets = [(module, attr) for module, attr, _ in tracing.PATCHES] + probe_patches.targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_snips_ablate_round_records_viterbi_spans(monkeypatch):
    """One traced snips-ablate round, in-process, as benchmarks/run.py runs
    it: every Viterbi call is recorded with its lattice cells, and the
    decodes pass the benchmark's output check."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ untouched
    tracing, workloads = importlib.import_module("tracing"), importlib.import_module("workloads")
    inputs = workloads.setup("snips-ablate", 0, workloads.plan_episodes("snips-ablate", 0))
    probe = workloads.Probe(test_ids={id(ep) for ep in inputs.test})
    probe.install()
    try:
        round_, spans = tracing.Tracer().run_round(lambda: workloads.run_round(inputs, probe))
    finally:
        probe.uninstall()
    cells = [span[5] for span in spans if span[0] == "lattice.viterbi_decode"]
    assert cells and min(cells) > 0
    assert workloads.check_decodes(round_.decodes) == []
