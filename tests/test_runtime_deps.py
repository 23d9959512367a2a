"""The runtime stays numpy-only: qdtau's modules import nothing but the
standard library, numpy and qdtau itself (scipy and hypothesis are for
tests only; importing scipy.special alone costs about as much as the
package's whole set-up).  And src/ holds no code that nothing reaches:
every definition is named somewhere else in src/."""
import ast
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdtau"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qdtau"}


def foreign_imports(source):
    """Top-level imports of the source outside ALLOWED (relative
    imports are the package's own)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in ALLOWED]


def test_guard_flags_a_foreign_import():
    src = ("import numpy as np\nfrom . import periods\nimport math\n"
           "def f():\n    from scipy import special\n    import scipy.linalg\n")
    assert foreign_imports(src) == ["scipy", "scipy.linalg"]


def test_runtime_imports_are_stdlib_numpy_and_qdtau_only():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = {f.name: foreign_imports(f.read_text()) for f in files}
    assert {k: v for k, v in found.items() if v} == {}


# Reached only from perfbench/, by name; each goes with the benchmark
# refresh of ROADMAP item 2.  The value is the file that names it.
BENCHMARK_HELD = {
    "kernels.BACKEND": "perfbench/run.py",
    "tau.phi_fn": "perfbench/tracing.py",
    "cover_homology.build_matrices": "perfbench/workloads.py",
}


def _definitions(tree):
    """(qualified name, bare name, node) of a module's functions,
    classes, methods and module-level assignment targets, dunders left
    out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{m.name}", m.name, m) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [d for d in out if not (d[1].startswith("__") and d[1].endswith("__"))]


def unreferenced(sources):
    """Definitions in sources ({module: text}) that no code in sources
    names outside the definition itself.  A name counts where it is
    loaded, taken as an attribute or imported; comments and strings do
    not.  Matching is by name alone, so a method that shares its name
    with a variable elsewhere (``CoverCurve.rhs``) passes."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    uses = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append((mod, node.lineno))
    return [f"{mod}.{qual}" for mod, tree in trees.items()
            for qual, name, node in _definitions(tree)
            if all(m == mod and node.lineno <= line <= node.end_lineno
                   for m, line in uses.get(name, []))]


def test_scan_flags_an_unreferenced_definition():
    sources = {
        "a": ("X = 1\n\ndef used():\n    return X\n\n"
              "class K:\n    def m(self):\n        return self.m()\n"
              "    def n(self):\n        pass\n\n"
              "# dead is named in this comment\n"
              "def dead():\n    '''and in dead's docstring'''\n"
              "    return dead, 'dead'\n"),
        "b": "from .a import used\nused()\nK().n()\n",
    }
    assert unreferenced(sources) == ["a.K.m", "a.dead"]


def test_every_definition_in_src_is_named_elsewhere_in_src():
    sources = {f.stem: f.read_text() for f in sorted(SRC.glob("*.py"))}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.removeprefix("qdtau.").replace(":", ".")
                    for target in scripts.values()}
    found = [d for d in unreferenced(sources) if d not in entry_points]
    # a held name that src/ names again, or that perfbench/ no longer
    # names, comes off the list
    assert sorted(found) == sorted(BENCHMARK_HELD)
    for qual, path in BENCHMARK_HELD.items():
        assert qual.rsplit(".", 1)[1] in (ROOT / path).read_text(), qual
