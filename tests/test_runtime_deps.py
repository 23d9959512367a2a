"""The runtime stays numpy-only: qdtau's modules import nothing but the
standard library, numpy and qdtau itself (scipy and hypothesis are for
tests only; importing scipy.special alone costs about as much as the
package's whole set-up)."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qdtau"
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
