"""Import hygiene: every name a package module imports is used in it."""
import ast
from pathlib import Path

import eqnf


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_imports():
    package = Path(eqnf.__file__).parent
    unused = [f"{path.stem}.{name}"
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_scan_flags_unused_and_keeps_used_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.linalg\nimport os\n"
              "from .errors import A, B as C\n"
              "def f():\n    from .x import local\n    return np.eye(A) + scipy.linalg.expm(local)\n")
    assert _unused_imports(source) == ["os", "C"]
