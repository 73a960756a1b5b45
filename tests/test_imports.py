"""Package hygiene: every name a package module imports is used in it,
every module-level private function or class is referenced somewhere in
the package, every public one (and every public method) somewhere in the
package or the benchmark, factored systems are solved only by
linalg.lu_solve, no scipy logm or sqrtm stands beside linalg.real_log, the
damped-Newton constants live only in linalg.newton, every defaulted
parameter is set by some call, no iteration or size cap is a defaulted
parameter, and every callable the benchmark traces exists."""
import ast
import importlib
import importlib.util
import math
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


def _dead_private_defs(sources: dict) -> list[str]:
    """Module-level _private functions and classes that no module of
    `sources` (name -> source) references outside their own definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, kinds) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                else:
                    continue
                used.update(name for name in names if name != own)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_no_dead_private_helpers():
    package = Path(eqnf.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _dead_private_defs(sources) == []


def test_scan_flags_unreferenced_private_helpers():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Orphan:\n    pass\n"
              "def _imported():\n    return 2\n"
              "def _by_attribute():\n    return 3\n"
              "def __dunder__():\n    return 4\n"
              "def public():\n    def _nested():\n        return _used()\n"
              "    return _nested\n"),
        "b": "from .a import _imported\nfrom . import a\nX = a._by_attribute\n",
    }
    assert _dead_private_defs(sources) == ["a._recursive", "a._Orphan"]


# Modules whose public functions and classes must have a caller outside the
# tests.
SCANNED_MODULES = ("linalg", "groups", "polymap", "normalform", "reduction")
# The paper's reduction API that no CLI command calls yet: the bifurcation
# function B(u, lambda) and the full-space point x*(u, lambda); and the
# lifted identity of v*, which `verify` checks through the private helper
# behind it, on the v* solve it shares with its other checks.
PAPER_API = ("bifurcation_fn", "xstar", "ghat_vstar_identity_check")


def _test_only_public_defs(package: dict, callers: dict, scanned) -> list[str]:
    """Public module-level functions and classes, and public methods of
    module-level classes, of the `scanned` modules of `package` (name ->
    source) that no code of `package` outside __init__ and their own
    definition, and no code of `callers`, references.  A reference to a
    function or class is a bare name, an imported name, an attribute of a
    package module (`linalg.nullspace`), or, in `callers` only, a string
    constant or one of its dotted parts (the benchmark wraps callables by
    name); an attribute of any other object, such as the field
    `point.xstar`, is not one.  A reference to a method is an attribute of
    any object (`F.evaluate`), or a dotted part of such a string."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    modules = set(package) | {"eqnf"}
    defined, used = [], set()
    attrs = set()  # (attribute name, the method it occurs in or None)

    def refs(node, strings):
        if isinstance(node, ast.Name):
            return [node.id]
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return [node.attr]
        if isinstance(node, ast.ImportFrom):
            return [a.name for a in node.names]
        if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.split(".")
        return []

    def attributes(node, owner=None):
        return {(n.attr, owner) for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    for module, source in package.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, kinds) else None
            scan = module in scanned and own is not None
            if scan and not own.startswith("_"):
                defined.append((module, own, False))
            methods = ([item for item in stmt.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
                       if isinstance(stmt, ast.ClassDef) else [])
            if scan:
                defined += [(module, f"{own}.{item.name}", True) for item in methods
                            if not item.name.startswith("_")]
            if module == "__init__":
                continue
            used.update(name for node in ast.walk(stmt)
                        for name in refs(node, False) if name != own)
            # a method's own body does not reference it
            owners = {id(item): f"{module}.{own}.{item.name}" for item in methods}
            for part in ([*stmt.bases, *stmt.decorator_list, *stmt.body] if methods
                         else [stmt]):
                attrs.update(attributes(part, owners.get(id(part))))
    for source in callers.values():
        tree = ast.parse(source)
        strings = {name for node in ast.walk(tree) for name in refs(node, True)}
        used.update(strings)
        attrs.update(attributes(tree))
        attrs.update((name, None) for name in strings)

    def referenced(module, name, is_method):
        if not is_method:
            return name in used or name in PAPER_API
        method = name.rsplit(".", 1)[1]
        return any(attr == method and owner != f"{module}.{name}"
                   for attr, owner in attrs)

    return [f"{module}.{name}" for module, name, is_method in defined
            if not referenced(module, name, is_method)]


def test_no_public_code_only_tests_reach():
    package = Path(eqnf.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    benchmarks = _sources(Path(__file__).resolve().parent.parent / "benchmarks")
    assert _test_only_public_defs(sources, benchmarks, SCANNED_MODULES) == []


def test_scan_flags_public_code_only_tests_reach():
    package = {
        "a": ("def called():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Orphan:\n    pass\n"
              "def field_named():\n    return 2\n"
              "def by_module_attribute():\n    return 3\n"
              "def traced_by_name():\n    return 4\n"
              "def traced_method_class():\n    return 5\n"
              "def exported_only():\n    return 6\n"
              "def xstar():\n    return 7\n"
              "def _private():\n    return called()\n"),
        "b": ("from . import a\n"
              "def user(point):\n"
              "    return point.field_named + a.by_module_attribute()\n"),
        "unscanned": "def never_called():\n    return 8\n",
        "__init__": "from .a import exported_only\n",
    }
    callers = {"benchmarks/spans.py": (
        'TARGETS = {"a": ("traced_by_name", "traced_method_class.evaluate")}\n')}
    assert _test_only_public_defs(package, callers, ("a", "b")) == [
        "a.recursive", "a.Orphan", "a.field_named", "a.exported_only", "b.user"]


def test_scan_flags_public_methods_only_tests_reach():
    package = {
        "a": ("class Kept:\n"
              "    def called(self):\n        return 1\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    def only_tests(self):\n        return 2\n"
              "    def traced_by_name(self):\n        return 3\n"
              "    @property\n    def read(self):\n        return 4\n"
              "    def _private(self):\n        return self.only_tests()\n"
              "def user(k):\n    return k.called() + k.read\n"),
        "unscanned": "class Other:\n    def never_called(self):\n        return 5\n",
    }
    callers = {"benchmarks/spans.py": 'TARGETS = {"a": ("user", "Kept.traced_by_name")}\n'}
    assert _test_only_public_defs(package, callers, ("a",)) == ["a.Kept.recursive"]
    # only_tests is reached from _private alone; without it, it is flagged too
    package["a"] = package["a"].replace("return self.only_tests()", "return 6")
    assert _test_only_public_defs(package, callers, ("a",)) == [
        "a.Kept.recursive", "a.Kept.only_tests"]


def _scipy_linalg_uses(source: str, names) -> list[int]:
    """Lines of `source` that import or call one of the scipy.linalg
    functions `names`, under any name the module binds to scipy.linalg."""
    tree = ast.parse(source)
    modules = {"scipy.linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.name == "scipy.linalg" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "linalg")

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return ""

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("scipy.linalg")
                and any(a.name in names for a in node.names)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in names
              and dotted(node.value) in modules):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_scipy_lu_solve():
    package = Path(eqnf.__file__).parent
    uses = [f"{path.stem}:{line}" for path in sorted(package.glob("*.py"))
            for line in _scipy_linalg_uses(path.read_text(encoding="utf-8"), ("lu_solve",))]
    assert uses == []


def test_scan_flags_scipy_lu_solve_under_any_name():
    source = ("import scipy.linalg\nimport scipy.linalg as sla\n"
              "from scipy import linalg as spl\n"
              "from scipy.linalg import lu_solve as solve\n"
              "from .linalg import lu_solve\nfrom . import linalg\n"
              "a = scipy.linalg.lu_solve\nb = sla.lu_solve\nc = spl.lu_solve\n"
              "d = lu_solve\ne = linalg.lu_solve\n"
              "f = scipy.linalg.lu_factor\n"
              '"""scipy.linalg.lu_solve in a docstring is not a use"""\n')
    assert _scipy_linalg_uses(source, ("lu_solve",)) == [4, 7, 8, 9]


# linalg.real_log is the one real logarithm; scipy's logm and sqrtm serve
# only as oracles in the tests.
def test_no_scipy_logm_or_sqrtm():
    package = Path(eqnf.__file__).parent
    uses = [f"{path.stem}:{line}" for path in sorted(package.glob("*.py"))
            for line in _scipy_linalg_uses(path.read_text(encoding="utf-8"),
                                           ("logm", "sqrtm"))]
    assert uses == []


def test_scan_flags_scipy_logm_and_sqrtm_under_any_name():
    source = ("import scipy.linalg\nimport scipy.linalg as sla\n"
              "from scipy import linalg as spl\n"
              "from scipy.linalg import logm as log\n"
              "from scipy.linalg._matfuncs_sqrtm import sqrtm\n"
              "from .linalg import real_log\n"
              "a = scipy.linalg.logm(x)\nb = sla.sqrtm(x)\nc = spl.logm\n"
              "d = real_log(x)\ne = scipy.linalg.expm(x)\n"
              '"""scipy.linalg.logm in a docstring is not a use"""\n')
    assert _scipy_linalg_uses(source, ("logm", "sqrtm")) == [4, 5, 7, 8, 9]


NEWTON_CONSTANTS = ("NEWTON_MIN_STEP", "SUFFICIENT_DECREASE")


def _newton_constant_uses(sources: dict) -> list[str]:
    """module:line of each name or attribute NEWTON_MIN_STEP or
    SUFFICIENT_DECREASE in `sources` (module -> source) outside the body of
    linalg.newton and the module-level assignments of linalg that define
    them.  A second damped-Newton loop would need them."""
    uses = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = set()
        if module == "linalg":
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "newton":
                    allowed.update(id(n) for n in ast.walk(stmt))
                elif isinstance(stmt, ast.Assign):
                    allowed.update(id(t) for t in stmt.targets)
        for node in ast.walk(tree):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            if id(node) not in allowed and any(n in NEWTON_CONSTANTS for n in names):
                uses.append(f"{module}:{node.lineno}")
    return uses


def test_one_damped_newton_loop():
    package = Path(eqnf.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _newton_constant_uses(sources) == []


def test_scan_flags_a_second_newton_loop():
    sources = {
        "linalg": ("NEWTON_MIN_STEP = 1.0 / 256\nSUFFICIENT_DECREASE = 1e-4\n"
                   "def newton(x):\n    return x * NEWTON_MIN_STEP * SUFFICIENT_DECREASE\n"
                   "def helper(t):\n    return t <= NEWTON_MIN_STEP\n"),
        "reduction": ("from .linalg import SUFFICIENT_DECREASE\nfrom . import linalg\n"
                      "def own_loop(t):\n"
                      "    return linalg.NEWTON_MIN_STEP * SUFFICIENT_DECREASE\n"
                      '"""NEWTON_MIN_STEP in a docstring is not a use"""\n'),
        "polymap": "NEWTON_MIN_STEP = 0.5\n",
    }
    assert _newton_constant_uses(sources) == [
        "linalg:6", "reduction:1", "reduction:4", "reduction:4", "polymap:1"]


def _unset_defaults(package: dict, callers: dict) -> list[str]:
    """Defaulted parameters of functions defined in `package` (name ->
    source) that no call in `package` or `callers` passes, by keyword or by
    position.  Calls are matched to definitions by name; a method's first
    parameter is not counted, and a class name stands for its __init__."""
    passed: dict = {}
    for source in [*package.values(), *callers.values()]:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            entry = passed.setdefault(name, [0, set()])
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            entry[0] = max(entry[0], math.inf if starred else len(node.args))
            entry[1].update(kw.arg for kw in node.keywords)

    unset = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(stmt): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(node))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            params = node.args.posonlyargs + node.args.args
            if cls is not None and not static:
                params = params[1:]
            name = cls if node.name == "__init__" else node.name
            qualified = f"{module}.{cls + '.' if cls else ''}{node.name}"
            positional, keywords = passed.get(name, [0, set()])
            if None in keywords:  # a **kwargs call may pass any keyword
                continue
            first_default = len(params) - len(node.args.defaults)
            for i, p in enumerate(params[first_default:], first_default):
                if i >= positional and p.arg not in keywords:
                    unset.append(f"{qualified}({p.arg})")
            for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if d is not None and p.arg not in keywords:
                    unset.append(f"{qualified}({p.arg})")
    return unset


def _sources(root: Path) -> dict:
    return {str(path): path.read_text(encoding="utf-8")
            for path in sorted(root.rglob("*.py"))}


def test_no_unset_defaulted_parameters():
    package = Path(eqnf.__file__).parent
    tests = Path(__file__).resolve().parent
    callers = {**_sources(tests), **_sources(tests.parent / "benchmarks")}
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _unset_defaults(sources, callers) == []


def test_scan_flags_defaulted_parameters_no_call_sets():
    package = {
        "a": ("def f(x, by_position=1, by_keyword=2, unset=3, *, kw_unset=4):\n"
              "    return x\n"
              "class C:\n"
              "    def __init__(self, a, b=1):\n"
              "        self.a = a\n"
              "    def method(self, x, y=2):\n"
              "        return x\n"
              "    @staticmethod\n"
              "    def helper(x, y=3):\n"
              "        return x\n"
              "def spread(x, y=1):\n"
              "    return x\n"
              "def forwarded(x, y=1):\n"
              "    return x\n"),
        "b": ("from .a import C, f\n"
              "f(1, 2, by_keyword=3)\n"
              "C(1)\n"
              "C(1).method(1, 2)\n"
              "C.helper(1, 2)\n"),
    }
    callers = {"tests/t.py": ("spread(*args)\n"
                              "forwarded(0, **options)\n")}
    assert _unset_defaults(package, callers) == [
        "a.f(unset)", "a.f(kw_unset)", "a.C.__init__(b)"]


CAP_PARAMETERS = ("max_iter", "max_order")


def _defaulted_caps(package: dict) -> list[str]:
    """module.function(parameter), with the class for a method, of each
    defaulted parameter named max_iter or max_order of a function in
    `package` (module -> source).  Such caps are module constants that the
    function reads at call time, so a test can monkeypatch them."""
    caps = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(stmt): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            defaulted = params[len(params) - len(args.defaults):] + [
                p for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            cls = methods.get(id(node))
            qualified = f"{module}.{cls + '.' if cls else ''}{node.name}"
            caps += [f"{qualified}({p.arg})" for p in defaulted
                     if p.arg in CAP_PARAMETERS]
    return caps


def test_no_defaulted_iteration_caps():
    package = Path(eqnf.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _defaulted_caps(sources) == []


def test_scan_flags_defaulted_iteration_caps():
    package = {"a": ("CAP = 3\n"
                     "def f(x, max_iter=CAP):\n    return x\n"
                     "def g(x, max_iter):\n    return x\n"
                     "def h(x, tol=1e-9, *, max_order=None):\n    return x\n"
                     "def k(x, *, max_iter):\n    return x\n"
                     "class C:\n"
                     "    @classmethod\n"
                     "    def make(cls, gens, max_order: int = 12):\n"
                     "        return cls()\n"
                     "    def step(self, max_steps=4):\n        return self\n")}
    assert _defaulted_caps(package) == [
        "a.f(max_iter)", "a.h(max_order)", "a.C.make(max_order)"]


def test_benchmark_trace_targets_resolve():
    # benchmarks/spans.py wraps each TARGETS entry by name in traced runs
    # only; a renamed or deleted callable would break nothing else
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attrs in spans.TARGETS.items():
        mod = importlib.import_module(f"eqnf.{module}")
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{attr}")
    assert missing == []
