"""Source hygiene: every name a soficlab module imports is used in it, every
module-level private function or class is referenced somewhere, every public
function, class and method is referenced by the package or the benchmark
(a test is no reader: a name only tests call is dead code, unless
``UNCALLED`` names it with the reason it stays), every parameter of a
module-level function or of a method (other than ``self`` and ``cls``) is
read in its body, every field of a record (a class deriving from
``errors._Record``) is read as an attribute by the package or the benchmark
(unless ``UNREAD_FIELDS`` names it with the reason it stays), no record
compares arrays with the inherited field-by-field ``__eq__``, no record
writes its own fields with ``object.__setattr__`` (the record base binds
them, and only ``GroupElement``, built on every product, sets its key
itself), no module
applies a ``dataclass`` decorator, whose generated code costs every import,
no module uses the reference determinant ``det_bareiss``, which stays only for
tests to check ``det_multimodular`` against, only the lattice solvers that
``SMITH_CALLERS`` names take a Smith form, no code but
``intlin._read_only`` sets array flags, no module but ``intlin`` and
``actions`` reads integer views with ``_int_view``, no module but ``groups``
reads a group's ``kind``, only the methods of ``GroupSpec`` that
``KIND_READERS`` names read its ``self.kind``, and the package imports
nothing but the standard library and the dependencies that
``pyproject.toml`` declares (an undeclared import such as ``scipy.linalg``
would also add its memory to every run).

The benchmark subclasses no package class, so in its files an attribute on
``self`` is one of its own members and never counts as a read of a package
name or field."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "soficlab").glob("*.py"))
DEFS = (ast.FunctionDef, ast.ClassDef)

# The public names that neither the package nor the benchmark calls, and why
# each stays.  "direction 4": the convergence report of ROADMAP direction 4
# will call it, and the entry goes when the report lands.  "input
# constructor": the one way to build an input the package reads.  "oracle":
# the check that tests hold a listing to.  The list can only shrink:
# test_every_uncalled_name_is_defined_and_uncalled fails on an entry that
# the package starts to call.
UNCALLED = {
    "actions.continuous_kernel": "direction 4",
    "actions.AlgebraicActionModel.enumerate_kernel": "direction 4",
    "measures.SiteMeasure.tv_distance": "direction 4",
    "microstates.rho2_sq": "direction 4",
    "microstates.empirical_pushforward": "direction 4",
    "microstates.shift_lift": "direction 4",
    "microstates.psi_window": "direction 4",
    "groups.GroupSpec.from_table": "input constructor",
    "microstates.torus_metric": "input constructor",
    "measures.SiteMeasure.point_mass": "input constructor",
    "measures.PointMass": "input constructor",
    "actions.AlgebraicActionModel.is_kernel_point": "oracle",
}

# The record fields that neither the package nor the benchmark reads, and
# why each stays: "observability (ROADMAP aim 4)" records how a result was
# computed, for the user to read.  The list can only shrink:
# test_every_unread_field_is_defined_and_unread fails on an entry that the
# package starts to read.
UNREAD_FIELDS = {
    "actions.Verdict.method": "observability (ROADMAP aim 4)",
    "groups.SoficApproximation.provenance": "observability (ROADMAP aim 4)",
}

# The definitions that may take a Smith form: the lattice solvers, which need
# its transforms or its invariant factors.  A verdict decides by a
# determinant instead, as a count does (``actions._det``).
SMITH_CALLERS = {
    "actions.TorusGridModel.invert_map",
    "actions._solve_residue_box",
    "actions._torsion_kernel",
    "intlin.kernel_count_mod",
}

# The GroupSpec methods that may branch on ``self.kind``: the constructor
# fixes the identity, the generators, the order and the display name once
# per kind, so a new kind adds one constructor branch plus these.
KIND_READERS = {"__init__", "multiply", "inverse", "word", "elements", "parse"}


def callers(root: Path) -> list[Path]:
    """The files whose references count for a public name or a record
    field: the package's modules and the benchmark's, never the tests under
    ``tests/``."""
    return sorted((root / "src" / "soficlab").glob("*.py")) + sorted((root / "soficbench").glob("*.py"))


class DropSelfAttributes(ast.NodeTransformer):
    """Replace each attribute ``self.x`` by its ``self``; in ``self.x.y`` the
    ``y`` stays, as a name read through the member."""

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.value
        return self.generic_visit(node)


def caller_trees(root: Path) -> list[ast.Module]:
    """The parsed ``callers``, with the benchmark's ``self`` attributes
    dropped: they name its own members, never the package's."""
    trees = []
    for path in callers(root):
        tree = ast.parse(path.read_text())
        trees.append(DropSelfAttributes().visit(tree) if path.parent.name == "soficbench" else tree)
    return trees


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(quoted_names(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def quoted_names(tree: ast.AST) -> list[str]:
    """Names quoted in annotations, such as "SiteMeasure", once per quote."""
    names = []
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    expr = ast.parse(sub.value, mode="eval")
                    names += [n.id for n in ast.walk(expr) if isinstance(n, ast.Name)]
    return names


def references(tree: ast.AST) -> Counter:
    """How often a tree loads, reads as an attribute, imports by name or
    quotes each name."""
    refs = Counter(quoted_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced(defs: list[tuple[str, ast.AST]], readers) -> list[str]:
    """The named definitions that no reader references outside the definition
    itself."""
    total = sum((references(tree) for tree in readers), Counter())
    return [
        f"{name} (line {node.lineno})" for name, node in defs if total[node.name] == references(node)[node.name]
    ]


def unreferenced_privates(modules: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_private`` functions and classes that no module
    references outside their own definition."""
    defs = [
        (f"{mod}.{node.name}", node)
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFS) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    return unreferenced(defs, modules.values())


def unreferenced_publics(modules: dict[str, ast.Module], readers) -> list[str]:
    """Public module-level functions and classes of ``modules``, and public
    methods of their classes, that no reader references outside their own
    definition."""
    defs = []
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                defs.append((f"{mod}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{mod}.{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return unreferenced(defs, readers)


def unread_parameters(tree: ast.Module) -> list[str]:
    """Parameters of module-level functions, and of the methods of
    module-level classes other than ``self`` and ``cls``, that the body never
    reads."""
    funcs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs.append((node.name, node, set()))
        elif isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            funcs += [(f"{node.name}.{m.name}", m, {"self", "cls"}) for m in methods]
    out = []
    for name, node, skip in funcs:
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [f"{name}({p.arg}) (line {node.lineno})" for p in params if p.arg not in read | skip]
    return out


def names(node: ast.AST) -> set[str]:
    """The names and attribute names anywhere in ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def dataclass_decorators(tree: ast.Module) -> list[str]:
    """The classes that a ``dataclass`` decorator, called or not, applies to."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any("dataclass" in names(d) for d in node.decorator_list)
    ]


def places(tree: ast.AST, hit, path: tuple[str, ...] = ()) -> list[str]:
    """Each node of ``tree`` that ``hit`` accepts, named by the definitions
    around it, as "Class.method (line n)", or "<module> (line n)" outside
    every definition."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if hit(node):
            found.append(f"{'.'.join(path) or '<module>'} (line {node.lineno})")
        found += places(node, hit, path + (node.name,) if isinstance(node, DEFS) else path)
    return found


def setattr_writes(tree: ast.AST) -> list[str]:
    """Each ``object.__setattr__`` in ``tree``, named by ``places``."""
    return places(
        tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "__setattr__" and names(n.value) == {"object"}
    )


def smith_users(tree: ast.AST) -> list[str]:
    """Each use of ``smith_normal_form`` in ``tree``, named by ``places``."""
    return places(tree, lambda n: uses(n, "smith_normal_form"))


def is_record(node: ast.AST) -> bool:
    """Whether ``node`` is a class deriving from the record base ``_Record``."""
    return isinstance(node, ast.ClassDef) and any("_Record" in names(b) for b in node.bases)


def array_eq_dataclasses(tree: ast.Module) -> list[str]:
    """Records with a field annotated with ``ndarray`` that keep the
    inherited field-by-field ``__eq__``, which raises on arrays: each must
    pass the class keyword ``eq=False`` or define its own ``__eq__``."""
    out = []
    for node in ast.walk(tree):
        if not is_record(node):
            continue
        no_eq = any(
            k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False for k in node.keywords
        )
        own_eq = any(isinstance(m, ast.FunctionDef) and m.name == "__eq__" for m in node.body)
        arrays = any(isinstance(f, ast.AnnAssign) and "ndarray" in names(f.annotation) for f in node.body)
        if arrays and not (no_eq or own_eq):
            out.append(f"{node.name} (line {node.lineno})")
    return out


def unread_fields(modules: dict[str, ast.Module], readers) -> list[str]:
    """Record fields of ``modules`` that no reader loads as an attribute: a
    field that is only ever set is a value nobody uses.  Loads on the name
    ``args``, an argparse namespace, read no record."""
    loaded = {
        n.attr
        for tree in readers
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and not (isinstance(n.value, ast.Name) and n.value.id == "args")
    }
    return [
        f"{mod}.{node.name}.{f.target.id} (line {f.lineno})"
        for mod, tree in modules.items()
        for node in ast.walk(tree)
        if is_record(node)
        for f in node.body
        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name) and f.target.id not in loaded
    ]


def uses(node: ast.AST, name: str) -> bool:
    """Whether ``node`` loads, reads as an attribute or imports ``name``."""
    return (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names))
    )


def uses_outside_definition(tree: ast.Module, name: str, owner: str | None = None) -> list[int]:
    """Lines where ``tree`` uses ``name``, outside the definition of
    ``owner`` (``name`` itself by default)."""
    owner = owner or name
    own = {id(n) for node in ast.walk(tree) if isinstance(node, DEFS) and node.name == owner for n in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in own and uses(node, name))


def kind_loads(tree: ast.Module) -> list[int]:
    """Lines that load an attribute ``kind``, other than numpy's
    ``dtype.kind``."""
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and n.attr == "kind"
        and not (isinstance(n.value, ast.Attribute) and n.value.attr == "dtype")
    )


def kind_readers(tree: ast.Module, owner: str = "GroupSpec") -> list[str]:
    """The methods of the class ``owner`` that load ``self.kind``."""
    return [
        m.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == owner
        for m in node.body
        if isinstance(m, ast.FunctionDef)
        and any(
            isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load)
            and n.attr == "kind"
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
            for n in ast.walk(m)
        )
    ]


def declared_dependencies(root: Path) -> set[str]:
    """The distribution names in ``[project] dependencies`` of pyproject.toml."""
    block = re.search(r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(), re.S | re.M)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))


def foreign_imports(tree: ast.Module, allowed: set[str]) -> list[str]:
    """The absolute imports whose top-level module is neither in the
    standard library nor in ``allowed``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        found += [f"{top} (line {node.lineno})" for top in tops if top not in sys.stdlib_module_names | allowed]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"actions.py", "measures.py", "microstates.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_array_fields_under_a_generated_eq(path):
    assert array_eq_dataclasses(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclass_decorators(path):
    assert dataclass_decorators(ast.parse(path.read_text())) == []


def test_only_the_record_base_and_group_elements_write_fields():
    writes = {
        f"{p.stem}.{where.split(' (line')[0]}"
        for p in SOURCES
        if p.name != "errors.py"
        for where in setattr_writes(ast.parse(p.read_text()))
    }
    assert writes == {"groups.GroupElement.__init__"}


def test_no_unreferenced_private_helpers():
    modules = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert unreferenced_privates(modules) == []


def uncalled_publics(root: Path) -> set[str]:
    """The qualified public names under ``root`` that no caller references."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src" / "soficlab").glob("*.py"))}
    flagged = unreferenced_publics(modules, caller_trees(root))
    return {entry.split(" (line")[0] for entry in flagged}


def test_no_unreferenced_public_names():
    assert uncalled_publics(ROOT) - set(UNCALLED) == set()


def test_every_uncalled_name_is_defined_and_uncalled():
    assert set(UNCALLED) - uncalled_publics(ROOT) == set()


def test_no_source_uses_the_reference_determinant():
    uses = {p.name: uses_outside_definition(ast.parse(p.read_text()), "det_bareiss") for p in SOURCES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_only_the_lattice_solvers_take_a_smith_form():
    users = {
        f"{p.stem}.{where.split(' (line')[0]}" for p in SOURCES for where in smith_users(ast.parse(p.read_text()))
    }
    assert users == SMITH_CALLERS


def test_only_intlin_read_only_sets_array_flags():
    # outside intlin the owner defaults to setflags itself, which no module defines
    owners = {"intlin.py": "_read_only"}
    uses = {p.name: uses_outside_definition(ast.parse(p.read_text()), "setflags", owners.get(p.name)) for p in SOURCES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_only_intlin_and_the_models_read_integer_views():
    # every other module reads points through its model's read_points
    uses = {p.name: uses_outside_definition(ast.parse(p.read_text()), "_int_view") for p in SOURCES}
    assert {name: lines for name, lines in uses.items() if lines and name not in ("intlin.py", "actions.py")} == {}


def test_only_the_kind_methods_of_group_spec_read_its_kind():
    readers = kind_readers(ast.parse((ROOT / "src" / "soficlab" / "groups.py").read_text()))
    assert readers and set(readers) - KIND_READERS == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_declared_dependencies(path):
    assert declared_dependencies(ROOT) == {"numpy"}
    assert foreign_imports(ast.parse(path.read_text()), declared_dependencies(ROOT)) == []


def test_scan_flags_an_undeclared_import():
    tree = ast.parse(
        "import math\nimport numpy as np\nfrom . import intlin\nfrom fractions import Fraction\n"
        "import scipy.linalg\nfrom scipy import linalg\n\ndef f():\n    import sympy\n"
    )
    assert foreign_imports(tree, {"numpy"}) == ["scipy (line 5)", "scipy (line 6)", "sympy (line 9)"]


def test_only_groups_reads_a_group_kind():
    # every other module reads a group through its relations, words and order
    uses = {p.name: kind_loads(ast.parse(p.read_text())) for p in SOURCES if p.name != "groups.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def unread_package_fields(root: Path) -> set[str]:
    """The qualified record fields under ``root`` that no caller reads."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src" / "soficlab").glob("*.py"))}
    flagged = unread_fields(modules, caller_trees(root))
    return {entry.split(" (line")[0] for entry in flagged}


def test_no_unread_dataclass_fields():
    assert unread_package_fields(ROOT) - set(UNREAD_FIELDS) == set()


def test_every_unread_field_is_defined_and_unread():
    assert set(UNREAD_FIELDS) - unread_package_fields(ROOT) == set()


def test_scan_flags_an_unreferenced_private_helper():
    used = ast.parse(
        "import numpy as np\n\n"
        "def _used(x): return np.asarray(x)\n\n"
        "def _recursive(n): return _recursive(n - 1) if n else 0\n\n"
        "class _Quoted: pass\n\n"
        "def public(x: '_Quoted'): return _used(x)\n"
    )
    other = ast.parse("from .b import _shared\n\ndef __dunder__(): pass\n")
    shared = ast.parse("def _shared(): pass\n")
    assert unreferenced_privates({"a": used, "b": shared, "c": other}) == ["a._recursive (line 5)"]


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "import numpy as np\nfrom typing import Callable, Sequence\n\n"
        "def f(x: 'Sequence[int]'): return np.asarray(x)\n"
    )
    assert unused_imports(tree) == ["Callable (line 2)"]


def test_scan_flags_unreferenced_public_names():
    lib = ast.parse(
        "def used(x): return x\n\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n\n"
        "def _private(): pass\n\n"
        "class Quoted:\n"
        "    def __init__(self): pass\n\n"
        "    def called(self): return self.helper()\n\n"
        "    def helper(self): pass\n\n"
        "    @property\n"
        "    def unread(self): return 1\n\n"
        "    def _hidden(self): pass\n"
    )
    user = ast.parse("from lib import used\n\ndef f(q: 'Quoted'): return used(q).called()\n")
    assert unreferenced_publics({"lib": lib}, [lib, user]) == [
        "lib.recursive (line 3)",
        "lib.Quoted.unread (line 15)",
    ]


def write_tree(root: Path, files: dict[str, str]) -> None:
    """Write each text to its path under ``root``."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_scan_flags_a_public_name_that_only_a_test_reads(tmp_path):
    files = {
        "src/soficlab/lib.py": "def only_tested(): pass\n\ndef used(): pass\n\ndef internal(): pass\n",
        "src/soficlab/user.py": "from .lib import internal\n",
        "soficbench/run.py": "from soficlab.lib import used\n",
        "tests/test_lib.py": "from soficlab.lib import only_tested, used\n",
    }
    write_tree(tmp_path, files)
    assert [p.relative_to(tmp_path).as_posix() for p in callers(tmp_path)] == [
        "src/soficlab/lib.py",
        "src/soficlab/user.py",
        "soficbench/run.py",
    ]
    assert uncalled_publics(tmp_path) == {"lib.only_tested"}


def test_scan_flags_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *args, c=1, **kw): return a + c + sum(args) + len(kw)\n\n"
        "def g(x, y):\n    y = 2\n    def inner(): return x\n    return inner\n\n"
        "class C:\n    def method(self, unused): pass\n"
    )
    assert unread_parameters(tree) == ["f(b) (line 1)", "g(y) (line 3)", "C.method(unused) (line 9)"]


def test_scan_flags_an_unread_method_parameter_but_not_self_or_cls():
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self, a, b): self.a = a\n\n"
        "    @classmethod\n"
        "    def make(cls, n): return cls(n, n)\n\n"
        "    @staticmethod\n"
        "    def twice(x, y): return 2 * x\n\n"
        "    def read(self): return self.a\n\n"
        "    def nested(self, z):\n"
        "        def inner(): return z\n"
        "        return inner\n"
    )
    assert unread_parameters(tree) == ["C.__init__(b) (line 2)", "C.twice(y) (line 8)"]


def test_scan_flags_a_dataclass_comparing_arrays():
    tree = ast.parse(
        "import numpy as np\nfrom .errors import _Record\nfrom . import errors\n\n"
        "class Flagged(_Record):\n    a: np.ndarray | None\n\n"
        "class Mapped(errors._Record, hidden=('m',)):\n    m: dict[int, np.ndarray]\n\n"
        "class ByIdentity(_Record, eq=False):\n    a: np.ndarray\n\n"
        "class OwnEq(_Record):\n    a: np.ndarray\n    def __eq__(self, other): return self is other\n\n"
        "class NoArrays(_Record):\n    n: int\n\n"
        "class Plain:\n    a: np.ndarray\n"
    )
    assert array_eq_dataclasses(tree) == ["Flagged (line 5)", "Mapped (line 8)"]


def test_scan_flags_a_record_that_writes_its_own_fields():
    tree = ast.parse(
        "class Bound(_Record):\n    n: int\n\n"
        "class Writes(_Record):\n    n: int\n\n"
        "    def __init__(self, n):\n"
        "        object.__setattr__(self, 'n', n)\n"
        "        def later(v):\n            object.__setattr__(self, 'n', v)\n\n"
        "class Checks(_Record):\n    n: int\n\n"
        "    def __init__(self, n):\n        super().__init__(abs(n))\n\n"
        "setter = object.__setattr__\n"
        "other.__setattr__(x, 'n', 1)\n"
    )
    assert setattr_writes(tree) == ["Writes.__init__ (line 8)", "Writes.__init__.later (line 10)", "<module> (line 18)"]


def test_scan_flags_a_dataclass_decorator():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass\nclass Bare:\n    n: int\n\n"
        "@dataclasses.dataclass(frozen=True, eq=False)\nclass Called:\n    n: int\n\n"
        "@staticmethod\nclass Other:\n    n: int\n\n"
        "class Record(_Record):\n    n: int\n"
    )
    assert dataclass_decorators(tree) == ["Bare (line 5)", "Called (line 9)"]


def test_scan_flags_an_unread_dataclass_field():
    lib = ast.parse(
        "from .errors import _Record\n\n"
        "class Report(_Record):\n    read: int\n    written: int\n\n"
        "class Plain:\n    unread: int\n"
    )
    user = ast.parse("r = Report(read=1, written=2)\nr.written = 3\nprint(r.read, args.written)\n")
    assert unread_fields({"lib": lib}, [lib, user]) == ["lib.Report.written (line 5)"]


def test_scan_flags_a_field_that_only_a_test_reads(tmp_path):
    files = {
        "src/soficlab/lib.py": (
            "from .errors import _Record\n\n"
            "class Report(_Record):\n    tested: int\n    used: int\n    internal: int\n"
        ),
        "src/soficlab/user.py": "def f(r): return r.internal\n",
        "soficbench/run.py": "def g(r): return r.used\n",
        "tests/test_lib.py": "def test_r(r): assert r.tested and r.used\n",
    }
    write_tree(tmp_path, files)
    assert unread_package_fields(tmp_path) == {"lib.Report.tested"}


def test_scan_flags_a_use_outside_the_definition():
    tree = ast.parse(
        "from .intlin import det_bareiss\n\n"
        "def det_bareiss(m):\n    return det_bareiss(m[1:]) if m else 1\n\n"
        "def check(m):\n    return intlin.det_bareiss(m)\n\n"
        "def other(det_bareiss_like):\n    return 'det_bareiss'\n"
    )
    assert uses_outside_definition(tree, "det_bareiss") == [1, 7]


def test_scan_names_each_definition_that_takes_a_smith_form():
    tree = ast.parse(
        "from .intlin import smith_normal_form\n\n"
        "class Model:\n    def invert(self, m):\n        return intlin.smith_normal_form(m)[1]\n\n"
        "def verdict(f):\n    def rank(m):\n        return len(smith_normal_form(m)[0])\n    return rank(f)\n\n"
        "def smith_normal_form_like(m):\n    return 'smith_normal_form'\n"
    )
    assert smith_users(tree) == ["<module> (line 1)", "Model.invert (line 5)", "verdict.rank (line 9)"]


def test_scan_flags_setflags_outside_its_owner():
    tree = ast.parse(
        "def _read_only(a):\n    a.setflags(write=False)\n    return a\n\n"
        "def freeze(a):\n    a.setflags(write=False)\n    return _read_only(a)\n\n"
        "flag = 'setflags'\n"
    )
    assert uses_outside_definition(tree, "setflags", "_read_only") == [6]
    assert uses_outside_definition(tree, "setflags") == [2, 6]


def test_scan_flags_a_kind_read_outside_the_kind_methods():
    tree = ast.parse(
        "class GroupSpec:\n"
        "    def __init__(self, kind):\n        self.kind = kind\n\n"
        "    def order(self):\n        return 1 if self.kind == 'free' else 2\n\n"
        "    def name(self, other):\n        return other.kind\n\n"
        "class Other:\n    def order(self):\n        return self.kind\n"
    )
    assert kind_readers(tree) == ["order"]


def test_scan_flags_a_kind_load():
    tree = ast.parse(
        "def f(spec, a, quotient):\n"
        "    spec.kind = 'free'\n"
        "    if a.dtype.kind in 'iu' and quotient.get('kind'):\n"
        "        return spec.kind\n"
        "    return spec.group.kind\n"
    )
    assert kind_loads(tree) == [4, 5]


def test_scan_skips_the_benchmarks_own_members(tmp_path):
    # the benchmark's self.weights and self.seed are its own members; a
    # package name read through a member still counts
    files = {
        "src/soficlab/lib.py": (
            "from .errors import _Record\n\n"
            "class Report(_Record):\n    seed: int\n    used: int\n\n"
            "class Measure:\n    def weights(self): pass\n\n    def mass(self): pass\n"
        ),
        "soficbench/run.py": (
            "from soficlab.lib import Measure, Report\n\n"
            "class Bench:\n"
            "    def __init__(self, report: Report, measure: Measure):\n"
            "        self.weights, self.seed, self.measure = [1], report.used, measure\n\n"
            "    def run(self):\n"
            "        return self.weights, self.seed, self.measure.mass()\n"
        ),
    }
    write_tree(tmp_path, files)
    assert uncalled_publics(tmp_path) == {"lib.Measure.weights"}
    assert unread_package_fields(tmp_path) == {"lib.Report.seed"}
