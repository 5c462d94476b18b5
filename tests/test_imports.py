"""No module, test, demo or tool script imports a name it never uses, and
the package converts its array arguments in one place.

No linter ships with the project, so these AST scans stand in for one.
A name counts as used when it appears as a ``Name`` anywhere in the
file, which covers the base of an attribute access.  The package's
``__init__.py`` is skipped: its imports are its re-exports.  Every array
argument goes through ``errors._require_arrays``, the one module that
calls ``np.asarray``, so that a bad argument is refused the same way
everywhere.  Likewise every draw comes from a ``noise.RngStream``, and
``noise.py`` is the one module that touches ``numpy.random``, so that a
draw's key is set in one place.  And ``cli.py`` orders no ``cfg`` field
but the seed and sweep's counts, the bounds the CLI owns: every other
bound belongs to the library call that the field configures.  Every name
that ``__init__.py`` re-exports is read by the package, a demo, a tool,
the benchmark or the acceptance battery, so that no public name is only
a test's.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pixelboost"
SOURCES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "tools").glob("*.py")))


def unused_imports(source):
    """Names the source imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_unused_names():
    source = ("import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "os.sep\nprint(d)\n")
    assert unused_imports(source) == ["np", "b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def asarray_calls(source):
    """Line numbers of the source's asarray and asanyarray calls, however imported."""
    names = ("asarray", "asanyarray")
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) and node.func.attr in names
                 or isinstance(node.func, ast.Name) and node.func.id in names)]


def test_scan_finds_asarray_calls():
    source = ("import numpy as np\nfrom numpy import asarray\nnp.asarray(1)\n"
              "x = asarray\nasarray(2)\nnp.array(3)\nnumpy.asanyarray(4)\n")
    assert asarray_calls(source) == [3, 5, 7]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_arrays_are_converted_only_in_errors(path):
    assert asarray_calls(path.read_text(encoding="utf-8")) == []


def numpy_random_uses(source):
    """Line numbers of the source's uses of numpy.random, however imported."""
    def uses(node):
        if isinstance(node, ast.Attribute):  # np.random.x, numpy.random.x
            return (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.Import):
            return any(a.name.startswith("numpy.random") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        return False
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if uses(node))


def test_scan_finds_numpy_random_uses():
    source = ("import numpy as np\nfrom numpy.random import Philox\n"
              "from numpy import random\nnp.random.default_rng(0)\n"
              "rng.random(3)\nimport numpy.random\nnp.asarray(1)\n")
    assert numpy_random_uses(source) == [2, 3, 4, 6]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "noise.py"),
                         ids=lambda p: p.name)
def test_numpy_random_is_used_only_in_noise(path):
    assert numpy_random_uses(path.read_text(encoding="utf-8")) == []


# the RunConfig fields whose bounds the CLI owns
CLI_BOUNDS = ("seed", "count", "eval_count")


def cfg_field_orderings(source):
    """The ``cfg.<field>`` operands of the source's <, <=, > and >= comparisons."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return [operand.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, ordering) for op in node.ops)
            for operand in [node.left, *node.comparators]
            if isinstance(operand, ast.Attribute) and isinstance(operand.value, ast.Name)
            and operand.value.id == "cfg"]


def test_scan_finds_cfg_field_orderings():
    source = ("if cfg.grid < 1:\n    pass\nok = 0 <= cfg.seed < 2 ** 63\n"
              "same = cfg.patch == 2\nother.bins >= 2\n")
    assert cfg_field_orderings(source) == ["grid", "seed"]


def test_cli_orders_only_the_fields_it_owns():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert set(cfg_field_orderings(source)) <= set(CLI_BOUNDS)


# where a name that __init__.py re-exports must be read: the package, the
# demos, the tools, the benchmark outside its frozen copy of an old
# release, and the acceptance battery
READERS = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "tools").glob("*.py"))
    + [p for p in (ROOT / "bench").rglob("*.py")
       if "frozen" not in p.relative_to(ROOT / "bench").parts]
    + [ROOT / "tests" / "test_acceptance.py"])


def unread_exports(init_source, sources):
    """Names ``init_source`` re-exports that none of ``sources`` reads, in
    import order; a name is read as a ``Name``, an ``Attribute`` or an
    ``ImportFrom`` alias."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [a.asname or a.name for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for a in node.names
            if (a.asname or a.name) not in read]


def test_scan_finds_unread_exports():
    init = "from .a import b, c\nfrom .d import e as f, g\nfrom .h import planted\n"
    sources = ["import pkg\npkg.b(g)\n", "from pkg import f\n"]
    assert unread_exports(init, sources) == ["c", "planted"]


def test_every_export_is_read():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    sources = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_exports(init, sources) == []
    assert unread_exports(init + "from .noise import planted\n", sources) == ["planted"]
