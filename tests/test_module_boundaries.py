"""No module of the package reads another module's private names.

A module-level name with a leading underscore belongs to the module that
defines it.  Another module of src/qe6 may neither import it
(`from .frt import _name`) nor read it through a module alias
(`rd._name`).  Attributes of classes and instances, such as
`LaurentPoly._raw`, are out of scope: only names read off a module are
checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qe6"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node):
    """The package module an ImportFrom names ("frt" for `from .frt import`),
    "" for the package itself (`from . import rd`), None outside it."""
    if node.level:
        return node.module or ""
    if node.module == "qe6" or (node.module or "").startswith("qe6."):
        return node.module[4:]
    return None


def private_reads(source):
    """(module, name) for each private name of another package module that
    `source` imports or reads through a module alias."""
    tree = ast.parse(source)
    aliases = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) is not None:
            owner = _package_module(node)
            for alias in node.names:
                if not owner:
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.append((owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qe6.") and alias.asname:
                    aliases[alias.asname] = alias.name[4:]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            reads.append((aliases[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_names(module):
    assert private_reads((PACKAGE / (module + ".py")).read_text()) == []


def test_private_reads_finds_imports_and_alias_reads_only():
    source = "\n".join([
        "from .frt import octet_pattern, _octet_pattern",
        "from . import rootdata as rd",
        "import qe6.adjoint as aj",
        "from .qcoeff import LaurentPoly",
        "key = rd._CLASS_KEY[(0, 0)]",
        "dims = aj._pairings(mu), aj.__name__, rd.class_of(0, 0)",
        "raw = LaurentPoly._raw({})",
    ])
    assert private_reads(source) == [("frt", "_octet_pattern"),
                                     ("rootdata", "_CLASS_KEY"),
                                     ("adjoint", "_pairings")]
