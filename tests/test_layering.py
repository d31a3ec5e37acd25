"""Package layering: no module of ``nirrec`` reaches into another's
private names.  A name that starts with an underscore belongs to the
module that defines it; a module that needs it needs a public one."""

import ast
from pathlib import Path

import nirrec

PACKAGE = Path(nirrec.__file__).parent


def private_imports(source: str, name: str) -> list[str]:
    """``name:line imported`` for each underscore name that ``source``
    imports from a module of the package (relatively or as ``nirrec...``)."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "nirrec":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{name}:{node.lineno} {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [
        hit
        for path in modules
        for hit in private_imports(path.read_text(encoding="utf-8"), str(path.relative_to(PACKAGE)))
    ]
    assert not found, found


def test_the_check_sees_relative_and_absolute_imports():
    source = (
        "from .autodiff.tensor import _as_tensor\n"
        "from nirrec.ingest import _check_ids, load_shards\n"
        "from numpy import _globals\n"
        "from . import __version__\n"
        "from .special import digamma as _digamma\n"
    )
    assert private_imports(source, "probe.py") == ["probe.py:1 _as_tensor", "probe.py:2 _check_ids"]
