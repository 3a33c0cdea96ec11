"""The package's lower layers import only downward.

analytics sits at the bottom and imports nothing of the package, fockspace
imports only errors, and circuit builds on fockspace alone. Every relative
import counts, including one deferred inside a function body.
"""

import ast
from pathlib import Path

import pytest

import qrelay

ALLOWED = {
    "fockspace": {"errors"},
    "analytics": set(),
    "circuit": {"fockspace", "errors"},
}


def relative_imports(module: str) -> set[str]:
    source = Path(qrelay.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:     # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_lower_layers_import_only_downward(module):
    assert relative_imports(module) <= ALLOWED[module]
