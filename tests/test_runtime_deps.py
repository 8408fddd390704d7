"""The runtime is numpy-only: every module of the package imports only
numpy, the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import dsfnet

ALLOWED = {"numpy", "dsfnet"} | set(sys.stdlib_module_names)


def test_package_imports_only_numpy_and_the_standard_library():
    outside = []
    for module in sorted(Path(dsfnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert outside == []
