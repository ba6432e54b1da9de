import ast
import sys
from pathlib import Path

import rbainv

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "rbainv"}


def test_package_imports_only_stdlib_numpy_and_scipy():
    outside = []
    for path in sorted(Path(rbainv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not outside
