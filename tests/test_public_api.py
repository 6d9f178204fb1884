"""capnet's public surface: the package exports exactly what its library modules export."""

import ast
import importlib
import pathlib
import pkgutil

import capnet

# the command-line front end and its JSON writer are not part of the library
_FRONT_END = {"cli", "jsonfmt"}


def test_all_resolves_and_equals_the_library_modules_exports():
    names = [info.name for info in pkgutil.iter_modules(capnet.__path__)]
    library = [
        importlib.import_module(f"capnet.{name}") for name in names if name not in _FRONT_END
    ]
    exported = set()
    for module in library:
        for name in module.__all__:
            assert name not in exported, f"{name} is exported twice"
            exported.add(name)
            assert getattr(capnet, name) is getattr(module, name), name
    assert len(capnet.__all__) == len(set(capnet.__all__))
    assert set(capnet.__all__) == exported


def test_no_module_imports_inside_a_function():
    # a function-level import hides a dependency, and with it an import cycle
    for path in sorted(pathlib.Path(capnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    assert not isinstance(inner, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{inner.lineno} imports inside {node.name}"
                    )
