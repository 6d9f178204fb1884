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


# each maps OpenSSL's libcrypto, about 3.5 MiB on every command that imports capnet
_OPENSSL_MODULES = {"hashlib", "hmac", "secrets", "ssl"}


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_no_module_imports_openssl_outside_an_import_error_fallback():
    for path in sorted(pathlib.Path(capnet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        fallbacks = {
            id(inner)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            and isinstance(handler.type, ast.Name)
            and handler.type.id == "ImportError"
            for inner in ast.walk(handler)
        }
        for node in ast.walk(tree):
            heavy = _imported_modules(node) & _OPENSSL_MODULES
            assert not heavy or id(node) in fallbacks, (
                f"{path.name}:{node.lineno} imports {sorted(heavy)} outside an ImportError fallback"
            )


def test_only_propagate_drives_the_stencil_step():
    # _stepper's window contract (+0.0 ghosts outside a window, wrap or fold only
    # on the whole grid) is kept by propagate's one walker, so no other module steps
    for path in sorted(pathlib.Path(capnet.__file__).parent.glob("*.py")):
        if path.name == "propagate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # an attribute, a name, or an imported name
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            assert "_stepper" not in names, f"{path.name}:{node.lineno} references _stepper"
