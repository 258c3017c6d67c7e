import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import popstab

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(popstab.__file__).resolve().parent.glob("*.py"))


def test_every_exported_name_resolves():
    assert [name for name in popstab.__all__ if not hasattr(popstab, name)] == []


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    source = library.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(source, str(README), "exec"), names)
    assert capsys.readouterr().out.strip()
    # what the comments claim: the structured report's stored eigenvector is
    # the dense path's rightmost eigenvector
    assert "rightmost.vector(0)" in source
    assert (names["report"].path, names["rightmost"].path) == ("dense", "structured")
    psi, psi_top = names["psi"], names["psi_top"]
    phase = np.vdot(psi, psi_top)
    assert np.max(np.abs(psi_top - phase / abs(phase) * psi)) <= 1e-12


def test_every_module_constant_is_read():
    # an upper-case name assigned at module level that no module of the
    # package reads, as a name or as an attribute, is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    constants = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                constants |= {(module, t.id) for t in names if isinstance(t, ast.Name) and t.id.isupper()}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    assert len(constants) > 40
    assert sorted(c for c in constants if c[1] not in reads) == []


# the private names that one module of the package imports from another
PRIVATE_IMPORTS = {
    ("structured.py", "_overflow"),
    ("structured.py", "_canonicalize"),
    ("spectra.py", "_samples"),
    ("spectra.py", "_closest"),
}


def test_private_names_imported_across_modules():
    # a module's private name used by another ties the two together; each
    # such tie is listed above, so that a new one shows
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported |= {(path.name, a.name) for a in node.names if a.name.startswith("_")}
    assert imported == PRIVATE_IMPORTS


# errors that the package catches itself, so that none reaches the caller
CAUGHT_INSIDE = {"Uncertified", "_Singular", "DomainError", "UnboundVariable", "InsufficientData"}


def test_every_error_is_a_config_error_or_a_numerical_failure():
    # the command line's exit code follows these two classes alone
    defined = set()
    for info in pkgutil.iter_modules(popstab.__path__):
        module = importlib.import_module(f"popstab.{info.name}")
        defined |= {
            value for value in vars(module).values()
            if inspect.isclass(value) and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        }
    assert len(defined) > 15
    kinds = (popstab.ConfigError, popstab.NumericalFailure)
    assert sorted(c.__name__ for c in defined if not issubclass(c, kinds)) == sorted(CAUGHT_INSIDE)
