"""rmgcr.files is the one home of every file format: the import rules that keep it so."""

import ast
import pathlib

import pytest

from rmgcr import agent, compose, errors, files, geogrid, ground, logic, rm

SRC = pathlib.Path(files.__file__).resolve().parent
# the file functions bench/ still calls on the modules that held them before rmgcr.files
FORWARDED = {geogrid: {"save_dataset", "load_dataset"}, ground: {"save_pvfs", "load_pvfs", "save_label_model"}}


def load_time_imports(path: pathlib.Path) -> set:
    """The modules path imports when it loads (outside any function body), as absolute names."""
    names = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "rmgcr" + (f".{node.module}" if node.module else "") if node.level else node.module
            names.add(base)
            names |= {f"{base}.{alias.name}" for alias in node.names}  # from . import files
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize(
    "module", [errors, logic, rm, geogrid, ground, compose, agent], ids=lambda m: m.__name__
)
def test_modules_below_files_do_no_json(module):
    assert "json" not in load_time_imports(pathlib.Path(module.__file__))


def test_only_cli_and_the_package_import_files_at_load_time():
    importers = {p.name for p in SRC.glob("*.py") if "rmgcr.files" in load_time_imports(p)}
    assert importers == {"cli.py", "__init__.py"}


@pytest.mark.parametrize("module", list(FORWARDED), ids=lambda m: m.__name__)
def test_forwarders_serve_exactly_the_bench_names(module):
    forwarded = set()
    for name in dir(files):
        if name not in vars(module):
            try:
                value = getattr(module, name)
            except AttributeError:
                continue
            assert value is getattr(files, name)
            forwarded.add(name)
    assert forwarded == FORWARDED[module]
    for gone in ("DatasetFormatError", "ModelFormatError", "json_object", "decode_entry", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(module, gone)
