"""Every code name that README.md and the docstrings and comments of
`src/cantorshift` put in backticks still names code, so prose cannot keep
describing a function after it moved or was deleted:

* a dotted name whose head is a package module (`series._affine`,
  `cantorshift.cli.MAX_GSHIFT_M`) resolves attribute by attribute;
* a dotted name whose head is a package class (`PositionTable.tail`)
  resolves on the class;
* a bare private name (`_tail_period`) is defined in some module.

Other spans (`p/q`, `--precision`, public bare names) are not checked.
ROADMAP.md, CHANGES.md and perfbench are history and may name deleted
code, so they are not read."""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import cantorshift

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = Path(cantorshift.__file__).parent
MODULES = {"cantorshift": cantorshift, **{
    info.name: importlib.import_module(f"cantorshift.{info.name}")
    for info in pkgutil.iter_modules(cantorshift.__path__)}}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if isinstance(obj, type) and obj.__module__.startswith("cantorshift")}
FENCE = re.compile(r"```.*?```", re.S)
# a span may break across lines, and then is no name
SPAN = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _defined(tree):
    """Every name the module defines or stores, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _prose(path):
    """(file, first line, text) of each docstring and comment of a source
    file."""
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield path.name, node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield path.name, token.start[0], token.string


def _texts():
    # a fenced block is blanked, keeping its line breaks
    readme = FENCE.sub(lambda fence: "\n" * fence.group().count("\n"),
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    yield "README.md", 1, readme
    for path in sorted(SOURCE_DIR.glob("*.py")):
        yield from _prose(path)


def _resolves(obj, attrs):
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _stale(name, defined):
    """True when a backticked name that the rules check names no code."""
    head, *attrs = name.split(".")
    if head in MODULES and attrs:
        return not _resolves(MODULES[head], attrs)
    if head in CLASSES and attrs:
        return not _resolves(CLASSES[head], attrs)
    if not attrs and head.startswith("_") and not head.startswith("__"):
        return head not in defined
    return False


def test_backticked_names_name_code():
    defined = set().union(*(_defined(ast.parse(path.read_text(encoding="utf-8")))
                            for path in SOURCE_DIR.glob("*.py")))
    stale = []
    for filename, first, text in _texts():
        for span in SPAN.finditer(text):
            name = span.group(1)
            if DOTTED.fullmatch(name) and _stale(name, defined):
                line = first + text.count("\n", 0, span.start())
                stale.append(f"{filename}:{line}: {name}")
    assert stale == []
