"""No public surface that only tests use.

Every public module-level function or class of the package, and every
public method of a public class, must be named in code somewhere in
``src/kmatchlab`` (its own ``def``/``class`` line and ``__init__.py``'s
re-exports aside) or in ``bench``.  Names are read as Python tokens, so a
mention in a comment or a docstring does not count.

Every private module-level function or class must be read somewhere in
``src/kmatchlab`` itself, so that no entry exists only for tests.  Reads are
taken from the syntax tree, so a name inside an f-string counts on every
Python version and a definition's own ``def``/``class`` line does not.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    """(qualified name, node) per public top-level def/class and public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _name_tokens(source: str):
    """(name, line) for every NAME token of source."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def unused_public_names(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public names of the package modules that no module and no reader names.

    package and readers map a file name to its source; a definition's own
    def/class line does not count as naming it.
    """
    defined, def_lines = [], set()
    for fname, source in package.items():
        for qualname, node in _public_definitions(ast.parse(source)):
            name = qualname.rpartition(".")[2]
            defined.append((f"{fname}:{qualname}", name))
            def_lines.add((fname, name, node.lineno))
    named = {
        name
        for fname, source in {**package, **readers}.items()
        for name, line in _name_tokens(source)
        if (fname, name, line) not in def_lines
    }
    return [where for where, name in defined if name not in named]


def _read_names(tree: ast.AST):
    """Every name the tree reads: names, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unread_private_names(package: dict[str, str]) -> list[str]:
    """Private top-level functions and classes of the package modules that no module reads."""
    trees = {fname: ast.parse(source) for fname, source in package.items()}
    read = {name for tree in trees.values() for name in _read_names(tree)}
    return [f"{fname}:{node.name}" for fname, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and node.name not in read]


def _sources(directory: Path, skip=()) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.glob("*.py")) if p.name not in skip}


def test_every_public_name_has_a_reader_outside_the_tests():
    package = _sources(ROOT / "src" / "kmatchlab", skip={"__init__.py"})
    readers = {f"bench/{name}": text for name, text in _sources(ROOT / "bench").items()}
    assert package and readers
    assert unused_public_names(package, readers) == []


def test_unused_public_names_flags_only_unread_names():
    package = {
        "a.py": (
            "def used():\n    return 1\n\n\n"
            "def unused():\n    '''used() is not a call of unused'''\n    return used()\n\n\n"
            "class Box:\n    def read(self):\n        return self\n\n    def unread(self):\n        return 0\n\n"
            "    def _private(self):\n        return 0\n\n\n"
            "def _helper():\n    # unused\n    return Box().read()\n"
        ),
    }
    assert unused_public_names(package, {}) == ["a.py:unused", "a.py:Box.unread"]
    # a reader outside the package counts, a comment or a string does not
    readers = {"bench/x.py": "from a import unused\n# Box.unread\nname = 'unread'\n"}
    assert unused_public_names(package, readers) == ["a.py:Box.unread"]


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names(_sources(ROOT / "src" / "kmatchlab")) == []


def test_unread_private_names_reads_code_only():
    package = {
        "a.py": (
            "from b import _imported\n\n\n"
            "def _in_fstring(x):\n    return x\n\n\n"
            "def _by_attribute():\n    return 0\n\n\n"
            "def _in_docstring():\n    '''_in_comment() is not a read'''\n\n\n"
            "def _in_comment():\n    # _in_docstring()\n    return f'{_in_fstring(1)}'\n\n\n"
            "class _Unread:\n    pass\n"
        ),
        "b.py": "import a\n\n\ndef _imported():\n    return a._by_attribute()\n",
    }
    # an f-string field, an attribute and an import read a name; a docstring,
    # a comment and the name's own def line do not
    assert unread_private_names(package) == ["a.py:_in_docstring", "a.py:_in_comment", "a.py:_Unread"]
