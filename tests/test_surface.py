"""No public surface that only tests use.

Every public module-level function or class of the package, and every
public method of a public class, must be named in code somewhere in
``src/kmatchlab`` (its own ``def``/``class`` line and ``__init__.py``'s
re-exports aside) or in ``bench``.  Names are read as Python tokens, so a
mention in a comment or a docstring does not count.
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
