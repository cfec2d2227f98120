"""Checks on the package source itself: no module imports a name it does not
use, every private name a module defines is read in that module, and the
docs name only code and repository paths that exist.  `code_lines` counts a
module's code lines, the size measure ROADMAP.md quotes."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fdmarch"
REPO = SRC.parents[1]
README = REPO / "README.md"
ALL_MODULES = sorted(SRC.glob("*.py"))
# __init__.py imports names to re-export them
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that no name in its code reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # from __future__ import annotations
                    bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "from typing import Iterable, Iterator\nimport numpy as np\nx: Iterable = np.ones(1)\n"
    assert unused_imports(source) == ["Iterator"]


# The parts of the growth verdict at a run's nu: only stability.py, which
# owns that verdict, names them in code; the other modules take it whole from
# `growth_note`.  __init__.py's re-export of `max_growth` is not in MODULES.
VERDICT_PARTS = {"grows", "max_growth"}


def code_names(source: str) -> set[str]:
    """The names a module's code imports, reads, writes or defines, as a
    name or as an attribute; the words of its docstrings and comments are
    not among them."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name.split(".")[-1], node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "stability.py"], ids=lambda p: p.name
)
def test_only_stability_names_the_verdict_parts(path):
    assert sorted(code_names(path.read_text()) & VERDICT_PARTS) == []


def test_finds_a_named_verdict_part():
    source = (
        '"""A module that grows."""\n'
        "from .stability import grows as verdict, growth_note\n"
        "import fdmarch.stability as st\n"
        "peak = st.max_growth(None, 1.0)  # what grows\n"
    )
    assert sorted(code_names(source) & VERDICT_PARTS) == ["grows", "max_growth"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(source: str) -> list[str]:
    """The private module-level functions, classes and constants, and the
    private methods, that a module defines and no name or attribute in it reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defined.extend(f.name for f in node.body if isinstance(f, ast.FunctionDef))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [name for name in defined if _private(name) and name not in read]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_finds_an_unread_private_name():
    source = (
        "_LIMIT = 3\n_USED = 4\n"
        "def _helper(): return _USED\n"
        "def _left(): pass\n"
        "class _Scan:\n"
        "    def _point(self): return _helper()\n"
        "    def _old(self): pass\n"
        "    def __init__(self): self._point()\n"
        "_Scan()\n"
    )
    assert unread_private_names(source) == ["_LIMIT", "_left", "_old"]


def defined_names(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """(identifiers, imported modules) of the given modules, by module stem.
    The identifiers are the package, the module stems, and every function,
    class, parameter, assigned name or attribute (`self.x` too) and string
    constant; the modules are the names `import` binds."""
    names, modules = {"fdmarch", *sources}, set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names, modules


def doc_texts(source: str) -> list[str]:
    """The docstrings and comments of a module."""
    tree = ast.parse(source)
    docs = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return docs + [tok.string for tok in tokens if tok.type == tokenize.COMMENT]


IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


def undefined_code_names(sources: dict[str, str], texts: list[str]) -> list[str]:
    """The code names in `texts` that name nothing defined in `sources`.

    A code name is a backticked dotted name `a.b`, or a backticked name with
    an underscore inside it.  A dotted name resolves when its head is an
    imported module or every part is defined; fenced blocks are skipped."""
    names, modules = defined_names(sources)
    missing = []
    for text in texts:
        for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
            if re.fullmatch(rf"{IDENT}(\.{IDENT})+", span):
                parts = span.split(".")
                if not (parts[0] in modules or all(p in names for p in parts)):
                    missing.append(span)
            elif re.fullmatch(IDENT, span) and "_" in span.strip("_") and span not in names:
                missing.append(span)
    return missing


# Code names the docs cite that nothing in the package defines: a symbol of
# the paper's formula, the project file and a standard-library class.
DOC_NAME_EXCEPTIONS = {"c_i", "pyproject.toml", "fractions.Fraction"}


def test_docs_name_only_code_that_exists():
    sources = {path.stem: path.read_text() for path in ALL_MODULES}
    texts = [README.read_text()] + [t for src in sources.values() for t in doc_texts(src)]
    assert len(DOC_NAME_EXCEPTIONS) <= 3
    assert sorted(set(undefined_code_names(sources, texts)) - DOC_NAME_EXCEPTIONS) == []


def test_finds_an_undefined_code_name():
    sources = {
        "mod": (
            "import numpy as np\n"
            "LIMIT_NAME = 'tag_value'\n"
            "class Table:\n"
            "    def float_rows(self, nu_max):\n"
            "        self.row_count = 1\n"
        )
    }
    text = (
        "`Table.float_rows`, `mod.Table`, `np.add.reduce`, `nu_max`, `row_count`, "
        "`LIMIT_NAME`, `tag_value`, `__init__`, `x + y`, `--no-build`, `RatPoly` are "
        "fine; `float_items`, `Table.float_items`, `fractions.Fraction` are not\n"
        "```\n`old_name`\n```\n"
    )
    assert undefined_code_names(sources, [text]) == [
        "float_items", "Table.float_items", "fractions.Fraction"
    ]


def missing_repo_paths(root: Path, text: str) -> list[str]:
    """The repository paths in `text` that name nothing under `root`: every
    token that starts `src/`, `tests/`, `scripts/` or `perfbench/`, fenced
    blocks included, with a sentence's closing dot dropped."""
    tokens = re.findall(r"(?<![\w./-])(?:src|tests|scripts|perfbench)/[\w./-]*", text)
    return [t for t in tokens if not (root / t.rstrip(".")).exists()]


def test_readme_names_only_paths_that_exist():
    assert missing_repo_paths(REPO, README.read_text()) == []


def test_finds_a_missing_repo_path(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("")
    (tmp_path / "tests").mkdir()
    text = (
        "`src/pkg/mod.py`, src/pkg/, tests/ and PYTHONPATH=src are fine, and so is\n"
        "a path that ends a sentence, src/pkg/mod.py.  xsrc/gone.py is no repository path.\n"
        "```sh\npython3 scripts/gone.py --flag\n```\n"
        "(`tests/data/gone.json`) and perfbench/ are missing\n"
    )
    assert missing_repo_paths(tmp_path, text) == [
        "scripts/gone.py", "tests/data/gone.json", "perfbench/"
    ]


# tokens that hold no code: comments, line breaks, indentation, the stream's ends
NON_CODE_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The "AST code lines" of a module: the lines holding a token other than
    a comment (every line a multi-line token spans), less the lines of the
    module, class and function docstrings.  Over the package, from the
    repository root: `PYTHONPATH=tests python -c "import test_source as t;
    print(sum(t.code_lines(p.read_text()) for p in t.ALL_MODULES))"`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def test_counts_code_lines():
    source = "\n".join([
        '"""Module docstring,',                # docstring
        'two lines."""',                       # docstring
        "",
        "# a comment",
        "import math  # code and a comment",   # 1
        "TEXT = '''a string,",                 # 2
        "not a docstring'''",                  # 3
        "def f(x,",                            # 4
        "      y):",                           # 5
        '    """Function docstring."""',       # docstring
        "    return [x,",                      # 6
        "",                                    # blank inside brackets
        "            y]",                      # 7
        "class C:",                            # 8
        "    '''Class docstring,",             # docstring
        "    on two lines.'''",                # docstring
        "    # an indented comment",
        "    def g(self):",                    # 9
        "        return f'''{math.pi}",        # 10
        "'''",                                 # 11
        "",
    ])
    assert code_lines(source) == 11
