"""Every public name has a caller outside the module that defines it.

A name stays in hyperwedge.__all__ only while another package module (the
CLI included), a README example, an acceptance test or the benchmark refers
to it in code; a name nothing else calls leaves the package.  Prose does not
count: docstrings and comments in .py files, and README text outside code
spans.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

import hyperwedge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(hyperwedge.__file__).parent


def _python_code(text):
    """The source's tokens, docstrings and comments left out."""
    docstrings = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    return " ".join(tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                    if tok.type != tokenize.COMMENT
                    and not (tok.type == tokenize.STRING and tok.start in docstrings))


def _markdown_code(text):
    """The fenced blocks and inline code spans of a Markdown text."""
    return " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.DOTALL))


def test_every_public_name_is_referenced_outside_its_module():
    places = [*PACKAGE.glob("*.py"), ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
              *(ROOT / "bench").glob("*.py")]
    texts = {path: (_markdown_code if path.suffix == ".md" else _python_code)(path.read_text())
             for path in places}
    uncalled = []
    for name in hyperwedge.__all__:
        home = PACKAGE / (getattr(hyperwedge, name).__module__.rpartition(".")[2] + ".py")
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, text in texts.items()
                   if path not in (home, PACKAGE / "__init__.py")):
            uncalled.append(name)
    assert uncalled == []


def test_prose_is_not_a_caller():
    source = '"""Uses monomial."""\n# monomial\nx = "monomial"\n'
    assert re.findall(r"\bmonomial\b", _python_code(source)) == ["monomial"]
    assert _markdown_code("no monomial twice, but `wedge` and\n```\nhodge_star(v)\n```") \
        == "`wedge` ```\nhodge_star(v)\n```"
