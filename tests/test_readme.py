"""The README's python blocks run, in order, and state their values truly.

A bare expression followed by a comment states its value: the comment is a
Python literal, optionally followed by ": " and an explanation.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def comments(source):
    """{line number: comment text} of a block."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_readme_python_blocks_state_their_values():
    namespace = {}
    stated = []
    for block in python_blocks():
        notes = comments(block)
        for node in ast.parse(block).body:
            note = notes.get(node.end_lineno)
            if isinstance(node, ast.Expr) and note is not None:
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                expected = ast.literal_eval(note.split(": ")[0])
                assert value == expected, ast.unparse(node)
                stated.append(ast.unparse(node))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert stated == [
        "wedge_power(v, 2).is_zero()",
        "report.member",
        "report.certificate['label']",
        "report.certificate['value']",
        "projected.missing()",
        "result.completed == point",
        "result.stuck",
        "result.attempts",
    ]
