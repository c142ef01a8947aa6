"""Which functions of src/ma_lab ran, keyed by (file name, first line).

The first line of a decorated function is its first decorator's, as in
``co_firstlineno``.  ``defs`` keys every ``def`` in src/ma_lab, nested
ones included; ``reached`` keys the ma_lab code objects of a set that
ran.  The runner of tests/command_table.py collects that set under
``sys.setprofile``, and tests/test_package.py reads the two together.
"""

import ast
from pathlib import Path

import ma_lab

SRC = Path(ma_lab.__file__).resolve().parent


def defs(src=SRC):
    """{(file name, first line): "module.qualified.name"} of every def in src."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path.name, line] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def reached(codes, src=SRC):
    """{(file name, first line)} of the code objects in codes defined in src."""
    ours = {f for f in {c.co_filename for c in codes} if Path(f).resolve().parent == src}
    return {(Path(c.co_filename).name, c.co_firstlineno) for c in codes if c.co_filename in ours}
