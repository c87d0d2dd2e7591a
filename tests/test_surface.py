"""Every public function, class and method in src/monodeform has a user,
and every dataclass field a reader.

A user is a whole-word occurrence of the name, other than its own
definition, in the library itself, the scripts or the acceptance suite; a
reader is an attribute read `.name` there.  Unit tests do not count: a name
that only they reach is test-only surface.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "monodeform")
USERS = (glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
         + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
         + [os.path.join(ROOT, "tests", "test_acceptance.py")])

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions():
    """(file, name) for module-level functions and classes and their methods."""
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield os.path.basename(path), node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield os.path.basename(path), f"{node.name}.{item.name}"


def test_no_public_name_without_a_user():
    text = ""
    for path in USERS:
        with open(path) as fh:
            text += fh.read() + "\n"
    unused = []
    for module, qualname in _public_definitions():
        name = qualname.rsplit(".", 1)[-1]
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= 1:
            unused.append(f"{module}: {qualname}")
    assert not unused, "public names used only by their own definition: " + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_no_dataclass_field_without_a_reader():
    read = set()
    for path in USERS:
        with open(path) as fh:
            read.update(node.attr for node in ast.walk(ast.parse(fh.read()))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.target.id not in read:
                    unread.append(f"{os.path.basename(path)}: {node.name}.{item.target.id}")
    assert not unread, "dataclass fields never read as attributes: " + ", ".join(unread)


def test_one_spec_decoder_and_one_report_encoder():
    # schema refuses specs; the task runners and dyson compute and encode nothing:
    # run_spec encodes every report through cli._jsonable
    trees = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            text = fh.read()
        module = os.path.basename(path)
        trees[module] = ast.parse(text)
        if module != "schema.py":
            assert not re.search(r"\braise SchemaError\b", text), module
    dyson_defs = [node.name for node in ast.walk(trees["dyson.py"]) if isinstance(node, _DEFS)]
    assert not [name for name in dyson_defs if "json" in name.lower()], dyson_defs
    for node in trees["cli.py"].body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_task_"):
            called = {getattr(call.func, "id", None) for call in ast.walk(node)
                      if isinstance(call, ast.Call)}
            assert not called & {"_c2j", "_jsonable", "matrix_to_json"}, node.name
