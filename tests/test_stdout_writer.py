"""One stdout writer: in cli only _emit renders JSON or writes to stdout, so
no command can bypass the renderer whose bytes tests/test_emit.py holds
equal to json.dumps's."""

import ast
from pathlib import Path

import qapool

CLI = Path(qapool.__file__).parent / "cli.py"
RENDERERS = {("json", "dumps"), ("orjson", "dumps"), ("sys", "stdout")}


def writes(node: ast.AST) -> bool:
    """Whether node renders JSON or reaches stdout: json.dumps, orjson.dumps
    or sys.stdout named, or a print with no file=sys.stderr."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in RENDERERS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        return not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords)
    return False


def test_only_emit_renders_json_or_writes_stdout():
    tree = ast.parse(CLI.read_text())
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        found += [(owner, node.lineno) for node in ast.walk(top) if writes(node)]
    # the names can only be reached as attributes of their modules
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module in ("json", "orjson", "sys") for alias in node.names]
    assert not imported
    assert found and {owner for owner, _ in found} == {"_emit"}, (
        "a writer besides _emit:\n"
        + "\n".join(f"cli.py:{line} in {owner}" for owner, line in found if owner != "_emit"))
