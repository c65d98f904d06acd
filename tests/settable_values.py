"""Count the settable values of ``src/amg``: every defaulted parameter of a
public function, public method or ``__init__``, plus every defaulted field of
a dataclass that its ``__init__`` accepts.

    python3 tests/settable_values.py [-v] [SRC_DIR]

``-v`` lists each value before the total.  ``SRC_DIR`` defaults to ``src/amg``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", "") == "field"
        and any(k.arg == "init" and getattr(k.value, "value", None) is False for k in value.keywords)
    )


def _walk(body: list[ast.stmt], where: str, out: list[str]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out += [f"{where}{node.name}({name})" for name in named]
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                out += [
                    f"{where}{node.name}.{st.target.id}"
                    for st in node.body
                    if isinstance(st, ast.AnnAssign)
                    and st.value is not None
                    and "ClassVar" not in ast.unparse(st.annotation)
                    and not _init_false(st.value)
                ]
            _walk(node.body, f"{where}{node.name}.", out)


def settable_values(root: Path) -> list[str]:
    out: list[str] = []
    for path in sorted(root.rglob("*.py")):
        _walk(ast.parse(path.read_text()).body, f"{path.relative_to(root)}:", out)
    return out


if __name__ == "__main__":
    paths = [a for a in sys.argv[1:] if a != "-v"]
    found = settable_values(Path(paths[0] if paths else "src/amg"))
    if "-v" in sys.argv:
        print("\n".join(found))
    print(len(found))
