"""Static guards over the source: every tolerance key is read, every import is used,
and every rank decision reads the one rank rule."""

import ast
import pathlib

from accretive.tolerances import DEFAULTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "accretive"
# A package's __init__ imports names only to re-export them.
MODULES = sorted(
    p for p in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_tolerance_key_is_read_by_the_library():
    # A key no check reads would let --tol-override accept it and change nothing.
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tolerance"):
                assert len(node.args) == 1 and isinstance(node.args[0], ast.Constant), (
                    f"{path.name}:{node.lineno}: tolerance() takes one literal key")
                read.add(node.args[0].value)
    assert sorted(set(DEFAULTS) - read) == [], "DEFAULTS keys that no check reads"
    assert sorted(read - set(DEFAULTS)) == [], "keys read that DEFAULTS lacks"


def _unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    unused = [item for path in MODULES for item in _unused_imports(path)]
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_rank_rule_has_one_home():
    # An eps-scaled cutoff written anywhere but linops.rank_cutoff would be a
    # second rank rule: no other module takes machine epsilon, and linops
    # reads its _EPS only inside the rule.
    for path in PACKAGE.glob("*.py"):
        if path.name == "linops.py":
            continue
        for node in ast.walk(_tree(path)):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name not in ("finfo", "float_info"), (
                f"{path.name}:{node.lineno}: machine epsilon outside linops.rank_cutoff")
    tree = _tree(PACKAGE / "linops.py")
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "rank_cutoff")

    def reads(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Name) and node.id == "_EPS"
                and isinstance(node.ctx, ast.Load)]

    assert reads(rule), "rank_cutoff does not read _EPS"
    assert reads(tree) == reads(rule), "linops reads _EPS outside rank_cutoff"
