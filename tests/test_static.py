"""Static guards over the source: every tolerance key is read, every import is used,
every rank decision reads the one rank rule and every accretivity decision the
one accretivity threshold, only the samplers draw random numbers, every public
library name, private module-level name and dataclass field has a reader, and
every option is used at its default and set."""

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


def test_accretivity_rule_has_one_home():
    # tolerance("accretivity") read anywhere but linops.accretivity_tol would
    # be a second accretivity threshold.
    def reads(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tolerance"
                and getattr(node.args[0], "value", None) == "accretivity"]

    tree = _tree(PACKAGE / "linops.py")
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "accretivity_tol")
    assert reads(rule), "accretivity_tol does not read tolerance('accretivity')"
    for path in PACKAGE.glob("*.py"):
        found = reads(_tree(path))
        if path.name == "linops.py":
            found = [line for line in found if line not in reads(rule)]
        assert not found, f"{path.name}:{found}: tolerance('accretivity') outside accretivity_tol"


def test_only_the_samplers_draw_random_numbers():
    # A global claim found by sampling, such as the 48-vector second-power
    # sampler that a certified bracket replaced, is not a certificate: no
    # module but sampling reads numpy's random module.
    for path in PACKAGE.glob("*.py"):
        if path.name == "sampling.py":
            continue
        for node in ast.walk(_tree(path)):
            reads = (isinstance(node, ast.Attribute) and node.attr == "random"
                     and getattr(node.value, "id", None) in ("np", "numpy"))
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = []
            imports = any(name == "random" or name.startswith(("random.", "numpy.random"))
                          for name in names)
            assert not (reads or imports), f"{path.name}:{node.lineno}: random numbers"


# Public names that no library module or demo reads, each kept for a reason.
UNREAD_ALLOWED = {
    "support_excess": "the benchmark's analyze workload calls it (ROADMAP item 1)",
    "eval_pencil": "the tests' reference Q(lambda), written once in the library",
    "write_vector": "writes vector files in the format the CLI reads",
}


def test_every_public_library_name_has_a_reader():
    # A reader is another library module, the name's own module, or a demo;
    # the __init__ re-export and the tests do not count.
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    reads = set()
    for path in [*readers, *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    public = {node.name for path in readers for node in _tree(path).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(public - reads - set(UNREAD_ALLOWED)) == [], "public names nothing reads"
    assert sorted(set(UNREAD_ALLOWED) - (public - reads)) == [], "allowed names that now have a reader"


def test_every_private_library_name_is_read():
    # A module-level private function, class or constant that no library
    # module reads is what a deleted route leaves behind, such as a solve
    # cap whose only reader is gone.  Readers are names and attributes
    # anywhere in src/accretive, the defining module included.
    trees = {path.name: _tree(path) for path in PACKAGE.glob("*.py")}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    private = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                lhs = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in lhs if isinstance(t, ast.Name)]
            else:
                targets = []
            private |= {(name, t) for t in targets if t.startswith("_") and not t.startswith("__")}
    assert private, "no private names found"
    unread = sorted(f"{module}:{name}" for module, name in private if name not in reads)
    assert not unread, f"private names nothing in the library reads: {unread}"


# Dataclass fields that are neither read in the library or a demo nor reported
# through their class's as_dict, each kept for a reason.
UNREAD_FIELDS_ALLOWED = {}


def _reports_every_compared_field(cls):
    # as_dict written as {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
    return any(isinstance(fn, ast.FunctionDef) and fn.name == "as_dict"
               and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields"
                       for node in ast.walk(fn))
               for fn in cls.body)


def _compared(stmt):
    # A field(...) default with compare=False is left out of comparisons and as_dict.
    call = stmt.value
    return not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "field"
                and any(k.arg == "compare" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in call.keywords))


def test_every_dataclass_field_has_a_reader():
    # A field is read as .name in the library or a demo, or reaches a report
    # through its class's as_dict; the tests do not count.
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    reads = {node.attr for path in [*readers, *(ROOT / "demos").glob("*.py")]
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}
    unread = set()
    for path in readers:
        for cls in _tree(path).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
                continue
            reported = _reports_every_compared_field(cls)
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                name = stmt.target.id
                if name not in reads and not (reported and _compared(stmt)):
                    unread.add(f"{cls.name}.{name}")
    assert len(UNREAD_FIELDS_ALLOWED) <= 3, "keep the allow-list short"
    assert sorted(unread - set(UNREAD_FIELDS_ALLOWED)) == [], "dataclass fields nothing reads"
    assert sorted(set(UNREAD_FIELDS_ALLOWED) - unread) == [], "allowed fields that now have a reader"


def test_dataclasses_holding_arrays_declare_eq_false():
    # A generated __eq__ compares fields as tuples, so == on an ndarray field
    # raises ValueError (truth value of an array) and hash() TypeError.  Every
    # dataclass with a compared ndarray field declares eq=False, and so does
    # each dataclass it derives from: a subclass with eq=False inherits its
    # base's generated __eq__, which would compare the base's fields alone.
    classes = {}
    for path in PACKAGE.glob("*.py"):
        for cls in _tree(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [d for d in cls.decorator_list if _name(getattr(d, "func", d)) == "dataclass"]
            if not decorators:
                continue
            eq_false = any(k.arg == "eq" and getattr(k.value, "value", True) is False
                           for d in decorators for k in getattr(d, "keywords", []))
            arrays = any(isinstance(stmt, ast.AnnAssign) and _compared(stmt)
                         and ast.unparse(stmt.annotation) == "np.ndarray" for stmt in cls.body)
            classes[cls.name] = (path.name, eq_false, arrays, [_name(b) for b in cls.bases])
    required = {name for name, (_, _, arrays, _) in classes.items() if arrays}
    pending = list(required)
    while pending:
        for base in classes[pending.pop()][3]:
            if base in classes and base not in required:
                required.add(base)
                pending.append(base)
    assert {"Operator", "PinvResult", "BvpProblem", "QuadraticPencil"} <= required
    missing = sorted(f"{classes[name][0]}:{name}" for name in required if not classes[name][1])
    assert not missing, f"dataclasses holding arrays without eq=False: {missing}"


# Defaulted parameters of public library functions that the library, the
# benchmark and the demos do not both leave at the default and set, each
# kept for a reason.
ONE_VALUE_OPTIONS_ALLOWED = {}
# Calls that forward their second argument's call: tr.call(label, fn, ...) in
# the benchmark and spectral._stage(label, fn, ...).
FORWARDERS = {"call", "_stage"}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _defaulted(fn):
    # (position or None for keyword-only, name, default) per defaulted parameter
    a = fn.args
    pos = [*a.posonlyargs, *a.args]
    first = len(pos) - len(a.defaults)
    return [*((first + i, arg.arg, d) for i, (arg, d) in enumerate(zip(pos[first:], a.defaults))),
            *((None, arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d)]


def test_every_option_is_used_at_its_default_and_set():
    # A call uses the default by leaving the parameter out or by passing the
    # default literal; an option that only one value reaches is a constant.
    public = {node.name: node for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
              for node in _tree(path).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
               *(ROOT / "demos").glob("*.py")]
    uses, sets = set(), set()
    for path in callers:
        for call in ast.walk(_tree(path)):
            if not isinstance(call, ast.Call):
                continue
            name, args = _name(call.func), call.args
            if name in FORWARDERS and len(args) >= 2:
                name, args = _name(args[1]), args[2:]
            if name not in public:
                continue
            splat = (any(isinstance(arg, ast.Starred) for arg in args)
                     or any(k.arg is None for k in call.keywords))
            given = {k.arg: k.value for k in call.keywords if k.arg}
            for i, param, default in _defaulted(public[name]):
                value = given.get(param, args[i] if i is not None and i < len(args) else None)
                if value is not None and ast.dump(value) != ast.dump(default):
                    sets.add(f"{name}({param})")
                elif value is not None or not splat:
                    uses.add(f"{name}({param})")
    options = {f"{name}({param})" for name, fn in public.items() for _, param, _ in _defaulted(fn)}
    one_value = options - (uses & sets)
    assert len(ONE_VALUE_OPTIONS_ALLOWED) <= 3, "keep the allow-list short"
    assert sorted(one_value - set(ONE_VALUE_OPTIONS_ALLOWED)) == [], "options with one value in use"
    assert sorted(set(ONE_VALUE_OPTIONS_ALLOWED) - one_value) == [], "allowed options now in use"
