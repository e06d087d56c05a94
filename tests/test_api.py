import ast
import importlib
import pathlib

import pytest

MODULES = ["hierarchy", "resnet", "cornergraph", "penergy", "measure", "heat",
           "mixedcarpet", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"resdimlab.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    """Every imported name is used in its module or re-exported in __all__."""
    path = pathlib.Path(importlib.import_module(f"resdimlab.{name}").__file__)
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(importlib.import_module(f"resdimlab.{name}").__all__)
    assert sorted(imported - used - exported) == []


# public names kept without a caller in src/, each for a named reason; a
# method or property is listed as Class.name
UNCALLED_ON_PURPOSE = {
    "doubling_check": "volume doubling constant (bench spectral volume step)",
    "psi_measure": "interior-child psi-measure (bench spectral psi step)",
    "PsiMeasure.neighbor_comparability": "psi neighbour comparability (bench spectral psi step)",
    "PsiMeasure.growth_exponent": "psi volume growth exponent (bench spectral psi step)",
}


def _named(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name}
    return set()


def _public_definitions(tree, public):
    """(label, definition) for every function and class of the module that
    its __all__ names, and every public method or property of such a class,
    labelled Class.name; the methods a public class inherits from a private
    base class of the same module are labelled with the public class."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in public:
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                bases = [classes[b.id] for b in node.bases if isinstance(b, ast.Name)
                         and b.id.startswith("_") and b.id in classes]
                for owner in [node] + bases:
                    for item in owner.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            yield f"{node.name}.{item.name}", item


def _is_property(fn):
    return any(_named(d) & {"property", "cached_property"} for d in fn.decorator_list)


def _names_definition(node, label, own, classes):
    """Whether `node` names the definition `own` labelled `label`.  A function
    or class is named by a name, an attribute or a from-import, a property by
    an attribute, and a method only by a call x.method(...) or by Cls.method
    for a class Cls of the package, so that neither a local variable nor a
    data attribute of the same name counts for a method."""
    if "." not in label:
        return own.name in _named(node)
    if _is_property(own):
        return isinstance(node, ast.Attribute) and node.attr == own.name
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == own.name
    return (isinstance(node, ast.Attribute) and node.attr == own.name
            and isinstance(node.value, ast.Name) and node.value.id in classes)


def test_public_functions_are_called():
    """Every function and class in a module's __all__, and every public
    method or property of such a class, is named somewhere in the package
    outside its own definition (`_names_definition`); the package's __init__
    re-exports are not callers."""
    pkg = pathlib.Path(importlib.import_module("resdimlab").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(pkg.glob("*.py"))
             if path.name != "__init__.py"}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    classes = {node.name for node in nodes if isinstance(node, ast.ClassDef)}
    uncalled = []
    for name in MODULES:
        public = set(importlib.import_module(f"resdimlab.{name}").__all__)
        for label, own in _public_definitions(trees[name], public):
            if label in UNCALLED_ON_PURPOSE:
                continue
            inside = {id(node) for node in ast.walk(own)}
            if not any(id(node) not in inside and _names_definition(node, label, own, classes)
                       for node in nodes):
                uncalled.append(f"{name}.{label}")
    assert uncalled == []


# optional parameters kept with no caller in src/ or bench/ setting them, each
# for a named reason
UNSET_ON_PURPOSE = {
    "penergy.critical_p(tol)": "ROADMAP item 5 runs the bisection at tol 0.001 and 0.002",
}


def _parameters():
    """(module.qualname(param), the name a call uses, the positional
    parameters in order, the parameter, its default or None) for every
    parameter of every public function and every public method, or
    constructor, of a public class; a constructor is called by its class's
    name."""
    pkg = pathlib.Path(importlib.import_module("resdimlab").__file__).parent
    for name in MODULES:
        tree = ast.parse((pkg / f"{name}.py").read_text())
        public = set(importlib.import_module(f"resdimlab.{name}").__all__)
        defs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for cls, fn in defs:
            owner = fn.name if cls is None else cls.name
            if owner not in public or (fn.name.startswith("_") and fn.name != "__init__"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            if cls is not None and not any(_named(d) == {"staticmethod"}
                                           for d in fn.decorator_list):
                args = args[1:]  # self or cls
            positional = [a.arg for a in args]
            defaults = [None] * (len(args) - len(fn.args.defaults)) + list(fn.args.defaults)
            called = cls.name if fn.name == "__init__" else fn.name
            qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
            for param, default in (list(zip(positional, defaults))
                                   + [(a.arg, d) for a, d in zip(fn.args.kwonlyargs,
                                                                 fn.args.kw_defaults)]):
                yield f"{name}.{qualname}({param})", called, positional, param, default


def _optional_parameters():
    """(module.qualname(param), the name a call uses, the positional
    parameters in order, the optional ones) for every optional parameter of
    `_parameters`."""
    for label, called, positional, param, default in _parameters():
        if default is not None:
            yield label, called, positional, param


def _calls(files):
    """(name called, call, its positional arguments before any starred one)
    for every call in `files`; `cls(...)` inside a class calls that class."""
    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            count = next((i for i, a in enumerate(node.args)
                          if isinstance(a, ast.Starred)), len(node.args))
            for called in _named(node.func):
                yield owner if called == "cls" and owner else called, node, node.args[:count]
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    for path in files:
        yield from visit(ast.parse(path.read_text()), None)


def _set_parameters():
    """name -> (most positional arguments of a call, keywords set) over every
    call in src/ and bench/.  Starred arguments set nothing, and no position
    after them."""
    root = pathlib.Path(importlib.import_module("resdimlab").__file__).parent
    files = [p for p in sorted(root.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((pathlib.Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    seen = {}
    for called, node, args in _calls(files):
        most, keys = seen.get(called, (0, set()))
        seen[called] = (max(most, len(args)),
                        keys | {k.arg for k in node.keywords if k.arg is not None})
    return seen


def test_optional_parameters_are_set():
    """Every optional parameter of a public function or method is set, by
    keyword or by position, by some call in src/ or bench/: a default that no
    caller changes is a constant."""
    seen = _set_parameters()
    unset = []
    for label, called, positional, param in _optional_parameters():
        most, keys = seen.get(called, (0, set()))
        if param not in keys and param not in positional[:most] and label not in UNSET_ON_PURPOSE:
            unset.append(label)
    assert unset == []


# parameters that every call sets to one constant, kept for a named reason
ONE_VALUE_ON_PURPOSE = {
    "penergy.critical_p(tol)": "ROADMAP item 5 runs the bisection at tol 0.001 and 0.002",
    "measure.doubling_check(samples)":
        "the bench spectral volume step, dropped with it (ROADMAP item 7)",
    "measure.psi_measure(eps)": "criterion 12 and the bench spectral psi step (ROADMAP item 7)",
}


def _is_constant(node):
    """Whether `node` is a literal, an upper-case module constant, or a call
    on such constants."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_constant(node.operand)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(map(_is_constant, node.elts))
    if isinstance(node, (ast.Name, ast.Attribute)):
        return next(iter(_named(node))).isupper()
    if isinstance(node, ast.Call):
        return all(_is_constant(a) for a in node.args + [k.value for k in node.keywords])
    return False


def _arguments():
    """name -> [(the positional arguments before any starred one, the keyword
    arguments by name, whether a starred or ** argument may set more)] over
    every call in src/, bench/ and tests/test_acceptance.py."""
    root = pathlib.Path(__file__).resolve().parents[1]
    pkg = pathlib.Path(importlib.import_module("resdimlab").__file__).parent
    files = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    calls = {}
    for called, node, args in _calls(files):
        keys = {k.arg: k.value for k in node.keywords if k.arg is not None}
        more = len(args) < len(node.args) or len(keys) < len(node.keywords)
        calls.setdefault(called, []).append((args, keys, more))
    return calls


def test_parameters_take_two_values():
    """No parameter of a public function, method or constructor takes the
    same constant (`_is_constant`) at every call in src/, bench/ and
    tests/test_acceptance.py, an omitted optional parameter taking its
    default: an input that no command, report, bench step or acceptance
    criterion varies is a constant of the code."""
    calls = _arguments()
    constant = []
    for label, called, positional, param, default in _parameters():
        values = []
        for args, keys, more in calls.get(called, []):
            index = positional.index(param) if param in positional else len(args)
            if param in keys:
                values.append(keys[param])
            elif index < len(args):
                values.append(args[index])
            else:
                values.append(None if more else default)
        if (values and all(v is not None and _is_constant(v) for v in values)
                and len({ast.dump(v) for v in values}) == 1
                and label not in ONE_VALUE_ON_PURPOSE):
            constant.append(label)
    assert constant == []


# functions whose returned dict is written whole, so that no key has a reader
# of its own, each for a named reason, as module.function
UNREAD_ON_PURPOSE = {
    "hierarchy.PartitionHierarchy.cells_json": "cli._write_json writes the whole dict",
}


def _returned_keys(fn):
    """The string keys of the dict literals that `fn` returns, not counting
    the functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            yield from (k.value for k in node.value.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        stack.extend(ast.iter_child_nodes(node))


def _returned_values(tree, public):
    """(label, key, definition) for every string key of a dict literal that a
    public function or method returns, and every field of a public dataclass."""
    for label, own in _public_definitions(tree, public):
        if isinstance(own, ast.FunctionDef):
            yield from ((label, key, own) for key in dict.fromkeys(_returned_keys(own)))
        elif any(_named(d.func if isinstance(d, ast.Call) else d) == {"dataclass"}
                 for d in own.decorator_list):
            yield from ((label, item.target.id, own) for item in own.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def _read(node, field):
    """The name that `node` reads: a dataclass field (`field` true) by an
    attribute load, a dict key by a constant-string subscript load or by the
    constant key of a .get call."""
    if field:
        is_load = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        return node.attr if is_load else None
    if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)):
        return node.slice.value
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args and isinstance(node.args[0], ast.Constant)):
        return node.args[0].value
    return None


def test_returned_values_are_read():
    """Every string key of a dict literal returned by a public function or
    method, and every field of a public dataclass, is read (`_read`) in src/,
    bench/ or tests/test_acceptance.py, outside its own definition: a value
    that no command, report, bench step or acceptance criterion reads is not
    returned."""
    root = pathlib.Path(__file__).resolve().parents[1]
    pkg = pathlib.Path(importlib.import_module("resdimlab").__file__).parent
    files = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    nodes = [node for path in files for node in ast.walk(ast.parse(path.read_text()))]
    unread = []
    for name in MODULES:
        public = set(importlib.import_module(f"resdimlab.{name}").__all__)
        tree = ast.parse((pkg / f"{name}.py").read_text())
        for label, key, own in _returned_values(tree, public):
            if f"{name}.{label}" in UNREAD_ON_PURPOSE:
                continue
            field = isinstance(own, ast.ClassDef)
            inside = {id(node) for node in ast.walk(own)}
            if not any(id(node) not in inside and _read(node, field) == key for node in nodes):
                unread.append(f"{name}.{label}.{key}" if field else f"{name}.{label}[{key}]")
    assert unread == []
