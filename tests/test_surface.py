"""The package's public surface carries nothing unused.

Walks the syntax trees of src/blochlab and fails on an import a module never
uses, on an import inside a function (no module needs one to break an import
cycle, and a call-time import hides a dependency), on a public function,
class or method that nothing in src/ or bench/ refers to (a name only tests
call is API that nothing calls), on a name the package's top level exports
beside its submodules (a re-export list would let every name count as
referred to), on `holo` importing from an estimator module, on a module other
than `reports` and `mapspec` referring to the [re, im] codec, on a module constant
that nothing reads, or on a defaulted parameter of a public
function that no call there passes: such an option is fixed by construction
and belongs in the code as a constant.  The defaulted fields of a public
@dataclass count as parameters of the class call.  Calls and references are
matched by name, so a parameter counts as passed when any call of that name
passes it.

The benchmark's tracer binds a few call signatures by name, so those are
pinned here as well, and its patcher is run once to check that every name it
wraps exists and is put back.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
import types
from collections import Counter
from pathlib import Path

import blochlab
from blochlab import criteria
from blochlab.criteria import make_boundary_paths
from blochlab.holo import Series, identity_map
from blochlab.sampling import stratified_grid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blochlab"
CALLER_DIRS = ("src", "tests", "bench")
# the code a public name must be referred to from
REFERRER_DIRS = ("src", "bench")


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _public_functions(tree):
    """(call name, function node, index of its first caller-supplied positional)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield node.name, item, 1
                elif not item.name.startswith("_"):
                    yield item.name, item, 0 if static else 1


def _is_dataclass(cls):
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _dataclass_fields(tree):
    """(class name, field, positional index) of each defaulted field of a public
    @dataclass with no __init__ of its own, whose generated __init__ takes
    every field as a parameter, in order."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and _is_dataclass(node)):
            continue
        if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
               for item in node.body):
            continue
        fields = [item for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        for i, item in enumerate(fields):
            if item.value is not None:
                yield node.name, item.target.id, i


def _defaulted(fn, skip):
    """(name, positional index or None) of each parameter that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls():
    """Callee name -> list of (positional count, *-splat, keyword names, **-splat)."""
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                calls.setdefault(name, []).append((
                    sum(not isinstance(a, ast.Starred) for a in node.args),
                    any(isinstance(a, ast.Starred) for a in node.args),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(k.arg is None for k in node.keywords)))
    return calls


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}: {imp}" for imp in _imported_names(tree) if imp not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_call_time_imports():
    nested = sorted({f"{name}:{node.lineno}"
                     for name, tree in _modules().items()
                     for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not nested, "imports inside functions: " + ", ".join(nested)


def test_every_defaulted_parameter_is_passed():
    calls = _calls()
    never = []
    for module, tree in _modules().items():
        params = [(call_name, param, index)
                  for call_name, fn, skip in _public_functions(tree)
                  for param, index in _defaulted(fn, skip)]
        for call_name, param, index in params + list(_dataclass_fields(tree)):
            passed = any(
                param in keywords or star_kw
                or (index is not None and (n_pos > index or star))
                for n_pos, star, keywords, star_kw in calls.get(call_name, []))
            if not passed:
                never.append(f"{module}: {call_name}({param})")
    assert not never, "defaulted parameters no call passes: " + ", ".join(never)


def _is_click_command(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Attribute) and d.attr in ("command", "group"):
            return True
    return False


def _public_definitions(tree):
    """(name, node) of each public top-level function or class and each public
    method of a public class; click commands are entry points, not API."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not _is_click_command(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _referenced_names(tree):
    """Names a tree refers to: bare names, attributes, and identifier strings
    (the bench binds its probes by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_public_name_is_referenced():
    references = Counter()
    for folder in REFERRER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            references.update(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [f"{module}: {name}"
              for module, tree in _modules().items()
              for name, node in _public_definitions(tree)
              if references[name] <= sum(n == name for n in _referenced_names(node))]
    assert not unused, "public names nothing refers to: " + ", ".join(unused)


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _module_constants(tree):
    """Names bound by the module's top-level assignments that are spelled as
    constants (UPPER_CASE, with or without a leading underscore)."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    yield name.id


def test_every_module_constant_is_read():
    reads = Counter()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    reads[node.attr] += 1
    unread = [f"{module}: {name}"
              for module, tree in _modules().items()
              for name in _module_constants(tree) if not reads[name]]
    assert not unread, "module constants nothing reads: " + ", ".join(unread)


# the representation layer sits below the estimators that use it
LOWER_LAYER = ("holo.py",)
UPPER_LAYER = {"sampling", "norms", "criteria", "suites", "oracle"}


def _imported_modules(tree):
    """Last dotted part of every module a tree imports from, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def test_lower_layer_imports_no_estimator():
    modules = _modules()
    upward = [f"{name}: {imported}" for name in LOWER_LAYER
              for imported in _imported_modules(modules[name]) if imported in UPPER_LAYER]
    assert not upward, "lower-layer modules import estimators: " + ", ".join(upward)


def test_package_top_level_holds_only_modules():
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"blochlab.{path.stem}")
    stray = sorted(name for name, value in vars(blochlab).items()
                   if not name.startswith("_")
                   and not (isinstance(value, types.ModuleType)
                            and value.__name__ == f"blochlab.{name}"))
    assert not stray, "blochlab exports non-module names: " + ", ".join(stray)


def test_benchmark_binding_contract():
    """bench/tracing.py binds stratified_grid's arguments by name (dim, plan, and
    rng, None for a fresh seeded generator), binds make_boundary_paths's phi,
    mode and count by name (count None for 16n image rays or 16 coordinate
    rays), and counts term points of Series.val(Z) as len(self.coeffs) times
    the points."""
    grid = inspect.signature(stratified_grid).parameters
    assert list(grid) == ["dim", "plan", "rng"] and grid["rng"].default is None
    paths = inspect.signature(make_boundary_paths).parameters
    assert list(paths) == ["phi", "mode", "axis", "count", "seed"]
    assert paths["count"].default is None
    assert list(inspect.signature(Series.val).parameters) == ["self", "Z"]
    f = Series({(2, 0, 1): 1.0, (0, 1, 0): -0.5j, (0, 0, 0): 0.25}, 3)
    assert type(f.coeffs) is dict and len(f.coeffs) == 3
    assert all(type(e) is tuple and len(e) == 3 and all(type(k) is int for k in e)
               for e in f.coeffs)


def _bindings():
    """Every attribute of every loaded blochlab module and of each class
    defined there, keyed by (owner, name)."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "blochlab" and not mod_name.startswith("blochlab."):
            continue
        for key, value in vars(module).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                out.update({((mod_name, key), k): v for k, v in vars(value).items()})
    return out


def test_benchmark_tracer_installs_and_restores():
    """bench/tracing.py wraps blochlab functions by name; a name it wraps that
    no longer exists fails here rather than in the benchmark's traced run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    phi = identity_map(1)
    before = _bindings()
    classify = criteria.classify
    with tracing.Patcher() as patcher:
        tracer = tracing.Tracer(types.SimpleNamespace(current="op"))
        tracer.install(patcher)
        assert criteria.classify is not classify
        criteria.component_sup_estimates(phi)
        assert [span[0] for span in tracer.spans] == ["criteria.component_sup_estimates"]
    after = _bindings()
    assert after.keys() == before.keys()
    moved = sorted(str(key) for key, value in before.items() if after[key] is not value)
    assert not moved, "left patched: " + ", ".join(moved)


# the [re, im] codec: reports defines it and encodes records with it, and
# mapspec writes specs with it; every other module goes through them
CODEC = {"complex_pair", "complex_pairs"}
CODEC_USERS = ("reports.py", "mapspec.py")


def test_only_the_serialization_layers_use_the_codec():
    users = sorted(name for name, tree in _modules().items()
                   if CODEC & {*_referenced_names(tree), *_imported_names(tree)})
    stray = [name for name in users if name not in CODEC_USERS]
    assert not stray, "modules that use the [re, im] codec directly: " + ", ".join(stray)
