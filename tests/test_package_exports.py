"""Every name a package lists in __all__ exists on it and the program uses
it, the program reads every member of every class it defines, and no
module of the program or of its tests imports a name it never reads."""

import ast
import importlib
import inspect
import pkgutil
import textwrap
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import fracspec

PACKAGES = (
    "fracspec",
    "fracspec.cantor",
    "fracspec.geometry",
    "fracspec.fourier",
    "fracspec.tauberian",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def program_trees():
    """The parsed modules of fracspec other than the package __init__
    files, which only import and re-export."""
    for path in Path(fracspec.__file__).parent.rglob("*.py"):
        if path.name != "__init__.py":
            yield ast.parse(path.read_text(), filename=str(path))


def used_names() -> set:
    """Names loaded or read as attributes in the modules of fracspec.  A
    definition (def, class, or an assignment target) is not a use, and
    neither is an import."""
    used = set()
    for tree in program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def read_attributes() -> set:
    """Attribute names the modules of fracspec read, as in obj.name in a
    load context.  A bare name is not a read of a member: a local or a
    parameter of the same name says nothing about the field."""
    return {
        node.attr
        for tree in program_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_are_used(name):
    """An export that no module of the program uses is library code only
    tests reach: wire it into an experiment or criterion, or delete it."""
    used = used_names()
    unused = [export for export in importlib.import_module(name).__all__ if export not in used]
    assert unused == []


def program_classes():
    """Every class defined in a module of fracspec, exported or not."""
    for info in pkgutil.walk_packages(fracspec.__path__, "fracspec."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                yield value


def class_members():
    """(Class.member, member) for the methods, properties and annotated
    fields a class of the program defines itself; dunder methods are
    called by the language, not read, and are left out, and so are the
    methods the standard library generates, such as a NamedTuple's _make,
    _replace and _asdict."""
    seen = {}
    for cls in program_classes():
        members = []
        for attr, value in vars(cls).items():
            if isinstance(value, (classmethod, staticmethod)) or inspect.isfunction(value):
                # unwrapped, a generated method names the module that made it
                if getattr(value, "__func__", value).__module__ == cls.__module__:
                    members.append(attr)
            elif isinstance(value, (property, cached_property)):
                members.append(attr)
        members += list(vars(cls).get("__annotations__", {}))
        for attr in members:
            if not (attr.startswith("__") and attr.endswith("__")):
                seen[f"{cls.__name__}.{attr}"] = attr
    return seen


# A member name that two or more classes define is read for all of them by
# one obj.name anywhere, so each such Class.member names a function of the
# program that reads it from that class.
SHARED_READERS = {
    "CantorLevel.denominator": "fracspec.experiments.run_construct",
    "CantorLevel.length": "fracspec.experiments.run_construct",
    "CantorParams.ratio": "fracspec.experiments.run_minkowski",
    "CantorParams.seed": "fracspec.cantor.io.write_params",
    "CriterionResult.wall_time_s": "fracspec.acceptance.run_criterion",
    "DensityVerdict.as_dict": "fracspec.experiments._run_radial_scan",
    "DensityVerdict.rows": "fracspec.acceptance.criterion_verdict_formulas",
    "ExperimentConfig.digest": "fracspec.experiments.run_experiment",
    "MollifierRow.j": "fracspec.experiments.run_mollify",
    "MollifierSweep.notes": "fracspec.experiments.run_mollify",
    "MollifierSweep.rows": "fracspec.experiments.run_mollify",
    "OctaveDiagnostics.rows": "fracspec.experiments.run_fourier",
    "OctaveRow.j": "fracspec.experiments.run_fourier",
    "OctaveRow.ratio": "fracspec.fourier.annuli._diagnostics",
    "ReportRecord.digest": "fracspec.experiments.ReportRecord.to_dict",
    "ReportRecord.experiment": "fracspec.experiments.ReportRecord.to_dict",
    "ReportRecord.wall_time_s": "fracspec.experiments.ReportRecord.to_dict",
    "Tube.denominator": "fracspec.geometry.intervals.Tube.volume",
    "Tube.length": "fracspec.geometry.intervals.Tube.volume",
    "VerdictRow.as_dict": "fracspec.tauberian.verdict.DensityVerdict.as_dict",
    "_ExperimentConfigFields.experiment": "fracspec.experiments.run_experiment",
    "_ExperimentConfigFields.seed": "fracspec.experiments._params_from_config",
    "_PointCloudFields.denominator": "fracspec.geometry.cloud._check_eps",
    "_VerdictRowFields.notes": "fracspec.tauberian.verdict.VerdictRow.as_dict",
}


def function_reads(qualified: str, attr: str) -> bool:
    """Whether the function at module.function (or module.Class.method)
    reads .attr in a load context."""
    source = inspect.getsource(pkgutil.resolve_name(qualified))
    return any(
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == attr
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
    )


def test_all_members_are_used():
    """A method, property or field that no module of the program reads as
    an attribute is library surface only tests reach: use it in the
    program or delete it.  A name more than one class defines counts as
    read only where SHARED_READERS says, in the function it names."""
    members = class_members()
    read = read_attributes()
    unused = sorted(qualified for qualified, attr in members.items() if attr not in read)
    assert unused == []
    owners = Counter(members.values())
    shared = {qualified for qualified, attr in members.items() if owners[attr] > 1}
    assert sorted(shared) == sorted(SHARED_READERS)
    unread = sorted(
        qualified
        for qualified in shared
        if not function_reads(SHARED_READERS[qualified], members[qualified])
    )
    assert unread == []


def import_scan_paths():
    """The modules of fracspec and of its test suite."""
    yield from sorted(Path(fracspec.__file__).parent.rglob("*.py"))
    yield from sorted(Path(__file__).parent.rglob("*.py"))


def unused_imports(path: Path) -> list:
    """Names a module binds by a module-level import and never loads.  A
    name the module lists in __all__ is exported, which counts as a read,
    and `from __future__` imports are compiler directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            # `import a.b` binds a
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read - exported)


def test_no_unused_imports():
    """An import nothing reads is dead weight, and in the program it is a
    dependency the code does not have."""
    unused = {}
    for path in import_scan_paths():
        names = unused_imports(path)
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}


CACHE_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONTAINERS = {"dict", "list", "set"}


def is_cache_decorator(node) -> bool:
    """functools.lru_cache or functools.cache, called or bare, by either
    spelling."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in CACHE_DECORATORS


def is_empty_container(node) -> bool:
    """{}, [], or a call of dict, list or set with no arguments."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in EMPTY_CONTAINERS
        and not node.args
        and not node.keywords
    )


def process_state(path: Path) -> list:
    """Module-level functions and methods a module caches across calls,
    and module-level names it binds to an empty container to fill later."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, functions)]
        else:
            defs = [(node.name, node)] if isinstance(node, functions) else []
        found += [name for name, f in defs if any(map(is_cache_decorator, f.decorator_list))]
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if is_empty_container(node.value):
                found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_no_process_wide_state():
    """A cache or container that outlives the call that fills it makes a
    result depend on what ran earlier in the process, and tests must clear
    it.  State is scoped to one call, as in a closure's lru_cache."""
    found = {}
    for path in sorted(Path(fracspec.__file__).parent.rglob("*.py")):
        names = process_state(path)
        if names:
            found[f"{path.parent.name}/{path.name}"] = names
    assert found == {}
