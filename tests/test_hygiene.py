"""Source hygiene: every name a library module imports is used there, and
every function a library module defines has a caller."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "diffeolin"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_module_is_checked():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def imported_modules(node):
    """The modules an import statement reads, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {"." * node.level + (node.module or "")}
    return set()


def top_level_imports(tree):
    return set().union(*map(imported_modules, tree.body))


# Library module -> the library modules it imports at top level.
TOP_LEVEL_GRAPH = {
    p.stem: {m[1:] for m in top_level_imports(ast.parse(p.read_text())) if m.startswith(".")}
    for p in MODULES
}


def imports_at_top_level(importer, target):
    """Whether loading the library module ``importer`` loads ``target``
    through top-level imports, directly or through other modules."""
    seen, stack = set(), [importer]
    while stack:
        module = stack.pop()
        if module == target:
            return True
        if module not in seen:
            seen.add(module)
            stack.extend(TOP_LEVEL_GRAPH.get(module, ()))
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_import_only_what_the_module_does_not(path):
    """An import inside a function defers loading a module, which is needed
    only to break an import cycle: the module must be a library module that
    imports this one at top level, directly or through other modules, and
    not one this file already imports at top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = top_level_imports(tree)
    nested = [f"{module} (line {node.lineno})" for node in ast.walk(tree)
              if all(node is not stmt for stmt in tree.body)
              for module in sorted(imported_modules(node))
              if module in top or not (module.startswith(".")
                                       and imports_at_top_level(module[1:], path.stem))]
    assert not nested, f"{path.name} imports inside a function: {', '.join(nested)}"


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_another(path):
    """A leading underscore keeps a name inside its module: no library
    module imports one from another, so a private helper has one module's
    callers only, and a second module that needs it needs a public name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{alias.name} from .{node.module or ''} (line {node.lineno})"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: " + ", ".join(private)


# The descriptor classes, and the dual, which is a space with the fine one.
DESCRIPTOR_KINDS = {"Fine", "Coarse", "Generated", "SumOf", "TensorOf", "Pushforward", "DualSpace"}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_switches_on_the_kind_of_a_descriptor(path):
    """Each descriptor is the only code that knows its kind: it describes,
    presents and generates itself (``spaces.Descriptor``).  So no library
    module calls ``isinstance`` or ``issubclass`` with a descriptor class or
    ``DualSpace``, and a new kind is one class and a new question about
    every kind one method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    switches = [f"line {node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and len(node.args) == 2
                and getattr(node.func, "id", None) in ("isinstance", "issubclass")
                and DESCRIPTOR_KINDS & set(referenced_names(node.args[1]))]
    assert not switches, f"{path.name} switches on a descriptor kind: " + ", ".join(switches)


# The modules above linalg that decide membership: they hand vectors to
# linalg, which alone knows how a vector becomes integers.
LINALG_CLIENTS = ("spaces", "hom", "bilinear", "tensor")


@pytest.mark.parametrize("stem", LINALG_CLIENTS)
def test_the_integer_format_stays_behind_linalg(stem):
    """A membership client reads no ``.numerator``, ``.denominator``,
    ``as_integer_ratio`` or the Fraction slots ``_numerator`` and
    ``_denominator``: scaling a vector to integers, one read per entry, is
    linalg's ``integer_support`` and ``integer_family``.  (Nor does it import
    a private linalg name, by the test above.)"""
    path = SOURCE / f"{stem}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    format_names = ("numerator", "denominator", "as_integer_ratio", "_numerator", "_denominator")
    reads = [f".{node.attr} (line {node.lineno})" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in format_names]
    assert not reads, f"{path.name} reaches into the integer format: " + ", ".join(reads)


def membership_calls(node):
    """The calls under ``node`` that test a vector against a subspace."""
    return {sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in ("contains", "contains_support", "contains_subspace")}


def test_one_test_decides_plots_maps_and_forms():
    """``spaces.first_outside`` is the one place where the modules that
    decide plots, linear maps and bilinear forms test a row against a step
    of a flag: a second copy of the test could drift from the first.
    (``tensor_dual_iso`` checks its certificate on its own, as the
    independent reference.)"""
    trees = {stem: ast.parse((SOURCE / f"{stem}.py").read_text())
             for stem in ("spaces", "hom", "bilinear")}
    the_test = next(membership_calls(node) for name, node, _ in defined_functions(trees["spaces"])
                    if name == "first_outside")
    assert the_test
    stray = [f"{stem}.py line {call.lineno}" for stem, tree in trees.items()
             for call in membership_calls(tree) if call not in the_test]
    assert not stray, "membership tested outside spaces.first_outside: " + ", ".join(stray)


def eliminations(tree):
    """(innermost function around it, line) for every call of ``_eliminate``."""
    owner = {}
    for qualname, node, _ in defined_functions(tree):
        for sub in ast.walk(node):
            owner[sub] = qualname
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call) and "_eliminate" in (getattr(sub.func, "id", None),
                                                          getattr(sub.func, "attr", None)):
            yield owner.get(sub, "<module>"), sub.lineno


def test_only_subspace_reaches_the_elimination():
    """``linalg._eliminate`` has one way in: ``Subspace.from_supports`` spans
    rows and ``_annihilator_form`` computes an annihilator.  ``rref``,
    ``rank``, ``solve``, ``invert`` and ``in_row_span`` are views of the
    ``Subspace`` of their rows, so a second conversion into and out of the
    integer rows could drift from the first."""
    callers = {}
    for path in SOURCE.glob("*.py"):
        for owner, line in eliminations(ast.parse(path.read_text())):
            callers.setdefault(f"{path.stem}.{owner}", []).append(line)
    assert set(callers) == {"linalg.Subspace.from_supports", "linalg._annihilator_form"}, (
        f"_eliminate called from {callers}")


TRACER = SOURCE.parent.parent / "perfbench" / "tracer.py"


def defined_functions(tree):
    """(qualified name, def node, is a method) for every function and
    method; a method is a function defined directly in a class body."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child, in_class
                yield from walk(child, prefix + child.name + ".", False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", True)
            else:
                yield from walk(child, prefix, in_class)
    yield from walk(tree, "", False)


def referenced_names(node, attributes_only=False):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name) and not attributes_only:
            yield sub.id


def class_attributes(node):
    """``Name.attr`` for every attribute read off a bare name, such as
    ``Subspace.from_rows``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield f"{sub.value.id}.{sub.attr}"


def is_staticmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def tracer_names():
    """``module.qualified name`` for every entry of the tracer's PUBLIC table."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "PUBLIC" for t in node.targets))
    return {f"{module}.{name}" for module, names in table.items() for name in names}


def uncalled_functions():
    """``module.qualified name`` -> line of every function and method under
    src/diffeolin that nothing in src/ references outside its own body and
    __init__.py does not export; dunder methods are called by Python itself.
    A method counts as referenced only through an attribute (``x.name``), so
    a bare name that happens to match it does not keep it alive, and a
    staticmethod only through its class (``Class.name``), so a method of the
    same name on another class does not keep it alive either."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCE.glob("*.py")}
    uses = Counter(name for tree in trees.values() for name in referenced_names(tree))
    attribute_uses = Counter(name for tree in trees.values()
                             for name in referenced_names(tree, attributes_only=True))
    class_uses = Counter(name for tree in trees.values() for name in class_attributes(tree))
    exported = {name for name, _ in imported_names(trees["__init__"])}
    uncalled = {}
    for module, tree in trees.items():
        for qualname, node, method in defined_functions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if method and is_staticmethod(node):
                name = ".".join(qualname.split(".")[-2:])
                counted, own = class_uses, Counter(class_attributes(node))[name]
            else:
                counted = attribute_uses if method else uses
                own = Counter(referenced_names(node, attributes_only=method))[name]
            if not (counted[name] > own or (not method and name in exported)):
                uncalled[f"{module}.{qualname}"] = node.lineno
    return uncalled


def test_every_function_has_a_caller():
    """Every function and method under src/diffeolin has a caller in src/,
    is exported from __init__.py, or is looked up by the benchmark tracer."""
    traced = tracer_names()
    orphans = [f"{name} (line {line})" for name, line in uncalled_functions().items()
               if name not in traced]
    assert not orphans, "defined but never called: " + ", ".join(orphans)


# The functions that only the tracer's PUBLIC table keeps alive: nothing in
# src/ calls them and __init__.py does not export them.  Each goes when the
# tracer stops looking it up.
TRACER_ONLY = {
    "atoms.FunctionExpr.evaluate", "atoms.FunctionExpr.evaluate_float",
    "atoms.FunctionExpr.singular_residue",
    "bilinear.BilinearForm.left_slice", "bilinear.BilinearForm.right_slice",
    "hom.LinearMap.compose", "linalg.Subspace.add", "linalg.Subspace.contains_subspace",
    "linalg.Subspace.map_by", "linalg.in_row_span", "linalg.nullspace", "linalg.rank",
    "linalg.rref", "linalg.solve", "spaces.Plot.residue_rows", "spaces.Plot.slice",
    "spaces.Presentation.rows_up_to", "spaces.default_slack_degree",
}


def test_the_tracer_keeps_alive_only_the_pinned_functions():
    """A function that loses its last caller in src/ but stays in the
    tracer's PUBLIC table passes the test above; here it changes this set
    and fails, so it is deleted or pinned on purpose.  A pinned function that
    gains a caller, or leaves the table, must leave the set too."""
    traced = tracer_names()
    kept = {name for name in uncalled_functions() if name in traced}
    assert kept == TRACER_ONLY, (f"newly kept only by the tracer: {sorted(kept - TRACER_ONLY)}; "
                                 f"no longer: {sorted(TRACER_ONLY - kept)}")


def test_every_traced_name_exists():
    """The benchmark tracer wraps each entry of its PUBLIC table when it is
    installed and fails on one that is gone, so each must resolve as the
    tracer resolves it: a module attribute, or ``Class.__dict__[attr]``."""
    missing = []
    for full in sorted(tracer_names()):
        layer, _, dotted = full.partition(".")
        module = importlib.import_module(f"diffeolin.{layer}")
        cls_name, _, attr = dotted.rpartition(".")
        if cls_name:
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(full)
    assert not missing, "traced but not defined: " + ", ".join(missing)
