"""No library name that only tests read.

Every public module-level function or class and every public method in
``src/hitchinlab`` must be referenced from ``src/`` or ``perfbench/``: as a
name, as an attribute, or as an identifier string, since
``perfbench/tracing.py`` wraps functions by their name strings.  Every public
dataclass field and every public attribute set in an ``__init__`` must be
read there: as an attribute, or as an identifier string.  So must every
public module-level constant: as a name, as an attribute, or as an
identifier string, its own assignment not counted.  The sources are
parsed, so a docstring that mentions a name is no reference.  The checks go
by name alone, so a field whose name some other object's attribute shares
passes.

Private names are held to the same rule: every private module-level
function, class and constant, and every private method, must be read in
``src/`` or ``perfbench/``, so a refactor that orphans a helper fails here.
Dunder methods are called by the language and are not checked.

Every name a library module imports at its top level must be read in that
module or listed in its ``__all__``, so a deletion cannot leave an import
behind; ``from __future__ import annotations`` is exempt.

The CLI's config surface is checked the same way: every top-level config
key that ``cli.py`` reads is documented in the README's CLI section, and no
key of ``cli._RETIRED_KEYS`` is read anywhere in ``src/``.

Arrow coefficients have one owner: only ``system.py`` evaluates them
(``arrow_coefficients``, ``eval_norm_squared``), and every reduction in
``analysis`` and ``maxprin`` reads them from the state's system, so no
function there takes a spec beside a state (``pullback_metric``, whose
spec is checked against its state's, excepted).
"""

import ast
import re
from pathlib import Path

from hitchinlab.cli import _RETIRED_KEYS

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "hitchinlab").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree):
    """(qualified name, name) of public module-level functions and classes
    and of public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _is_dataclass(node):
    for decorator in node.decorator_list:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _public_fields(tree):
    """(qualified name, name) of public dataclass fields and of public
    attributes that an ``__init__`` sets on ``self``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                names = [item.target.id]
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                names = [sub.attr for sub in ast.walk(item)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", name


def _identifier_strings(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _reads(tree):
    """Attribute loads and identifier strings: how a field is read."""
    yield from _identifier_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _public_constants(tree):
    """Names that public module-level assignments bind."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and not sub.id.startswith("_"):
                    yield sub.id


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_names(tree):
    """(qualified name, name) of private module-level functions, classes and
    constants, and of private methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and _is_private(sub.id):
                        yield sub.id, sub.id


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    yield from _identifier_strings(tree)


def test_every_public_library_name_has_a_caller_outside_the_tests():
    referenced = {name for path in CALLERS for name in _references(_parse(path))}
    defined = [(f"{path.stem}.{qualified}", name) for path in LIBRARY
               for qualified, name in _public_definitions(_parse(path))]
    assert not [qualified for qualified, name in defined if name not in referenced]


def test_every_public_field_is_read_outside_the_tests():
    read = {name for path in CALLERS for name in _reads(_parse(path))}
    fields = [(f"{path.stem}.{qualified}", name) for path in LIBRARY
              for qualified, name in _public_fields(_parse(path))]
    assert fields
    assert not [qualified for qualified, name in fields if name not in read]


def test_every_public_constant_is_read_outside_the_tests():
    read = {node.id for path in CALLERS for node in ast.walk(_parse(path))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {name for path in CALLERS for name in _reads(_parse(path))}
    constants = [(f"{path.stem}.{name}", name) for path in LIBRARY
                 for name in _public_constants(_parse(path))]
    assert constants
    assert not [qualified for qualified, name in constants if name not in read]


def test_every_private_library_name_is_read_outside_the_tests():
    read = {node.id for path in CALLERS for node in ast.walk(_parse(path))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {name for path in CALLERS for name in _reads(_parse(path))}
    names = [(f"{path.stem}.{qualified}", name) for path in LIBRARY
             for qualified, name in _private_names(_parse(path))]
    assert names
    assert not [qualified for qualified, name in names if name not in read]


def _imported_names(tree):
    """Names that the module's top-level imports bind, but the future import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))


def test_every_import_is_used():
    unused = []
    for path in LIBRARY:
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= set(_exported_names(tree))
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree) if name not in read]
    assert not unused


def _mapping_reads(tree):
    """(mapping node, key) of each constant string key read from a mapping:
    ``m.get("k", ...)``, ``m["k"]`` and ``"k" in m``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args):
            mapping, key = node.func.value, node.args[0]
        elif isinstance(node, ast.Subscript):
            mapping, key = node.value, node.slice
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            mapping, key = node.comparators[0], node.left
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield mapping, key.value


def _config_keys():
    """The top-level keys that ``cli.py`` reads from a loaded config, ``cfg``."""
    tree = _parse(ROOT / "src" / "hitchinlab" / "cli.py")
    return {key for mapping, key in _mapping_reads(tree)
            if isinstance(mapping, ast.Name) and mapping.id == "cfg"}


def test_every_config_key_the_cli_reads_is_documented():
    readme = (ROOT / "README.md").read_text()
    cli_section = readme[readme.index("## CLI"):readme.index("## Library use")]
    keys = _config_keys()
    assert {"grid", "spec", "solver", "seed"} <= keys
    assert not [key for key in sorted(keys)
                if not re.search(rf'`{key}[`.]|"{key}":', cli_section)]


def test_no_retired_config_key_is_read():
    assert _RETIRED_KEYS
    read = {key for path in LIBRARY for _, key in _mapping_reads(_parse(path))}
    assert not read & set(_RETIRED_KEYS)


COEFFICIENT_EVALUATORS = {"arrow_coefficients", "eval_norm_squared"}


def test_only_the_system_evaluates_arrow_coefficients():
    stray = []
    for path in LIBRARY:
        if path.stem == "system":
            continue
        tree = _parse(path)
        names = set(_references(tree)) | {alias.name for node in ast.walk(tree)
                                          if isinstance(node, ast.ImportFrom)
                                          for alias in node.names}
        stray += [f"{path.stem}.{name}" for name in sorted(names & COEFFICIENT_EVALUATORS)]
    assert not stray


def _parameter_kind(arg):
    """"spec" or "state" for a parameter annotated or named as one, else None."""
    annotation = ast.unparse(arg.annotation) if arg.annotation else ""
    if "CyclicSpec" in annotation or arg.arg == "spec" or arg.arg.startswith("spec_"):
        return "spec"
    if "LogMetricState" in annotation or "state" in arg.arg.split("_"):
        return "state"
    return None


def test_no_reduction_takes_a_spec_beside_a_state():
    both = []
    for path in LIBRARY:
        if path.stem not in ("analysis", "maxprin"):
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef) and node.name != "pullback_metric":
                a = node.args
                kinds = {_parameter_kind(arg) for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if {"spec", "state"} <= kinds:
                    both.append(f"{path.stem}.{node.name}")
    assert not both
