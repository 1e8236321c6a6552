"""The package's surface: every public module-level function and class of
``vsrlab`` has a caller inside the package, so no code exists only for tests,
and no module reaches into another module's private names.

A definition counts as used when its name appears as a ``Name``, as an
``Attribute`` or in a ``from ... import`` anywhere in ``src/vsrlab`` outside
its own body. Matching is by bare name, so the check is a lower bound: a
function named ``decode`` would count as used through ``bytes.decode``.
"""

import ast
from collections import Counter
from pathlib import Path

import vsrlab

# Definitions kept without a caller in the package, each with its reason.
ALLOWED = {
    # round-trip oracle for lingware.write_arpa in tests/test_lingware.py
    ("lingware", "read_arpa"),
    # single-utterance decoding; the benchmark's tracer wraps it by name
    ("decoder", "decode_frames"),
}


def _referenced_names(tree):
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(vsrlab.__file__).parent.glob("*.py"))}
    referenced = Counter()
    for tree in trees.values():
        referenced.update(_referenced_names(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (module, node.name) in ALLOWED:
                continue
            if referenced[node.name] == _referenced_names(node)[node.name]:
                unused.append(f"{module}.{node.name}")
    assert not unused, f"public definitions with no caller in src/vsrlab: {unused}"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_uses_another_modules_private_names():
    package = Path(vsrlab.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").split(".")[0] == "vsrlab")]
        # "from . import hmm" binds a module; "from .hmm import f" takes a name
        aliases = {alias.asname or alias.name for node in imports for alias in node.names
                   if node.module in (None, "vsrlab") and alias.name in modules}
        found += [f"{path.stem}: from {node.module} import {alias.name}"
                  for node in imports if node.module not in (None, "vsrlab")
                  for alias in node.names if _is_private(alias.name)]
        found += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and _is_private(node.attr)]
    assert not found, f"private names used across vsrlab modules: {found}"
