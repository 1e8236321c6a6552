"""The package's surface: every public module-level function and class of
``vsrlab`` has a caller inside the package, so no code exists only for tests,
no module reaches into another module's private names, and no library
parameter restates a default that ``ExperimentConfig`` declares.

A definition counts as used when its name appears as a ``Name``, as an
``Attribute`` or in a ``from ... import`` anywhere in ``src/vsrlab`` outside
its own body. Matching is by bare name, so the check is a lower bound: a
function named ``decode`` would count as used through ``bytes.decode``.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import vsrlab
from vsrlab import experiment

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


# Library parameters that carry a config key's value under another name.
CONFIG_ALIASES = {
    "margin": "roi_margin",
    "channels": "ae_channels",
    "bottleneck": "ae_bottleneck",
    "epochs": "ae_epochs",
    "lr": "ae_lr",
    "batch_size": "ae_batch",
    "n_resamples": "bootstrap",
    "topology_kind": "topology",
}

# Defaults kept for a config key's name, each with its reason.
DEFAULTS_ALLOWED = {
    # the one home of every config default
    ("experiment", "ExperimentConfig"),
    # corpus synthesis seeds its own lexicon and speakers; the config's seed
    # drives training, and a corpus is made once, before any config
    ("corpus", "default_lexicon"),
    ("corpus", "SynthSpec"),
}


def _public_callables():
    """(module, qualified name, function) for every public function of
    ``vsrlab`` and every public method and ``__init__`` of its public
    classes; a dataclass's ``__init__`` takes its fields."""
    for info in pkgutil.iter_modules(vsrlab.__path__):
        module = importlib.import_module(f"vsrlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield info.name, name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if ((attr == "__init__" or not attr.startswith("_"))
                            and inspect.isfunction(member)):
                        yield info.name, f"{name}.{attr}", member


def test_no_library_parameter_restates_a_config_default():
    keys = set(experiment.CONFIG_DEFAULTS)
    assert set(CONFIG_ALIASES.values()) <= keys
    restated = []
    for module, name, obj in _public_callables():
        if (module, name.split(".")[0]) in DEFAULTS_ALLOWED:
            continue
        for param in inspect.signature(obj).parameters.values():
            if (param.default is not param.empty
                    and (param.name in keys or param.name in CONFIG_ALIASES)):
                restated.append(f"{module}.{name}({param.name}={param.default!r})")
    assert not restated, ("parameters that restate a config default; take the "
                          f"value from ExperimentConfig instead: {restated}")
