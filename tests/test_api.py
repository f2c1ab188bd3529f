"""The package's public names resolve, no module imports a name it never
uses, no function takes a parameter it never reads, every function and
class has a caller besides its own unit tests, every parameter with a
default is set by such a caller, every experiment is run and every config
field set by a caller outside the package, and no function takes a
measure next to the system or path the measure carries.  Every exemption
from these checks names something its check would otherwise flag.

Deleting a function or a code path should take its exports, its imports
and its arguments with it; these checks catch the leftovers a deletion
leaves behind.  A caller is the package itself, a demo, a bench script or
an acceptance check.  A unit test does not count: a definition that only
its own test reaches serves no estimator, command or report.  Neither does
a package `__init__` re-export or an `__all__` entry, which name a
definition without using it.
"""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import fkent
from fkent.harness import EXPERIMENTS, ExperimentConfig

SRC = Path(fkent.__file__).resolve().parent
ROOT = SRC.parent.parent
# every file whose names count as a use: the package, demos, bench scripts
# and the acceptance checks, but no unit test and no re-export
CALLERS = [
    path
    for d in ("src", "demos", "bench")
    for path in (ROOT / d).rglob("*.py")
    if path != SRC / "__init__.py"
] + [ROOT / "tests" / "test_acceptance.py"]
# Exemptions from the caller checks below.  Each must name an existing
# definition, parameter or field that its check would otherwise flag:
# test_every_exemption_is_needed fails on a stale or needless entry.
# definitions kept although only unit tests call them: each is the
# independent reference another definition is checked against
REFERENCE_ORACLES = {
    "mismatch_entropy_budget": "the FK-vs-Bowen comparison reports this bound beside each gap",
}
# parameters with a default kept although no caller sets them
UNSET_OPTIONS: dict[str, str] = {}
# config fields kept although no caller sets them
UNSET_FIELDS = {
    "pair_budget": "the larger explicit budget exit code 4 asks for",
}
# submodules only: __init__.py imports names in order to re-export them
MODULES = [info.name for info in pkgutil.iter_modules([str(SRC)]) if info.name != "__main__"]


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return names


def test_public_names_resolve():
    assert MODULES
    for name in MODULES:
        module = importlib.import_module(f"fkent.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"fkent.{name}.__all__ names missing {public!r}"
    for public in _imported_names(_tree("__init__")):
        assert hasattr(fkent, public), f"fkent does not export {public!r}"


def test_no_unused_imports():
    unused = []
    for name in MODULES:
        tree = _tree(name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"fkent.{name}: {imported}" for imported in _imported_names(tree) if imported not in used]
    assert unused == []


def test_no_unread_parameters():
    unread = []
    for name in MODULES + ["__init__"]:
        for node in ast.walk(_tree(name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            label = getattr(node, "name", "<lambda>")
            unread += [f"fkent.{name}.{label}: {p}" for p in params if p not in ("self", "cls") and p not in read]
    assert unread == []


def _unused_strings(tree: ast.AST) -> set[int]:
    """ids of the string constants that name nothing: docstrings and `__all__` entries."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            ids.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return ids


def _named(tree: ast.AST) -> set[str]:
    """Names a tree uses: names, attributes, import aliases and the dotted
    segments of space-free string constants (docstrings and `__all__`
    entries excluded)."""
    docs = _unused_strings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            if not any(c.isspace() for c in node.value):
                names.update(node.value.split("."))
    return names


def _unnamed_definitions() -> list[tuple[str, str]]:
    """The functions, methods and classes no caller names: (name,
    qualified name) pairs."""
    named = set()
    for path in CALLERS:
        named |= _named(ast.parse(path.read_text()))
    unnamed = []
    for name in MODULES + ["__init__"]:
        for node in ast.walk(_tree(name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in named:
                unnamed.append((node.name, f"fkent.{name}.{node.name}"))
    return unnamed


def test_every_definition_is_named_elsewhere():
    # a function, method or class whose name no caller mentions is dead code
    assert [qual for n, qual in _unnamed_definitions() if n not in REFERENCE_ORACLES] == []


def _option_settings() -> tuple[dict[str, set[str]], dict[str, int], set[str]]:
    """What the callers pass, per called name: the keywords, the most
    positional arguments, and whether any call spreads *args or **kwargs."""
    keywords: dict[str, set[str]] = {}
    positions: dict[str, int] = {}
    spread: set[str] = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                spread.add(name)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
            positions[name] = max(positions.get(name, 0), len(node.args))
    return keywords, positions, spread


def _unset_options() -> list[tuple[str, str]]:
    """The defaulted parameters no caller sets: (`function.parameter`
    label, qualified name) pairs."""
    keywords, positions, spread = _option_settings()
    unset = []
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name in spread:
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args if a.arg not in ("self", "cls")]
            first = len(positional) - len(args.defaults)
            options = [(i, p) for i, p in enumerate(positional) if i >= first]
            options += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for index, param in options:
                label = f"{node.name}.{param}"
                by_position = index is not None and positions.get(node.name, 0) > index
                if not by_position and param not in keywords.get(node.name, ()):
                    unset.append((label, f"fkent.{name}.{label}"))
    return unset


def test_every_option_is_set_by_a_caller():
    # a parameter with a default that no caller sets is a knob with one
    # value in use: that value belongs in the code, and the branches only
    # other values reach are dead
    assert [qual for label, qual in _unset_options() if label not in UNSET_OPTIONS] == []


def _caller_strings_and_fields() -> tuple[set[str], set[str]]:
    """The string constants the callers hold, and the config fields they
    set: keywords of ExperimentConfig, dict, replace and load_config calls,
    `key =` lines of INI text, and `--flag` strings."""
    strings: set[str] = set()
    fields: set[str] = set()
    for path in CALLERS:
        if path.is_relative_to(SRC):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("ExperimentConfig", "dict", "replace", "load_config"):
                    fields.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
                fields.update(re.findall(r"^\s*(\w+)\s*=", node.value, flags=re.MULTILINE))
                if node.value.startswith("--"):
                    fields.add(node.value[2:].replace("-", "_"))
    return strings, fields


def _unset_fields() -> list[str]:
    """The config fields no caller sets."""
    _, fields = _caller_strings_and_fields()
    return [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in fields]


def test_every_experiment_and_config_field_has_a_caller():
    # an experiment no caller runs, or a config field no caller sets, is a
    # second path through the harness that only its unit tests exercise
    strings, _ = _caller_strings_and_fields()
    unrun = [f"experiment {e}" for e in EXPERIMENTS if e not in strings]
    unset = [f"field {f}" for f in _unset_fields() if f not in UNSET_FIELDS]
    assert unrun + unset == []


def test_every_exemption_is_needed():
    # an exemption that names nothing, or whose check passes without it,
    # would keep a later leftover alive unseen
    unnamed = {n for n, _ in _unnamed_definitions()}
    unset = {label for label, _ in _unset_options()}
    needless = [f"REFERENCE_ORACLES {n}" for n in REFERENCE_ORACLES if n not in unnamed]
    needless += [f"UNSET_OPTIONS {label}" for label in UNSET_OPTIONS if label not in unset]
    needless += [f"UNSET_FIELDS {f}" for f in UNSET_FIELDS if f not in _unset_fields()]
    assert needless == []


def test_only_matching_names_the_slack_rule():
    # how FK relates to Bowen is decided in matching (ball_kind,
    # slack_band, inclusion_violations); a module that names the slack
    # rule itself decides it for itself
    deciders = [
        f"fkent.{name}"
        for name in MODULES + ["__init__"]
        if name != "matching" and _named(_tree(name)) & {"match_slack", "match_target"}
    ]
    assert deciders == []


def test_only_spanning_names_the_slope_fit():
    # every table is fitted by spanning.entropy_from_counts, one banded
    # fit for every estimator; a module that names fit_log_slope fits a
    # table of its own
    fitters = [
        f"fkent.{name}"
        for name in MODULES + ["__init__"]
        if name != "spanning" and "fit_log_slope" in _named(_tree(name))
    ]
    assert fitters == []


def test_only_systems_decides_circle_closeness():
    # every circle ball test thresholds |u - v| with systems.circle_within,
    # which builds no gap array; circle_gap stays where the distance itself
    # is the answer, and a kernel that names it folds the gap by hand
    assert "circle_gap" not in _named(_tree("spanning"))
    callers = sorted(
        node.name
        for node in ast.walk(_tree("matching"))
        if isinstance(node, ast.FunctionDef) and "circle_gap" in _named(node)
    )
    assert callers == ["bowen_distance", "pair_distance_matrix"]


def test_measure_carries_system_and_path():
    # an EmpiricalMeasure holds its system and driving path, so a second
    # copy of either beside it could only disagree with the measure
    doubled = []
    for name in MODULES + ["__init__"]:
        for node in ast.walk(_tree(name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            params = {a.arg for a in args}
            typed = any(isinstance(a.annotation, ast.Name) and a.annotation.id == "EmpiricalMeasure" for a in args)
            if ("measure" in params and params & {"system", "omega"}) or (typed and params & {"system", "omega", "path"}):
                doubled.append(f"fkent.{name}.{node.name}")
    assert doubled == []
