"""The top-level package loads each layer on first use (PEP 562), no
module imports a name it never uses, and only `jsonl` holds the rule that
turns a malformed document into a ConfigError and the rule that reads a
number."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import oft
from conftest import src_env
from setup_without_numpy import quickstart

# what the benchmark's set-up (import, default network, default allocation
# model) must leave unloaded
SKIPPED_BY_SETUP = ("oft.microworld", "oft.physio", "oft.adapt", "oft.regulation",
                    "oft.taskload", "oft.pipeline", "oft.effortclass", "oft.cocom")


# imported and never read on purpose: bench/spans.py rebinds these names in
# pipeline to time their layers (ROADMAP item 1)
UNUSED_ON_PURPOSE = {"pipeline.py": {"fuzzify", "task_difficulty"}}


def fresh(code):
    """The JSON printed by `code` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_setup_loads_only_fusion_and_allocation():
    loaded = fresh(
        "def oft_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'oft')\n"
        "import oft\n"
        "bare = oft_modules()\n"
        "oft.MwlNetwork.default(); oft.default_bike_model()\n"
        "print(json.dumps([bare, oft_modules(), 'numpy' in sys.modules]))\n"
    )
    assert loaded[0] == ["oft"]
    assert loaded[1] == ["oft", "oft.dfaplan", "oft.errors", "oft.fusion", "oft.jsonl"]
    assert not set(SKIPPED_BY_SETUP) & set(loaded[1])
    assert loaded[2] is False  # numpy's import alone took most of the set-up time


def test_setup_and_quickstart_queries_run_with_numpy_blocked():
    script = Path(__file__).with_name("setup_without_numpy.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=60, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == quickstart()


def test_each_name_is_its_submodules_object():
    for name in oft.__all__:
        if name == "__version__":
            continue
        # call the loader directly: an earlier access may have bound the name already
        value = oft.__getattr__(name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("oft.") and getattr(home, name) is value, name
        assert getattr(oft, name) is value, name


def test_star_import_and_dir_list_every_name():
    names = fresh("from oft import *\nprint(json.dumps(sorted(dir())))\n")
    assert set(oft.__all__) <= set(names)
    listed = fresh("import oft\nprint(json.dumps(dir(oft)))\n")
    assert set(oft.__all__) <= set(listed)
    modules = {path.stem for path in Path(oft.__file__).parent.glob("*.py")} - {"__init__"}
    assert modules <= set(listed)
    assert set(dir(oft)) >= set(listed)


def test_submodule_as_attribute():
    got = fresh(
        "import oft\n"
        "physio = oft.physio\n"
        "print(json.dumps([physio.__name__, oft.per_second_frames is physio.per_second_frames,"
        " oft.pipeline.__name__]))\n"
    )
    assert got == ["oft.physio", True, "oft.pipeline"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'oft' has no attribute 'no_such_name'"):
        oft.no_such_name
    assert not hasattr(oft, "bandpass")  # a submodule's name is not re-exported
    with pytest.raises(ImportError):
        exec("from oft import no_such_name", {})


def unused_imports(path):
    """The names a module imports and never reads, __future__ features aside."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused for path in sorted(Path(oft.__file__).parent.glob("*.py"))
             if (unused := unused_imports(path))}
    assert found == UNUSED_ON_PURPOSE


def config_error_reraises(tree):
    """The lines of the `except ConfigError:` handlers (a tuple naming it
    too) whose body only re-raises: the first rung of a copy of the rule in
    `jsonl.config_errors`."""
    def names_config_error(node):
        if isinstance(node, ast.Tuple):
            return any(map(names_config_error, node.elts))
        return (isinstance(node, ast.Name) and node.id == "ConfigError"
                or isinstance(node, ast.Attribute) and node.attr == "ConfigError")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and names_config_error(node.type)
            and all(isinstance(stmt, ast.Raise) and stmt.exc is None for stmt in node.body)]


def test_only_jsonl_keeps_the_refusal_rule():
    found = {path.name: lines for path in sorted(Path(oft.__file__).parent.glob("*.py"))
             if (lines := config_error_reraises(ast.parse(path.read_text())))}
    assert set(found) == {"jsonl.py"} and len(found["jsonl.py"]) == 1


def test_refusal_rule_finder_sees_each_form():
    source = "\n".join([
        "try: f()\nexcept ConfigError: raise",
        "try: f()\nexcept errors.ConfigError:\n    raise",
        "try: f()\nexcept (ConfigError, KeyError): raise",
        "try: f()\nexcept ConfigError as exc: print(exc)",
        "try: f()\nexcept ValueError: raise",
        "try: f()\nexcept: raise",
        "try: f()\nexcept ConfigError: raise Other()",
    ])
    assert config_error_reraises(ast.parse(source)) == [2, 4, 7]


def number_type_tests(tree):
    """The lines that import `numbers` or name Integral or Real: the makings
    of a copy of `jsonl.number` or `jsonl.is_integer`."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "numbers"
                or isinstance(node, ast.Name) and node.id in ("Integral", "Real")
                or isinstance(node, ast.Attribute) and node.attr in ("Integral", "Real")):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_jsonl_keeps_the_number_rule():
    found = {path.name for path in sorted(Path(oft.__file__).parent.glob("*.py"))
             if number_type_tests(ast.parse(path.read_text()))}
    assert found == {"jsonl.py"}


def builtin_sums(source):
    """Each use of builtin `sum` in `source`, a call or a bare name, as its
    text in source order, but `sum(1 for ...)`: the makings of a float sum
    that does not go through `jsonl.float_sum`."""
    def counts_ones(call):
        (arg,) = call.args if len(call.args) == 1 and not call.keywords else (None,)
        return (isinstance(arg, ast.GeneratorExp) and isinstance(arg.elt, ast.Constant)
                and type(arg.elt.value) is int and arg.elt.value == 1)

    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = [calls.get(id(node), node) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sum"]
    return [ast.get_source_segment(source, node)
            for node in sorted(uses, key=lambda n: (n.lineno, n.col_offset))
            if not (isinstance(node, ast.Call) and counts_ones(node))]


# builtin sum() kept on integers: a tick's 0/1 activity flags, which
# regulation.TaskTick checks when it is made
INTEGER_SUMS = {"regulation.py": ["sum(tick.at.values())", "sum(tick.ot.values())"]}


def test_floats_are_added_only_by_float_sum():
    found = {path.name: uses for path in sorted(Path(oft.__file__).parent.glob("*.py"))
             if (uses := builtin_sums(path.read_text()))}
    assert found == INTEGER_SUMS


def test_sum_finder_sees_each_form():
    source = "\n".join([
        "sum(1 for x in xs)",
        "sum(x for x in xs)",
        "sum(xs)",
        "sum(1.0 for x in xs)",
        "sum(True for x in xs)",
        "sum(1 for x in xs) + sum(xs, 0.0)",
        "map(sum, rows)",
        "np.sum(xs) + xs.sum() + float_sum(xs)",
    ])
    assert builtin_sums(source) == [
        "sum(x for x in xs)", "sum(xs)", "sum(1.0 for x in xs)", "sum(True for x in xs)",
        "sum(xs, 0.0)", "sum"]


def test_modules_import_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; scipy is a test-only oracle
    imported = set()
    for path in Path(oft.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) == {"numpy"}


def test_number_rule_finder_sees_each_form():
    source = "\n".join([
        "import numbers",
        "import os, numbers as n",
        "from numbers import Integral",
        "isinstance(x, numbers.Real)",
        "isinstance(x, Real)",
        "import numpy",
        "isinstance(x, (int, float))",
        "from .jsonl import is_integer",
    ])
    assert number_type_tests(ast.parse(source)) == [1, 2, 3, 4, 5]
