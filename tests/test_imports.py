"""Every name a `legnet` module imports is used somewhere in that module,
every module-level private name is read somewhere in the package, every
public tape primitive has a caller in the model and in the gradient check
of every primitive, every package attribute the benchmark's workloads read
exists, and the runtime needs no module beyond numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legnet
from legnet import connectome, diffmath, model, synthgen

MODULES = sorted(Path(legnet.__file__).parent.glob("*.py"))
MODEL = Path(model.__file__)
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RUNTIME_SMOKE = Path(__file__).with_name("runtime_smoke.py")
DIFFMATH_TESTS = Path(__file__).with_name("test_diffmath.py")
PACKAGE = {m.__name__.rsplit(".", 1)[1]: m for m in (connectome, diffmath, model, synthgen)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unused_private_names(sources: list[str]) -> list[str]:
    """Module-level `_names` (functions, classes, assigned names) that no
    expression in any of the sources reads, as a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def uncalled_tape_methods(source: str) -> list[str]:
    """Public `Tape` methods that the source never calls as `tape.<name>(...)`."""
    called = {node.func.attr for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "tape"}
    public = {name for name, value in vars(diffmath.Tape).items()
              if callable(value) and not name.startswith("_")}
    return sorted(public - called)


def function_source(source: str, name: str) -> str:
    """The source of the module-level function `name`."""
    node = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(source, node)


def missing_attributes(source: str, modules: dict) -> list[str]:
    """`module.name` reads in the source, for the given module names, that
    the module does not define."""
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules
                   and not hasattr(modules[node.value.id], node.attr)})


def test_checker_finds_an_unused_import():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


def test_checker_finds_an_unused_private_name():
    defines = "_A = 1\n_B: int = 2\n_C, D = 3, 4\ndef _f():\n    return _A\nclass _G:\n    pass\n"
    reads = "from m import _f\nimport m\n_f()\nm._C\n"
    assert unused_private_names([defines, reads]) == ["_B", "_G"]


def test_checker_finds_an_uncalled_tape_method():
    source = MODEL.read_text().replace("tape.softmax_lastaxis(", "tape.other(")
    assert uncalled_tape_methods(source) == ["softmax_lastaxis"]


def test_checker_finds_a_missing_attribute():
    source = ("atlas = connectome.build_toy_atlas()\nconnectome.no_such_function(atlas)\n"
              "model.MODEL_KINDS\nmodel.FORWARDS.gone\nother.anything\n")
    assert missing_attributes(source, PACKAGE) == ["connectome.no_such_function"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_package_reads_every_private_name():
    assert unused_private_names([path.read_text() for path in MODULES]) == []


def test_model_calls_every_tape_primitive():
    # a primitive that no model stage calls is dead code in the tape
    assert uncalled_tape_methods(MODEL.read_text()) == []


def test_every_primitive_has_a_gradient_check():
    # the central-difference check calls each primitive inside its build();
    # a primitive added without a call there has an unchecked backward
    source = function_source(DIFFMATH_TESTS.read_text(),
                             "test_every_primitive_matches_central_differences")
    assert uncalled_tape_methods(source) == []


def test_benchmark_workloads_read_only_defined_names():
    # a renamed or deleted function otherwise surfaces only in the slower
    # `python -m pytest perfbench` run
    assert missing_attributes(WORKLOADS.read_text(), PACKAGE) == []


def test_runtime_runs_without_scipy():
    # scipy is the tests' oracle, not a runtime dependency: the smoke script
    # blocks it, then generates, validates and scores a small cohort
    src = str(Path(legnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(RUNTIME_SMOKE)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "runtime smoke test passed without scipy" in result.stdout
