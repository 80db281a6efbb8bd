"""Every global name a framekit module reads must be defined or a builtin.

No linter runs over the package, so a call to a name that was never imported
(``combinations`` where only ``itertools`` is imported, say) surfaces only as a
``NameError`` when that line first runs.  This scan compiles each module's
source and checks every ``LOAD_GLOBAL``/``LOAD_NAME`` against the imported
module's namespace, so such a fault fails here even on a path no other test
reaches.

Only ``core`` names ``frame_operator`` (the package ``__init__`` re-exports
it): every frame operator S is formed inside ``OperatorPower.compute``, and an
AST scan checks that no other module binds or reads the name.

framekit depends on numpy alone; scipy is a test-only reference.  An AST scan
checks that no framekit module imports it, pyproject.toml lists numpy as the
one runtime dependency, and a fresh interpreter checks that no CLI command
loads scipy.
"""
import ast
import builtins
import dis
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import framekit
from framekit.cli import main

MODULES = sorted(
    ["framekit"]
    + [f"framekit.{info.name}" for info in pkgutil.iter_modules(framekit.__path__)]
)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def undefined_globals(source, namespace, filename="<source>"):
    """(code name, global name) pairs read in ``source`` but bound nowhere."""
    missing = []
    for code in _code_objects(compile(source, filename, "exec")):
        # a class body reads its own earlier assignments through LOAD_NAME
        local = {i.argval for i in dis.get_instructions(code) if i.opname == "STORE_NAME"}
        for instr in dis.get_instructions(code):
            if instr.opname not in ("LOAD_GLOBAL", "LOAD_NAME"):
                continue
            name = instr.argval
            if name in namespace or name in local or hasattr(builtins, name):
                continue
            missing.append((code.co_name, name))
    return sorted(set(missing))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_reads_only_defined_globals(module_name):
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    assert undefined_globals(source, vars(module), module.__file__) == []


def test_scan_flags_a_name_that_was_never_imported():
    source = "import itertools\n\ndef pairs(n):\n    return list(combinations(range(n), 2))\n"
    namespace = {}
    exec(compile(source, "<source>", "exec"), namespace)
    assert undefined_globals(source, namespace) == [("pairs", "combinations")]



def _read_names(source, filename):
    """Names the source reads anywhere, except a function reading its own name."""
    ops = {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_ATTR", "LOAD_METHOD", "IMPORT_FROM"}
    return {
        instr.argval
        for code in _code_objects(compile(source, filename, "exec"))
        for instr in dis.get_instructions(code)
        if instr.opname in ops and instr.argval != code.co_name
    }


def unread_private_helpers(modules):
    """(module, name) of private module-level functions and classes nothing reads.

    ``modules`` maps each module name to its source and its namespace after
    running; a helper counts as read when any of the sources reads its name.
    """
    read = set()
    defined = []
    for module_name, (source, namespace) in modules.items():
        read |= _read_names(source, module_name)
        for name, value in namespace.items():
            if not name.startswith("_") or name.startswith("__"):
                continue
            if inspect.isfunction(value) or inspect.isclass(value):
                if value.__module__ == module_name:
                    defined.append((module_name, name))
    return sorted(item for item in defined if item[1] not in read)


def test_every_private_helper_is_read():
    modules = {}
    for name in MODULES:
        module = importlib.import_module(name)
        modules[name] = (inspect.getsource(module), vars(module))
    assert unread_private_helpers(modules) == []


def test_scan_flags_an_unread_private_helper():
    source = (
        "def _orthonormal_extend(basis):\n    return _orthonormal_extend(basis)\n\n"
        "def _used():\n    return 1\n\n"
        "def public():\n    return _used()\n"
    )
    namespace = {"__name__": "helpers"}
    exec(compile(source, "<helpers>", "exec"), namespace)
    assert unread_private_helpers({"helpers": (source, namespace)}) == [
        ("helpers", "_orthonormal_extend")
    ]


def scipy_imports(source, filename="<source>"):
    """Line numbers of the import statements in source that name scipy or a scipy module."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_does_not_import_scipy(module_name):
    module = importlib.import_module(module_name)
    assert scipy_imports(inspect.getsource(module), module.__file__) == []


def test_scan_flags_a_function_local_scipy_import():
    source = (
        "import numpy\n\ndef inverse(r):\n    import scipy.linalg\n"
        "    return scipy.linalg.inv(r)\n\nfrom scipy import linalg\nfrom . import scipyish\n"
    )
    assert scipy_imports(source) == [4, 7]


def frame_operator_names(source, filename="<source>"):
    """Line numbers where source names frame_operator: imported, read or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Name) and node.id == "frame_operator"
            or isinstance(node, ast.Attribute) and node.attr == "frame_operator"
            or isinstance(node, ast.alias) and node.name == "frame_operator"
        ):
            lines.append(node.lineno)
    return sorted(lines)


# S is formed in one place, OperatorPower.compute; the package re-exports it
@pytest.mark.parametrize(
    "module_name", [m for m in MODULES if m not in ("framekit", "framekit.core")]
)
def test_only_core_names_frame_operator(module_name):
    module = importlib.import_module(module_name)
    assert frame_operator_names(inspect.getsource(module), module.__file__) == []


def test_scan_flags_each_way_of_naming_frame_operator():
    source = (
        "from .core import frame_operator\nfrom . import core\n\n"
        "def s(system):\n    return frame_operator(system), core.frame_operator\n"
    )
    assert frame_operator_names(source) == [1, 5, 5]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(framekit.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = [re.match(r"[\w.-]+", requirement).group() for requirement in project["dependencies"]]
    assert names == ["numpy"]
    # the tests keep scipy as a reference
    assert any(re.match(r"scipy\b", r) for r in project["optional-dependencies"]["test"])


# A fresh interpreter imports framekit.cli, runs each command line of argv[1]
# through main, and reports after each which scipy modules are loaded.
FRESH_CLI = """
import contextlib, io, json, sys


def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


import framekit.cli

after_import = scipy_modules()
commands = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = framekit.cli.main(argv)
    commands.append({"argv": argv, "code": code, "out": out.getvalue(), "scipy": scipy_modules()})
print(json.dumps({"after import": after_import, "commands": commands}))
"""


def run_in_a_fresh_cli(argvs):
    """The scipy modules that importing framekit.cli loads in a new interpreter,
    then the code, output and loaded scipy modules after each command line."""
    env = dict(os.environ)
    src = str(Path(framekit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    report = json.loads(proc.stdout)
    assert [command["code"] for command in report["commands"]] == [0] * len(argvs), report
    return report["after import"], report["commands"]


def test_no_cli_command_loads_scipy(tmp_path, capsys):
    small, pairs = str(tmp_path / "prop53.json"), str(tmp_path / "pairs.json")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "generator": {"kind": "lemma51", "n": 20},
        "sweep": {"name": "n", "values": [20, 30]},
        "extract": {"mode": "frame", "eps": 0.25, "c": 0.1},
        "out": str(tmp_path / "sweep.csv"),
    }))
    without_scipy = [
        ["gen", "--spec", '{"kind": "prop53Truncation", "M": 2, "epsilons": [0.2, 0.2]}',
         "--out", small],
        ["select", "--in", small, "--size", "4", "--method", "greedy"],
        ["verify-lemmas", "--in", small],
        ["extract", "--in", small, "--mode", "frame", "--eps", "0.25",
         "--out", str(tmp_path / "frame.trace.json")],
        ["sweep", "--plan", str(plan)],
        ["gen", "--spec", '{"kind": "perturbedPairs", "n": 20}', "--out", pairs],
    ]
    analyze = ["analyze", "--in", pairs]
    trace = tmp_path / "biorthogonal.trace.json"
    extract = ["extract", "--in", pairs, "--mode", "biorthogonal", "--eps", "0.25",
               "--out", str(trace)]

    after_import, commands = run_in_a_fresh_cli(without_scipy + [analyze])
    assert after_import == []
    for command in commands:
        assert command["scipy"] == [], command["argv"]
    # the commands that read R^-1 write the same bytes in a process where scipy is loaded
    inverting = [commands[-1], run_in_a_fresh_cli([extract])[1][0]]
    trace_bytes = trace.read_bytes()
    for command in inverting:
        assert command["scipy"] == [], command["argv"]
        assert main(command["argv"]) == 0
        assert capsys.readouterr().out == command["out"], command["argv"]
    assert trace.read_bytes() == trace_bytes
