"""Every global name a framekit module reads must be defined or a builtin.

No linter runs over the package, so a call to a name that was never imported
(``combinations`` where only ``itertools`` is imported, say) surfaces only as a
``NameError`` when that line first runs.  This scan compiles each module's
source and checks every ``LOAD_GLOBAL``/``LOAD_NAME`` against the imported
module's namespace, so such a fault fails here even on a path no other test
reaches.
"""
import builtins
import dis
import importlib
import inspect
import pkgutil
import types

import pytest

import framekit

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
