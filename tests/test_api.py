"""Every public name resolves, and so does every name the benchmark calls.

The benchmark in ``perfbench/`` reaches the library by name: tracer targets
"module:attribute" (or "module:Class.method") and ``sw.<name>`` attribute
chains in its workloads.  The files are read as text, not imported.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import surfwalk
import surfwalk.cli  # noqa: F401  (the workloads reach sw.cli)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"surfwalk.{m.name}") for m in pkgutil.iter_modules(surfwalk.__path__)]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", [])
        if not hasattr(module, name)
    ]
    # The package's own names: every one its __init__ imports.
    init = ast.parse(pathlib.Path(surfwalk.__file__).read_text())
    missing += [
        f"surfwalk.{alias.name}"
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not hasattr(surfwalk, alias.asname or alias.name)
    ]
    assert not missing


def _tracer_targets() -> list[str]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_benchmark_names_resolve():
    targets = _tracer_targets()
    assert "comfortability:positive_coin_average" in targets
    for target in targets:
        module_name, attr = target.split(":")
        owner = importlib.import_module(f"surfwalk.{module_name}")
        *path, last = attr.split(".")
        for name in path:
            owner = getattr(owner, name)
        if path:
            assert last in vars(owner), target  # the tracer patches the class's own method
        else:
            assert hasattr(owner, last), target

    chains = set(re.findall(r"\bsw\.(\w+(?:\.\w+)*)", (PERFBENCH / "workloads.py").read_text()))
    assert {"average_by_enumeration", "positive_coin_average", "cli.main"} <= chains
    for chain in chains:
        value = surfwalk
        for name in chain.split("."):
            assert hasattr(value, name), f"sw.{chain}"
            value = getattr(value, name)


def _sw_chain(node) -> list[str] | None:
    """The names of an ``sw.a.b`` attribute chain, or None for any other node."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return names[::-1] if isinstance(node, ast.Name) and node.id == "sw" else None


def test_benchmark_calls_bind_to_signatures():
    """Each ``sw.<chain>(...)`` call in the workloads binds to the library's
    signature with its positional count and keyword names, so dropping a
    parameter the benchmark passes (``scattering=``, ``tol=``) fails here."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _sw_chain(node.func)]
    assert len(calls) >= 31
    for call in calls:
        chain = _sw_chain(call.func)
        where = f"workloads.py:{call.lineno} sw.{'.'.join(chain)}"
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(kw.arg is not None for kw in call.keywords), where
        target = surfwalk
        for name in chain:
            target = getattr(target, name)
        args = [None] * len(call.args)
        kwargs = {kw.arg: None for kw in call.keywords}
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
