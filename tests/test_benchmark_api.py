"""The rhmlab names the benchmark under ``perfbench/`` relies on.

The benchmark reaches into the package from outside: ``perfbench/tracer.py``
wraps the public functions it lists and its hooks read some of their arguments
by position, and ``perfbench/workloads.py`` calls module attributes with
keyword arguments. Both files are only read here
(never imported through the import system, so no bytecode is written next to
them), and deleting or renaming a name they use fails this test.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import rhmlab.cli  # noqa: F401  (the tracer wraps names cli imported too)
from rhmlab import grammar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer() -> types.ModuleType:
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_wraps_every_span_and_restores_every_attribute():
    tracer = _load_tracer()
    before = tracer.snapshot()
    tr = tracer.Tracer()
    missing = []
    try:
        tr.install()
        for name in tracer.SPAN_NAMES:
            layer, qual = name.split(".", 1)
            owner = importlib.import_module(f"rhmlab.{layer}")
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            if not hasattr(vars(owner).get(attr), tracer._MARK):
                missing.append(name)
    finally:
        tr.uninstall()
    assert missing == []
    assert tracer.installed_wrappers() == []
    assert tracer.changed_since(before) == []


def test_names_the_workloads_use_exist():
    assert "with_latents" in inspect.signature(grammar.sample_dataset).parameters
    assert isinstance(grammar.DEFAULT_ENUMERATION_CAP, int)
    assert issubclass(grammar.EnumerationCapError, Exception)
    # Every ``module.name`` the workloads read from rhmlab, and every keyword
    # they pass to such a call, is still there.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"rhmlab.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rhmlab"
        for alias in node.names
    }
    assert modules
    absent, unknown_keywords = [], []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        if not hasattr(modules[node.value.id], node.attr):
            absent.append(f"{node.value.id}.{node.attr}")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            continue
        fn = getattr(modules[node.func.value.id], node.func.attr, None)
        if fn is None:
            continue
        params = inspect.signature(fn).parameters
        unknown_keywords += [f"{node.func.value.id}.{node.func.attr}({kw.arg}=)"
                             for kw in node.keywords
                             if kw.arg is not None and kw.arg not in params]
    assert absent == []
    assert unknown_keywords == []


def test_tracer_positional_reads_match_the_signatures():
    # Each hook reads arguments through ``_arg(args, kwargs, pos, name[,
    # default])``: the wrapped function's parameter at ``pos`` must be ``name``,
    # with that default.
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_HOOKS"])
    span_of = {fn.id: key.value for key, fn in zip(hooks.keys, hooks.values)}
    reads, wrong = [], []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_arg"):
                continue
            span = span_of[fn.name]  # KeyError: a helper outside _HOOKS reads args
            pos, name, *default = [ast.literal_eval(a) for a in node.args[2:]]
            reads.append((span, pos, name))
            layer, *path = span.split(".")
            target = importlib.import_module(f"rhmlab.{layer}")
            for attr in path:
                target = getattr(target, attr)
            params = list(inspect.signature(target).parameters.values())
            if pos >= len(params) or params[pos].name != name or (
                default and params[pos].default != default[0]
            ):
                wrong.append((span, pos, name, *default))
    assert reads
    assert wrong == []
