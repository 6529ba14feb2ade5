"""The benchmark's tracer finds every function it names, and puts each back.

``perfbench/tracing.py`` rebinds package functions by module and attribute
name, so renaming or removing one of them breaks the benchmark.  This test
installs and uninstalls the tracer in process and reads ``perfbench/``
without writing to it.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _namespaces():
    """Every attribute of every loaded k3ord module and of its classes."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "k3ord" or name.startswith("k3ord.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[name, f"{attr}.{member}"] = inner
    return out


def test_every_traced_name_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    for module_name, _, _ in tracing.FUNCTIONS:
        importlib.import_module(module_name)
    importlib.import_module("k3ord.runner")
    before = _namespaces()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, path, name in tracing.FUNCTIONS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                value = vars(getattr(owner, cls_name))[attr]
            else:
                value = getattr(owner, path)
            assert value.__wrapped__ is before[module_name, path], name
        assert sys.modules["k3ord.runner"].run_check.__wrapped__ is before["k3ord.runner", "run_check"]
    finally:
        tracer.uninstall()

    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
