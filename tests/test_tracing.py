"""The benchmark's tracer resolves every name it wraps.

``perfbench/tracing.py`` looks up each function in its TARGETS and each
method in its METHODS with no default, so deleting or renaming one of them
breaks the traced benchmark run.  This test installs the tracer against the
package, makes one traced call and uninstalls it again.
"""

import importlib.util
import json
from pathlib import Path

import tritcirc.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_target(capsys):
    tracing = _load_tracing()
    originals = {}
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        originals[module_name, attr] = getattr(module, attr)
    for module_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        originals[module_name, cls_name, attr] = cls.__dict__[attr]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attr, _, _ in tracing.TARGETS:
            patched = getattr(importlib.import_module(module_name), attr)
            assert patched is not originals[module_name, attr]
        assert tritcirc.cli.main(["report", "--json", "--k", "3"]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)[0]["k"] == 3
    assert tracer.calls()["cli"] == 1

    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert getattr(module, attr) is originals[module_name, attr]
    for module_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert cls.__dict__[attr] is originals[module_name, cls_name, attr]
