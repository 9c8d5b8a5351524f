"""The benchmark's span tracer still fits the program.

`perfbench/spans.py` wraps program functions by module and name, so a
rename or a moved function breaks the benchmark long before anyone runs
it. This test installs the tracer, checks that every function it names
was replaced everywhere it is bound, uninstalls it, and checks that every
binding is back as it was. It reads `perfbench/` and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every agegender module's namespace and every class namespace in it,
    as {(owner name, key): value}."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "agegender" and not name.startswith("agegender."):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[f"{name}.{key}", attr] = member
    return out


def test_tracer_wraps_every_target_and_restores_every_binding():
    spans = _load_spans()
    before = _bindings()
    originals = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = sys.modules["agegender." + module_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals.append((module_name, attr, owner))

    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        for module_name, attr, original in originals:
            owner_key = f"agegender.{module_name}"
            *cls, key = attr.split(".")
            if cls:
                owner_key += "." + cls[0]
            assert during[owner_key, key].__wrapped__ is original, f"{module_name}.{attr} not wrapped"
            if not cls:
                still = [k for k, v in during.items() if v is original]
                assert not still, f"{module_name}.{attr} left unwrapped at {still}"
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert not changed, f"bindings not restored: {changed}"
