"""The benchmark's traced mode (`perfbench/tracing.py`) wraps cubetree
callables by module and attribute name.  Each name it lists must resolve,
so that renaming a wrapped function fails here and not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import cubetree.cli  # noqa: F401  (loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [(name, module, path)
               for table in (tracing.SPANS, tracing.COUNTERS)
               for name, entries in table.items() for module, path in entries]
    missing = []
    for name, module, path in targets:
        try:
            owner, attr = tracing._resolve(module, path)
            ok = callable(getattr(owner, attr))
        except (KeyError, AttributeError):
            ok = False
        if not ok:
            missing.append(f"{name}: cubetree.{module}.{path}")
    assert len(targets) > 40
    assert missing == []
