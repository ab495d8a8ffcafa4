import importlib
from pathlib import Path


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/spans.py wraps the functions its LAYERS table names with
    # getattr, so a library name it lists that is gone breaks every --trace 1
    # run of the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import LAYERS

    listed = [(module, name) for _layer, module, names, _count in LAYERS for name in names]
    missing = [f"{module}.{name}" for module, name in listed
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert len(listed) > 10 and missing == []
