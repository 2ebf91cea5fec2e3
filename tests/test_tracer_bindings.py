"""The layer tracer in perfbench/tracer.py can still find what it patches.

The tracer wraps cotor's layer functions by name: a module function by
rebinding every cotor module attribute that holds it, a method by
replacing it in the ``__dict__`` of the class that defines it.  A rename
or a move would make a traced benchmark run fail to start, so this test
reads the tracer's tables, without running or editing the tracer, and
checks every name the way the tracer's ``_patch`` resolves it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("cotor_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _entries():
    t = _tracer()
    rows = [(module, path) for module, path, _ in t.SPANS + t.COUNTS + t.GENERATORS]
    return rows + [("cotor.subcats", "enumerate_subcats")]


@pytest.mark.parametrize("module,path", _entries(), ids=lambda v: str(v))
def test_every_traced_name_is_bound_where_the_tracer_looks(module, path):
    mod = importlib.import_module(module)
    if "." not in path:
        assert callable(vars(mod)[path])
        return
    cls_name, meth = path.split(".")
    cls = vars(mod)[cls_name]
    assert meth in cls.__dict__, f"{module}.{path} is not defined on its class"


def test_the_suite_table_is_there_to_wrap():
    cli = importlib.import_module("cotor.cli")
    assert set(cli._SUITE_FUNCS) == {
        "counts", "conditions", "hovey", "adjunction", "bijection",
    }
    assert all(callable(fn) for fn in cli._SUITE_FUNCS.values())
