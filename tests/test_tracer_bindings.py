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
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_a_traced_run_reports_like_an_untraced_one(tmp_path, capsys):
    # The stored methods are what the tracer wraps, so a traced run must
    # count their calls and leave the report as it was.
    argv = ["verify", "--suite", "all", "--backend", "nakayama:m=2,n=3"]
    cli = importlib.import_module("cotor.cli")
    assert cli.main(argv) == 0
    untraced = json.loads(capsys.readouterr().out)["report"]
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(TRACER), "--out", str(out), "--run-id", "t", "--", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["report"] == untraced
    calls = json.loads(out.read_text())["calls"]
    for name in ("pairs.h_vanishes", "quotient.hom_mod_I", "mutation.I_map", "pairs.condition.I"):
        assert calls.get(name, 0) > 0, name
