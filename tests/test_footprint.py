"""Each command loads only the layers it runs.

``import cotor`` resolves its exported names on first access, and the
CLI imports the pair engine, the subquotient, the mutation layer and
each backend's module only in the commands that use them.  Every case
runs in a fresh interpreter and reads which ``cotor`` modules are in
``sys.modules`` when it ends.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cotor

ROOT = Path(__file__).resolve().parents[1]

# Prints the sorted cotor modules loaded once ``code`` has run, what it
# wrote to standard error, and the variables ``rc`` and ``new`` it may set.
PROBE = """
import contextlib, io, json, sys
rc, new, err = 0, [], io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    {code}
print(json.dumps({{
    "cotor": sorted(m for m in sys.modules if m.split(".")[0] == "cotor"),
    "stderr": err.getvalue(),
    "rc": rc,
    "new": new,
}}))
"""


def _probe(code: str) -> dict:
    run = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _cli(*argv: str) -> str:
    return f"from cotor import cli; rc = cli.main({list(argv)!r})"


BASE = {"cotor", "cotor.cli", "cotor.core", "cotor.f2", "cotor.subcats"}
POLYGON = BASE | {"cotor.polygon"}
NAKAYAMA_PAIRS = BASE | {"cotor.nakayama", "cotor.pairs"}

CASES = {
    "import cotor": ("import cotor", {"cotor"}),
    "build polygon": (
        'from cotor import cli; cli.build_backend("polygon:N=7")', POLYGON,
    ),
    "polygon counts": (
        _cli("verify", "--suite", "counts", "--backend", "polygon:N=7"), POLYGON,
    ),
    "nakayama counts": (
        _cli("verify", "--suite", "counts", "--backend", "nakayama:m=2,n=3"),
        NAKAYAMA_PAIRS,
    ),
    "conditions": (
        _cli("verify", "--suite", "conditions", "--backend", "nakayama:m=2,n=3"),
        NAKAYAMA_PAIRS | {"cotor.quotient"},
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_command_loads_only_its_layers(case):
    code, want = CASES[case]
    got = _probe(code)
    assert got["rc"] == 0, got["stderr"]
    assert set(got["cotor"]) == want


@pytest.mark.parametrize("family", ["cli", "__init__", "os"])
def test_an_unknown_family_is_refused_without_an_import(family):
    code = (
        "from cotor import cli; before = set(sys.modules); "
        f'rc = cli.main(["verify", "--suite", "counts", "--backend", "{family}:x"]); '
        'new = sorted(m for m in set(sys.modules) - before if m.startswith("cotor"))'
    )
    got = _probe(code)
    assert (got["rc"], got["new"]) == (2, [])
    assert got["stderr"] == (
        f"error: unknown backend family {family!r}; expected one of nakayama, polygon\n"
    )


def test_the_lazy_exports_are_the_home_objects():
    ns: dict = {}
    exec("from cotor import *", ns)
    for name in cotor.__all__:
        if name == "__version__":
            assert ns[name] == cotor.__version__
            continue
        home = importlib.import_module(ns[name].__module__)
        assert ns[name] is getattr(home, name), name
    assert set(cotor.__all__) <= set(dir(cotor))
    assert not hasattr(cotor, "no_such_name")
