"""Every answer ``src/cotor`` stores is keyed by the arguments it reads.

``core.stored`` keys an answer by the tuple of its positional arguments,
or by a ``key`` function of them.  A key that drops part of an argument
shares one answer between calls that pass different data; that is right
only while some written argument shows the dropped part cannot change
the answer, and a wrong one returns a stale answer silently.  So each
``key`` here is a lambda that reads every one of its parameters, to
re-encode it in a form that hashes faster (``.bits``, ``.summands``,
``.key()``), and a caller that needs less than a whole class narrows it
before the call.  A stored function takes plain positional parameters
only: the wrapper keys ``*args`` as passed, so a default, a keyword-only
parameter or ``*args`` would give one call two spellings and two keys.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cotor"


def _stored_functions():
    """(where, function node, the ``stored(...)`` call) for every
    function in ``src/cotor`` decorated with ``stored``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "id", getattr(target, "attr", None))
                if name == "stored":
                    yield f"{path.stem}.{node.name}", node, deco


def _plain(args: ast.arguments) -> bool:
    return not (
        args.posonlyargs or args.defaults or args.kwonlyargs
        or args.vararg or args.kwarg
    )


def test_the_walk_finds_the_stored_functions():
    found = {where for where, _, _ in _stored_functions()}
    assert {"pairs._approximation", "pairs._heart_verdict",
            "quotient._comparison", "nakayama.cone"} <= found
    assert len(found) > 30


def test_stored_functions_take_plain_positional_parameters():
    bad = [where for where, fn, _ in _stored_functions() if not _plain(fn.args)]
    assert not bad, f"a default, keyword-only or variadic parameter: {bad}"


def test_every_key_is_a_lambda_that_reads_each_argument():
    for where, fn, deco in _stored_functions():
        assert isinstance(deco, ast.Call) and not deco.args, where
        keys = [k.value for k in deco.keywords if k.arg == "key"]
        assert [k.arg for k in deco.keywords] == ["key"] * len(keys), where
        if not keys:
            continue
        [key] = keys
        assert isinstance(key, ast.Lambda), f"{where}: the key is not a lambda"
        assert _plain(key.args), where
        params = [a.arg for a in key.args.args]
        # the key sees the arguments after the instance (or engine)
        assert params == [a.arg for a in fn.args.args[1:]], where
        read = {
            n.id for n in ast.walk(key.body)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        assert set(params) <= read, f"{where}: the key drops {set(params) - read}"
