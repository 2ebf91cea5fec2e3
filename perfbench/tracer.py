"""Per-layer tracing of one cotor CLI command, from outside the package.

Run as a script, it imports ``cotor.cli``, wraps the layer functions
listed below, runs the CLI in-process and writes the layer counters and
the recorded spans to a JSON file:

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json --run-id r0 \
        -- verify --suite all --backend nakayama:m=2,n=4

The CLI report still goes to standard output, so the caller can check it.

A span covers one call of a wrapped function (or one resumption of a
wrapped generator).  Its self time is its duration minus the time its
child spans cover, so a recursive function such as ``split_module`` is
never counted twice.  Cache misses are counted as distinct argument
keys seen at the wrapper; no private cache of the program is read.
Sweep candidates are the calls the program makes: predicate calls of
``enumerate_subcats``, and ``is_ext_closed_pairwise`` calls made
directly from an ``enumerate_cotorsion`` span (the tracer counts calls
per caller-callee edge).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# Spans kept in memory per command; counters and self times are
# aggregated as spans close and do not depend on this limit.
MAX_KEPT_SPANS = 50_000


class Tracer:
    """Stack of open spans plus per-name aggregates."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.calls: Counter[str] = Counter()
        # Calls per (caller span, callee span) edge, keyed "caller>callee".
        self.edges: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # Inclusive time of outermost calls only, so recursion is not
        # counted twice.
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.spans: list[tuple[str, int, int, str, float, float]] = []
        self.dropped = 0
        self._open: list[list] = []  # [span id, name, start, child time]
        self._depth: Counter[str] = Counter()
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.calls[name] += 1
        if self._open:
            self.edges[self._open[-1][1] + ">" + name] += 1
        self._depth[name] += 1
        self._open.append([self._next_id, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child = self._open.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total_s[name] += dur
        parent = 0
        if self._open:
            self._open[-1][3] += dur
            parent = self._open[-1][0]
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((self.run_id, span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def dump(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "edges": dict(self.edges),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }


# -- wrappers -----------------------------------------------------------------


def span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def generator_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """One span per resumption of the generator, as a profiler counts
    calls: one per item yielded plus one for the end, whether the
    generator runs out or its consumer closes it early."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        done = False
        try:
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                    return
                except BaseException:
                    done = True
                    raise
                finally:
                    tracer.exit()
                tracer.counts[name + ".yields"] += 1
                yield item
        finally:
            if not done:
                tracer.enter(name)
                try:
                    it.close()
                finally:
                    tracer.exit()

    return wrapper


def observe(
    tracer: Tracer,
    name: str,
    fn: Callable,
    key: Optional[Callable] = None,
    outcome: Optional[Callable] = None,
) -> Callable:
    """Record argument keys and outcome counts around ``fn``."""
    seen = tracer.distinct[name]
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if key is not None:
            seen.add(key(*args, **kwargs))
        result = fn(*args, **kwargs)
        if outcome is not None:
            for k, v in outcome(result, *args, **kwargs).items():
                counts[name + "." + k] += v
        return result

    return wrapper


def _cone_key(backend, f):
    return (f.src, f.dst, f.coords)


def _pair_ext_key(star, a_id, b_id):
    return (a_id, b_id)


def pred_counter(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count the candidates ``enumerate_subcats`` puts to its predicate."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(backend, pred, *args, **kwargs):
        def counted(s):
            counts[name + ".candidates"] += 1
            return pred(s)

        return fn(backend, counted, *args, **kwargs)

    return wrapper


# Each entry: module, attribute path, metric name.  SPANS record calls
# and self time, COUNTS only calls.
SPANS = [
    ("cotor.cli", "enumerate_by_second_class", "cli.enumerate_by_second_class"),
    ("cotor.f2", "solve", "f2.solve"),
    ("cotor.f2", "kernel_basis", "f2.kernel_basis"),
    ("cotor.f2", "rank", "f2.rank"),
    ("cotor.f2", "in_span", "f2.in_span"),
    ("cotor.f2", "F2Matrix.mul", "f2.F2Matrix.mul"),
    ("cotor.f2", "ExpressSolver.express", "f2.ExpressSolver.express"),
    ("cotor.nakayama", "NakayamaBackend.__init__", "nakayama.build"),
    ("cotor.nakayama", "NakayamaBackend.cone", "nakayama.cone"),
    ("cotor.nakayama", "split_module", "nakayama.split_module"),
    ("cotor.subcats", "StarEngine.star_contains", "subcats.star_contains"),
    ("cotor.subcats", "right_perp", "subcats.perp"),
    ("cotor.subcats", "left_perp", "subcats.perp"),
    ("cotor.subcats", "StarEngine.is_ext_closed_pairwise", "subcats.is_ext_closed_pairwise"),
    ("cotor.pairs", "PairEngine.enumerate_cotorsion", "pairs.enumerate_cotorsion"),
    ("cotor.pairs", "PairEngine.is_tcp", "pairs.is_tcp"),
    ("cotor.pairs", "PairEngine.h_vanishes", "pairs.h_vanishes"),
    ("cotor.pairs", "PairEngine.check_condition_I", "pairs.condition.I"),
    ("cotor.pairs", "PairEngine.check_condition_II", "pairs.condition.II"),
    ("cotor.pairs", "PairEngine.check_condition_III", "pairs.condition.III"),
    ("cotor.quotient", "ZIQuotient.hom_mod_I", "quotient.hom_mod_I"),
    ("cotor.quotient", "ZIQuotient.standard_right_triangle", "quotient.standard_right_triangle"),
    ("cotor.quotient", "ZIQuotient.mu_map", "quotient.mu_map"),
    ("cotor.mutation", "MutationEngine.verify_bijection", "mutation.verify_bijection"),
    ("cotor.mutation", "MutationEngine.zi_star_member", "mutation.zi_star_member"),
    ("cotor.mutation", "MutationEngine.I_map", "mutation.I_map"),
    ("cotor.polygon", "enumerate_rigid", "polygon.enumerate_rigid"),
    ("cotor.polygon", "enumerate_ptolemy", "polygon.enumerate_ptolemy"),
]

COUNTS = [
    ("cotor.nakayama", "NakayamaBackend.compose", "nakayama.compose"),
    ("cotor.nakayama", "NakayamaBackend.hom_dim_pair", "nakayama.hom_dim_pair"),
    ("cotor.subcats", "StarEngine._peel_verdict", "subcats.star_contains.peel"),
    ("cotor.subcats", "StarEngine._literal_verdict", "subcats.star_contains.literal"),
    ("cotor.subcats", "StarEngine.pair_extensions", "subcats.pair_extensions"),
    ("cotor.subcats", "enumerate_subcats", "subcats.enumerate_subcats"),
    ("cotor.pairs", "PairEngine.ext1_witness", "pairs.ext1_witness"),
    ("cotor.quotient", "ZIQuotient.for_pair", "quotient.for_pair"),
    ("cotor.mutation", "MutationEngine.zi_is_cp", "mutation.zi_is_cp"),
    ("cotor.mutation", "MutationEngine.enumerate_zi_cp", "mutation.enumerate_zi_cp"),
    ("cotor.mutation", "MutationEngine.mutate", "mutation.mutate"),
    ("cotor.polygon", "is_rigid", "polygon.is_rigid"),
    ("cotor.polygon", "is_ptolemy", "polygon.is_ptolemy"),
]

GENERATORS = [
    ("cotor.nakayama", "NakayamaBackend.triangle_enumerate", "nakayama.triangle_enumerate"),
]

# Argument keys (distinct values count cache misses) and outcome counters.
OBSERVERS = {
    "nakayama.cone": dict(key=_cone_key),
    "subcats.pair_extensions": dict(key=_pair_ext_key),
    "subcats.star_contains": dict(
        outcome=lambda v, *a, **k: {"inconclusive": int(v.is_inconclusive)}
    ),
    "subcats.is_ext_closed_pairwise": dict(
        outcome=lambda ok, *a, **k: {"passed": int(ok)}
    ),
    "subcats.enumerate_subcats": dict(outcome=lambda out, *a, **k: {"kept": len(out)}),
    "pairs.enumerate_cotorsion": dict(outcome=lambda enum, engine: {"pairs": len(enum.pairs)}),
    "pairs.is_tcp": dict(outcome=lambda ok, *a, **k: {"true": int(ok)}),
    "mutation.enumerate_zi_cp": dict(outcome=lambda out, me: {"found": len(out)}),
}


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every cotor module attribute that holds ``original`` at
    ``replacement``; names imported with ``from .f2 import solve`` are
    separate bindings and need patching one by one."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cotor" or mod_name.startswith("cotor.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _patch(module: str, path: str, make: Callable[[Callable], Callable]) -> None:
    mod = importlib.import_module(module)
    if "." not in path:
        original = getattr(mod, path)
        if not _rebind(original, make(original)):
            raise RuntimeError(f"{module}.{path} is bound nowhere")
        return
    cls_name, meth = path.split(".")
    cls = getattr(mod, cls_name)
    raw = cls.__dict__[meth]
    # Methods are patched once, on the class that defines them.
    if isinstance(raw, classmethod):
        setattr(cls, meth, classmethod(make(raw.__func__)))
    else:
        setattr(cls, meth, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every layer function named in the tables above."""

    def with_observer(name: str, inner: Callable[[Callable], Callable]):
        spec = OBSERVERS.get(name)
        if spec is None:
            return inner
        return lambda fn: inner(observe(tracer, name, fn, **spec))

    for module, path, name in SPANS:
        _patch(module, path, with_observer(name, lambda fn, n=name: span_wrapper(tracer, n, fn)))
    for module, path, name in COUNTS:
        _patch(module, path, with_observer(name, lambda fn, n=name: count_wrapper(tracer, n, fn)))
    _patch(
        "cotor.subcats",
        "enumerate_subcats",
        lambda fn: pred_counter(tracer, "subcats.enumerate_subcats", fn),
    )
    for module, path, name in GENERATORS:
        _patch(module, path, lambda fn, n=name: generator_wrapper(tracer, n, fn))
    cli = importlib.import_module("cotor.cli")
    for suite, fn in list(cli._SUITE_FUNCS.items()):
        cli._SUITE_FUNCS[suite] = span_wrapper(tracer, f"cli.suite.{suite}", fn)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for counters and spans")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    cli = importlib.import_module("cotor.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer(args.run_id)
    install(tracer)
    code = cli.main(cli_args)
    sys.stdout.flush()
    doc = tracer.dump()
    doc["import_s"] = import_s
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
