"""End-to-end benchmark of the cotor CLI, with a separate traced run.

Run from the repository root (the directory that holds ``src/cotor``):

    python3 perfbench/run.py --workload bijection --seed 1 --seconds 40 --trace 0

``--workload`` is one of the names in ``WORKLOADS`` or ``all``, which
interleaves every workload within each round.  The loop is closed with
one client: each command of a workload runs in a fresh
``python -m cotor.cli`` process, one at a time.  Rounds repeat until the
next one would end after ``--seconds``.  The inputs are full
enumerations, so ``--seed`` only sets the order of the workloads and of
the set-up probes within each round; the CLI's own ``--seed`` and
``--jobs`` flags are never passed.

With ``--trace 0`` the end-to-end metrics are reported per workload as
medians over the rounds:

- ``cpu_ref_s``: CPU time of the workload's commands at reference
  speed (see below);
- ``setup_s``: CPU time at reference speed of a fresh interpreter that
  imports ``cotor.cli`` and builds each backend of the workload, and
  does nothing else;
- ``peak_rss_mb``: the largest ``ru_maxrss`` among the commands of a
  round, read per child with ``os.wait4``.

Reference speed: on a shared host one CPU's speed changes by up to 2x
within seconds, so raw wall and CPU times of the same command spread
too widely to compare two commits.  The runner pins itself and every
child to one CPU and runs ``refspeed.py`` there at low priority for the
whole timed run.  Each child's CPU time (``ru_utime + ru_stime``) is
multiplied by ``REF_CHUNK_S`` over the mean CPU time of the probe's
chunks that ended during the child's run (padded by ``PAD_S``): it is
the child's CPU time on a host where a chunk takes ``REF_CHUNK_S``.
The raw wall and CPU times and the chunk time are printed too, but are
not metrics.  The commands are single-threaded and never get
``--jobs``, so their CPU time is the time a user waits, less start-up
I/O.

``failed_ratio`` (commands failed over commands attempted) is printed
too; it is also the ``failed``/``attempted`` pair of the result line.  A
command fails if it exits non-zero, prints a traceback, or the sha256
of its ``report`` payload differs from the one in ``expected.json``,
recorded at the commit that added this benchmark.  Only the payload is
hashed, so changes to the report envelope do not count as failures.

With ``--trace 1`` each command runs once untraced and twice under
``tracer.py``; the per-layer metrics come from the first traced pass,
and every count must repeat exactly in the second.

The first line of standard output records the Python version, CPU
model, CPU count and seed; each run also writes its result with that
record to ``perfbench/out/``.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every command was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, NamedTuple

import refspeed

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"

WORKLOADS: dict[str, list[list[str]]] = {
    # The end-to-end command of the roadmap; cone misses and module
    # splitting dominate, through the mutation bijection.
    "bijection": [["verify", "--suite", "all", "--backend", "nakayama:m=2,n=4"]],
    # Same cone layer used the other way: dense triangle enumeration
    # with mostly cache hits.
    "conditions": [
        ["verify", "--suite", "conditions", "--backend", "nakayama:m=3,n=4"]
    ],
    # The 2^K class sweeps, on both backends; no quotient or mutation.
    "sweep": [
        ["verify", "--suite", "counts", "--backend", "nakayama:m=4,n=5"],
        ["verify", "--suite", "counts", "--backend", "polygon:N=7"],
    ],
}

SETUP_PROBES_PER_ROUND = 3
# A child's CPU time is rescaled to a host on which one chunk of the
# reference probe takes this much CPU time.
REF_CHUNK_S = 1e-3
# Probe chunks that end this long before or after a child still count
# towards its speed, so a short set-up probe sees enough of them.
PAD_S = 0.25
MIN_CHUNKS = 20
MIN_ROUNDS = 2
# Every child is killed once one workload has run this long, so a hung
# command cannot keep a single-workload run past 180 seconds.  With
# ``--workload all --trace 1`` each workload gets its own deadline.
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, cotor.cli as cli\n"
    "for spec in sys.argv[1:]:\n"
    "    cli.build_backend(spec)\n"
)


class Child(NamedTuple):
    wall_s: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    cpu_s: float
    start: float  # time.monotonic() at spawn
    end: float  # time.monotonic() at exit


class Runner:
    """Spawns children under one deadline, from one checkout."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.timed_out = False

    def spawn(self, argv: list[str]) -> Child:
        with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(
            dir=OUT_DIR
        ) as err:
            start = time.perf_counter()
            mono = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            mono_end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            if time.monotonic() >= self.deadline:
                self.timed_out = True
            out.seek(0)
            err.seek(0)
            return Child(
                wall,
                proc.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime,
                mono,
                mono_end,
            )

    def cli(self, cmd: list[str]) -> Child:
        return self.spawn([sys.executable, "-m", "cotor.cli", *cmd])

    def setup_probe(self, workload: str) -> Child:
        child = self.spawn([sys.executable, "-c", SETUP_CODE, *backends(workload)])
        if child.code != 0:
            raise SystemExit(f"set-up probe failed:\n{child.stderr}")
        return child


class RefSpeed:
    """``refspeed.py`` running beside the timed children, on their CPU."""

    def __init__(self, path: Path) -> None:
        self.path = path
        # The probe's log, read when the ``with`` block ends.
        self.ends: list[float] = []
        self.cpu: list[float] = []

    def __enter__(self) -> "RefSpeed":
        self.proc = subprocess.Popen([sys.executable, str(HERE / "refspeed.py"), str(self.path)])
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if exc_type is None:
            if self.proc.returncode != 0:
                raise SystemExit(f"reference probe exited with {self.proc.returncode}")
            log = refspeed.load(str(self.path))
            self.ends = [end for end, _ in log]
            self.cpu = [cpu for _, cpu in log]

    def chunk_s(self, start: float, end: float) -> float:
        """Mean CPU time of the probe's chunks that ended in the padded
        interval."""
        lo = bisect_left(self.ends, start - PAD_S)
        hi = bisect_right(self.ends, end + PAD_S)
        if hi - lo < MIN_CHUNKS:
            raise SystemExit(f"reference probe ran only {hi - lo} chunks beside a child")
        return sum(self.cpu[lo:hi]) / (hi - lo)

    def at_ref(self, child: Child) -> float:
        return child.cpu_s * REF_CHUNK_S / self.chunk_s(child.start, child.end)


def backends(workload: str) -> list[str]:
    return [cmd[cmd.index("--backend") + 1] for cmd in WORKLOADS[workload]]


def command_key(cmd: list[str]) -> str:
    return " ".join(cmd)


def payload_digest(stdout: str) -> str | None:
    """sha256 of the report payload as JSON with sorted keys."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(doc, dict) or "report" not in doc:
        return None
    text = json.dumps(doc["report"], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def command_ok(cmd: list[str], child: Child, expected: dict[str, str]) -> bool:
    """A command without a recorded digest, or whose output has no
    report payload, is never correct."""
    digest = payload_digest(child.stdout)
    return (
        child.code == 0
        and "Traceback" not in child.stderr
        and digest is not None
        and digest == expected.get(command_key(cmd))
    )


class Tally:
    """Samples and failures of one workload."""

    def __init__(self) -> None:
        self.rounds: list[list[Child]] = []
        self.setup: list[Child] = []
        self.attempted = 0
        self.failed = 0

    def run_commands(self, runner: Runner, cmds: list[list[str]], expected: dict) -> list[Child]:
        children = []
        for cmd in cmds:
            child = runner.cli(cmd)
            self.attempted += 1
            if not command_ok(cmd, child, expected):
                self.failed += 1
                print(f"FAILED: {command_key(cmd)} (exit {child.code})", file=sys.stderr)
                print(child.stderr[-2000:], file=sys.stderr)
            children.append(child)
        self.rounds.append(children)
        return children


def timed(runner: Runner, names: list[str], seed: int, seconds: float, expected: dict) -> dict[str, Tally]:
    rng = random.Random(seed)
    tallies = {w: Tally() for w in names}
    for w in names:
        # Untimed: the first import in a fresh checkout compiles bytecode.
        runner.setup_probe(w)
    start = time.perf_counter()
    rounds = 0
    while not runner.timed_out:
        items = [(w, "commands") for w in names]
        items += [(w, "setup") for w in names for _ in range(SETUP_PROBES_PER_ROUND)]
        rng.shuffle(items)
        for w, kind in items:
            if kind == "setup":
                tallies[w].setup.append(runner.setup_probe(w))
            else:
                tallies[w].run_commands(runner, WORKLOADS[w], expected)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    return tallies


def _summary(w: str, name: str, samples: list[float], unit: str) -> float:
    value = statistics.median(samples)
    print(
        f"{w} {name} {value:.4f} {unit} (median of {len(samples)}, "
        f"min {min(samples):.4f}, max {max(samples):.4f})"
    )
    return value


def end_to_end(w: str, t: Tally, ref: RefSpeed) -> dict[str, dict[str, Any]]:
    """Print the end-to-end metrics of one workload and return them,
    after the raw times they are made from."""
    _summary(w, "raw.wall_s", [sum(c.wall_s for c in r) for r in t.rounds], "s")
    _summary(w, "raw.cpu_s", [sum(c.cpu_s for c in r) for r in t.rounds], "s")
    _summary(w, "raw.setup_wall_s", [c.wall_s for c in t.setup], "s")
    _summary(
        w,
        "raw.chunk_ms",
        [1e3 * ref.chunk_s(c.start, c.end) for r in t.rounds for c in r],
        "ms",
    )
    metrics = {}
    for name, samples, unit in (
        ("cpu_ref_s", [sum(ref.at_ref(c) for c in r) for r in t.rounds], "s"),
        ("setup_s", [ref.at_ref(c) for c in t.setup], "s"),
        ("peak_rss_mb", [max(c.rss_mb for c in r) for r in t.rounds], "MiB"),
    ):
        metrics[name] = {"value": _summary(w, name, samples, unit), "unit": unit}
    print(f"{w} failed_ratio {t.failed / t.attempted:.4f} 1 ({t.failed} of {t.attempted} commands)")
    return metrics


# -- traced run -------------------------------------------------------------------


def trace_pass(runner: Runner, workload: str, pass_no: int, expected: dict, tally: Tally) -> tuple[dict, float]:
    """Run each command under the tracer; merged raw counters and wall."""
    merged: dict[str, dict[str, float]] = {}
    wall = 0.0
    import_s = 0.0
    for i, cmd in enumerate(WORKLOADS[workload]):
        out = OUT_DIR / f"trace-{workload}-{i}-{pass_no}.json"
        child = runner.spawn(
            [
                sys.executable,
                str(HERE / "tracer.py"),
                "--out",
                str(out),
                "--run-id",
                f"{workload}/{i}/{pass_no}",
                "--",
                *cmd,
            ]
        )
        tally.attempted += 1
        if not command_ok(cmd, child, expected):
            tally.failed += 1
            print(f"FAILED (traced): {command_key(cmd)} (exit {child.code})", file=sys.stderr)
            print(child.stderr[-2000:], file=sys.stderr)
            continue
        wall += child.wall_s
        doc = json.loads(out.read_text(encoding="utf-8"))
        import_s += doc["import_s"]
        for part in ("calls", "edges", "self_s", "total_s", "counts", "distinct"):
            bucket = merged.setdefault(part, {})
            for k, v in doc[part].items():
                bucket[k] = bucket.get(k, 0) + v
    merged["import_s"] = {"cli": import_s}
    return merged, wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, named as in BENCHMARK.json, from merged counters."""
    calls = raw.get("calls", {})
    edges = raw.get("edges", {})
    self_s = raw.get("self_s", {})
    total_s = raw.get("total_s", {})
    counts = raw.get("counts", {})
    distinct = raw.get("distinct", {})
    c = lambda k: (float(calls.get(k, 0)), "count")
    s = lambda k: (float(self_s.get(k, 0.0)), "s")
    n = lambda k: (float(counts.get(k, 0)), "count")
    layer = lambda prefix: (sum(v for k, v in self_s.items() if k.startswith(prefix)), "s")

    out: dict[str, tuple[float, str]] = {"cli.import_s": (raw["import_s"]["cli"], "s")}
    for suite in ("counts", "conditions", "hovey", "adjunction", "bijection"):
        out[f"cli.suite.{suite}.self_s"] = s(f"cli.suite.{suite}")
    out["cli.enumerate_by_second_class.self_s"] = s("cli.enumerate_by_second_class")

    for k in ("solve", "kernel_basis", "F2Matrix.mul", "ExpressSolver.express"):
        out[f"f2.{k}.calls"] = c(f"f2.{k}")
    out["f2.self_s"] = layer("f2.")

    cone_calls = calls.get("nakayama.cone", 0)
    cone_distinct = distinct.get("nakayama.cone", 0)
    out["nakayama.build_s"] = (float(total_s.get("nakayama.build", 0.0)), "s")
    out["nakayama.cone.calls"] = c("nakayama.cone")
    out["nakayama.cone.distinct"] = (float(cone_distinct), "count")
    out["nakayama.cone.hit_ratio"] = (_ratio(cone_calls - cone_distinct, cone_calls), "1")
    out["nakayama.cone.self_s"] = s("nakayama.cone")
    out["nakayama.split_module.calls"] = c("nakayama.split_module")
    out["nakayama.split_module.self_s"] = s("nakayama.split_module")
    out["nakayama.triangle_enumerate.calls"] = c("nakayama.triangle_enumerate")
    out["nakayama.triangle_enumerate.yields"] = n("nakayama.triangle_enumerate.yields")
    out["nakayama.triangle_enumerate.self_s"] = s("nakayama.triangle_enumerate")
    out["nakayama.compose.calls"] = c("nakayama.compose")
    out["nakayama.hom_dim_pair.calls"] = c("nakayama.hom_dim_pair")

    out["subcats.star_contains.calls"] = c("subcats.star_contains")
    out["subcats.star_contains.peel"] = c("subcats.star_contains.peel")
    out["subcats.star_contains.literal"] = c("subcats.star_contains.literal")
    out["subcats.star_contains.inconclusive"] = n("subcats.star_contains.inconclusive")
    out["subcats.star_contains.self_s"] = s("subcats.star_contains")
    out["subcats.perp.calls"] = c("subcats.perp")
    out["subcats.perp.self_s"] = s("subcats.perp")
    ext = calls.get("subcats.is_ext_closed_pairwise", 0)
    out["subcats.is_ext_closed_pairwise.calls"] = c("subcats.is_ext_closed_pairwise")
    out["subcats.is_ext_closed_pairwise.pass_ratio"] = (
        _ratio(counts.get("subcats.is_ext_closed_pairwise.passed", 0), ext),
        "1",
    )
    out["subcats.is_ext_closed_pairwise.self_s"] = s("subcats.is_ext_closed_pairwise")
    out["subcats.pair_extensions.calls"] = c("subcats.pair_extensions")
    out["subcats.pair_extensions.distinct"] = (float(distinct.get("subcats.pair_extensions", 0)), "count")
    out["subcats.enumerate_subcats.candidates"] = n("subcats.enumerate_subcats.candidates")
    out["subcats.enumerate_subcats.kept"] = n("subcats.enumerate_subcats.kept")

    cand = edges.get("pairs.enumerate_cotorsion>subcats.is_ext_closed_pairwise", 0)
    found = counts.get("pairs.enumerate_cotorsion.pairs", 0)
    out["pairs.enumerate_cotorsion.candidates"] = (float(cand), "count")
    out["pairs.enumerate_cotorsion.pairs"] = (float(found), "count")
    out["pairs.enumerate_cotorsion.useful_ratio"] = (_ratio(found, cand), "1")
    out["pairs.enumerate_cotorsion.self_s"] = s("pairs.enumerate_cotorsion")
    tcp = calls.get("pairs.is_tcp", 0)
    out["pairs.is_tcp.calls"] = c("pairs.is_tcp")
    out["pairs.is_tcp.true_ratio"] = (_ratio(counts.get("pairs.is_tcp.true", 0), tcp), "1")
    out["pairs.is_tcp.self_s"] = s("pairs.is_tcp")
    out["pairs.ext1_witness.calls"] = c("pairs.ext1_witness")
    out["pairs.h_vanishes.calls"] = c("pairs.h_vanishes")
    out["pairs.h_vanishes.self_s"] = s("pairs.h_vanishes")
    for cond in ("I", "II", "III"):
        out[f"pairs.condition.{cond}.self_s"] = s(f"pairs.condition.{cond}")

    out["quotient.for_pair.calls"] = c("quotient.for_pair")
    for k in ("hom_mod_I", "standard_right_triangle", "mu_map"):
        out[f"quotient.{k}.calls"] = c(f"quotient.{k}")
        out[f"quotient.{k}.self_s"] = s(f"quotient.{k}")

    zi_cand = calls.get("mutation.zi_is_cp", 0)
    zi_found = counts.get("mutation.enumerate_zi_cp.found", 0)
    out["mutation.verify_bijection.self_s"] = s("mutation.verify_bijection")
    out["mutation.enumerate_zi_cp.candidates"] = (float(zi_cand), "count")
    out["mutation.enumerate_zi_cp.found"] = (float(zi_found), "count")
    out["mutation.enumerate_zi_cp.useful_ratio"] = (_ratio(zi_found, zi_cand), "1")
    for k in ("zi_star_member", "I_map"):
        out[f"mutation.{k}.calls"] = c(f"mutation.{k}")
        out[f"mutation.{k}.self_s"] = s(f"mutation.{k}")
    out["mutation.mutate.calls"] = c("mutation.mutate")

    out["polygon.enumerate_rigid.self_s"] = s("polygon.enumerate_rigid")
    out["polygon.enumerate_ptolemy.self_s"] = s("polygon.enumerate_ptolemy")
    out["polygon.is_rigid.calls"] = c("polygon.is_rigid")
    out["polygon.is_ptolemy.calls"] = c("polygon.is_ptolemy")
    return out


def traced(runner: Runner, workload: str, expected: dict) -> tuple[Tally, dict[str, tuple[float, str]], bool]:
    tally = Tally()
    untraced = tally.run_commands(runner, WORKLOADS[workload], expected)
    untraced_wall = sum(c.wall_s for c in untraced)
    raw0, traced_wall = trace_pass(runner, workload, 0, expected, tally)
    raw1, _ = trace_pass(runner, workload, 1, expected, tally)
    metrics = layer_metrics(raw0)
    repeat = layer_metrics(raw1)
    steady = all(
        metrics[k] == repeat[k]
        for k in metrics
        if metrics[k][1] != "s"
    )
    if not steady:
        print(f"{workload}: traced counts differ between two passes", file=sys.stderr)
    metrics["proc.cpu_s"] = (sum(c.cpu_s for c in untraced), "s")
    metrics["proc.trace_overhead"] = (_ratio(traced_wall, untraced_wall), "1")
    return tally, metrics, steady


# -- entry point --------------------------------------------------------------------


def environment(seed: int) -> dict[str, Any]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cotor CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cotor" / "cli.py").is_file():
        print(
            "error: no cotor source tree at ./src/cotor; run from the repository root",
            file=sys.stderr,
        )
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unrecorded = [
        command_key(cmd) for w in names for cmd in WORKLOADS[w] if command_key(cmd) not in expected
    ]
    if unrecorded:
        print(f"error: no digest in {EXPECTED.name} for: {unrecorded}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Children inherit this: every command, set-up probe and the
    # reference probe share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    metrics: dict[str, dict[str, Any]] = {}
    tallies: dict[str, Tally] = {}
    correct = True
    if args.trace:
        for w in names:
            runner.deadline = time.monotonic() + DEADLINE_S
            tally, layer, steady = traced(runner, w, expected)
            tallies[w] = tally
            correct = correct and steady
            for name, (value, unit) in layer.items():
                print(f"{w} {name} {value:.6g} {unit}")
                key = name if len(names) == 1 else f"{w}.{name}"
                metrics[key] = {"value": value, "unit": unit}
    else:
        with RefSpeed(OUT_DIR / "refspeed.bin") as ref:
            tallies = timed(runner, names, args.seed, args.seconds, expected)
        for w, t in tallies.items():
            for name, m in end_to_end(w, t, ref).items():
                metrics[name if len(names) == 1 else f"{w}.{name}"] = m

    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    correct = correct and failed == 0 and not runner.timed_out
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, env=env, workload=args.workload, trace=args.trace)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
