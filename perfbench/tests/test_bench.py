"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, pred_counter  # noqa: E402

CMD = ["verify", "--suite", "counts", "--backend", "nakayama:m=2,n=2"]
REPORT = {"suites": {"counts": {"cotorsion_pairs": 4}}, "claims": []}


def _stdout(report: dict, **envelope) -> str:
    doc = {"schema": "cotor.report/1", "report": report, **envelope}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _FakeRunner:
    def __init__(self, stdout: str, code: int = 0, stderr: str = "") -> None:
        self.child = run.Child(1.0, code, stdout, stderr, 20.0, 1.0, 0.0, 1.0)

    def cli(self, cmd):
        return self.child


def _tally_for(stdout: str, **kw) -> run.Tally:
    expected = {run.command_key(CMD): run.payload_digest(_stdout(REPORT))}
    tally = run.Tally()
    tally.run_commands(_FakeRunner(stdout, **kw), [CMD], expected)
    return tally


def test_matching_payload_passes_even_if_envelope_changes():
    tally = _tally_for(_stdout(REPORT, schema="cotor.report/2"))
    assert (tally.attempted, tally.failed) == (1, 0)


def test_tampered_payload_is_counted_as_failed():
    tampered = json.loads(json.dumps(REPORT))
    tampered["suites"]["counts"]["cotorsion_pairs"] = 5
    tally = _tally_for(_stdout(tampered))
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize(
    "kw",
    [
        {"code": 1},
        {"stderr": "Traceback (most recent call last):\n  ..."},
        {"stdout": "not json"},
    ],
)
def test_bad_exit_traceback_or_garbage_is_failed(kw):
    stdout = kw.pop("stdout", _stdout(REPORT))
    tally = _tally_for(stdout, **kw)
    assert tally.failed == 1


def test_command_without_recorded_digest_is_failed():
    for stdout in (_stdout(REPORT), "not json"):
        tally = run.Tally()
        tally.run_commands(_FakeRunner(stdout), [CMD], {})
        assert (tally.attempted, tally.failed) == (1, 1)


def _child(cpu_s: float, start: float, end: float) -> run.Child:
    return run.Child(end - start, 0, "", "", 20.0, cpu_s, start, end)


def test_cpu_time_is_rescaled_to_reference_speed():
    ref = run.RefSpeed(Path("unused"))
    # A slow host: every chunk takes twice the reference chunk time.
    ref.ends = [0.01 * i for i in range(1000)]
    ref.cpu = [2 * run.REF_CHUNK_S] * 1000
    assert ref.at_ref(_child(3.0, 2.0, 5.0)) == pytest.approx(1.5)
    # Only the chunks near the child count.
    ref.cpu[500:] = [run.REF_CHUNK_S] * 500
    assert ref.at_ref(_child(3.0, 7.0, 9.0)) == pytest.approx(3.0)


def test_too_few_reference_chunks_is_an_error():
    ref = run.RefSpeed(Path("unused"))
    ref.ends = [0.0, 10.0]
    ref.cpu = [run.REF_CHUNK_S] * 2
    with pytest.raises(SystemExit):
        ref.at_ref(_child(1.0, 4.0, 5.0))


def test_reference_probe_logs_chunks_and_stops(tmp_path):
    with run.RefSpeed(tmp_path / "chunks.bin") as ref:
        time.sleep(0.5)
    assert ref.proc.returncode == 0
    assert len(ref.ends) >= run.MIN_CHUNKS
    assert ref.ends == sorted(ref.ends)
    assert all(c > 0 for c in ref.cpu)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _at(tracer: Tracer, clock: _Clock, t: float, name: str | None = None) -> None:
    clock.now = t
    if name is None:
        tracer.exit()
    else:
        tracer.enter(name)


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    tr = Tracer("r", clock=clock)
    _at(tr, clock, 0.0, "a")
    _at(tr, clock, 1.0, "b")
    _at(tr, clock, 2.0, "c")
    _at(tr, clock, 2.5)  # c: 0.5
    _at(tr, clock, 4.0)  # b: 3.0, of which 0.5 in c
    _at(tr, clock, 5.0, "c")
    _at(tr, clock, 6.0)  # c: 1.0
    _at(tr, clock, 10.0)  # a: 10.0, of which 4.0 in b and c
    assert tr.self_s["a"] == pytest.approx(6.0)
    assert tr.self_s["b"] == pytest.approx(2.5)
    assert tr.self_s["c"] == pytest.approx(1.5)
    # The same, from the recorded spans and their parent links.
    own: dict[str, float] = {}
    for run_id, span_id, _, name, start, end in tr.spans:
        covered = sum(e - b for _, _, parent, _, b, e in tr.spans if parent == span_id)
        own[name] = own.get(name, 0.0) + (end - start) - covered
        assert run_id == "r"
    assert own == pytest.approx(dict(tr.self_s))


def test_recursion_is_not_counted_twice():
    clock = _Clock()
    tr = Tracer("r", clock=clock)
    _at(tr, clock, 0.0, "split")
    _at(tr, clock, 1.0, "split")
    _at(tr, clock, 3.0)
    _at(tr, clock, 5.0)
    assert tr.calls["split"] == 2
    assert tr.self_s["split"] == pytest.approx(5.0)
    assert tr.total_s["split"] == pytest.approx(5.0)


def test_calls_are_counted_per_caller():
    clock = _Clock()
    tr = Tracer("r", clock=clock)
    _at(tr, clock, 0.0, "sweep")
    _at(tr, clock, 1.0, "check")
    _at(tr, clock, 2.0)
    _at(tr, clock, 3.0)
    _at(tr, clock, 4.0, "check")
    _at(tr, clock, 5.0)
    assert tr.calls["check"] == 2
    assert dict(tr.edges) == {"sweep>check": 1}


def test_predicate_calls_are_the_candidates():
    def enumerate_subcats(backend, pred):
        return [s for s in range(backend) if pred(s)]

    tr = Tracer("r")
    wrapped = pred_counter(tr, "e", enumerate_subcats)
    assert wrapped(10, lambda s: s % 3 == 0) == [0, 3, 6, 9]
    assert tr.counts["e.candidates"] == 10


# Call counts of the commit that added this benchmark.  A mismatch there
# means the tracer missed a binding; a later change that moves these
# layers on purpose updates the numbers in a benchmark change of its own.
SEED_COUNTS = {
    "bijection": {
        "nakayama.cone.calls": 14_821,
        "nakayama.cone.distinct": 3_591,
        "nakayama.split_module.calls": 18_177,
        "mutation.enumerate_zi_cp.candidates": 4_112,
    },
    "conditions": {
        "nakayama.triangle_enumerate.calls": 10_108,
        "nakayama.cone.calls": 169_494,
        "nakayama.cone.distinct": 1_207,
    },
    "sweep": {
        "pairs.is_tcp.calls": 695_556,
        "subcats.is_ext_closed_pairwise.calls": 196_608,
    },
}


@pytest.mark.skipif(
    not (Path.cwd() / "src" / "cotor").is_dir(),
    reason="needs the cotor source tree; run from the repository root",
)
@pytest.mark.parametrize("workload", sorted(SEED_COUNTS))
def test_traced_counts_match_the_seed_profile(workload):
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)
    runner = run.Runner(Path.cwd())
    tally = run.Tally()
    raw, _ = run.trace_pass(runner, workload, 0, expected, tally)
    assert tally.failed == 0
    metrics = run.layer_metrics(raw)
    got = {k: metrics[k][0] for k in SEED_COUNTS[workload]}
    assert got == SEED_COUNTS[workload]
