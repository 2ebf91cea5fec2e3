"""Command-line interface: exit codes, report envelope, determinism.

Reports must be byte-stable across reruns of the same invocation, so
two runs are compared as raw bytes.  Exit-code plumbing is driven both
through honest commands and through stubbed suites for the outcomes a
healthy library cannot produce.
"""

import gc
import json
import weakref

import pytest

from cotor import cli
from cotor.core import InternalCheckError, Mor, Obj, Verdict
from cotor.mutation import MutationEngine
from cotor.nakayama import NakayamaBackend
from cotor.pairs import PairEngine
from cotor.subcats import DEFAULT_CAP


def invoke(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_of(out):
    doc = json.loads(out)
    assert doc["schema"] == "cotor.report/2"
    return doc


# ---------------------------------------------------------------- envelope


def test_enumerate_cp_envelope_and_count(capsys):
    rc, out, err = invoke(
        capsys, "enumerate-cp", "--backend", "nakayama:m=1,n=3"
    )
    assert rc == 0 and err == ""
    doc = report_of(out)
    assert set(doc) == {
        "schema", "tool_version", "command", "backend", "cap", "report",
    }
    assert doc["command"] == "enumerate-cp"
    assert doc["backend"] == "nakayama:m=1,n=3"
    assert doc["cap"] == 4
    assert doc["report"]["count"] == 2
    assert set(doc["report"]) == {"count", "pairs"}
    for rec in doc["report"]["pairs"]:
        assert set(rec) == {"U", "V", "flags"}


def test_settings_are_recorded(capsys):
    base = ["enumerate-cp", "--backend", "nakayama:m=1,n=3"]
    rc, out, _ = invoke(capsys, *base, "--cap", "3")
    assert rc == 0
    assert report_of(out)["cap"] == 3
    # Nothing reads a worker count or a seed, so neither is an option.
    for gone in (["--jobs", "4"], ["--seed", "7"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(base + gone)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path, capsys):
    argv = ["verify", "--suite", "all", "--backend", "nakayama:m=2,n=2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert capsys.readouterr().out == ""
    assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("cotor ")


# ---------------------------------------------------------------- enumeration


def test_enumerate_tcp_concentric_counts(capsys):
    rc, out, _ = invoke(
        capsys,
        "enumerate-tcp", "--backend", "nakayama:m=2,n=2", "--concentric",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["concentric_only"] is True
    assert rep["count"] == 5
    for row in rep["twin_pairs"]:
        assert row["concentric"] is True


def test_enumerate_tcp_hovey_filter_attaches_classes(capsys):
    rc, out, _ = invoke(
        capsys,
        "enumerate-tcp", "--backend", "nakayama:m=2,n=2", "--hovey",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["count"] == 5
    for row in rep["twin_pairs"]:
        assert row["verdicts"]["hovey"] == "yes"
        assert "hovey_class" in row


def test_enumerate_tcp_condition_filter_drops_failures(capsys):
    rc, out, _ = invoke(
        capsys,
        "enumerate-tcp", "--backend", "nakayama:m=3,n=2", "--cond-II",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert 0 < rep["count"] < 12
    for row in rep["twin_pairs"]:
        assert row["verdicts"]["condition_II"] == "yes"


def test_inspect_pair_accepts_the_simple_alias(capsys):
    rc, out, _ = invoke(
        capsys,
        "inspect-pair", "--backend", "nakayama:m=2,n=2",
        "--pair", "U=[S0];V=[S0]",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["cotorsion"] == "yes"
    assert rep["U"] == ["M(0,1)"]
    assert rep["flags"]["cluster_tilting"] is True


def test_inspect_pair_reports_failures_without_violating(capsys):
    rc, out, _ = invoke(
        capsys,
        "inspect-pair", "--backend", "nakayama:m=2,n=2",
        "--pair", "U=[M(0,1)];V=[M(1,1)]",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["cotorsion"] == "no"
    assert rep["reason"]
    assert "flags" not in rep


# ---------------------------------------------------------------- quotient commands


def test_reduce_trivial_hovey(capsys):
    rc, out, _ = invoke(
        capsys,
        "reduce", "--backend", "nakayama:m=2,n=2", "--tcp", "trivial-hovey",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert sorted(rep["objects"]) == ["M(0,1)", "M(1,1)"]
    assert rep["conditions"] == {
        "condition_I": "yes", "condition_II": "yes", "condition_III": "yes"
    }
    assert rep["twin"]["S"] == []


def test_reduce_degenerate_pair_is_zero_category(capsys):
    rc, out, _ = invoke(
        capsys,
        "reduce", "--backend", "nakayama:m=2,n=2",
        "--tcp", "degenerate:U=[S0];V=[S0]",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["objects"] == []
    assert rep["core"] == ["M(0,1)"]


def test_mutate_swaps_simples(capsys):
    rc, out, _ = invoke(
        capsys,
        "mutate", "--backend", "nakayama:m=2,n=2",
        "--tcp", "trivial-hovey", "--pair", "U=[S0];V=[S0]", "--k", "1",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["output"]["U"] == ["M(1,1)"]
    assert rep["output"]["V"] == ["M(1,1)"]
    assert rep["k"] == 1
    assert rep["conditions"] == {"condition_I": "yes", "condition_II": "yes"}


def test_mutate_outside_class_is_invalid_input(capsys):
    rc, out, err = invoke(
        capsys,
        "mutate", "--backend", "nakayama:m=2,n=2",
        "--tcp", "degenerate:U=[S0];V=[S0]",
        "--pair", "U=[M(1,1)];V=[M(1,1)]", "--k", "1",
    )
    assert rc == 2
    assert "outside the mutable class" in err


def test_orbit_graph_emits_dot(capsys):
    rc, out, _ = invoke(
        capsys,
        "orbit-graph", "--backend", "nakayama:m=1,n=3",
        "--tcp", "trivial-hovey",
    )
    assert rc == 0
    assert out.startswith("digraph mutation {")
    assert "n0 -> n0;" in out and "n1 -> n1;" in out


# ---------------------------------------------------------------- suites


def test_verify_counts_suite(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "--suite", "counts",
        "--backend", "nakayama:m=1,n=3",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["suites"]["counts"]["cotorsion_pairs"] == 2
    assert rep["suites"]["counts"]["twin_pairs"] == 3
    assert all(row["verdict"] == "yes" for row in rep["claims"])


def test_verify_counts_on_polygon(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "--suite", "counts", "--backend", "polygon:N=5",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    counts = rep["suites"]["counts"]
    assert counts == {
        "rigid": 11, "triangulations": 5, "crossing_closed": 17
    }
    assert all(row["verdict"] == "yes" for row in rep["claims"])


def test_verify_all_on_polygon_skips_suites_it_cannot_run(capsys):
    rc, out, err = invoke(
        capsys, "verify", "--suite", "all", "--backend", "polygon:N=5",
    )
    assert rc == 0 and err == ""
    suites = report_of(out)["report"]["suites"]
    assert suites.pop("counts") == {
        "rigid": 11, "triangulations": 5, "crossing_closed": 17
    }
    assert suites == {
        name: {"skipped": "backend lacks capability exact_triangles"}
        for name in ("conditions", "hovey", "adjunction", "bijection")
    }
    # A suite asked for by name still refuses the backend.
    rc, _, err = invoke(
        capsys, "verify", "--suite", "hovey", "--backend", "polygon:N=5",
    )
    assert rc == 2 and "lacks capability exact_triangles" in err


def test_verify_all_suites(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "--suite", "all", "--backend", "nakayama:m=2,n=2",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert set(rep["suites"]) == {
        "counts", "conditions", "hovey", "adjunction", "bijection"
    }
    assert rep["claims"]
    assert all(row["verdict"] == "yes" for row in rep["claims"])


# ---------------------------------------------------------------- matching


def test_match_backends_finds_the_square_dictionary(capsys):
    rc, out, _ = invoke(
        capsys, "match-backends", "nakayama:m=2,n=2", "polygon:N=4",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    match = rep["match"]
    assert match is not None
    assert sorted(match) == ["M(0,1)", "M(1,1)"]
    assert sorted(match.values()) == ["arc(0,2)", "arc(1,3)"]


def test_match_backends_reports_failure_as_null(capsys):
    rc, out, _ = invoke(
        capsys, "match-backends", "nakayama:m=1,n=3", "polygon:N=4",
    )
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["match"] is None
    assert rep["size_a"] == rep["size_b"] == 2


def test_match_backends_identity(capsys):
    rc, out, _ = invoke(
        capsys, "match-backends", "polygon:N=5", "polygon:N=5",
    )
    assert rc == 0
    assert report_of(out)["report"]["match"] is not None


# ---------------------------------------------------------------- exit codes


def test_invalid_inputs_exit_two(capsys):
    cases = [
        ["enumerate-cp", "--backend", "carnival:m=1"],
        ["enumerate-cp", "--backend", "nakayama:m=1,n=3", "--cap", "1"],
        ["enumerate-cp"],
        ["inspect-pair", "--backend", "nakayama:m=1,n=3", "--pair", "U=[S9]"],
        ["inspect-pair", "--backend", "nakayama:m=1,n=3", "--pair", "W=[];V=[]"],
        ["inspect-pair", "--backend", "nakayama:m=1,n=3", "--pair", "U=S0;V=[]"],
        ["inspect-pair", "--backend", "nakayama:m=1,n=3", "--pair", "U=[M(0,1];V=[]"],
        ["enumerate-cp", "--backend", "polygon:N=5"],
        # the perpendiculars have no capability check, the pair engine has
        ["inspect-pair", "--backend", "polygon:N=5", "--pair", "U=[arc(0,2)];V=[]"],
    ]
    for argv in cases:
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith("error:"), argv


def test_unknown_labels_are_named_as_typed(capsys):
    for label in ("S9", "M(7,1)"):
        rc, _, err = invoke(
            capsys, "inspect-pair", "--backend", "nakayama:m=1,n=3",
            "--pair", f"U=[{label}];V=[]",
        )
        assert rc == 2
        assert err == f"error: unknown indecomposable label {label!r}\n"


def test_oversized_polygon_is_refused_before_it_is_built(capsys):
    rc, _, err = invoke(
        capsys, "verify", "--suite", "counts", "--backend", "polygon:N=100000",
    )
    assert rc == 2
    assert err == "error: polygon:N=100000 has 4999850000 arcs, above the cap 1000\n"


def test_cap_defaults_to_the_star_engine_default():
    # One default for the CLI flag, the pair engine and the star engine.
    assert cli._build_parser().parse_args(["enumerate-cp"]).cap == DEFAULT_CAP
    assert PairEngine(NakayamaBackend(1, 3)).star.cap == DEFAULT_CAP


def test_repeated_backend_parameter_exits_two(capsys):
    # The spec is recorded in the report, so an ambiguous one must not
    # build some backend anyway.
    rc, out, err = invoke(
        capsys, "enumerate-cp", "--backend", "nakayama:m=1,m=2,n=3"
    )
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "repeated nakayama parameter 'm'" in err


def test_violation_exits_one(monkeypatch, capsys):
    def claims_no(args, status):
        status.claim("stub", Verdict.no(reason="forced"))
        return {}

    monkeypatch.setitem(cli._SUITE_FUNCS, "counts", claims_no)
    rc, out, _ = invoke(
        capsys, "verify", "--suite", "counts",
        "--backend", "nakayama:m=1,n=3",
    )
    assert rc == 1
    assert report_of(out)["report"]["claims"][0]["verdict"] == "no"


def test_bijection_failure_is_reported_not_crashed(monkeypatch, capsys):
    honest = MutationEngine.verify_bijection

    def one_failure(self):
        report = honest(self)
        report["failures"].append({"kind": "injected", "detail": "forced"})
        report["ok"] = False
        return report

    monkeypatch.setattr(MutationEngine, "verify_bijection", one_failure)
    rc, out, _ = invoke(
        capsys, "verify", "--suite", "bijection",
        "--backend", "nakayama:m=2,n=2",
    )
    assert rc == 1
    claims = report_of(out)["report"]["claims"]
    failed = [row for row in claims if row["verdict"] == "no"]
    assert failed and all("injected" in row["reason"] for row in failed)


def test_internal_check_exits_one(monkeypatch, capsys):
    def boom(args, status):
        raise InternalCheckError("cross-check mismatch")

    monkeypatch.setitem(cli._SUITE_FUNCS, "counts", boom)
    rc, _, err = invoke(
        capsys, "verify", "--suite", "counts",
        "--backend", "nakayama:m=1,n=3",
    )
    assert rc == 1
    assert err.startswith("property violation:")


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def boom(args, status):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli._SUITE_FUNCS, "counts", boom)
    rc, out, err = invoke(
        capsys, "verify", "--suite", "counts",
        "--backend", "nakayama:m=1,n=3",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("internal error: RuntimeError: unexpected")
    assert "Traceback" not in err


def test_inconclusive_exits_three_unless_allowed(monkeypatch, capsys):
    def claims_maybe(args, status):
        status.claim("stub", Verdict.inconclusive(reason="cap"))
        return {}

    monkeypatch.setitem(cli._SUITE_FUNCS, "counts", claims_maybe)
    base = ["verify", "--suite", "counts", "--backend", "nakayama:m=1,n=3"]
    assert cli.main(base) == 3
    capsys.readouterr()
    assert cli.main(base + ["--allow-inconclusive"]) == 0
    capsys.readouterr()


def _undecided(self, p):
    return Verdict.inconclusive(reason="stubbed")


def test_inconclusive_condition_row_exits_three_unless_allowed(monkeypatch, capsys):
    # Condition III feeds no claim when it is not a yes, so only its row
    # carries the inconclusive state to the exit code.
    monkeypatch.setattr(PairEngine, "check_condition_III", _undecided)
    base = ["verify", "--suite", "conditions", "--backend", "nakayama:m=2,n=3"]
    rc, out, _ = invoke(capsys, *base)
    assert rc == 3
    rows = report_of(out)["report"]["suites"]["conditions"]["twin_pairs"]
    assert rows and all(row["condition_III"] == "inconclusive" for row in rows)
    assert cli.main(base + ["--allow-inconclusive"]) == 0
    capsys.readouterr()


def test_undecided_premises_leave_the_inverse_claim_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(PairEngine, "check_condition_I", _undecided)
    rc, out, _ = invoke(
        capsys, "verify", "--suite", "adjunction", "--backend", "nakayama:m=2,n=3"
    )
    assert rc == 3
    inverse = [
        row for row in report_of(out)["report"]["claims"]
        if row["claim"] == "suspension and loop are mutually inverse on classes"
    ]
    assert inverse and all(row["verdict"] == "inconclusive" for row in inverse)


def _starved(backend, cap):
    engine = PairEngine(backend, cap=cap)
    engine.star.budget = 0
    return engine


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate-cp"],
        ["verify", "--suite", "counts"],
        ["verify", "--suite", "hovey"],
    ],
    ids=["enumerate-cp", "counts", "hovey"],
)
def test_cotorsion_pair_checks_need_no_peel_budget(monkeypatch, capsys, argv):
    # Coverage and the extension classes are decided by one minimal
    # approximation each, so a peel search with no budget at all leaves
    # the enumerations, the derived classes and the Hovey test unchanged.
    argv = [*argv, "--backend", "nakayama:m=2,n=4"]
    rc, want, _ = invoke(capsys, *argv)
    assert rc == 0
    monkeypatch.setattr("cotor.pairs.PairEngine", _starved)
    rc, out, err = invoke(capsys, *argv)
    assert rc == 0 and err == ""
    assert report_of(out)["report"] == report_of(want)["report"]


def test_a_starved_condition_I_peel_exits_three_unless_allowed(monkeypatch, capsys):
    # The star T * U of condition (I) has sides that are not orthogonal,
    # so it still runs on the capped peel, and an exhausted budget there
    # is an inconclusive verdict, never a guess.
    monkeypatch.setattr("cotor.pairs.PairEngine", _starved)
    argv = ["verify", "--suite", "conditions", "--backend", "nakayama:m=2,n=4"]
    rc, out, _ = invoke(capsys, *argv)
    assert rc == 3
    rows = report_of(out)["report"]["suites"]["conditions"]["twin_pairs"]
    assert any(row["condition_I"] == "inconclusive" for row in rows)
    assert all(row["condition_II"] != "inconclusive" for row in rows)
    rc, allowed, _ = invoke(capsys, *argv, "--allow-inconclusive")
    assert rc == 0 and allowed == out


def test_an_approximation_out_of_its_class_is_a_violation(monkeypatch, capsys):
    # A left approximation triangle whose end is forced out of its class
    # (the zero map c -> 0, whose cocone is c itself) breaks the pair axioms:
    # the run reports a property violation, exit 1, and no traceback.  The
    # right approximations stay honest, since the enumeration reads them.
    honest = PairEngine.approximation

    def zero_left_approximation(self, cls, c, step):
        if step == 1:
            return honest(self, cls, c, step)
        return Mor(c, Obj.zero(), 0)

    monkeypatch.setattr(PairEngine, "approximation", zero_left_approximation)
    argv = ["verify", "--suite", "conditions", "--backend", "nakayama:m=2,n=3"]
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("property violation: left approximation of ")
    assert "has an end outside" in err and "Traceback" not in err


def test_a_run_keeps_nothing_after_main_returns(monkeypatch, capsys):
    refs = []

    def tracked(backend, cap):
        engine = PairEngine(backend, cap=cap)
        refs.extend([weakref.ref(engine), weakref.ref(backend)])
        return engine

    monkeypatch.setattr("cotor.pairs.PairEngine", tracked)
    argv = ["verify", "--suite", "all", "--backend", "nakayama:m=2,n=3"]
    assert invoke(capsys, *argv)[0] == 0
    gc.collect()
    assert len(refs) == 2 and all(ref() is None for ref in refs)


def test_out_file_holds_the_whole_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = invoke(
        capsys,
        "enumerate-cp", "--backend", "nakayama:m=1,n=3",
        "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["report"]["count"] == 2


def test_unwritable_out_file_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    for argv in (
        ["enumerate-cp", "--backend", "nakayama:m=1,n=3"],
        ["orbit-graph", "--backend", "nakayama:m=2,n=2", "--tcp", "trivial-hovey"],
    ):
        rc, out, err = invoke(capsys, *argv, "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot write --out")
