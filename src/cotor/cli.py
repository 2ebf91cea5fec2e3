"""Command-line front end producing versioned JSON reports.

Every report is a single JSON document under the schema name
``cotor.report/2`` that embeds the command, the backend spec, the search
cap, and the tool version.  No search is randomized, so rerunning the
same command with the same configuration reproduces the report byte for
byte.  Exit status encodes the outcome: 0 clean, 1 property violation
found or internal error, 2 invalid input, 3 a capped peel search was
inconclusive (suppressed by ``--allow-inconclusive``).  No path ends in
a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Any, Callable, Optional

from . import __version__, nakayama, polygon
from .core import (
    Backend,
    CotorError,
    InputError,
    InternalCheckError,
    MAX_MATCH_INDECS,
    Obj,
    Verdict,
)
from .mutation import MutationEngine
from .pairs import (
    CotorsionPair,
    PairEngine,
    TwinCotorsionPair,
    trivial_hovey_tcp,
    trivial_pairs,
)
from .quotient import ZIQuotient
from .subcats import DEFAULT_CAP, Subcat, iter_bits
from .subcats import left_perp, perp_pairs, right_perp

SCHEMA = "cotor.report/2"

_BUILDERS: dict[str, Callable[[str], Backend]] = {
    "nakayama": nakayama.parse_spec,
    "polygon": polygon.parse_spec,
}

_SUITES = ("counts", "conditions", "hovey", "adjunction", "bijection", "all")


def build_backend(spec: Optional[str]) -> Backend:
    if spec is None:
        raise InputError("--backend is required for this command")
    family = spec.split(":", 1)[0]
    builder = _BUILDERS.get(family)
    if builder is None:
        raise InputError(
            f"unknown backend family {family!r}; expected one of "
            + ", ".join(sorted(_BUILDERS))
        )
    return builder(spec)


def _tcp_name(p: TwinCotorsionPair) -> str:
    lbl = p.as_labels()
    return f"S={lbl['S']} T={lbl['T']} U={lbl['U']} V={lbl['V']}"


class _Status:
    """The ledger of a run: its one backend and pair engine, built on
    first use and dropped with the ledger when ``main`` returns, the
    claims its report prints and the worst outcome behind the exit code.

    Every verdict a command prints passes through here.  An inconclusive
    one, in a claim or in a row, makes the run inconclusive; a no fails
    the run only in a claim, since a row's no is data.
    """

    def __init__(self, spec: Optional[str], cap: int) -> None:
        self.spec = spec
        self.cap = cap
        self.claims: list[dict] = []
        self.violation = False
        self.inconclusive = False

    @functools.cached_property
    def backend(self) -> Backend:
        return build_backend(self.spec)

    @functools.cached_property
    def engine(self) -> PairEngine:
        return PairEngine(self.backend, cap=self.cap)

    def note(self, verdict: Verdict) -> str:
        """Record a verdict a row prints and return its state."""
        self.inconclusive |= verdict.is_inconclusive
        return verdict.state

    def claim(
        self, name: str, verdict: Verdict, p: Optional[TwinCotorsionPair] = None
    ) -> None:
        row: dict[str, Any] = {"claim": name, "verdict": self.note(verdict)}
        if verdict.reason:
            row["reason"] = verdict.reason
        if p is not None:
            row["twin"] = p.as_labels()
        self.claims.append(row)
        self.violation |= verdict.is_no

    def check(
        self, name: str, ok: bool, p: Optional[TwinCotorsionPair] = None
    ) -> None:
        """Claim a yes, or a no whose reason names the twin pair ``p``."""
        reason = None if p is None else _tcp_name(p)
        self.claim(name, Verdict.yes() if ok else Verdict.no(reason=reason), p)

    def code(self, allow_inconclusive: bool) -> int:
        if self.violation:
            return 1
        if self.inconclusive and not allow_inconclusive:
            return 3
        return 0


# -- object and pair parsing ------------------------------------------------

_SIMPLE_ALIAS = re.compile(r"^S(\d+)$")


def _resolve_label(b: Backend, text: str) -> int:
    text = text.strip()
    m = _SIMPLE_ALIAS.match(text)
    try:
        # Si is shorthand for the length-one module at vertex i.
        return b.id_of(f"M({m.group(1)},1)" if m else text)
    except InputError:
        raise InputError(f"unknown indecomposable label {text!r}") from None


def _split_labels(inner: str) -> list[str]:
    # Canonical labels carry commas inside parentheses, so only
    # top-level commas separate list entries.
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {inner!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {inner!r}")
    parts.append("".join(cur))
    return parts


def _parse_ids(b: Backend, text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(f"expected a bracketed label list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [_resolve_label(b, part) for part in _split_labels(inner)]


def _parse_assignments(
    b: Backend, text: str, keys: frozenset[str]
) -> dict[str, list[int]]:
    got: dict[str, list[int]] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, value = chunk.partition("=")
        if not eq:
            raise InputError(f"expected NAME=[labels] in {chunk!r}")
        name = name.strip()
        if name not in keys:
            raise InputError(
                f"unexpected class name {name!r}; wanted {sorted(keys)}"
            )
        if name in got:
            raise InputError(f"class {name!r} given twice")
        got[name] = _parse_ids(b, value)
    missing = keys - set(got)
    if missing:
        raise InputError(f"missing classes: {sorted(missing)}")
    return got


def _parse_pair(engine: PairEngine, text: str) -> CotorsionPair:
    b = engine.backend
    got = _parse_assignments(b, text, frozenset({"U", "V"}))
    return CotorsionPair(Subcat.of(b, got["U"]), Subcat.of(b, got["V"]))


def _parse_tcp(engine: PairEngine, text: str) -> TwinCotorsionPair:
    """Named twin pair, a doubled pair, or four explicit classes."""
    text = text.strip()
    if text == "trivial-hovey":
        return trivial_hovey_tcp(engine)
    if text.startswith("degenerate:"):
        cp = _parse_pair(engine, text[len("degenerate:") :])
        return engine.make_tcp(cp, cp)
    b = engine.backend
    got = _parse_assignments(b, text, frozenset({"S", "T", "U", "V"}))
    inner = CotorsionPair(Subcat.of(b, got["S"]), Subcat.of(b, got["T"]))
    outer = CotorsionPair(Subcat.of(b, got["U"]), Subcat.of(b, got["V"]))
    return engine.make_tcp(inner, outer)


# -- report plumbing ---------------------------------------------------------


def _cp_record(p: CotorsionPair) -> dict[str, Any]:
    rec: dict[str, Any] = p.as_labels()
    rec["flags"] = p.flags()
    return rec


def _envelope(args: argparse.Namespace, payload: dict) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": args.command,
        "backend": getattr(args, "backend", None),
        "cap": getattr(args, "cap", None),
        "report": payload,
    }


def _emit_text(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, doc: dict) -> None:
    _emit_text(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- enumeration commands ----------------------------------------------------


def _cmd_enumerate_cp(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    pairs = engine.enumerate_cotorsion().pairs
    return {"count": len(pairs), "pairs": [_cp_record(p) for p in pairs]}


def _cmd_enumerate_tcp(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    need_quotient = args.cond_I or args.cond_II or args.cond_III or args.hovey
    concentric_only = bool(args.concentric or need_quotient)
    rows: list[dict[str, Any]] = []
    for p in engine.concentric_tcps() if concentric_only else engine.enumerate_tcp():
        concentric = engine.is_concentric(p)
        rec: dict[str, Any] = p.as_labels()
        rec["flags"] = p.flags()
        rec["concentric"] = concentric
        # A failed filter drops the row; only undecidable membership
        # degrades the run.
        filters: dict[str, Verdict] = {}
        if args.hovey:
            v, n = engine.is_hovey(p)
            filters["hovey"] = v
            if v.is_yes and n is not None:
                rec["hovey_class"] = sorted(n.labels())
        if args.cond_II:
            filters["condition_II"] = engine.check_condition_II(p)
        if args.cond_III:
            filters["condition_III"] = engine.check_condition_III(p)
        if args.cond_I:
            filters["condition_I"] = engine.check_condition_I(p)
        if filters:
            rec["verdicts"] = {k: status.note(v) for k, v in filters.items()}
        if all(v.is_yes for v in filters.values()):
            rows.append(rec)
    return {
        "count": len(rows),
        "concentric_only": concentric_only,
        "twin_pairs": rows,
    }


def _cmd_inspect_pair(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    b = engine.backend
    got = _parse_assignments(b, args.pair, frozenset({"U", "V"}))
    u = Subcat.of(b, got["U"])
    v = Subcat.of(b, got["V"])
    verdict = engine.is_cotorsion_pair(u, v)
    rec: dict[str, Any] = {
        "U": u.labels(),
        "V": v.labels(),
        "cotorsion": status.note(verdict),
        "right_perp_of_U": right_perp(u).labels(),
        "left_perp_of_V": left_perp(v).labels(),
    }
    if verdict.reason:
        rec["reason"] = verdict.reason
    if verdict.is_yes:
        rec["flags"] = CotorsionPair(u, v).flags()
    return rec


# -- quotient commands -------------------------------------------------------


def _cmd_reduce(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    p = _parse_tcp(engine, args.tcp)
    q = ZIQuotient.for_pair(engine, p)
    payload = q.summary()
    payload["twin"] = p.as_labels()
    payload["conditions"] = {
        "condition_II": status.note(engine.check_condition_II(p)),
        "condition_III": status.note(engine.check_condition_III(p)),
        "condition_I": status.note(engine.check_condition_I(p)),
    }
    return payload


def _cmd_mutate(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    p = _parse_tcp(engine, args.tcp)
    me = MutationEngine(engine, p)
    cp = _parse_pair(engine, args.pair)
    out = me.mutate(cp, args.k)
    return {
        "twin": p.as_labels(),
        "conditions": {
            "condition_I": status.note(me.cond_I),
            "condition_II": status.note(me.cond_II),
        },
        "input": _cp_record(cp),
        "k": args.k,
        "output": _cp_record(out),
    }


def _cmd_orbit_graph(args: argparse.Namespace, status: _Status) -> None:
    engine = status.engine
    p = _parse_tcp(engine, args.tcp)
    me = MutationEngine(engine, p)
    _emit_text(args, me.orbit_graph())
    return None


# -- verification suites -----------------------------------------------------


def enumerate_by_second_class(engine: PairEngine) -> list[CotorsionPair]:
    """Independent route: the closed sets of the dual closure on V."""
    b = engine.backend
    ext1, ext1_into = b.hom_masks()[2:]
    out: list[CotorsionPair] = []
    for vbits, ubits in perp_pairs(ext1_into, ext1):
        u, v = Subcat(b, ubits), Subcat(b, vbits)
        if engine.is_cotorsion_pair(u, v).is_yes:
            out.append(CotorsionPair(u, v))
    return out


def _suite_counts_polygon(b: polygon.PolygonBackend, status: _Status) -> dict:
    rigid = polygon.enumerate_rigid(b)
    tris = polygon.triangulations_among(b, rigid)
    pt = polygon.enumerate_ptolemy(b)
    # Rigid sets are closed under subsets, so a rigid set is maximal when
    # every arc outside it crosses one of its members.
    cross = b.crossing_masks
    everything = Subcat.everything(b).bits
    maximal = {
        s.bits
        for s in rigid
        if all(cross[a] & s.bits for a in iter_bits(everything & ~s.bits))
    }
    status.check(
        "triangulations are exactly the maximal non-crossing sets",
        {s.bits for s in tris} == maximal,
    )
    status.check(
        "every triangulation is closed under crossing resolution",
        all(polygon.is_ptolemy(b, s) for s in tris),
    )
    return {
        "rigid": len(rigid),
        "triangulations": len(tris),
        "crossing_closed": len(pt),
    }


def _suite_counts(args: argparse.Namespace, status: _Status) -> dict:
    if isinstance(status.backend, polygon.PolygonBackend):
        return _suite_counts_polygon(status.backend, status)
    engine = status.engine
    enum = engine.enumerate_cotorsion()
    dual = enumerate_by_second_class(engine)
    status.check(
        "first-class sweep and second-class sweep find the same pairs",
        {p.key() for p in enum.pairs} == {p.key() for p in dual},
    )
    zero, whole = trivial_pairs(engine)
    status.check(
        "both one-sided trivial pairs are present",
        {zero.key(), whole.key()} <= {p.key() for p in enum.pairs},
    )
    twins, concentric = engine.twin_masks()
    return {
        "cotorsion_pairs": len(enum.pairs),
        "twin_pairs": sum(m.bit_count() for m in twins),
        "concentric_twin_pairs": sum(m.bit_count() for m in concentric),
    }


def _both(p: TwinCotorsionPair, v1: Verdict, v2: Verdict) -> Verdict:
    """Conjunction of two verdicts (no dominates, then inconclusive);
    a no or an inconclusive is named by the twin pair."""
    if v1.is_no or v2.is_no:
        return Verdict.no(reason=_tcp_name(p))
    if v1.is_yes and v2.is_yes:
        return Verdict.yes()
    return Verdict.inconclusive(reason=_tcp_name(p))


def _suite_conditions(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    rows = []
    for p in engine.concentric_tcps():
        v2 = engine.check_condition_II(p)
        v3 = engine.check_condition_III(p)
        v1 = engine.check_condition_I(p)
        rows.append(
            {
                "twin": p.as_labels(),
                "condition_I": status.note(v1),
                "condition_II": status.note(v2),
                "condition_III": status.note(v3),
            }
        )
        if v3.is_yes:
            status.claim(
                "two-sided vanishing implies both one-sided conditions",
                _both(p, v1, v2),
                p,
            )
    return {"checked": len(rows), "twin_pairs": rows}


def _suite_hovey(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    rows = []
    everything = sorted(Subcat.everything(engine.backend).labels())
    widest = trivial_hovey_tcp(engine).key()
    for p in engine.concentric_tcps():
        verdict, n = engine.is_hovey(p)
        row: dict[str, Any] = {"twin": p.as_labels(), "hovey": status.note(verdict)}
        if n is not None:
            row["hovey_class"] = sorted(n.labels())
        rows.append(row)
        found = verdict.is_yes and n is not None
        if p.flags()["degenerate"]:
            status.check(
                "doubled pair is compatible with the all-object class",
                found and sorted(n.labels()) == everything,
                p,
            )
        if p.key() == widest:
            status.check(
                "widest twin pair is compatible with the empty class",
                found and n.bits == 0,
                p,
            )
        status.check(
            "each class is recovered as a perpendicular of its partner",
            p.u == left_perp(p.v) and p.t == right_perp(p.s),
            p,
        )
    return {"checked": len(rows), "twin_pairs": rows}


_INVERSE_SHIFTS = "suspension and loop are mutually inverse on classes"


def _suite_adjunction(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    rows = []
    for p in engine.concentric_tcps():
        q = ZIQuotient.for_pair(engine, p)
        reps = q.zi_objects()
        ok = True
        for x in reps:
            for y in reps:
                lhs = q.hom_mod_I(q.shift(Obj.of(x), 1), Obj.of(y)).dim
                rhs = q.hom_mod_I(Obj.of(x), q.shift(Obj.of(y), -1)).dim
                if lhs != rhs:
                    ok = False
        status.check("shift adjunction on quotient dimensions", ok, p)
        # The inverse laws need both conditions; unknown ones leave the
        # claim undecided rather than unmade.
        premises = _both(p, engine.check_condition_I(p), engine.check_condition_II(p))
        if premises.is_inconclusive:
            status.claim(_INVERSE_SHIFTS, premises, p)
        elif premises.is_yes:
            inverse = True
            for r in reps:
                fwd = q.class_of(q.shift(q.shift(Obj.of(r), -1), 1))
                back = q.class_of(q.shift(q.shift(Obj.of(r), 1), -1))
                if fwd != q.class_of(Obj.of(r)) or back != q.class_of(Obj.of(r)):
                    inverse = False
            status.check(_INVERSE_SHIFTS, inverse, p)
        rows.append({"twin": p.as_labels(), "objects": len(reps)})
    return {"checked": len(rows), "twin_pairs": rows}


def _suite_bijection(args: argparse.Namespace, status: _Status) -> dict:
    engine = status.engine
    targets: list[TwinCotorsionPair] = [trivial_hovey_tcp(engine)]
    for cp in engine.enumerate_cotorsion().pairs:
        targets.append(engine.make_tcp(cp, cp))
    for p in engine.concentric_tcps():
        if p.flags()["zz_setting"]:
            targets.append(p)
    seen: set[tuple[int, int, int, int]] = set()
    rows = []
    for p in targets:
        if p.key() in seen:
            continue
        seen.add(p.key())
        me = MutationEngine(engine, p)
        row: dict[str, Any] = {
            "twin": p.as_labels(),
            "condition_I": status.note(me.cond_I),
            "condition_II": status.note(me.cond_II),
        }
        rows.append(row)
        if not me.preconditions_met:
            status.claim(
                "quotient conditions hold on the designated twin pair",
                _both(p, me.cond_I, me.cond_II),
                p,
            )
            continue
        report = me.verify_bijection()
        row["mutable_count"] = report["mutable_count"]
        row["quotient_count"] = report["quotient_count"]
        status.claim(
            "descent and lift are mutually inverse bijections",
            Verdict.yes()
            if report["ok"]
            else Verdict.no(
                reason="; ".join(f["kind"] for f in report["failures"])
            ),
            p,
        )
    return {"checked": len(rows), "twin_pairs": rows}


_SUITE_FUNCS: dict[str, Callable[[argparse.Namespace, _Status], dict]] = {
    "counts": _suite_counts,
    "conditions": _suite_conditions,
    "hovey": _suite_hovey,
    "adjunction": _suite_adjunction,
    "bijection": _suite_bijection,
}


def _cmd_verify(args: argparse.Namespace, status: _Status) -> dict:
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    results: dict[str, Any] = {}
    for name in names:
        # ``--suite all`` skips every suite past counts on backends
        # without exact triangles; one asked for by name refuses instead.
        if (args.suite == "all" and name != "counts"
                and not status.backend.exact_triangles):
            results[name] = {"skipped": "backend lacks capability exact_triangles"}
        else:
            results[name] = _SUITE_FUNCS[name](args, status)
    return {"suites": results, "claims": status.claims}


# -- backend matching --------------------------------------------------------


def _shift_orbits(b: Backend) -> list[list[int]]:
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for i in range(len(b.indecs)):
        if i in seen:
            continue
        orb = [i]
        seen.add(i)
        j = b.shift_id(i, 1)
        while j != i:
            orb.append(j)
            seen.add(j)
            j = b.shift_id(j, 1)
        orbits.append(orb)
    return orbits


def match_backends(a: Backend, b: Backend) -> Optional[dict[str, str]]:
    """Bijection matching degree-one incidence and conjugating the shift.

    Exact backtracking over shift orbits: picking the image of one orbit
    member forces the whole orbit, so the branching factor is the number
    of same-length orbits rather than the number of indecomposables.
    """
    ka, kb = len(a.indecs), len(b.indecs)
    if ka != kb:
        return None
    if ka > MAX_MATCH_INDECS:
        raise InputError(
            f"exact matching is limited to {MAX_MATCH_INDECS} indecomposables"
        )
    orbits = sorted(_shift_orbits(a), key=len, reverse=True)
    orbit_len_b = {}
    for orb in _shift_orbits(b):
        for i in orb:
            orbit_len_b[i] = len(orb)
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def _consistent(new: dict[int, int]) -> bool:
        pool = list(assignment.items()) + list(new.items())
        for x, fx in new.items():
            for y, fy in pool:
                if a.ext_incidence(x, y) != b.ext_incidence(fx, fy):
                    return False
                if a.ext_incidence(y, x) != b.ext_incidence(fy, fx):
                    return False
        return True

    def _place(idx: int) -> bool:
        if idx == len(orbits):
            return True
        orb = orbits[idx]
        for start in range(kb):
            if start in used or orbit_len_b.get(start) != len(orb):
                continue
            new: dict[int, int] = {}
            tgt = start
            for x in orb:
                new[x] = tgt
                tgt = b.shift_id(tgt, 1)
            if any(fx in used for fx in new.values()):
                continue
            if not _consistent(new):
                continue
            assignment.update(new)
            used.update(new.values())
            if _place(idx + 1):
                return True
            for x in new:
                used.discard(assignment.pop(x))
        return False

    if not _place(0):
        return None
    for x in range(ka):
        if assignment[a.shift_id(x, 1)] != b.shift_id(assignment[x], 1):
            raise InternalCheckError("matching does not conjugate the shift")
        for y in range(ka):
            if a.ext_incidence(x, y) != b.ext_incidence(
                assignment[x], assignment[y]
            ):
                raise InternalCheckError("matching breaks incidence")
    return {
        a.label_of(x): b.label_of(fx) for x, fx in sorted(assignment.items())
    }


def _cmd_match_backends(args: argparse.Namespace, status: _Status) -> dict:
    ba = build_backend(args.spec_a)
    bb = build_backend(args.spec_b)
    found = match_backends(ba, bb)
    return {
        "spec_a": args.spec_a,
        "spec_b": args.spec_b,
        "size_a": len(ba.indecs),
        "size_b": len(bb.indecs),
        "match": found,
    }


# -- argument wiring ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cotor",
        description=(
            "Enumerate, reduce, and mutate cotorsion-pair structures over "
            "small triangulated categories."
        ),
    )
    top.add_argument(
        "--version", action="version", version=f"cotor {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--backend", help="backend spec, e.g. nakayama:m=2,n=2 or polygon:N=5"
    )
    common.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help="cap of the peel searches (chains of up to cap + 1 peels), which "
        "decide only the star T * U of condition (I) and the fixed-point "
        "stars of the mutable-class test, at least 2",
    )
    common.add_argument(
        "--out", help="write the report to this path instead of stdout"
    )
    common.add_argument(
        "--allow-inconclusive",
        action="store_true",
        help="exit 0 even when a search was inconclusive",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate-cp", parents=[common], help="list all cotorsion pairs"
    )
    p.set_defaults(func=_cmd_enumerate_cp)

    p = sub.add_parser(
        "enumerate-tcp", parents=[common], help="list all twin cotorsion pairs"
    )
    p.add_argument("--concentric", action="store_true")
    p.add_argument("--hovey", action="store_true")
    p.add_argument("--cond-I", action="store_true")
    p.add_argument("--cond-II", action="store_true")
    p.add_argument("--cond-III", action="store_true")
    p.set_defaults(func=_cmd_enumerate_tcp)

    p = sub.add_parser(
        "inspect-pair",
        parents=[common],
        help="check one candidate pair and show its perpendiculars",
    )
    p.add_argument("--pair", required=True, help='classes as "U=[..];V=[..]"')
    p.set_defaults(func=_cmd_inspect_pair)

    p = sub.add_parser(
        "reduce",
        parents=[common],
        help="build the subquotient of a twin pair and report its structure",
    )
    p.add_argument(
        "--tcp",
        required=True,
        help='twin pair: trivial-hovey, degenerate:U=[..];V=[..], '
        'or "S=[..];T=[..];U=[..];V=[..]"',
    )
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "mutate",
        parents=[common],
        help="mutate a cotorsion pair inside a twin pair's mutable class",
    )
    p.add_argument("--tcp", required=True)
    p.add_argument("--pair", required=True, help='classes as "U=[..];V=[..]"')
    p.add_argument("--k", type=int, required=True, help="mutation exponent")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run a verification suite and report per-claim verdicts",
    )
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "orbit-graph",
        parents=[common],
        help="emit the mutation orbit graph as DOT",
    )
    p.add_argument("--tcp", required=True)
    p.set_defaults(func=_cmd_orbit_graph)

    p = sub.add_parser(
        "match-backends",
        parents=[common],
        help="search for a structure-preserving bijection between backends",
    )
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.set_defaults(func=_cmd_match_backends)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 2) < 2:
        print("error: --cap must be at least 2", file=sys.stderr)
        return 2
    status = _Status(args.backend, args.cap)
    try:
        payload = args.func(args, status)
        if payload is not None:
            _emit_json(args, _envelope(args, payload))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CotorError as exc:  # InternalCheckError among them
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status.code(args.allow_inconclusive)


if __name__ == "__main__":
    raise SystemExit(main())
